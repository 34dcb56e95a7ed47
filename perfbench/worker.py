"""Run one workload in this (fresh, single-threaded) process and print its result.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE TRACE_PATH

One client sends the workload's requests in order, each after the previous
one has completed (a closed loop); a pass is the whole request list.  Passes
repeat until the next one would end after SECONDS, with at least
MIN_PASSES.  Outputs are checked after each pass, outside the timed region.

With TRACE 0 the result holds the end-to-end metrics, as medians over passes.
With TRACE 1 untraced and traced passes alternate, at least twice each; the
result holds the per-layer metrics of the traced passes, and the spans of the
last traced pass are written to TRACE_PATH.  The last line of stdout is the
result as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import scipy  # noqa: E402

import sud_estimate.cli  # noqa: E402
import probe  # noqa: E402
from run import THREAD_PINS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2  # so that every traced run checks that its counts repeat
TIME_SUFFIXES = ("busy_s", "self_s")


def execute(request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    value = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if request.argv is None:
                value = request.call()
                code = 0
            else:
                code = sud_estimate.cli.main(list(request.argv))
        except SystemExit as exc:  # argparse refusing the request
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what a CLI process would end with: a traceback and exit 1
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue(), value)


def run_pass(requests, tracer: Tracer | None = None) -> dict:
    outcomes, windows = [], []
    if tracer is not None:
        tracer.install()
    try:
        begin = time.perf_counter()
        for index, request in enumerate(requests):
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin_request(index)
            try:
                outcomes.append(execute(request))
            finally:
                if tracer is not None:
                    tracer.end_request()
            windows.append((start, time.perf_counter()))
        wall = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, unexpected, known = 0, [], []
    for request, outcome in zip(requests, outcomes):
        problems = request.check(outcome)
        if problems:
            failed += 1
            unexplained = request.unexplained(problems)
            if unexplained:
                unexpected.append(f"{request.label}: {'; '.join(unexplained)}")
            else:
                known.append(f"{request.label}: {request.defect}")
    return {
        "wall_s": wall,
        "windows": windows,
        "attempted": len(requests),
        "failed": failed,
        "unexpected": unexpected,
        "known": known,
        "output_bytes": sum(len(o.stdout.encode()) for o in outcomes),
    }


def _keep_going(durations: list[float], began: float, seconds: float, minimum: int) -> bool:
    if len(durations) < minimum:
        return True
    return time.perf_counter() - began + statistics.fmean(durations) <= seconds


def _totals(passes: list[dict]) -> dict:
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "unexpected": sorted({u for p in passes for u in p["unexpected"]}),
        "known": sorted({k for p in passes for k in p["known"]}),
    }


def measure(requests, seconds: float) -> dict:
    passes, durations = [], []
    began = time.perf_counter()
    with probe.Sampler() as sampler:
        while _keep_going(durations, began, seconds, MIN_PASSES):
            start = time.perf_counter()
            passes.append(run_pass(requests))
            durations.append(time.perf_counter() - start)
    # request latencies in reference seconds (see probe.py), one list per pass
    latencies = [[sampler.reference_seconds(*w) for w in p["windows"]] for p in passes]
    result = _totals(passes)
    result["raw_wall_s"] = statistics.median(p["wall_s"] for p in passes)
    result["metrics"] = {
        "wall_s": statistics.median(sum(per_pass) for per_pass in latencies),
        "slowest_request_s": statistics.median(max(per_pass) for per_pass in latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": 1.0 - result["failed"] / result["attempted"],
    }
    return result


def measure_traced(requests, seconds: float, trace_path: Path, workload: str, seed: int) -> dict:
    plain, traced, tracers, durations = [], [], [], []
    began = time.perf_counter()
    while _keep_going(durations, began, seconds, MIN_TRACED_PAIRS):
        start = time.perf_counter()
        plain.append(run_pass(requests))
        tracers.append(Tracer())
        traced.append(run_pass(requests, tracers[-1]))
        durations.append(time.perf_counter() - start)
    per_pass = [t.metrics() for t in tracers]
    metrics = {
        name: (statistics.median(m[name] for m in per_pass)
               if name.endswith(TIME_SUFFIXES) else value)
        for name, value in per_pass[0].items()
    }
    differ = [name for name in metrics if any(m[name] != metrics[name] for m in per_pass)
              and not name.endswith(TIME_SUFFIXES)]
    metrics["cli.output_bytes"] = traced[0]["output_bytes"]
    # each traced pass against the untraced pass just before it, which cancels slow drift
    metrics["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)
    ) - 1.0
    result = _totals(plain + traced)
    result["unexpected"] += [f"count {name} differs between traced passes" for name in differ]
    result["metrics"] = metrics
    _write_trace(trace_path, workload, seed, requests, tracers[-1], metrics)
    return result


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def _write_trace(path: Path, workload: str, seed: int, requests, tracer: Tracer, metrics) -> None:
    per_request = [
        {"id": i, "request": r.label, "known_defect": r.defect, "metrics": tracer.metrics(i)}
        for i, r in enumerate(requests)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "machine": machine(),
        "metrics": metrics,
        "requests": per_request,
        "spans": tracer.to_json(),
    }, indent=1, default=str) + "\n")


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, trace_path = argv
    seed, seconds = int(seed), float(seconds)
    requests = WORKLOADS[workload](seed)
    if trace == "1":
        result = measure_traced(requests, seconds, Path(trace_path), workload, seed)
    else:
        result = measure(requests, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

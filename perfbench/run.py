"""Benchmark of sud-estimate: three closed-loop workloads of CLI and library requests.

    python3 perfbench/run.py --workload {spectral,exact,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in a fresh Python process with BLAS and OpenMP pinned to
one thread (see worker.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the ``end_to_end`` metrics of ``BENCHMARK.json``
  (``setup_s``, ``wall_s``, ``slowest_request_s``, ``peak_rss_mb``,
  ``ops_ok_frac``);
* ``--trace 1``: its ``per_layer`` metrics, from traced passes, with the
  spans written to ``.perfbench-traces/<workload>-seed<N>.json``.

Names and units come from ``BENCHMARK.json``; README.md defines each metric.

``failed`` counts every request that failed its check, including those that
reproduce known defects (two requests of the exact workload always, a verify
request of the oracle workload on some seeds); ``correct`` is false when a
failure is not accounted for by a known defect.  Exits nonzero, without a
result line, when the package is missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import probe
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench-traces"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_IMPORTS = 5
# Times the import, then the speed probe; the probe is imported only after the
# package so that its own imports do not shorten the measured import.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sud_estimate.cli; "
    "t = time.perf_counter() - t; import json, sys; sys.path.insert(0, {bench!r}); "
    "import probe; print(json.dumps([t, [probe.time_kernel() for _ in range(40)]]))"
)
KERNEL_WARMUP = 10
IMPORT_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Median cold import of sud_estimate.cli, each in a fresh interpreter.

    One untimed import first writes the bytecode caches, as an installed
    package would have them.  Returns the median in reference seconds (each
    import divided by the probe's slowdown right after it) and in seconds.
    """
    scaled, raw = [], []
    for _ in range(SETUP_IMPORTS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(bench=str(BENCH))], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S, check=True,
        )
        seconds, kernel_times = json.loads(done.stdout)
        raw.append(seconds)
        scaled.append(seconds / probe.slowdown(kernel_times[KERNEL_WARMUP:]))
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not (SRC / "sud_estimate" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"{SPEC} not found", file=sys.stderr)
        return 2
    env = child_env()
    trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    try:
        setup, raw_setup = setup_seconds(env) if args.trace == "0" else (None, None)
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), args.trace, str(trace_path)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"worker exited {done.returncode}\n{done.stderr}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for problem in result["known"]:
        print(f"known defect reproduced: {problem}", file=sys.stderr)
    for problem in result["unexpected"]:
        print(f"unexpected failure: {problem}", file=sys.stderr)

    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = setup
        print(f"unscaled: setup {raw_setup:.4f} s, wall {result['raw_wall_s']:.4f} s",
              file=sys.stderr)
    declared = json.loads(SPEC.read_text())["end_to_end" if setup is not None else "per_layer"]
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

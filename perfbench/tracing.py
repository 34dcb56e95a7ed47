"""Span recording from outside the package, and the per-layer metrics derived from it.

Every public function of each layer module (its ``__all__``, or its
non-underscore functions when it has none) is wrapped, and the wrapper is
bound in place of every attribute of every ``sud_estimate`` module that holds
the same function object, because ``cli`` and ``risk`` import names directly.
Nothing in the package changes; ``uninstall`` restores the original bindings.

A record is a span: name, first start, last end, parent record and request
id.  Calls of one function under one parent record are folded into one record
that also keeps the call count and total time, so a request that calls a
partition helper 600,000 times keeps one record, not 600,000; a record with
one call is an ordinary span.  A record's self time is its total time minus
the total time of its child records.  Records stay in memory until
``to_json``.

Counts come from the objects the wrapped functions return
(``IncidenceStructure.matrix.nnz``, ``SpectralResult.iterations/residual``,
the quadrature rule's node and confluent-row counts, list lengths), except
where a metric says it is computed from the call's arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "sud_estimate"
# ``errors`` does no work; ``cache`` feeds no computation and is due to be deleted.
LAYERS = ("partitions", "weights", "risk", "spectral", "asymptotics", "characters", "cli")
REQUEST_SPAN = "bench.request"

# Self time of these functions adds up to the named busy-time metric.
BUSY_GROUPS = {
    "risk.exact.busy_s": ("risk.exact_risk", "risk.cauchy_schwarz_bound_check"),
    "risk.float.busy_s": ("risk.float_risk",),
    "risk.expansion.busy_s": ("risk.expansion_diagnostics",),
    "spectral.incidence.busy_s": ("spectral.build_incidence",),
    "spectral.eig.busy_s": ("spectral.max_eigenpair",),
    "asymptotics.constant.busy_s": (
        "asymptotics.exact_constant", "asymptotics.constant_integrands",
        "asymptotics.weighted_simplex_integral", "asymptotics.simplex_monomial_integral",
        "asymptotics.constant_for_constraint",
    ),
    "asymptotics.riemann.busy_s": (
        "asymptotics.riemann_constant", "asymptotics.gap_lattice", "asymptotics.riemann_trace",
    ),
    "characters.grid.busy_s": ("characters.haar_quadrature", "characters.min_resolution"),
    "characters.quad.busy_s": ("characters.quadrature_risk",),
    "characters.ortho.busy_s": ("characters.orthogonality_defect", "characters.su_equivalent"),
    "characters.pieri.busy_s": (
        "characters.pieri_residual", "characters.schur_eval", "characters.random_torus_points",
    ),
}
# Whole-layer self time.
LAYER_BUSY = {"partitions.busy_s": "partitions", "weights.busy_s": "weights", "cli.self_s": "cli"}


def _level_args(arguments, result):
    args = arguments()
    return args["d"], args["n"]


def _float_risk(arguments, result):
    args = arguments()
    return args["d"], args["n"], math.isfinite(result)


def _weights(arguments, result):
    """(scalar arguments, d, level, support size) of a returned WeightVector."""
    if not (hasattr(result, "entries") and hasattr(result, "level")):
        return None
    key = tuple(
        (name, value) for name, value in arguments().items()
        if isinstance(value, (str, int, float))
    )
    return key, result.d, result.level, len(result.entries)


# Fact extractors: (arguments thunk, return value) -> a fact kept on the record.
FACTS = {
    "partitions.enumerate_partitions": lambda a, r: len(r),
    "risk.exact_risk": _level_args,
    "risk.float_risk": _float_risk,
    "risk.expansion_diagnostics": _level_args,
    "spectral.build_incidence": lambda a, r: (r.d, r.level, r.support, int(r.matrix.nnz)),
    "spectral.max_eigenpair": lambda a, r: (
        r.d, r.level, r.support, r.iterations, r.residual, r.eigmax,
    ),
    "asymptotics.gap_lattice": lambda a, r: (a()["d"], a()["m"]),
    "characters.haar_quadrature": lambda a, r: (
        r.d, r.resolution, int(r.weights.shape[0]), len(getattr(r, "_confluent_rows", ())),
    ),
    "characters.quadrature_risk": _level_args,
}


class Record:
    __slots__ = ("index", "name", "parent", "request", "start", "end", "calls", "total", "facts")

    def __init__(self, index: int, name: str, parent: "Record | None", request: int | None):
        self.index = index
        self.name = name
        self.parent = parent
        self.request = request
        self.start = time.perf_counter()
        self.end = self.start
        self.calls = 0
        self.total = 0.0
        self.facts = []

    def to_json(self, self_time: float) -> dict:
        return {
            "name": self.name, "parent": None if self.parent is None else self.parent.index,
            "request": self.request, "start": self.start, "end": self.end,
            "calls": self.calls, "total_s": self.total, "self_s": self_time,
            "facts": self.facts,
        }


def public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Wraps the package's public functions and records one pass of requests."""

    def __init__(self):
        self.records = [Record(0, "bench", None, None)]
        self._stack = [self.records[0]]
        self._children: dict[tuple[int, str], Record] = {}
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, func in public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{name}", func)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is func:
                            self._bindings.append((namespace, attr, func))
                            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, func in reversed(self._bindings):
            setattr(namespace, attr, func)
        self._bindings.clear()

    def _record(self, parent: Record, name: str) -> Record:
        key = (parent.index, name)
        record = self._children.get(key)
        if record is None:
            record = Record(len(self.records), name, parent, parent.request)
            self._children[key] = record
            self.records.append(record)
        return record

    def _wrap(self, name: str, func):
        stack, perf = self._stack, time.perf_counter
        fact = FACTS.get(name) or (_weights if name.startswith("weights.") else None)
        signature = inspect.signature(func) if fact else None
        last = [None, None]  # parent and record of the previous call

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent is not last[0]:
                last[0], last[1] = parent, self._record(parent, name)
            record = last[1]
            stack.append(record)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                record.calls += 1
                record.total += end - start
                record.end = end
            if fact is not None:
                found = fact(lambda: arguments(args, kwargs), result)
                if found is not None:
                    record.facts.append(found)
            return result

        return wrapper

    def begin_request(self, request: int) -> None:
        root = Record(len(self.records), f"{REQUEST_SPAN}#{request}", self.records[0], request)
        self.records.append(root)
        self._stack.append(root)

    def end_request(self) -> None:
        record = self._stack.pop()
        record.end = time.perf_counter()
        record.calls = 1
        record.total = record.end - record.start

    def self_times(self) -> list[float]:
        child_total = [0.0] * len(self.records)
        for record in self.records:
            if record.parent is not None:
                child_total[record.parent.index] += record.total
        return [r.total - c for r, c in zip(self.records, child_total)]

    def to_json(self) -> list[dict]:
        return [r.to_json(s) for r, s in zip(self.records, self.self_times())]

    def metrics(self, request: int | None = None) -> dict[str, float]:
        """Per-layer metrics over all requests, or over one request."""
        chosen = [r for r in self.records if request is None or r.request == request]
        self_time = self.self_times()
        busy = defaultdict(float)
        calls = defaultdict(int)
        facts = defaultdict(list)
        for r in chosen:
            busy[r.name] += self_time[r.index]
            calls[r.name] += r.calls
            facts[r.name].extend(r.facts)

        def layer_of(name):
            return name.split(".", 1)[0]

        out = {}
        for metric, names in BUSY_GROUPS.items():
            out[metric] = sum(busy[n] for n in names)
        for metric, layer in LAYER_BUSY.items():
            out[metric] = sum(t for n, t in busy.items() if layer_of(n) == layer)

        out["partitions.calls"] = sum(c for n, c in calls.items() if layer_of(n) == "partitions")
        out["partitions.enumerated"] = sum(facts["partitions.enumerate_partitions"])

        # A build is an outermost weights call returning a WeightVector; builds
        # per level divides by the distinct (request, arguments) pairs built.
        builds = [
            (r.request, fact)
            for r in chosen
            if layer_of(r.name) == "weights" and layer_of(r.parent.name) != "weights"
            for fact in r.facts
        ]
        out["weights.support"] = sum(fact[3] for _, fact in builds)
        distinct = {(req, fact[0], fact[1], fact[2]) for req, fact in builds}
        out["weights.builds_per_level"] = len(builds) / len(distinct) if distinct else 0.0

        risk_levels = (
            facts["risk.exact_risk"] + facts["risk.expansion_diagnostics"]
            + [f[:2] for f in facts["risk.float_risk"]]
        )
        out["risk.children"] = sum(count_partitions(d, n + 1) for d, n in risk_levels)
        out["risk.nonfinite"] = sum(1 for f in facts["risk.float_risk"] if not f[2])

        out["spectral.nnz"] = sum(f[3] for f in facts["spectral.build_incidence"])
        solves = [
            (r.request, fact) for r in chosen if r.name == "spectral.max_eigenpair"
            for fact in r.facts
        ]
        out["spectral.iterations"] = sum(f[3] for _, f in solves)
        out["spectral.iterations_max"] = max((f[3] for _, f in solves), default=0)
        out["spectral.residual_max"] = max((f[4] / f[5] for _, f in solves), default=0.0)
        levels = {(req, f[0], f[1]) for req, f in solves}
        out["spectral.solves_per_level"] = len(solves) / len(levels) if levels else 0.0

        out["asymptotics.lattice_cells"] = sum(
            lattice_cells(d, m) for d, m in facts["asymptotics.gap_lattice"]
        )

        rules = facts["characters.haar_quadrature"]
        nodes = sum(f[2] for f in rules)
        out["characters.nodes"] = nodes
        out["characters.confluent_share"] = sum(f[3] for f in rules) / nodes if nodes else 0.0
        # node_excess: nodes of the rules built inside quadrature_risk over the
        # exact-bandwidth minimum (2(N+d+1)+1)^(d-1) at the same level.
        quad_nodes = 0
        quad_minimum = 0
        for r in chosen:
            if r.name == "characters.quadrature_risk":
                quad_minimum += sum((2 * (n + d + 1) + 1) ** (d - 1) for d, n in r.facts)
            elif (r.name == "characters.haar_quadrature"
                  and r.parent.name == "characters.quadrature_risk"):
                quad_nodes += sum(f[2] for f in r.facts)
        out["characters.node_excess"] = quad_nodes / quad_minimum if quad_minimum else 0.0
        return out


@functools.lru_cache(maxsize=None)
def count_partitions(d: int, n: int) -> int:
    """Partitions of n into at most d parts (computed, not measured)."""
    ways = [1] + [0] * n  # partitions into parts of size <= d, i.e. at most d parts
    for part in range(1, d + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def lattice_cells(d: int, m: int) -> int:
    """Cells of the dense mesh gap_lattice(d, m) builds, computed from its shape."""
    cells = 1
    for j in range(2, d + 1):
        cells *= m // j + 1
    return cells

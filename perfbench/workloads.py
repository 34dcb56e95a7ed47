"""Request lists of the three workloads, and the reference check of every request.

A request is one in-process call to ``sud_estimate.cli.main(argv)`` (or, for
``expansion_diagnostics``, to the library function) with its output captured.
A request fails when it exits nonzero, prints a NaN or Inf, or fails its
reference check.  Exact rationals are compared with values pinned in
``refs.json`` (written by ``pin.py``); float paths are compared with the same
pinned values to 1e-9 relative.

The seed shifts every ``-N`` level by an even offset in {-2, 0, +2}.  The
offset is even because the d=2 power iteration needs about 20 % more
iterations at even N than at odd N, which would swamp the comparison between
runs; with even offsets the work per run stays within about 2 %.  ``verify``
takes the seed as its ``--seed``; its ``--n-max`` is not shifted, because one
level more grows the d=4 grid by about 1.6 times.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
OFFSETS = (0, 2, -2)
REL_TOL = 1e-9
SOLVER_TOL = 1e-12  # the CLI's default --tol, which the reports echo

# ROADMAP "Known defects" that requests of the exact workload reproduce.
DEFECT_NAN = "float_risk overflows silently: power:60 at d=2 N~400 prints NaN"
DEFECT_FIT = "two-level sweep exits 2 with 'degenerate fit window'"
# Not in the ROADMAP list yet.  schur_eval divides alternants until two
# eigenvalues are within 1e-8, where it switches to divided differences, but it
# loses precision well above that gap: verify -d 4 --n-max 4 --seed 290127639
# draws a point with a pair 1.25e-5 apart, and the branching residual there is
# 6.2e-9, above verify's 1e-9.  About one seed in a hundred fails this way at d=4.
DEFECT_CONFLUENT = "schur_eval inexact near confluent points: verify branching-pointwise fails"
VERIFY_POINTS = 100  # the CLI's default --points, passed so that the sample is known here
BRANCHING_CHECK = "branching-pointwise"
BRANCHING_MAX_LEVEL = 6  # verify checks the branching identity up to min(n_max, 6)
IDENTITY_TOL = 1e-12  # the identity at the sample, evaluated without division
VERIFY_FAILED_EXIT = 1  # the CLI's exit code for a verify report with a failed check


def level_offset(seed: int) -> int:
    return OFFSETS[seed % len(OFFSETS)]


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    value: Any = None  # return value of a library request


@dataclass(frozen=True)
class Request:
    label: str
    argv: tuple[str, ...] | None  # None for a library request
    check: Callable[[Outcome], list[str]]
    call: Callable[[], Any] | None = None
    defect: str | None = None  # known defect this request reproduces, or may reproduce
    # which problems that defect accounts for; None: every problem of the request
    explains: Callable[[str], bool] | None = None

    def unexplained(self, problems: list[str]) -> list[str]:
        """The problems that no known defect of this request accounts for."""
        if self.defect is None:
            return problems
        if self.explains is None:
            return []
        return [p for p in problems if not self.explains(p)]


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in output")


def _report(outcome: Outcome, problems: list[str], codes=(0,)) -> dict | None:
    """The JSON report of a request that exited with one of ``codes``."""
    if outcome.code not in codes:
        problems.append(f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}")
        return None
    try:
        return json.loads(outcome.stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"unreadable report: {exc}")
        return None


def _close(got, want: float, what: str, problems: list[str]) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= REL_TOL * abs(want):
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _equal(got, want, what: str, problems: list[str]) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _rows(report: dict, levels: list[int], problems: list[str]) -> list[dict]:
    rows = report.get("rows", [])
    _equal([row.get("N") for row in rows], levels, "sweep levels", problems)
    return rows if len(rows) == len(levels) else []


def spaced(start: int, stop: int, step: int, offset: int) -> list[int]:
    return list(range(start + offset, stop + offset + 1, step))


def _span(levels: list[int]) -> str:
    step = levels[1] - levels[0]
    return f"{levels[0]}:{levels[-1]}:{step}"


class Pins:
    """Reference values computed at the seed commit, for one level offset."""

    def __init__(self, offset: int):
        self._values = json.loads(REFS_PATH.read_text())[str(offset)]

    def exact(self, d: int, n: int, scheme: str) -> Fraction:
        return Fraction(self._values[f"risk:{d}:{n}:{scheme}"])

    def optimal(self, d: int, n: int, support: str) -> float:
        return self._values[f"optimal:{d}:{n}:{support}"]


def path_graph_risk(n: int) -> float:
    """Optimal d=2 risk: the incidence form is a path graph, eigmax = 4cos^2(pi/(N+3))."""
    return math.sin(math.pi / (n + 3)) ** 2


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_sweep(levels: list[int], want: Callable[[int], float], exact=None):
    """Rows at exactly ``levels``, risk_float close to ``want(N)``, exact risk ``exact(N)``."""
    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        report = _report(outcome, problems)
        if report is None:
            return problems
        for row in _rows(report, levels, problems):
            n = row["N"]
            _close(row.get("risk_float"), want(n), f"risk_float at N={n}", problems)
            if exact is not None:
                _equal(Fraction(row["risk"]) if "risk" in row else None,
                       exact(n), f"exact risk at N={n}", problems)
        return problems

    return check


def _check_optimal(d: int, n: int, pins: Pins, optimal_risk: float):
    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        report = _report(outcome, problems)
        if report is None:
            return problems
        _close(report.get("optimal_risk"), optimal_risk, "optimal_risk", problems)
        _close(report.get("full_optimal_risk"), optimal_risk, "full_optimal_risk", problems)
        _close(report.get("strict_optimal_risk"), pins.optimal(d, n, "strict"),
               "strict_optimal_risk", problems)
        _equal(Fraction(report.get("product_risk") or "0"), pins.exact(d, n, "product"),
               "product_risk", problems)
        eigmax = report.get("eigmax", 0.0)
        if not report.get("residual", math.inf) <= SOLVER_TOL * eigmax:
            problems.append(f"residual {report.get('residual')} above {SOLVER_TOL} * {eigmax}")
        negative = [c["parts"] for c in report.get("coefficients", []) if Fraction(c["weight"]) < 0]
        if negative or not report.get("coefficients"):
            problems.append(f"negative or missing coefficients: {negative[:3]}")
        return problems

    return check


def _check_risk(d: int, n: int, scheme: str, pins: Pins):
    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        report = _report(outcome, problems)
        if report is not None:
            _equal(Fraction(report.get("risk", "0")), pins.exact(d, n, scheme), "risk", problems)
        return problems

    return check


def _check_constant(levels: list[int]):
    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        report = _report(outcome, problems)
        if report is None:
            return problems
        _equal(Fraction(report.get("exact", "0")), Fraction(275), "C(4)", problems)
        rows = report.get("riemann", [])
        _equal([row.get("N") for row in rows], levels, "riemann levels", problems)
        for row in rows:
            # the lattice sum converges like 275 + 7.7e3/N at these levels
            if not abs(row["value"] - 275) <= 1e4 / row["N"]:
                problems.append(f"riemann estimate {row['value']} at N={row['N']} off 275")
        return problems

    return check


def _check_expansion(want: Fraction):
    def check(outcome: Outcome) -> list[str]:
        diag = outcome.value
        problems: list[str] = []
        if outcome.code != 0:
            return [f"raised: {outcome.stderr.strip()[-200:]}"]
        _equal(diag.c_t, diag.c_u, "c_t vs c_u", problems)
        _equal(diag.t1, diag.u1, "t1 vs u1", problems)
        _equal(diag.risk_from_expansion(), want, "risk from expansion", problems)
        return problems

    return check


def _check_verify(outcome: Outcome) -> list[str]:
    """One problem per failed check of the report, named first."""
    problems: list[str] = []
    report = _report(outcome, problems, codes=(0, VERIFY_FAILED_EXIT))
    if report is None:
        return problems
    if (outcome.code == 0) != (report.get("pass") is True):
        problems.append(f"exit code {outcome.code} with pass {report.get('pass')!r}")
    checks = report.get("checks") or []
    for c in checks:
        if not c.get("pass"):
            problems.append(f"{c.get('name')}: error {c.get('max_error')!r} above "
                            f"{c.get('tolerance')!r}")
    if not checks or (report.get("pass") is not True and not problems):
        problems.append(f"verify did not pass: {len(checks)} checks reported")
    return problems


def _complete_homogeneous(z: np.ndarray, k_max: int) -> np.ndarray:
    """h_0 .. h_k_max of each row of ``z``, one row per point, shape (k_max + 1, points).

    Adds one variable at a time: h_k(z_1..z_m) = h_k(z_1..z_m-1) + z_m h_k-1(z_1..z_m).
    """
    h = np.zeros((k_max + 1, len(z)), dtype=complex)
    h[0] = 1.0
    for column in z.T:
        for k in range(1, k_max + 1):
            h[k] += column * h[k - 1]
    return h


def _jacobi_trudi(parts: tuple[int, ...], h: np.ndarray) -> np.ndarray:
    """Schur polynomial at each point as det(h_(lambda_i - i + j)), which divides by nothing."""
    rows = len(parts)
    index = np.array([[parts[i] - i + j for j in range(rows)] for i in range(rows)])
    entries = np.where((index >= 0)[..., None], h[np.clip(index, 0, None)], 0.0)
    return np.linalg.det(np.moveaxis(entries, -1, 0))


@functools.lru_cache(maxsize=None)
def branching_identity_residual(d: int, n_max: int, seed: int) -> float:
    """verify's branching residual on its own sample, with Jacobi-Trudi for schur_eval.

    Children come from the package's ``pieri_add``, as in ``pieri_residual``.
    """
    from sud_estimate.characters import pieri_add, random_torus_points
    from sud_estimate.partitions import enumerate_partitions

    z = np.array([p.eigenvalues for p in random_torus_points(d, VERIFY_POINTS, seed=seed)])
    h = _complete_homogeneous(z, BRANCHING_MAX_LEVEL + d + 1)
    worst = 0.0
    for n in range(min(n_max, BRANCHING_MAX_LEVEL) + 1):
        for parts in enumerate_partitions(d, n):
            lhs = _jacobi_trudi(parts, h) * z.sum(axis=1)
            rhs = sum(_jacobi_trudi(child, h) for _, child in pieri_add(parts))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _rounding_in_schur_eval(d: int, n_max: int, seed: int) -> Callable[[str], bool]:
    """Whether a problem is DEFECT_CONFLUENT: a failed branching check at a sample
    where the identity holds when the characters are evaluated without division."""
    def explains(problem: str) -> bool:
        return (problem.startswith(f"{BRANCHING_CHECK}: ")
                and branching_identity_residual(d, n_max, seed) <= IDENTITY_TOL)

    return explains


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _cli(check, *words, defect: str | None = None, explains=None) -> Request:
    argv = tuple(str(w) for w in words)
    return Request(" ".join(argv), argv + ("--no-timestamp",), check,
                   defect=defect, explains=explains)


def spectral(seed: int) -> list[Request]:
    o = level_offset(seed)
    pins = Pins(o)
    d2 = spaced(101, 401, 60, o)
    d3 = spaced(30, 120, 30, o)
    n2, n3 = 401 + o, 120 + o
    return [
        _cli(_check_sweep(d2, path_graph_risk),
             "sweep", "-d", 2, "-N", _span(d2), "--scheme", "optimal", "--workers", 1),
        _cli(_check_optimal(2, n2, pins, path_graph_risk(n2)), "optimal", "-d", 2, "-N", n2),
        _cli(_check_sweep(d3, lambda n: pins.optimal(3, n, "full")),
             "sweep", "-d", 3, "-N", _span(d3), "--scheme", "optimal", "--workers", 1),
        _cli(_check_optimal(3, n3, pins, pins.optimal(3, n3, "full")),
             "optimal", "-d", 3, "-N", n3),
    ]


def exact(seed: int) -> list[Request]:
    o = level_offset(seed)
    pins = Pins(o)
    n600, n80, n400 = 600 + o, 80 + o, 400 + o
    exact_levels = spaced(100, 400, 100, o)
    float_levels = spaced(60, 420, 60, o)
    riemann = spaced(200, 600, 200, o)
    power60 = spaced(380, 400, 10, o)
    two = spaced(390, 400, 10, o)

    def pinned(d, scheme):
        return lambda n: pins.exact(d, n, scheme)

    def as_float(d, scheme):
        return lambda n: float(pins.exact(d, n, scheme))

    def expansion():
        from sud_estimate import risk  # looked up per call so a traced run sees the wrapper

        return risk.expansion_diagnostics(3, n400)

    return [
        _cli(_check_risk(3, n600, "product", pins), "risk", "-d", 3, "-N", n600),
        _cli(_check_sweep(exact_levels, as_float(3, "product"), pinned(3, "product")),
             "sweep", "-d", 3, "-N", _span(exact_levels), "--exact", "--workers", 1),
        _cli(_check_sweep(float_levels, as_float(3, "product")),
             "sweep", "-d", 3, "-N", _span(float_levels), "--workers", 1),
        _cli(_check_risk(4, n80, "power:3", pins),
             "risk", "-d", 4, "-N", n80, "--scheme", "power:3"),
        _cli(_check_constant(riemann), "constant", "-d", 4, "--riemann", _span(riemann)),
        Request(f"expansion_diagnostics(3, {n400})", None,
                _check_expansion(pins.exact(3, n400, "product")), call=expansion),
        _cli(_check_sweep(power60, as_float(2, "power:60")),
             "sweep", "-d", 2, "-N", _span(power60), "--scheme", "power:60", "--workers", 1,
             defect=DEFECT_NAN),
        _cli(_check_sweep(two, as_float(2, "product")),
             "sweep", "-d", 2, "-N", _span(two), "--workers", 1, defect=DEFECT_FIT),
    ]


def oracle(seed: int) -> list[Request]:
    # Some seeds reproduce DEFECT_CONFLUENT; a failure of any other check stays unexpected.
    return [
        _cli(_check_verify, "verify", "-d", d, "--n-max", n_max, "--seed", seed,
             "--points", VERIFY_POINTS, defect=DEFECT_CONFLUENT,
             explains=_rounding_in_schur_eval(d, n_max, seed))
        for d, n_max in ((3, 10), (4, 4))
    ]


WORKLOADS = {"spectral": spectral, "exact": exact, "oracle": oracle}

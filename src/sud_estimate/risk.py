"""Exact risk of a coefficient scheme and its large-N expansion diagnostics.

For a scheme c over the partitions of level N the figure of merit is

    risk = 1 - sum_{lambda'} ( sum_{i in S(lambda')} c(lambda' - e_i) )^2
               / ( d^2 * sum_lambda c(lambda)^2 ),

where lambda' runs over the partitions of level N+1 and S(lambda') is the set
of rows from which a box can be removed.  The numerator couples each level-
(N+1) partition to its level-N parents; risk = 0 would need every inner sum
to saturate Cauchy-Schwarz simultaneously, and the shape of the best
achievable deficit is what drives the 1/N^2 estimation rate.

The inner sums are the entries of B c, where B is the 0/1 box-removal
incidence matrix between the partitions of level N+1 and level N, so the
numerator is ||B c||^2.  B is built in one place (``_box_removal``) as an
:class:`IncidenceStructure`, which also serves the spectral optimum.  The
risk is computed in one arithmetic: Python ints on the scheme's integer form
(numerators over a common denominator), giving an exact rational;
``float_risk`` is its nearest float.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import EmptySumError, EmptySupportError
from .partitions import partition_table
from .weights import Scheme, WeightVector, parse_scheme, scheme_weights

__all__ = [
    "IncidenceStructure",
    "RiskBreakdown",
    "exact_risk",
    "float_risk",
    "ExpansionDiagnostics",
    "expansion_diagnostics",
    "RiskPoint",
    "FitResult",
    "RiskCurve",
    "risk_curve",
    "fit_constant",
    "curve_to_csv",
]


@dataclass(frozen=True)
class RiskBreakdown:
    """Exact risk, its numerator and, on request, the per-partition numerator terms.

    ``numerator_terms[lambda']`` is (sum of parent coefficients)^2 on the raw
    (unnormalised) scale, so

        risk = 1 - numerator / (d^2 * norm_sq),  numerator = sum(numerator_terms.values()).

    The terms are built from the level-(N+1) table the first time they are read.
    """

    d: int
    level: int
    risk: Fraction
    numerator: Fraction
    norm_sq: Fraction
    _children: np.ndarray = field(repr=False, compare=False)
    _parent_sums: list[int] = field(repr=False, compare=False)
    _scale_sq: int = field(repr=False, compare=False)

    @cached_property
    def numerator_terms(self) -> dict[tuple[int, ...], Fraction]:
        return {
            child: Fraction(s * s, self._scale_sq)
            for child, s in zip(map(tuple, self._children.tolist()), self._parent_sums)
        }


@dataclass(frozen=True)
class IncidenceStructure:
    """Box-removal incidence B between the partitions of level N+1 and level N.

    ``matrix[r, c] = 1`` iff removing one box from row ``r`` of ``child_table``
    gives row ``c`` of ``parent_table`` (both canonical).  Rows are always the
    full level-(N+1) table; ``support`` names the columns: "full" keeps every
    level-N partition, "strict" only the strictly decreasing ones (marked by
    ``strict``), where some rows have degree zero.  The risk numerator is
    ||B c||^2, and the spectral optimum is the top eigenpair of B^T B.
    """

    d: int
    level: int
    support: str
    child_table: np.ndarray
    parent_table: np.ndarray
    matrix: csr_matrix

    @cached_property
    def strict(self) -> np.ndarray:
        t = self.parent_table
        return np.all(t[:, :-1] > t[:, 1:], axis=1) & (t[:, -1] > 0)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.child_table.tolist()))

    @cached_property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.parent_table.tolist()))

    def row_degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel().astype(int)

    def col_degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel().astype(int)


def _locate(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each row of ``queries`` in the canonical partition table ``table``.

    Every query must occur in the table, so its level is the table's and its
    first d-1 entries fix it.  Column by column, each table row is keyed by
    (first row sharing its prefix so far, -entry); the keys ascend down the
    table, so one binary search per column moves each query to the first row
    sharing one more of its entries.  A key's magnitude is below
    rows * (largest entry + 1): far inside int64 for any table that fits in
    memory.
    """
    width = int(table[0, 0]) + 1  # the first row is (n, 0, ..., 0)
    first = np.zeros(len(table), dtype=np.int64)
    found = np.zeros(len(queries), dtype=np.int64)
    for j in range(table.shape[1] - 1):
        keys = first * width - table[:, j]
        found = keys.searchsorted(found * width - queries[:, j])
        first = keys.searchsorted(keys)
    return found


def _box_removal(d: int, n: int) -> IncidenceStructure:
    parents = partition_table(d, n)
    children = partition_table(d, n + 1)
    below = np.zeros_like(children)
    below[:, :-1] = children[:, 1:]
    removable = children > below  # entry [r, i]: row i+1 of child r has a removable box
    child, row = np.nonzero(removable)  # by child, then by row: the CSR order
    parent = children[child]
    parent[np.arange(len(row)), row] -= 1
    indptr = np.zeros(len(children) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(removable, axis=1), out=indptr[1:])
    matrix = csr_matrix(
        (np.ones(len(parent)), _locate(parents, parent), indptr),
        shape=(len(children), len(parents)),
    )
    return IncidenceStructure(d, n, "full", children, parents, matrix)


def _integer_coefficients(d: int, n: int, w: WeightVector) -> tuple[IncidenceStructure, list[int]]:
    """The structure of level (d, n), and ``w.denominator * c`` as ints in column order."""
    if w.d != d or w.level != n:
        raise ValueError(f"weights are for d={w.d}, level {w.level}, not ({d}, {n})")
    if not w.entries:
        raise EmptySupportError(f"scheme has empty support at level {n} (d={d})")
    structure = _box_removal(d, n)
    c = [0] * structure.matrix.shape[1]
    for j, v in zip(_locate(structure.parent_table, w.table).tolist(), w.numerators):
        c[j] = v
    return structure, c


def exact_risk(d: int, n: int, w: WeightVector) -> RiskBreakdown:
    """Exact risk of the scheme ``w`` at level ``n``.

    Raises :class:`EmptySupportError` if ``w`` has no nonzero coefficient.
    """
    structure, c = _integer_coefficients(d, n, w)
    indptr = structure.matrix.indptr.tolist()
    indices = structure.matrix.indices.tolist()
    sums = [sum([c[j] for j in indices[a:b]]) for a, b in zip(indptr, indptr[1:])]
    scale_sq = w.denominator * w.denominator
    numerator = Fraction(sum([s * s for s in sums]), scale_sq)
    risk = 1 - numerator / (d * d * w.norm_sq)
    if not 0 <= risk <= 1:
        raise ArithmeticError(f"risk {risk} escaped [0, 1]; this is a bug")
    return RiskBreakdown(d, n, risk, numerator, w.norm_sq, structure.child_table, sums, scale_sq)


def float_risk(d: int, n: int, w: WeightVector) -> float:
    """The exact risk of :func:`exact_risk`, rounded once to the nearest float."""
    return float(exact_risk(d, n, w).risk)


# ---------------------------------------------------------------------------
# Expansion diagnostics
# ---------------------------------------------------------------------------


def _r_corrections(gaps: list[int]) -> list[int]:
    """First-order corrections r(i) to the gap product, one per removable row i.

    Removing a box from row i of lambda' (possible iff p_i > 0) shifts its gap
    vector p by +e_{i-1} - e_i, so the new gap product equals prod(p) + r(i)
    with

        r(i) = -prod_{j != i} p_j + [i > 1] (prod_{j != i-1} p_j
                                             - prod_{j != i-1, i} p_j)
             = -prod_{j != i} p_j + [i > 1] (p_i - 1) prod_{j != i-1, i} p_j.

    Exact integers, in row order.
    """
    out = []
    for i, gap in enumerate(gaps):
        if gap:
            tail = math.prod(gaps[i + 1 :])
            r = -math.prod(gaps[:i]) * tail
            if i:
                r += (gap - 1) * math.prod(gaps[: i - 1]) * tail
            out.append(r)
    return out


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Order-by-order pieces of the risk ratio for the gap-product scheme.

    Write the parent coefficient of row i as prod(p) + r(i) (see
    :func:`_r_corrections`) and expand numerator and denominator of the risk
    around the leading gap products, summing over the level-(N+1) partitions:

        numerator   = c_t * (1 + t1 + t2)
        d^2 norm_sq = c_u * (1 + u1 + u2)

    with c_t = sum (#S)^2 prod(p)^2, c_u = sum d #S prod(p)^2, t1/u1 the
    cross terms linear in r and t2/u2 the quadratic ones.  The identities
    c_t == c_u and t1 == u1 hold exactly, so u2 - t2 matches the exact risk
    up to O(N^-3); all fields are exact rationals.
    """

    d: int
    level: int
    c_t: Fraction
    c_u: Fraction
    t1: Fraction
    u1: Fraction
    t2: Fraction
    u2: Fraction

    @property
    def u2_minus_t2(self) -> Fraction:
        return self.u2 - self.t2

    def risk_from_expansion(self) -> Fraction:
        """Exact reconstruction 1 - c_t(1+t1+t2) / (c_u(1+u1+u2)).

        Recovers the gap-product risk without ever touching coefficients,
        which makes it an independent cross-check of :func:`exact_risk`.
        """
        return 1 - (self.c_t * (1 + self.t1 + self.t2)) / (
            self.c_u * (1 + self.u1 + self.u2)
        )


def expansion_diagnostics(d: int, n: int) -> ExpansionDiagnostics:
    """Exact expansion pieces at level ``n`` for the gap-product scheme.

    Needs n >= d(d+1)/2 - 1 so that level n+1 contains a strict partition;
    otherwise every term vanishes and :class:`EmptySumError` is raised.
    """
    c_t = 0
    c_u = 0
    t1_num = 0
    u1_num = 0
    t2_num = 0
    u2_num = 0
    for child in partition_table(d, n + 1).tolist():
        gaps = [a - b for a, b in zip(child, child[1:] + [0])]
        prod = math.prod(gaps)
        r = _r_corrections(gaps)
        k = len(r)  # removable rows
        c_t += k * k * prod * prod
        c_u += d * k * prod * prod
        r_sum = sum(r)
        t1_num += 2 * k * prod * r_sum
        u1_num += 2 * d * prod * r_sum
        t2_num += r_sum * r_sum
        u2_num += d * sum(v * v for v in r)
    if c_t == 0:
        raise EmptySumError(
            f"every gap product vanishes at level {n + 1} for d={d} "
            f"(need N >= {d * (d + 1) // 2 - 1})"
        )
    return ExpansionDiagnostics(
        d,
        n,
        Fraction(c_t),
        Fraction(c_u),
        Fraction(t1_num, c_t),
        Fraction(u1_num, c_u),
        Fraction(t2_num, c_t),
        Fraction(u2_num, c_u),
    )


# ---------------------------------------------------------------------------
# Sweeps over N
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskPoint:
    n: int
    risk: Fraction | None  # exact value when the sweep ran exactly
    risk_float: float
    n2_risk: float


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of N^2 risk = constant + slope / N.

    Fitted on the largest tested half of the N values, where the O(1/N^2)
    remainder is smallest, and on at least two of them.
    """

    constant: float
    slope: float
    window: tuple[int, int]
    max_residual: float


@dataclass(frozen=True)
class RiskCurve:
    d: int
    scheme: str
    points: tuple[RiskPoint, ...]
    skipped: tuple[tuple[int, str], ...]
    fit: FitResult | None


def fit_constant(points: Sequence[RiskPoint]) -> FitResult:
    """Intercept of N^2 risk against 1/N on the largest tested half (>= 2 points)."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    pts = sorted(points, key=lambda p: p.n)
    window = pts[min(len(pts) // 2, len(pts) - 2) :]
    xs = [1.0 / p.n for p in window]
    ys = [p.n2_risk for p in window]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit window")
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    constant = ybar - slope * xbar
    resid = max(abs(y - (constant + slope * x)) for x, y in zip(xs, ys))
    return FitResult(constant, slope, (window[0].n, window[-1].n), resid)


def _curve_point(args) -> RiskPoint | tuple[int, str]:
    """One level of a sweep, or (n, reason) when the scheme has no support there."""
    d, n, label, exact = args
    try:
        w = scheme_weights(label, d, n)
    except EmptySupportError as exc:
        return n, str(exc)
    if exact:
        r = exact_risk(d, n, w).risk
        rf = float(r)
        return RiskPoint(n, r, rf, n * n * rf)
    rf = float_risk(d, n, w)
    return RiskPoint(n, None, rf, n * n * rf)


def risk_curve(
    d: int,
    n_values: Iterable[int],
    scheme: str | Scheme,
    *,
    exact: bool = False,
    fit: bool = True,
    workers: int = 1,
) -> RiskCurve:
    """Risk as a function of N for one scheme.

    Infeasible levels (empty support) are skipped and recorded rather than
    raised.  ``workers`` > 1 evaluates levels in separate processes; results
    are identical at any worker count because each level is independent and
    the output order is fixed.
    """
    label = parse_scheme(scheme).label()
    jobs = [(d, n, label, exact) for n in sorted(set(int(n) for n in n_values))]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_curve_point, jobs))
    else:
        results = [_curve_point(job) for job in jobs]
    points = [r for r in results if isinstance(r, RiskPoint)]
    skipped = [r for r in results if not isinstance(r, RiskPoint)]
    fitted = fit_constant(points) if fit and len(points) >= 2 else None
    return RiskCurve(d, label, tuple(points), tuple(skipped), fitted)


def curve_to_csv(curve: RiskCurve) -> str:
    """CSV rows (N, risk_num, risk_den, risk_float, N2_risk), header included.

    Exact numerator/denominator columns are left empty when the sweep did not
    keep the exact risks.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "risk_num", "risk_den", "risk_float", "N2_risk"])
    for p in curve.points:
        num = p.risk.numerator if p.risk is not None else ""
        den = p.risk.denominator if p.risk is not None else ""
        writer.writerow([p.n, num, den, repr(p.risk_float), repr(p.n2_risk)])
    return buf.getvalue()

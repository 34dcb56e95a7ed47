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
:class:`IncidenceStructure`, which also serves the spectral optimum; its
matrix is a :class:`BoxMatrix`, a (d, k) table of each level-(N+1)
partition's parent through each box row, in plain numpy.  The risk is
computed in one arithmetic: exact integers on the scheme's integer form
(numerators over a common denominator), giving an exact rational, which
reports round when they print.  The scheme's support rows are placed on the
columns of B by one walk over the runs of rows that share a prefix in the
canonical level table (``_locate``), with no search; the run marks of that
table are built once per structure, so every scheme scored on it shares
them.  The CLI builds one structure per level, whose level-N table is cut
out of its level-(N+1) table, and the gap-product schemes read their support
from its strict rows, so a scored level enumerates one table, N+1.  B c is
one gather-sum over the slots of that table, the kernel of both float
products too, in int64 when a bound on the numerators keeps every sum exact
and over Python ints otherwise, and ||B c||^2 is an int64 dot only under the
same kind of bound (``weights._sum_of_products``).
The expansion diagnostics take the gap products of each level-(N+1)
partition and of its parents in int64, under the bound the gap-product
schemes use, and form their sums of products the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySumError, EmptySupportError
from .partitions import _compress_rows, partition_table
from .weights import (
    _INT64_MAX,
    Scheme,
    WeightVector,
    _check_gap_bound,
    _fraction_records,
    _sum_of_products,
    parse_scheme,
    scheme_weights,
)

__all__ = [
    "BoxMatrix",
    "IncidenceStructure",
    "RiskBreakdown",
    "exact_risk",
    "ExpansionDiagnostics",
    "expansion_diagnostics",
    "RiskPoint",
    "FitResult",
    "RiskCurve",
    "risk_curve",
    "fit_constant",
]


@dataclass(frozen=True)
class RiskBreakdown:
    """Exact risk, its numerator and, on request, the per-partition numerator terms.

    The term of a level-(N+1) partition lambda' is (sum of parent
    coefficients)^2 on the raw (unnormalised) scale, so

        risk = 1 - numerator / (d^2 * norm_sq),  numerator = sum of the terms.

    :meth:`term_records` streams them from the level-(N+1) table.
    """

    d: int
    level: int
    risk: Fraction
    numerator: Fraction
    norm_sq: Fraction
    _children: np.ndarray = field(repr=False, compare=False)
    _parent_sums: np.ndarray = field(repr=False, compare=False)  # int64 or Python ints
    _scale_sq: int = field(repr=False, compare=False)

    def term_records(self):
        """``(parts, "num/den")`` of each level-(N+1) partition's term, in canonical
        order, in lowest terms (:func:`~sud_estimate.weights._fraction_records`)."""
        squares = (s * s for s in self._parent_sums.tolist())  # an int64 square can overflow
        return _fraction_records(self._children, squares, self._scale_sq)


def _gather_sum(table, padded: np.ndarray) -> np.ndarray:
    """sum_i padded[table[i]] over the rows of ``table`` (an array, or a tuple of
    its rows), added in row order; its pads read the zero that ends ``padded``."""
    out = padded[table[0]]
    for row in table[1:]:
        out += padded[row]
    return out


@dataclass(frozen=True)
class BoxMatrix:
    """A (k, m) 0/1 matrix with at most d ones per row: ``up[i, r]``, of a (d, k)
    int64 table, is the column of slot i of row r, or the pad m.

    Its transpose ``down``, (d, m) with pad k, is built when B^T y first needs
    it.  Each product is :func:`_gather_sum` over the rows of a table, walked
    as a tuple (faster than the array), on a zero-ended copy of the vector:
    each entry adds its terms in slot order, and an empty slot adds +0.0.
    """

    shape: tuple[int, int]
    up: np.ndarray

    @cached_property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.up != self.shape[1]))

    @cached_property
    def down(self) -> np.ndarray:
        """``down[i, c]`` is the row r with ``up[i, r] == c``, or the pad k."""
        down = np.full((len(self.up), self.shape[1] + 1), self.shape[0], dtype=np.int64)
        down[np.arange(len(self.up))[:, None], self.up] = np.arange(self.shape[0])
        return down[:, :-1]  # the last column collected the empty slots

    @cached_property
    def _slots(self) -> tuple:  # for B x and B^T y: rows and a buffer, one thread at a time
        return ((tuple(self.up), np.zeros(self.shape[1] + 1)),
                (tuple(self.down), np.zeros(self.shape[0] + 1)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B x."""
        rows, padded = self._slots[0]
        padded[:-1] = x
        return _gather_sum(rows, padded)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """B^T y."""
        rows, padded = self._slots[1]
        padded[:-1] = y
        return _gather_sum(rows, padded)

    def take_columns(self, keep: np.ndarray) -> BoxMatrix:
        """The columns ``keep`` (increasing), renumbered from 0; entries keep
        their slots, and those in other columns become pads."""
        renumber = np.full(self.shape[1] + 1, len(keep), dtype=np.int64)
        renumber[keep] = np.arange(len(keep))
        return BoxMatrix((self.shape[0], len(keep)), renumber[self.up])


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
    matrix: BoxMatrix

    @cached_property
    def strict(self) -> np.ndarray:
        t = self.parent_table
        strict = t[:, -1] > 0
        for j in range(self.d - 1):
            strict &= t[:, j] > t[:, j + 1]
        return strict

    @cached_property
    def run_marks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The run marks of ``parent_table`` (:func:`_run_marks`), built once
        for every scheme scored on a full-support structure."""
        return _run_marks(self.parent_table)


def _run_marks(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Where the runs of the canonical level ``table`` start, read by :func:`_locate`.

    One pair per column j < d - 2: ``starts``, the rows that start a run of
    rows sharing their first j + 1 entries, and ``first``, for each run of
    the first j entries in table order, the number (index in ``starts``) of
    its first sub-run.  A row starts a run when it started one in the column
    before or its entry differs from the row above.
    """
    marks = []
    starts_run = np.zeros(len(table), dtype=bool)
    starts_run[0] = True
    previous = np.zeros(1, dtype=np.int64)  # the one run of the empty prefix
    run = np.empty(len(table), dtype=np.int64)  # run[s]: the number of the run starting at s
    for j in range(table.shape[1] - 2):
        column = table[:, j]
        starts_run[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(starts_run)
        run[starts] = np.arange(len(starts))
        marks.append((starts, run[previous]))
        previous = starts
    return marks


def _locate(
    table: np.ndarray, queries: np.ndarray, marks: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """The column of B for each row of a scheme's support ``queries``: its index
    in the canonical partition table ``table`` of the same level.

    Every query must occur in the table, so its level is the table's.  In
    the canonical table the rows sharing a prefix lambda_1..lambda_j form one
    run, and inside it the next entry takes every value from hi =
    min(lambda_j, boxes left) down to ceil(left / (d - j)), each value one
    contiguous sub-run, in that order.  So the walk reads the queries column
    by column: a query in run number r of its first j entries moves to run
    number ``first[r] + hi - v`` of its first j + 1 entries, for its entry v,
    with the table's run marks ``marks`` (:func:`_run_marks`).  A prefix of
    d - 1 entries fixes its row, so in the last column each sub-run is one
    row.  Each column costs a few passes over the queries, with no search.
    """
    d = table.shape[1]
    found = np.zeros(len(queries), dtype=np.int64)  # run number of the prefix so far
    cap = left = table[0, 0]  # the first row is (n, 0, ..., 0)
    for j in range(d - 1):
        value = queries[:, j]
        step = np.minimum(cap, left) - value
        if j == d - 2:
            return (marks[-1][0][found] if marks else found) + step
        found = marks[j][1][found] + step
        cap, left = value, left - value
    return found


def _box_removal(d: int, n: int) -> IncidenceStructure:
    """The full-support incidence B between the partitions of level n+1 and n.

    Row i of a child mu is removable when mu_i > mu_(i+1) (or mu_d > 0 for
    the last row); row i of a parent lambda is addable when i = 1 or
    lambda_(i-1) > lambda_i.  Removing the box, mu -> mu - e_i, maps the
    children whose row i is removable one to one onto the parents whose row
    i is addable, with lambda + e_i as the inverse.  A translation by a fixed
    vector keeps the lexicographic order, so it keeps the canonical order of
    both tables: the k-th such child's parent is the k-th such parent.  So
    the columns for box row i are the positions of the parents addable in
    row i, found with no search, and they fill the slots of box row i of
    ``BoxMatrix.up``; a child whose row i is not removable keeps the pad.
    Row 1 of every parent is addable, so the parent table is the children
    whose row 1 is removable, less e_1: only level n+1 is enumerated.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    children = partition_table(d, n + 1)
    # masks are (d, k), so the mask of one box row is contiguous
    removable = np.empty(children.shape[::-1], dtype=bool)
    np.greater(children[:, :-1].T, children[:, 1:].T, out=removable[:-1])
    np.greater(children[:, -1], 0, out=removable[-1])
    parents = _compress_rows(removable[0], children)
    parents[:, 0] -= 1
    addable = np.ones(parents.shape[::-1], dtype=bool)
    np.greater(parents[:, :-1].T, parents[:, 1:].T, out=addable[1:])
    up = np.full(removable.shape, len(parents), dtype=np.int64)
    for i in range(d):  # a mask on the row view: up[i, mask] takes numpy's slower 2-D path
        up[i][removable[i]] = np.flatnonzero(addable[i])
    matrix = BoxMatrix((len(children), len(parents)), up)
    return IncidenceStructure(d, n, "full", children, parents, matrix)


def _full_structure(d: int, n: int, structure: IncidenceStructure | None) -> IncidenceStructure:
    """``structure``, checked to be the full-support one of (d, n); built when None."""
    if structure is None:
        return _box_removal(d, n)
    if (structure.d, structure.level, structure.support) != (d, n, "full"):
        raise ValueError(f"structure is the {structure.support} one of d={structure.d}, "
                         f"level {structure.level}, not the full one of ({d}, {n})")
    return structure


def exact_risk(
    d: int, n: int, w: WeightVector, structure: IncidenceStructure | None = None
) -> RiskBreakdown:
    """Exact risk of the scheme ``w`` at level ``n``.

    B c is one gather-sum over the slots of ``BoxMatrix.up``, on
    ``w.denominator * c`` with a zero appended for the empty slots.  A row
    has at most d ones, so the sums are taken in int64 when the
    numerators are int64 and d times the largest is at most 2^63 - 1, and in
    Python ints otherwise; ||B c||^2 is :func:`~sud_estimate.weights._sum_of_products`
    of them.  ``structure`` is the full-support box-removal structure of level
    n when the caller already holds one; by default it is built.  Raises
    :class:`EmptySupportError` if ``w`` has no nonzero coefficient.
    """
    if w.d != d or w.level != n:
        raise ValueError(f"weights are for d={w.d}, level {w.level}, not ({d}, {n})")
    if not len(w.numerators):
        raise EmptySupportError(f"scheme has empty support at level {n} (d={d})")
    structure = _full_structure(d, n, structure)
    fits = w.numerators.dtype == np.int64 and d * int(w.numerators.max()) <= _INT64_MAX
    c = np.zeros(structure.matrix.shape[1] + 1, dtype=np.int64 if fits else object)
    c[_locate(structure.parent_table, w.table, structure.run_marks)] = w.numerators
    sums = _gather_sum(structure.matrix.up, c)
    scale_sq = w.denominator * w.denominator
    numerator = Fraction(_sum_of_products(sums), scale_sq)
    risk = 1 - numerator / (d * d * w.norm_sq)
    if not 0 <= risk <= 1:
        raise ArithmeticError(f"risk {risk} escaped [0, 1]; this is a bug")
    return RiskBreakdown(d, n, risk, numerator, w.norm_sq, structure.child_table, sums, scale_sq)


# ---------------------------------------------------------------------------
# Expansion diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Order-by-order pieces of the risk ratio for the gap-product scheme.

    Removing a box from row i of lambda' (possible iff its gap p_i > 0)
    shifts the gap vector p by +e_{i-1} - e_i, so the parent coefficient is
    prod(p) + r(i), with the exact integer correction

        r(i) = prod(p - e_i + e_{i-1}) - prod(p)    (e_0 = 0).

    Expand numerator and denominator of the risk around the leading gap
    products, summing over the level-(N+1) partitions:

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

    p is the (d, k) int64 gap table of level n+1, and r(i) is taken by its
    definition, masked to 0 where row i is not removable.  Every int64 value
    is a gap product of level n or n+1, one times 0, or a sum of at most d
    of them (r's row sums, k * prod(p)), so a level past
    :func:`~sud_estimate.weights._check_gap_bound` with d terms is refused
    before any table is built.  Their sums of products are
    :func:`~sud_estimate.weights._sum_of_products`.  Needs n >= d(d+1)/2 - 1
    so that level n+1 contains a strict partition; otherwise every term
    vanishes and :class:`EmptySumError` is raised.
    """
    _check_gap_bound(d, n + 1, terms=d)
    p = partition_table(d, n + 1).T  # a fresh table: its (d, k) rows become the gaps
    p[:-1] -= p[1:]
    prod = p.prod(axis=0)
    shifts = np.eye(d, k=-1, dtype=np.int64) - np.eye(d, dtype=np.int64)  # e_(i-1) - e_i
    r = np.stack([(p + shift[:, None]).prod(axis=0) for shift in shifts]) - prod
    r *= p > 0  # r(i) exists only for a removable row
    r_sum = r.sum(axis=0)
    k = np.count_nonzero(p, axis=0)
    k_prod = k * prod
    c_t = _sum_of_products(k_prod)
    if c_t == 0:
        raise EmptySumError(
            f"every gap product vanishes at level {n + 1} for d={d} "
            f"(need N >= {d * (d + 1) // 2 - 1})"
        )
    c_u = d * _sum_of_products(k_prod, prod)
    return ExpansionDiagnostics(
        d, n, Fraction(c_t), Fraction(c_u),
        Fraction(2 * _sum_of_products(k_prod, r_sum), c_t),
        Fraction(2 * d * _sum_of_products(prod, r_sum), c_u),
        Fraction(_sum_of_products(r_sum), c_t),
        Fraction(d * _sum_of_products(r.ravel()), c_u),
    )


# ---------------------------------------------------------------------------
# Sweeps over N
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskPoint:
    """The exact risk of one sweep level, with the floats that reports print."""

    n: int
    risk: Fraction

    @property
    def risk_float(self) -> float:
        return float(self.risk)

    @property
    def n2_risk(self) -> float:
        return self.n * self.n * self.risk_float


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


def _scheme_and_structure(
    spec: str | Scheme, d: int, n: int, tol: float = 1e-12
) -> tuple[WeightVector, IncidenceStructure]:
    """The scheme ``spec`` at level n, with the full box-removal structure of
    level n that scores it, built once.

    The scheme build calls for the structure when it reads it (product,
    power and uniform take their support from its strict rows, and the
    optimal scheme is solved on it), after the refusals that need no table;
    a ``file:`` scheme is read first, and its structure built after it.
    """
    structure = cache(partial(_box_removal, d, n))
    w = scheme_weights(spec, d, n, tol=tol, structure=structure)
    return w, structure()


def _curve_point(args) -> RiskPoint | tuple[int, str]:
    """One level of a sweep, or (n, reason) when the scheme has no support there."""
    d, n, label = args
    try:
        w, structure = _scheme_and_structure(label, d, n)
    except EmptySupportError as exc:
        return n, str(exc)
    return RiskPoint(n, exact_risk(d, n, w, structure).risk)


def risk_curve(
    d: int,
    n_values: Iterable[int],
    scheme: str | Scheme,
    *,
    workers: int = 1,
) -> RiskCurve:
    """Exact risk as a function of N for one scheme.

    Infeasible levels (empty support) are skipped and recorded rather than
    raised, and the rate constant is fitted whenever at least two levels are
    feasible.  ``workers`` > 1 evaluates levels in separate processes; results
    are identical at any worker count because each level is independent and
    the output order is fixed.
    """
    label = parse_scheme(scheme).label()
    jobs = [(d, n, label) for n in sorted(set(int(n) for n in n_values))]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only multi-process sweeps pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_curve_point, jobs))
    else:
        results = [_curve_point(job) for job in jobs]
    points = [r for r in results if isinstance(r, RiskPoint)]
    skipped = [r for r in results if not isinstance(r, RiskPoint)]
    fitted = fit_constant(points) if len(points) >= 2 else None
    return RiskCurve(d, label, tuple(points), tuple(skipped), fitted)


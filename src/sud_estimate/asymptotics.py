"""The N^-2 rate constant of the gap-product scheme.

As N grows, rescaled gap vectors x = p/(N+1) of the level-(N+1) partitions
fill the weighted simplex

    S = { x >= 0 : sum_j j * x_j = 1 },

and N^2 * risk converges to a ratio of two polynomial integrals over S:

    C(d) = integral of 2d * (sum_i q_i^2 - sum_{i=2}^d q_i q_{i-1})
                        - (d+1) * q_d^2
           ----------------------------------------------------------
           integral of d^2 * prod_j x_j^2

where q_i = prod_{j != i} x_j.  The integrands are homogeneous of degrees
2(d-1) and 2d, and the ratio does not depend on how the surface measure on
S is normalised.  ``exact_constant`` evaluates the ratio in closed form through
Dirichlet moments after substituting y_j = j * x_j; ``riemann_constant``
approximates the same ratio by lattice sums over the actual gap vectors,
converging at rate O(1/N).  The lattice sums are exact rationals: each
monomial's sum comes from a level recurrence costing O(d m) big-int
additions at level m, with no mesh and no list of points.

C(2) = 10 exactly, which matches the classical pi^2/N^2 phase-estimation
rate once the d^2-dimensional parameter count of SU(d) is folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .errors import EmptySumError, EmptySupportError
from .risk import RiskPoint, exact_risk
from .weights import product_weights

__all__ = [
    "MonomialPolynomial",
    "constant_integrands",
    "simplex_monomial_integral",
    "weighted_simplex_integral",
    "constant_for_constraint",
    "ConstantReport",
    "exact_constant",
    "riemann_constant",
    "ConsistencyReport",
    "constant_vs_risk_consistency",
]


class MonomialPolynomial:
    """Polynomial in d variables with exact rational coefficients.

    Stored as exponent-tuple -> coefficient; zero coefficients are dropped.
    Supports +, -, *, scalar multiplication and exact evaluation.
    """

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.d = d
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != d or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for d={d}")
            c = Fraction(coeff)
            if c:
                cleaned[exps] = cleaned.get(exps, Fraction(0)) + c
        self._terms = {k: v for k, v in sorted(cleaned.items()) if v}

    @classmethod
    def monomial(cls, d: int, exps: Sequence[int], coeff=1) -> "MonomialPolynomial":
        return cls(d, {tuple(exps): Fraction(coeff)})

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialPolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash((self.d, tuple(self._terms.items())))

    def __add__(self, other: "MonomialPolynomial") -> "MonomialPolynomial":
        merged = dict(self._terms)
        for exps, coeff in other._terms.items():
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        return MonomialPolynomial(self.d, merged)

    def __neg__(self) -> "MonomialPolynomial":
        return MonomialPolynomial(self.d, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "MonomialPolynomial") -> "MonomialPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MonomialPolynomial):
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return MonomialPolynomial(self.d, out)
        return MonomialPolynomial(
            self.d, {k: v * Fraction(other) for k, v in self._terms.items()}
        )

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point with rational coordinates."""
        xs = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for x, e in zip(xs, exps):
                term *= x**e
            total += term
        return total


def _product_except(d: int, skip: Iterable[int]) -> MonomialPolynomial:
    """Monomial prod_{j not in skip} x_j, rows 1-based."""
    skip = set(skip)
    exps = [0 if j in skip else 1 for j in range(1, d + 1)]
    return MonomialPolynomial.monomial(d, exps)


def constant_integrands(d: int) -> tuple[MonomialPolynomial, MonomialPolynomial]:
    """Numerator and denominator integrands of C(d), exact coefficients.

    With q_i = prod_{j != i} x_j:

        numerator   = 2d (sum_i q_i^2 - sum_{i=2}^d q_i q_{i-1}) - (d+1) q_d^2
        denominator = d^2 prod_j x_j^2

    Both are homogeneous of degree 2(d-1) and 2d respectively; the weighted
    simplex makes their integral ratio finite.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    q = {i: _product_except(d, (i,)) for i in range(1, d + 1)}
    acc = MonomialPolynomial(d)
    for i in range(1, d + 1):
        acc = acc + q[i] * q[i]
    for i in range(2, d + 1):
        acc = acc - q[i] * q[i - 1]
    numerator = 2 * d * acc - (d + 1) * (q[d] * q[d])
    denominator = (d * d) * (_product_except(d, ()) * _product_except(d, ()))
    return numerator, denominator


def simplex_monomial_integral(exps: Sequence[int]) -> Fraction:
    """Dirichlet moment of y^exps on the standard simplex sum(y) = 1.

    Normalised so the constant monomial integrates to 1/(d-1)!; the common
    surface factor cancels in every ratio this module takes.
    """
    exps = tuple(int(e) for e in exps)
    if any(e < 0 for e in exps):
        raise ValueError(f"exponents must be >= 0: {exps}")
    d = len(exps)
    num = 1
    for e in exps:
        num *= math.factorial(e)
    return Fraction(num, math.factorial(sum(exps) + d - 1))


def weighted_simplex_integral(
    poly: MonomialPolynomial, coeffs: Sequence[int]
) -> Fraction:
    """Integral of ``poly`` over { x >= 0 : sum_j coeffs[j] * x_j = 1 }.

    Substituting y_j = coeffs[j] * x_j maps the surface onto the standard
    simplex; each monomial picks up the factor prod_j coeffs[j]^-exps[j] and
    a constant Jacobian that cancels in ratios of such integrals.
    """
    if len(coeffs) != poly.d or any(c <= 0 for c in coeffs):
        raise ValueError(f"need {poly.d} positive constraint coefficients")
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        scale = Fraction(1)
        for c, e in zip(coeffs, exps):
            scale /= Fraction(c) ** e
        total += coeff * scale * simplex_monomial_integral(exps)
    return total


def constant_for_constraint(d: int, coeffs: Sequence[int]) -> Fraction:
    """C(d) evaluated on the surface sum_j coeffs[j] * x_j = 1.

    The geometry of gap vectors forces coeffs = (1, 2, ..., d): row j of a
    partition contributes j boxes per unit gap, so sum_j j * p_j equals the
    level.  Other orientations are exposed only so tests can document that
    e.g. reversing the coefficients yields a different (wrong) value.
    """
    numerator, denominator = constant_integrands(d)
    return weighted_simplex_integral(numerator, coeffs) / weighted_simplex_integral(
        denominator, coeffs
    )


@dataclass(frozen=True)
class ConstantReport:
    """Exact rate constant with the two integrals it came from."""

    d: int
    exact: Fraction
    numerator_integral: Fraction
    denominator_integral: Fraction
    riemann_estimates: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)

    @property
    def value(self) -> float:
        return float(self.exact)


def exact_constant(d: int, riemann_levels: Iterable[int] = ()) -> ConstantReport:
    """Closed-form C(d) through Dirichlet moments.

    Optionally attaches exact lattice-sum estimates at the requested levels so
    the O(1/N) convergence is visible in one report.
    """
    numerator, denominator = constant_integrands(d)
    coeffs = tuple(range(1, d + 1))
    num = weighted_simplex_integral(numerator, coeffs)
    den = weighted_simplex_integral(denominator, coeffs)
    estimates = tuple((n, riemann_constant(d, n)) for n in riemann_levels)
    return ConstantReport(d, num / den, num, den, estimates)


def _lattice_moment(exps: Sequence[int], m: int) -> int:
    """Sum of prod_j p_j^exps[j-1] over the integer points p >= 0 with
    sum_j j * p_j = m, i.e. over the gap vectors of level m.

    No point is listed.  ``level[s]`` holds the sum over the coordinates added
    so far at partial level s; coordinate j with exponent e then maps it to
    g_e, where g_k[s] = sum_{p >= 0} p^k level[s - j p].  Shifting p -> p + 1
    gives g_k[s] = [k = 0] level[s] + sum_{i <= k} C(k, i) g_i[s - j]: along
    each residue class mod j, g_0 is a prefix sum of ``level`` and g_k a
    prefix sum of the shifted sum_{i < k} C(k, i) g_i.  Each coordinate costs
    O(e^2 m) big-int additions.
    """
    level = [1] + [0] * m
    for j, e in enumerate(exps, start=1):
        out = [0] * (m + 1)
        for r in range(min(j, m + 1)):
            g = [list(accumulate(level[r::j]))]
            for k in range(1, e + 1):
                carry = g[0][:-1]
                for i in range(1, k):
                    c = math.comb(k, i)
                    carry = [a + c * b for a, b in zip(carry, g[i])]
                g.append(list(accumulate(carry, initial=0)))
            out[r::j] = g[e]
        level = out
    return level[m]


def riemann_constant(d: int, n: int) -> Fraction:
    """Lattice-sum approximation of C(d) at level n, as an exact rational.

    Sums both integrands over the rescaled gap vectors p/(n+1) of level n+1
    and returns the ratio; the homogeneity degrees match the risk expansion,
    so the estimate converges to C(d) with an O(1/n) error.  The integrands
    have degrees 2(d-1) and 2d, so the ratio is (n+1)^2 times the ratio of
    the integer sums over p.  Each monomial's sum is exact and comes from a
    level recurrence (``_lattice_moment``) costing O(d n) big-int additions;
    no mesh or list of points is built.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    numerator, denominator = constant_integrands(d)
    num, den = (
        sum(c * _lattice_moment(exps, n + 1) for exps, c in poly.terms.items())
        for poly in (numerator, denominator)
    )
    if den == 0:
        raise EmptySumError(f"denominator lattice sum vanished at level {n} for d={d}")
    return (n + 1) ** 2 * Fraction(num) / den


@dataclass(frozen=True)
class ConsistencyReport:
    """How fast N^2 * exact risk approaches the exact constant.

    ``scaled_remainders`` holds (N, (N^2 risk - C) * N); boundedness of that
    column is the numerical signature of an O(1/N) remainder.  The remainder
    coefficient is fitted through the origin against 1/N.
    """

    d: int
    constant: Fraction
    points: tuple[RiskPoint, ...]
    scaled_remainders: tuple[tuple[int, float], ...]
    fitted_remainder: float

    @property
    def max_scaled_remainder(self) -> float:
        return max(abs(v) for _, v in self.scaled_remainders)


def constant_vs_risk_consistency(d: int, n_values: Iterable[int]) -> ConsistencyReport:
    """Check N^2 * risk(product scheme) -> C(d) with an O(1/N) remainder."""
    c = exact_constant(d).exact
    c_float = float(c)
    points = []
    remainders = []
    for n in sorted(set(int(v) for v in n_values)):
        try:
            w = product_weights(d, n)
        except EmptySupportError:
            continue
        r = exact_risk(d, n, w).risk
        rf = float(r)
        points.append(RiskPoint(n, r, rf, n * n * rf))
        remainders.append((n, (n * n * rf - c_float) * n))
    if not points:
        raise EmptySumError("no feasible level in the requested range")
    num = math.fsum(v / n for n, v in remainders)
    den = math.fsum(1.0 / (n * n) for n, _ in remainders)
    return ConsistencyReport(
        d, c, tuple(points), tuple(remainders), num / den
    )


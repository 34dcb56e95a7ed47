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
S is normalised.  ``constant_integrands`` writes both as maps from exponent
tuples to integer coefficients; every integral here is a sum over those
monomials.  ``exact_constant`` evaluates the ratio in closed form through
Dirichlet moments after substituting y_j = j * x_j, and on request
approximates the same ratio by lattice sums over the actual gap vectors,
converging at rate O(1/N).  The lattice sums are exact rationals: each
monomial's sum comes from a level recurrence costing O(d m) big-int
additions at level m, with no mesh and no list of points.  One run to the
largest requested level holds the sums at every lower level too, and
monomials that share an exponent prefix share its partial recurrence.

C(2) = 10 exactly, which matches the classical pi^2/N^2 phase-estimation
rate once the d^2-dimensional parameter count of SU(d) is folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .errors import EmptySumError

__all__ = [
    "constant_integrands",
    "simplex_monomial_integral",
    "weighted_simplex_integral",
    "ConstantReport",
    "exact_constant",
]


def constant_integrands(d: int) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Numerator and denominator integrands of C(d), as exponent tuple -> coefficient.

    With q_i = prod_{j != i} x_j:

        numerator   = 2d (sum_i q_i^2 - sum_{i=2}^d q_i q_{i-1}) - (d+1) q_d^2
        denominator = d^2 prod_j x_j^2

    Both are homogeneous of degree 2(d-1) and 2d respectively; the weighted
    simplex makes their integral ratio finite.  No two listed monomials
    coincide and q_d^2 keeps the coefficient d - 1, so none is zero.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    numerator = {}
    for i in range(d):  # q_{i+1}^2: every exponent 2 but a 0 at x_{i+1}
        numerator[(2,) * i + (0,) + (2,) * (d - 1 - i)] = 2 * d
    for i in range(1, d):  # q_{i+1} q_i: exponent 1 at x_i and x_{i+1}
        numerator[(2,) * (i - 1) + (1, 1) + (2,) * (d - 1 - i)] = -2 * d
    numerator[(2,) * (d - 1) + (0,)] -= d + 1
    return numerator, {(2,) * d: d * d}


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


def weighted_simplex_integral(poly: Mapping[tuple[int, ...], int], coeffs: Sequence[int]) -> Fraction:
    """Integral of ``poly`` (exponent tuple -> coefficient) over
    { x >= 0 : sum_j coeffs[j] * x_j = 1 }.

    Substituting y_j = coeffs[j] * x_j maps the surface onto the standard
    simplex; each monomial picks up the factor prod_j coeffs[j]^-exps[j] and
    a constant Jacobian that cancels in ratios of such integrals.  The
    gap-vector geometry fixes coeffs = (1, 2, ..., d): row j of a partition
    contributes j boxes per unit gap.
    """
    if any(len(exps) != len(coeffs) for exps in poly) or any(c <= 0 for c in coeffs):
        raise ValueError(f"need one positive constraint coefficient per variable, got {coeffs}")
    total = Fraction(0)
    for exps, coeff in poly.items():
        scale = Fraction(1)
        for c, e in zip(coeffs, exps):
            scale /= Fraction(c) ** e
        total += coeff * scale * simplex_monomial_integral(exps)
    return total


@dataclass(frozen=True)
class ConstantReport:
    """Exact rate constant with the two integrals it came from."""

    d: int
    exact: Fraction
    numerator_integral: Fraction
    denominator_integral: Fraction
    riemann_estimates: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)


def exact_constant(d: int, riemann_levels: Iterable[int] = ()) -> ConstantReport:
    """Closed-form C(d) through Dirichlet moments.

    Optionally attaches exact lattice-sum estimates at the requested levels so
    the O(1/N) convergence is visible in one report; one recurrence run to
    the largest level serves them all (``_riemann_estimates``).
    """
    numerator, denominator = constant_integrands(d)
    coeffs = tuple(range(1, d + 1))
    num = weighted_simplex_integral(numerator, coeffs)
    den = weighted_simplex_integral(denominator, coeffs)
    levels = list(riemann_levels)
    estimates = tuple(zip(levels, _riemann_estimates(d, levels)))
    return ConstantReport(d, num / den, num, den, estimates)


def _lattice_moment(exps: Sequence[int], m: int, partial: dict | None = None) -> list[int]:
    """Sums of prod_j p_j^exps[j-1] over the integer points p >= 0 with
    sum_j j * p_j = s, i.e. over the gap vectors of level s, for every s <= m.

    No point is listed.  ``level[s]`` holds the sum over the coordinates added
    so far at partial level s; coordinate j with exponent e then maps it to
    g_e, where g_k[s] = sum_{p >= 0} p^k level[s - j p].  Shifting p -> p + 1
    gives g_k[s] = [k = 0] level[s] + sum_{i <= k} C(k, i) g_i[s - j]: along
    each residue class mod j, g_0 is a prefix sum of ``level`` and g_k a
    prefix sum of the shifted sum_{i < k} C(k, i) g_i.  Each coordinate costs
    O(e^2 m) big-int additions.  ``partial`` maps exponent prefixes to their
    sums, all up to the same m; monomials that share a prefix, looked up in
    one such dict, share its recurrence.
    """
    exps = tuple(exps)
    if partial is None:
        partial = {}
    if not exps:
        return [1] + [0] * m
    if exps in partial:
        return partial[exps]
    level = _lattice_moment(exps[:-1], m, partial)
    j, e = len(exps), exps[-1]
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
    partial[exps] = out
    return out


def _riemann_estimates(d: int, levels: Sequence[int]) -> list[Fraction]:
    """Lattice-sum approximations of C(d) at each of ``levels``, in their
    order, as exact rationals.

    At level n both integrands are summed over the rescaled gap vectors
    p/(n+1) of level n+1.  Their degrees, 2(d-1) and 2d, match the risk
    expansion, so the ratio is (n+1)^2 times the ratio of the integer sums
    over p, and it converges to C(d) with an O(1/n) error.

    Every level is checked before any sum is taken, in request order: a
    negative one raises ValueError, and one whose denominator sum vanishes
    raises :class:`EmptySumError`.  That sum, of prod_j p_j^2 over the gap
    vectors of level n+1, has a positive term exactly when some gap vector
    has every p_j >= 1, i.e. when n+1 >= d(d+1)/2.  Each monomial's sums
    then come from one recurrence run to the largest level n+1, whose
    ``level[s]`` holds every s at once, and monomials that share an
    exponent prefix share its partial recurrence.
    """
    numerator, denominator = constant_integrands(d)
    for n in levels:
        if n < 0:
            raise ValueError(f"level must be >= 0, got {n}")
        if n + 1 < d * (d + 1) // 2:
            raise EmptySumError(f"denominator lattice sum vanished at level {n} for d={d}")
    if not levels:
        return []
    m = max(levels) + 1
    partial: dict = {}
    terms = [[(c, _lattice_moment(exps, m, partial)) for exps, c in poly.items()]
             for poly in (numerator, denominator)]
    estimates = []
    for n in levels:
        num, den = (sum(c * sums[n + 1] for c, sums in t) for t in terms)
        estimates.append((n + 1) ** 2 * Fraction(num, den))
    return estimates


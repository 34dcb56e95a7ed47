import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from conftest import gap_vector
from sud_estimate.asymptotics import (
    _lattice_moment,
    constant_integrands,
    exact_constant,
    simplex_monomial_integral,
    weighted_simplex_integral,
)
from sud_estimate.errors import EmptySumError
from sud_estimate.partitions import enumerate_partitions
from sud_estimate.risk import exact_risk
from sud_estimate.weights import product_weights


class TestIntegrands:
    def test_d2_numerator_is_perfect_square(self):
        # 4(q1^2 + q2^2 - q1 q2) - 3 q2^2 with q1 = x2, q2 = x1
        # collapses to (x1 - 2 x2)^2
        numerator, denominator = constant_integrands(2)
        assert numerator == {(2, 0): 1, (1, 1): -4, (0, 2): 4}
        assert denominator == {(2, 2): 4}

    def test_point_values(self):
        # at x = (1, 1) every monomial is 1
        numerator, denominator = constant_integrands(2)
        assert sum(numerator.values()) == 1
        assert sum(denominator.values()) == 4

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_homogeneity_degrees(self, d):
        numerator, denominator = constant_integrands(d)
        assert {sum(e) for e in numerator} == {2 * (d - 1)}
        assert {sum(e) for e in denominator} == {2 * d}

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            constant_integrands(1)


class TestSimplexIntegrals:
    def test_dirichlet_moments(self):
        assert simplex_monomial_integral((0, 0)) == 1
        assert simplex_monomial_integral((2, 0)) == Fraction(1, 3)
        assert simplex_monomial_integral((1, 1)) == Fraction(1, 6)
        assert simplex_monomial_integral((2, 2)) == Fraction(1, 30)
        assert simplex_monomial_integral((0, 0, 0)) == Fraction(1, 2)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            simplex_monomial_integral((1, -1))

    def test_weighted_integral_undoes_scaling(self):
        # y = 2x turns x^2 on {2x = 1} into (y/2)^2 on {y = 1}; the constant
        # Jacobian is deliberately not included (it cancels in ratios)
        p = {(2,): 1}
        assert weighted_simplex_integral(p, (2,)) == Fraction(1, 4)
        assert weighted_simplex_integral(p, (1,)) == 1

    def test_weighted_integral_validates_coefficients(self):
        p = {(1, 1): 1}
        with pytest.raises(ValueError):
            weighted_simplex_integral(p, (1,))
        with pytest.raises(ValueError):
            weighted_simplex_integral(p, (1, 0))


class TestExactConstant:
    def test_d2_integrals_and_ratio(self):
        rep = exact_constant(2)
        assert rep.numerator_integral == Fraction(1, 3)
        assert rep.denominator_integral == Fraction(1, 30)
        assert rep.exact == 10
        assert float(rep.exact) == 10.0

    def test_d3_exact_value(self):
        c = exact_constant(3).exact
        assert c == Fraction(224, 3)
        assert 74.5 <= float(c) <= 75.5

    def test_d4_exact_value(self):
        c = exact_constant(4).exact
        assert c == 275
        assert 265 <= float(c) <= 275

    def test_reversed_orientation_gives_different_value(self):
        # the gap-vector geometry fixes the constraint as x1 + 2 x2 = 1;
        # flipping the coefficients is a documented wrong turn
        numerator, denominator = constant_integrands(2)
        for coeffs, value in (((2, 1), Fraction(65, 2)), ((1, 2), exact_constant(2).exact)):
            ratio = weighted_simplex_integral(numerator, coeffs) / weighted_simplex_integral(
                denominator, coeffs
            )
            assert ratio == value

    def test_report_attaches_riemann_estimates(self):
        rep = exact_constant(2, riemann_levels=(100, 200))
        assert [n for n, _ in rep.riemann_estimates] == [100, 200]
        for n, est in rep.riemann_estimates:
            assert est == _dense_riemann(2, n)


def _gap_vectors(d: int, m: int) -> list[tuple[int, ...]]:
    return [gap_vector(parts) for parts in enumerate_partitions(d, m)]


def _moment_by_enumeration(exps, points) -> int:
    return sum(math.prod(p**e for p, e in zip(point, exps)) for point in points)


class TestGapLattice:
    """The points ``_lattice_moment`` sums over are the gap vectors of a level."""

    def test_small_example(self):
        # the level-5 gap vectors at d=2 are (5, 0), (3, 1) and (1, 2)
        assert _lattice_moment((0, 0), 5)[5] == 3
        assert _lattice_moment((1, 0), 5)[5] == 5 + 3 + 1
        assert _lattice_moment((0, 2), 5)[5] == 0 + 1 + 4
        assert _lattice_moment((1, 1), 5)[5] == 0 + 3 + 2

    def test_d1_and_level_zero(self):
        assert _lattice_moment((3,), 7)[7] == 7**3
        assert _lattice_moment((0, 0, 0), 0) == [1]
        assert _lattice_moment((2, 1, 0), 0) == [0]

    @pytest.mark.parametrize("d,m", [(2, 9), (3, 10), (4, 12)])
    def test_bijection_with_partition_gap_vectors(self, d, m):
        # every exponent up to 3, so the recurrence's k = 3 step runs too; one
        # prefix dict serves every monomial, and each run holds every level
        partial = {}
        points = {s: _gap_vectors(d, s) for s in (m, m - 1, d)}
        for exps in product(range(4), repeat=d):
            sums = _lattice_moment(exps, m, partial)
            assert len(sums) == m + 1
            for s, at_s in points.items():
                assert sums[s] == _moment_by_enumeration(exps, at_s), (exps, s)


def _dense_riemann(d: int, n: int) -> Fraction:
    """The lattice ratio summed point by point over every gap vector.

    The integrands have degrees 2(d-1) and 2d, so rescaling the points by
    1/(n+1) multiplies the ratio of the integer sums by (n+1)^2.
    """
    points = _gap_vectors(d, n + 1)
    num, den = (
        sum(c * _moment_by_enumeration(exps, points) for exps, c in poly.items())
        for poly in constant_integrands(d)
    )
    return (n + 1) ** 2 * Fraction(num) / den


def lattice_estimate(d: int, n: int) -> Fraction:
    """The lattice-sum estimate of C(d) at level n, from a report of that level alone."""
    ((level, estimate),) = exact_constant(d, [n]).riemann_estimates
    assert level == n
    return estimate


class TestRiemannConstant:
    @pytest.mark.parametrize(
        "d,n", [(2, 50), (3, 40), (3, 699), (4, 30), (4, 119), (5, 19)]
    )
    def test_matches_dense_sum(self, d, n):
        assert lattice_estimate(d, n) == _dense_riemann(d, n)

    def test_memory_stays_bounded(self):
        # one dense mesh over p_2..p_4 at level 601 held about 590 MiB
        tracemalloc.start()
        try:
            lattice_estimate(4, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            lattice_estimate(2, -2)

    def test_d2_close_at_large_level(self):
        assert lattice_estimate(2, 4000) == pytest.approx(10.0, rel=0.01)

    def test_d3_close_at_large_level(self):
        c3 = float(exact_constant(3).exact)
        assert lattice_estimate(3, 1500) == pytest.approx(c3, rel=0.02)

    def test_error_halves_when_level_doubles(self):
        e500 = abs(lattice_estimate(2, 500) - 10.0)
        e1000 = abs(lattice_estimate(2, 1000) - 10.0)
        e4000 = abs(lattice_estimate(2, 4000) - 10.0)
        assert e1000 < e500 < 8 * e4000
        assert e500 / e1000 == pytest.approx(2.0, rel=0.2)

    def test_d5_close_at_large_level(self):
        assert exact_constant(5).exact == 728
        assert lattice_estimate(5, 3200) == pytest.approx(728, rel=0.02)

    def test_d4_error_quarters_when_level_quadruples(self):
        e800 = abs(lattice_estimate(4, 800) - 275)
        e3200 = abs(lattice_estimate(4, 3200) - 275)
        assert e800 / e3200 == pytest.approx(4.0, abs=0.4)

    def test_zero_denominator_is_reported(self):
        # at level 1 the only gap vector is (1, 0), killing prod x_j^2
        with pytest.raises(EmptySumError):
            lattice_estimate(2, 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_report_levels_share_one_recurrence(self, d):
        # unsorted and repeated levels, each read from the one run to the largest
        lo = d * (d + 1) // 2 - 1
        levels = [lo + 30, lo, lo + 7, lo + 30, lo + 1]
        report = exact_constant(d, riemann_levels=levels)
        assert [n for n, _ in report.riemann_estimates] == levels
        for n, est in report.riemann_estimates:
            assert est == lattice_estimate(d, n)

    def test_refusals_come_before_any_sum(self, monkeypatch):
        import sud_estimate.asymptotics as asymptotics

        def refuse(*args, **kwargs):
            raise AssertionError("a lattice sum was taken")

        monkeypatch.setattr(asymptotics, "_lattice_moment", refuse)
        with pytest.raises(ValueError, match="got -1"):
            exact_constant(4, riemann_levels=[600, -1])
        # the first requested level whose denominator vanishes is named
        with pytest.raises(EmptySumError, match="at level 8 for d=4"):
            exact_constant(4, riemann_levels=[600, 8, 0, -1])
        with pytest.raises(EmptySumError, match="at level 0 for d=4"):
            exact_constant(4, riemann_levels=range(4))


def _scaled_remainders(d: int, levels) -> list[tuple[int, float]]:
    """(N, (N^2 risk - C) * N) for the product scheme; bounded iff the remainder is O(1/N)."""
    c = float(exact_constant(d).exact)
    return [
        (n, (n * n * float(exact_risk(d, n, product_weights(d, n)).risk) - c) * n)
        for n in levels
    ]


class TestConsistency:
    def test_d2_remainder_is_second_order(self):
        remainders = _scaled_remainders(2, range(20, 61, 10))
        mags = [abs(v) for _, v in remainders]
        assert max(mags) < 3.0
        assert mags == sorted(mags, reverse=True)
        # scaled remainders behave like -40/N, so the through-origin fit
        # against 1/N recovers the second-order coefficient
        fitted = math.fsum(v / n for n, v in remainders) / math.fsum(
            1.0 / (n * n) for n, _ in remainders
        )
        assert fitted == pytest.approx(-40.0, rel=0.05)

    def test_d3_remainder_stays_bounded(self):
        mags = [abs(v) for _, v in _scaled_remainders(3, range(12, 41, 7))]
        assert max(mags) < 300.0
        assert mags == sorted(mags, reverse=True)

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sud_estimate.asymptotics import (
    MonomialPolynomial,
    constant_for_constraint,
    constant_integrands,
    constant_vs_risk_consistency,
    exact_constant,
    gap_lattice,
    riemann_constant,
    simplex_monomial_integral,
    weighted_simplex_integral,
)
from sud_estimate.errors import EmptySumError
from sud_estimate.partitions import enumerate_partitions, gap_vector


class TestMonomialPolynomial:
    def test_algebra_square_of_difference(self):
        x = MonomialPolynomial.monomial(2, (1, 0))
        y = MonomialPolynomial.monomial(2, (0, 1))
        sq = (x - y) * (x - y)
        assert sq.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}

    def test_scalar_multiplication_and_zero_dropping(self):
        x = MonomialPolynomial.monomial(2, (1, 0), Fraction(1, 3))
        assert (3 * x).terms == {(1, 0): 1}
        assert not (x - x)
        assert (x - x).terms == {}

    def test_exact_evaluation(self):
        p = MonomialPolynomial(2, {(2, 0): Fraction(1), (0, 1): Fraction(-1, 2)})
        assert p.evaluate((Fraction(1, 3), Fraction(4))) == Fraction(1, 9) - 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.fractions(-2, 2), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_array_evaluation_matches_exact(self, spec, point):
        terms = {(a, b): Fraction(c) for a, b, c in spec}
        p = MonomialPolynomial(2, terms)
        arr = p.evaluate_array(np.array([[float(point[0]), float(point[1])]]))
        assert arr[0] == pytest.approx(float(p.evaluate(point)), rel=1e-9, abs=1e-9)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            MonomialPolynomial(2, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ValueError):
            MonomialPolynomial(2, {(-1, 0): Fraction(1)})


class TestIntegrands:
    def test_d2_numerator_is_perfect_square(self):
        # 4(q1^2 + q2^2 - q1 q2) - 3 q2^2 with q1 = x2, q2 = x1
        # collapses to (x1 - 2 x2)^2
        numerator, denominator = constant_integrands(2)
        assert numerator.terms == {(2, 0): 1, (1, 1): -4, (0, 2): 4}
        assert denominator.terms == {(2, 2): 4}

    def test_point_values(self):
        numerator, denominator = constant_integrands(2)
        assert numerator.evaluate((1, 1)) == 1
        assert denominator.evaluate((1, 1)) == 4

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_homogeneity_degrees(self, d):
        numerator, denominator = constant_integrands(d)
        assert {sum(e) for e in numerator.terms} == {2 * (d - 1)}
        assert {sum(e) for e in denominator.terms} == {2 * d}

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
        p = MonomialPolynomial.monomial(1, (2,))
        assert weighted_simplex_integral(p, (2,)) == Fraction(1, 4)
        assert weighted_simplex_integral(p, (1,)) == 1

    def test_weighted_integral_validates_coefficients(self):
        p = MonomialPolynomial.monomial(2, (1, 1))
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
        assert rep.value == 10.0

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
        assert constant_for_constraint(2, (2, 1)) == Fraction(65, 2)
        assert constant_for_constraint(2, (1, 2)) == exact_constant(2).exact

    def test_report_attaches_riemann_estimates(self):
        rep = exact_constant(2, riemann_levels=(100, 200))
        assert [n for n, _ in rep.riemann_estimates] == [100, 200]
        for n, est in rep.riemann_estimates:
            assert est == pytest.approx(riemann_constant(2, n), abs=0.0)


class TestGapLattice:
    def test_small_example(self):
        pts = {tuple(row) for row in gap_lattice(2, 5)}
        assert pts == {(5, 0), (3, 1), (1, 2)}

    def test_d1_and_level_zero(self):
        assert gap_lattice(1, 7).tolist() == [[7]]
        assert gap_lattice(3, 0).tolist() == [[0, 0, 0]]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gap_lattice(2, -1)
        with pytest.raises(ValueError):
            gap_lattice(0, 3)

    @pytest.mark.parametrize("d,m", [(2, 9), (3, 10), (4, 12)])
    def test_bijection_with_partition_gap_vectors(self, d, m):
        lattice = {tuple(int(v) for v in row) for row in gap_lattice(d, m)}
        gaps = {gap_vector(parts) for parts in enumerate_partitions(d, m)}
        assert lattice == gaps

    @pytest.mark.parametrize("d,m", [(3, 700), (4, 120)])
    def test_blocks_cover_each_gap_vector_once(self, d, m):
        # levels large enough that the lattice is walked in several blocks
        lattice = [tuple(int(v) for v in row) for row in gap_lattice(d, m)]
        gaps = {gap_vector(parts) for parts in enumerate_partitions(d, m)}
        assert len(lattice) == len(gaps)
        assert set(lattice) == gaps


def _dense_riemann(d: int, n: int) -> float:
    numerator, denominator = constant_integrands(d)
    points = np.array(
        [gap_vector(parts) for parts in enumerate_partitions(d, n + 1)], dtype=float
    ) / (n + 1)
    return float(np.sum(numerator.evaluate_array(points))) / float(
        np.sum(denominator.evaluate_array(points))
    )


class TestRiemannConstant:
    @pytest.mark.parametrize("d,n", [(2, 50), (3, 40), (3, 699), (4, 30), (4, 119)])
    def test_matches_dense_sum(self, d, n):
        assert riemann_constant(d, n) == pytest.approx(_dense_riemann(d, n), rel=1e-13)

    def test_memory_stays_bounded(self):
        # one dense mesh over p_2..p_4 at level 601 held about 590 MiB
        tracemalloc.start()
        try:
            riemann_constant(4, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            riemann_constant(2, -2)

    def test_d2_close_at_large_level(self):
        assert riemann_constant(2, 4000) == pytest.approx(10.0, rel=0.01)

    def test_d3_close_at_large_level(self):
        c3 = float(exact_constant(3).exact)
        assert riemann_constant(3, 1500) == pytest.approx(c3, rel=0.02)

    def test_error_halves_when_level_doubles(self):
        e500 = abs(riemann_constant(2, 500) - 10.0)
        e1000 = abs(riemann_constant(2, 1000) - 10.0)
        e4000 = abs(riemann_constant(2, 4000) - 10.0)
        assert e1000 < e500 < 8 * e4000
        assert e500 / e1000 == pytest.approx(2.0, rel=0.2)

    def test_zero_denominator_is_reported(self):
        # at level 1 the only gap vector is (1, 0), killing prod x_j^2
        with pytest.raises(EmptySumError):
            riemann_constant(2, 0)


class TestConsistency:
    def test_d2_remainder_is_second_order(self):
        rep = constant_vs_risk_consistency(2, range(20, 61, 10))
        assert rep.constant == 10
        assert rep.max_scaled_remainder < 3.0
        mags = [abs(v) for _, v in rep.scaled_remainders]
        assert mags == sorted(mags, reverse=True)
        # scaled remainders behave like -40/N, so the through-origin fit
        # against 1/N recovers the second-order coefficient
        assert rep.fitted_remainder == pytest.approx(-40.0, rel=0.05)

    def test_d3_remainder_stays_bounded(self):
        rep = constant_vs_risk_consistency(3, range(12, 41, 7))
        assert rep.max_scaled_remainder < 300.0
        mags = [abs(v) for _, v in rep.scaled_remainders]
        assert mags == sorted(mags, reverse=True)

    def test_points_track_exact_risk(self):
        rep = constant_vs_risk_consistency(2, [10, 20])
        for point in rep.points:
            assert point.n2_risk == pytest.approx(
                point.n * point.n * point.risk_float, abs=1e-12
            )

    def test_empty_range_raises(self):
        with pytest.raises(EmptySumError):
            constant_vs_risk_consistency(2, [1, 2])

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csr_matrix

from conftest import weight_vector_st
from sud_estimate.errors import EmptySumError, EmptySupportError
from sud_estimate.risk import (
    RiskPoint,
    _box_removal,
    curve_to_csv,
    exact_risk,
    expansion_diagnostics,
    fit_constant,
    float_risk,
    risk_curve,
)
from sud_estimate.partitions import enumerate_partitions, gap_vector, removable_rows
from sud_estimate.weights import (
    WeightVector,
    power_weights,
    product_weights,
    scheme_weights,
    uniform_weights,
)

# Exact risks of the gap-product scheme, derived by hand enumeration:
#   N=3: support {(2,1)} with weight 1; level-4 terms 0, 1, 1 -> 1 - 2/4
#   N=4: support {(3,1)} with weight 2; level-5 terms 0, 4, 4 -> 1 - 8/16
#   N=5: support {(4,1): 3, (3,2): 2}; terms 0, 9, 25, 4 -> 1 - 38/52
GOLDEN_PRODUCT_RISKS = {
    (2, 3): Fraction(1, 2),
    (2, 4): Fraction(1, 2),
    (2, 5): Fraction(7, 26),
}


class TestExactRisk:
    def test_golden_values(self):
        for (d, n), want in GOLDEN_PRODUCT_RISKS.items():
            got = exact_risk(d, n, product_weights(d, n)).risk
            assert got == want

    def test_breakdown_terms(self):
        b = exact_risk(2, 5, product_weights(2, 5))
        assert b.numerator_terms == {
            (6, 0): Fraction(0),
            (5, 1): Fraction(9),
            (4, 2): Fraction(25),
            (3, 3): Fraction(4),
        }
        assert b.norm_sq == 13
        assert b.numerator == 38
        assert b.risk == 1 - Fraction(38, 4 * 13)

    def test_uniform_example(self):
        # hand enumeration: level-6 terms 0, 1, 4, 1 over norm 2
        b = exact_risk(2, 5, uniform_weights(2, 5))
        assert b.risk == Fraction(1, 4)

    def test_single_partition_slack(self):
        for d, n in [(2, 4), (3, 7), (4, 11)]:
            parts = enumerate_partitions(d, n, strict=True)[0]
            w = WeightVector(d, n, {parts: Fraction(1)})
            slack = exact_risk(d, n, w).risk
            assert slack >= 0
            assert slack == 1 - Fraction(1, d)

    def test_terms_are_built_when_read(self):
        b = exact_risk(3, 30, product_weights(3, 30))
        assert "numerator_terms" not in vars(b)
        assert list(b.numerator_terms) == enumerate_partitions(3, 31)
        assert sum(b.numerator_terms.values()) == b.numerator

    def test_empty_support_raises(self):
        with pytest.raises(EmptySupportError):
            exact_risk(2, 2, WeightVector(2, 2, {}))

    def test_scores_the_integer_form_without_building_entries(self):
        w = product_weights(3, 600)
        b = exact_risk(3, 600, w)
        assert "entries" not in vars(w)
        assert b.risk == 1 - b.numerator / (9 * w.norm_sq)

    def test_level_mismatch_raises(self):
        with pytest.raises(ValueError):
            exact_risk(2, 4, product_weights(2, 5))

    @given(weight_vector_st(max_level=8))
    @settings(max_examples=60)
    def test_risk_in_unit_interval_and_identity(self, data):
        d, n, entries = data
        w = WeightVector(d, n, entries)
        b = exact_risk(d, n, w)
        assert 0 <= b.risk <= 1
        assert b.risk == 1 - b.numerator / (d * d * b.norm_sq)

    def test_thousand_random_vectors_nonnegative_slack(self):
        import random

        rng = random.Random(20240801)
        pool = enumerate_partitions(3, 8)
        for _ in range(1000):
            entries = {
                parts: Fraction(rng.randrange(0, 8), rng.randrange(1, 8))
                for parts in rng.sample(pool, k=rng.randrange(1, 6))
            }
            if all(v == 0 for v in entries.values()):
                continue
            slack = exact_risk(3, 8, WeightVector(3, 8, entries)).risk
            assert slack >= 0


def reference_incidence(d: int, n: int) -> csr_matrix:
    """B from a loop over the level-(N+1) tuples and a dict of the level-N columns."""
    cols = enumerate_partitions(d, n)
    rows = enumerate_partitions(d, n + 1)
    col_of = {parts: j for j, parts in enumerate(cols)}
    indices, indptr = [], [0]
    for child in rows:
        for i, (a, b) in enumerate(zip(child, child[1:] + (0,))):
            if a > b:
                indices.append(col_of[child[:i] + (a - 1,) + child[i + 1 :]])
        indptr.append(len(indices))
    return csr_matrix(
        (np.ones(len(indices)), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(rows), len(cols)),
    )


class TestBoxRemoval:
    @pytest.mark.parametrize(
        "d, n",
        [(2, 1), (2, 5), (2, 401), (3, 0), (3, 30), (3, 602), (4, 12), (4, 82), (5, 9), (6, 14)],
    )
    def test_matches_reference_loop_bit_for_bit(self, d, n):
        got = _box_removal(d, n).matrix
        want = reference_incidence(d, n)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_every_row_has_a_parent(self):
        # exact_risk sums each CSR row with np.add.reduceat, which returns a
        # wrong value for an empty segment instead of zero
        for d in range(1, 7):
            for n in range(13):
                assert np.diff(_box_removal(d, n).matrix.indptr).min() >= 1, (d, n)

    @pytest.mark.parametrize(
        "d, n, scheme", [(2, 400, "power:60"), (3, 30, "product"), (4, 12, "optimal")]
    )
    def test_numerator_matches_reference_loop(self, d, n, scheme):
        # power:60 coefficients reach 200^60, far beyond int64
        w = scheme_weights(scheme, d, n)
        b = reference_incidence(d, n)
        cols = enumerate_partitions(d, n)
        sums = [
            sum(w.coefficient(cols[j]) for j in b.indices[b.indptr[r] : b.indptr[r + 1]])
            for r in range(b.shape[0])
        ]
        assert exact_risk(d, n, w).numerator == sum(s * s for s in sums)

    def test_tables_and_strict_mask(self):
        s = _box_removal(3, 9)
        assert s.rows == tuple(enumerate_partitions(3, 10))
        assert s.cols == tuple(enumerate_partitions(3, 9))
        strict = set(enumerate_partitions(3, 9, strict=True))
        assert s.strict.tolist() == [p in strict for p in s.cols]


class TestFloatPath:
    def test_matches_exact_path(self):
        for d, lo in ((2, 3), (3, 6)):
            for n in range(lo, lo + 20):
                for scheme in ("product", "uniform"):
                    w = scheme_weights(scheme, d, n)
                    exact = float(exact_risk(d, n, w).risk)
                    fast = float_risk(d, n, w)
                    assert fast == pytest.approx(exact, abs=1e-12)

    def test_huge_coefficients_do_not_overflow(self):
        # coefficients near 200^60: squared as raw floats they overflowed to NaN
        w = power_weights(2, 400, 60)
        exact = float(exact_risk(2, 400, w).risk)
        fast = float_risk(2, 400, w)
        assert math.isfinite(fast)
        assert fast == pytest.approx(exact, rel=1e-12)


class TestExpansionDiagnostics:
    def test_frozen_small_case(self):
        # d=2, N=5: four level-6 partitions; gap products 0, 4, 4, 0
        diag = expansion_diagnostics(2, 5)
        assert diag.c_t == 128
        assert diag.c_u == 128
        assert diag.t1 == -1
        assert diag.u1 == -1
        assert diag.t2 == Fraction(19, 64)
        assert diag.u2 == Fraction(13, 32)
        assert diag.u2_minus_t2 == Fraction(7, 64)

    def test_identities_on_grid(self):
        for d in (2, 3, 4):
            for n in range(d * (d + 1) // 2 - 1, 26):
                diag = expansion_diagnostics(d, n)
                assert diag.c_t == diag.c_u
                assert diag.t1 == diag.u1

    def test_leading_coefficient_closed_form(self):
        # c_t must equal d^2 * sum of squared gap products over the strict
        # partitions one level up (rows with any zero gap contribute nothing)
        for d, n in [(2, 9), (2, 16), (3, 8), (3, 13), (4, 11)]:
            diag = expansion_diagnostics(d, n)
            total = 0
            for parts in enumerate_partitions(d, n + 1, strict=True):
                prod = 1
                for g in gap_vector(parts):
                    prod *= g
                total += prod * prod
            assert diag.c_t == d * d * total

    def test_matches_row_by_row_expansion(self):
        # the same sums from the validating per-partition helpers
        for d, n in [(2, 9), (3, 5), (3, 17), (4, 13), (5, 16)]:
            c_t = c_u = t1 = u1 = t2 = u2 = 0
            for child in enumerate_partitions(d, n + 1):
                gaps = gap_vector(child)
                prod = math.prod(gaps)
                r = []
                for i in sorted(removable_rows(child)):
                    shifted = list(gaps)
                    shifted[i - 1] -= 1
                    if i > 1:
                        shifted[i - 2] += 1
                    r.append(math.prod(shifted) - prod)
                k = len(r)
                c_t += k * k * prod * prod
                c_u += d * k * prod * prod
                t1 += 2 * k * prod * sum(r)
                u1 += 2 * d * prod * sum(r)
                t2 += sum(r) ** 2
                u2 += d * sum(v * v for v in r)
            diag = expansion_diagnostics(d, n)
            assert (diag.c_t, diag.c_u) == (c_t, c_u)
            assert (diag.t1, diag.u1) == (Fraction(t1, c_t), Fraction(u1, c_u))
            assert (diag.t2, diag.u2) == (Fraction(t2, c_t), Fraction(u2, c_u))

    def test_exact_reconstruction_of_risk(self):
        # the expansion pieces reassemble the exact product-scheme risk with
        # no reference to per-partition coefficients
        for d, lo in ((2, 3), (3, 6), (4, 10)):
            for n in range(lo, lo + 12):
                diag = expansion_diagnostics(d, n)
                want = exact_risk(d, n, product_weights(d, n)).risk
                assert diag.risk_from_expansion() == want

    def test_degenerate_levels_raise(self):
        with pytest.raises(EmptySumError):
            expansion_diagnostics(2, 1)
        with pytest.raises(EmptySumError):
            expansion_diagnostics(3, 4)


class TestRiskCurve:
    def test_skips_infeasible_levels(self):
        curve = risk_curve(2, range(1, 7), "product", exact=True, fit=False)
        assert [p.n for p in curve.points] == [3, 4, 5, 6]
        assert [n for n, _ in curve.skipped] == [1, 2]
        assert curve.points[0].risk == Fraction(1, 2)

    def test_all_infeasible_gives_empty_curve(self):
        curve = risk_curve(3, range(1, 5), "product", fit=False)
        assert curve.points == ()
        assert len(curve.skipped) == 4

    def test_fit_recovers_known_constant(self):
        curve = risk_curve(2, range(40, 161, 4), "product")
        assert curve.fit is not None
        assert curve.fit.constant == pytest.approx(10.0, rel=0.02)
        assert curve.fit.window[0] >= 100

    def test_exact_and_float_sweeps_agree(self):
        fast = risk_curve(2, range(5, 40), "product", exact=False, fit=False)
        slow = risk_curve(2, range(5, 40), "product", exact=True, fit=False)
        for a, b in zip(fast.points, slow.points):
            assert a.risk_float == pytest.approx(b.risk_float, abs=1e-12)

    def test_workers_do_not_change_results(self):
        one = risk_curve(2, range(1, 30), "product", exact=True, workers=1)
        two = risk_curve(2, range(1, 30), "product", exact=True, workers=2)
        assert one == two

    def test_one_scheme_build_per_level(self, monkeypatch):
        calls = []

        def counting(spec, d, n, **kwargs):
            calls.append(n)
            return scheme_weights(spec, d, n, **kwargs)

        monkeypatch.setattr("sud_estimate.risk.scheme_weights", counting)
        curve = risk_curve(2, range(1, 7), "product", fit=False)
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]
        assert [n for n, _ in curve.skipped] == [1, 2]

    def test_csv_shape(self):
        curve = risk_curve(2, range(3, 8), "product", exact=True, fit=False)
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "N,risk_num,risk_den,risk_float,N2_risk"
        assert lines[1].startswith("3,1,2,0.5,")
        assert len(lines) == 1 + len(curve.points)

    def test_fit_requires_points(self):
        with pytest.raises(ValueError):
            fit_constant([RiskPoint(3, None, 0.5, 4.5)])

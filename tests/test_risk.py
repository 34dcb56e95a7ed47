import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gap_vector, mapped_weights, removable_rows, weight_vector_st
from sud_estimate.errors import EmptySumError, EmptySupportError
from sud_estimate.partitions import partition_table
from sud_estimate.risk import (
    BoxMatrix,
    ExpansionDiagnostics,
    RiskPoint,
    _box_removal,
    _locate,
    _run_marks,
    exact_risk,
    expansion_diagnostics,
    fit_constant,
    risk_curve,
)
from sud_estimate.cli import curve_to_csv
from sud_estimate.partitions import enumerate_partitions
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
            w = mapped_weights(d, n, {parts: Fraction(1)})
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
            exact_risk(2, 2, mapped_weights(2, 2, {}))

    def test_scores_the_integer_form_without_building_entries(self):
        w = product_weights(3, 600)
        b = exact_risk(3, 600, w)
        assert "entries" not in vars(w)
        assert b.risk == 1 - b.numerator / (9 * w.norm_sq)

    def test_level_mismatch_raises(self):
        with pytest.raises(ValueError):
            exact_risk(2, 4, product_weights(2, 5))

    def test_scores_on_a_structure_the_caller_holds(self):
        from sud_estimate.spectral import build_incidence

        structure = _box_removal(3, 9)
        for w in (product_weights(3, 9), uniform_weights(3, 9), power_weights(3, 9, 2)):
            assert exact_risk(3, 9, w, structure) == exact_risk(3, 9, w)
        w = product_weights(3, 9)
        for other in (build_incidence(3, 9, "strict"), _box_removal(3, 8), _box_removal(4, 9)):
            with pytest.raises(ValueError, match="structure"):
                exact_risk(3, 9, w, other)

    def test_run_marks_are_built_once_per_structure(self, monkeypatch):
        import sud_estimate.risk as risk
        from sud_estimate.spectral import optimal_weights

        built = []
        marks = risk._run_marks
        monkeypatch.setattr(
            risk, "_run_marks", lambda table: built.append(len(table)) or marks(table)
        )
        structure = _box_removal(3, 30)
        schemes = [product_weights(3, 30, structure), uniform_weights(3, 30, structure),
                   optimal_weights(3, 30, structure=structure)]
        risks = [exact_risk(3, 30, w, structure).risk for w in schemes]
        assert built == [len(structure.parent_table)]
        # each risk is ||B c||^2 / (d^2 ||c||^2) on the dense matrix, in exact integers
        index = {row: i for i, row in enumerate(map(tuple, structure.parent_table.tolist()))}
        b = np.zeros(structure.matrix.shape, dtype=object)
        b[structure.matrix.entry_rows, structure.matrix.indices] = 1
        for w, risk_value in zip(schemes, risks):
            c = np.zeros(b.shape[1], dtype=object)
            c[[index[row] for row in map(tuple, w.table.tolist())]] = w.numerators.tolist()
            want = 1 - Fraction(int(((b @ c) ** 2).sum()), 9 * int((c * c).sum()))
            assert risk_value == want

    @given(weight_vector_st(max_level=8))
    @settings(max_examples=60)
    def test_risk_in_unit_interval_and_identity(self, data):
        d, n, entries = data
        w = mapped_weights(d, n, entries)
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
            slack = exact_risk(3, 8, mapped_weights(3, 8, entries)).risk
            assert slack >= 0


def reference_incidence(d: int, n: int) -> BoxMatrix:
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
    return BoxMatrix(
        (len(rows), len(cols)), np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64)
    )


def python_int_breakdown(d: int, n: int, w: WeightVector) -> tuple[Fraction, list[int]]:
    """The risk of ``w`` and its parent sums, all in Python ints on the reference incidence."""
    b = reference_incidence(d, n)
    column = {parts: j for j, parts in enumerate(enumerate_partitions(d, n))}
    c = [0] * b.shape[1]
    for parts, v in zip(map(tuple, w.table.tolist()), w.numerators.tolist()):
        c[column[parts]] = v
    indices, indptr = b.indices.tolist(), b.indptr.tolist()
    sums = [sum(c[j] for j in indices[indptr[r]:indptr[r + 1]]) for r in range(b.shape[0])]
    return 1 - Fraction(sum(s * s for s in sums), d * d * sum(v * v for v in c)), sums


def sparse_weights(d: int, n: int) -> WeightVector:
    """Random coefficients on a random tenth of the level-n partitions, among
    them one with a repeated part and one with a zero part."""
    rng = random.Random(f"{d}-{n}")
    rows = enumerate_partitions(d, n)
    support = set(rng.sample(rows, len(rows) // 10))
    support.add(next(p for p in rows if len(set(p)) < d and p[-1] > 0))
    support.add(next(p for p in rows if p[-1] == 0))
    return mapped_weights(d, n, {p: Fraction(rng.randint(1, 50), rng.randint(1, 7))
                                 for p in sorted(support)})


class TestLocate:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_a_dict_of_rows(self, d):
        rng = random.Random(d)
        for n in range(13):
            table = partition_table(d, n)
            index = {row: i for i, row in enumerate(map(tuple, table.tolist()))}
            picks = [rng.sample(range(len(table)), rng.randint(1, len(table))) for _ in range(4)]
            subsets = [table[:0], table, partition_table(d, n, strict=True), table[:1],
                       table[-1:]] + [table[sorted(p)] for p in picks] + [table[picks[0]]]
            for queries in subsets:
                got = _locate(table, queries, _run_marks(table))
                assert got.dtype == np.int64
                assert got.tolist() == [index[row] for row in map(tuple, queries.tolist())], n


class TestIntegerPaths:
    """The int64 sums are taken only where a bound keeps them exact."""

    @staticmethod
    def two_row_scheme(top: int) -> WeightVector:
        # numerators top and top - 1 on (4, 1) and (3, 2); the level-6 row (4, 2) sums both
        return WeightVector(2, 5, np.array([[4, 1], [3, 2]]), [top, top - 1])

    @pytest.mark.parametrize("top, dtype", [(2**62 - 1, np.int64), (2**62, object)])
    def test_parent_sums_on_each_side_of_the_bound(self, top, dtype):
        # d * top is 2^63 - 2 (inside the bound) or 2^63 (outside)
        w = self.two_row_scheme(top)
        assert w.numerators.dtype == np.int64
        b = exact_risk(2, 5, w)
        risk, sums = python_int_breakdown(2, 5, w)
        assert b._parent_sums.dtype == dtype
        assert b._parent_sums.tolist() == sums
        assert b.risk == risk

    def test_terms_are_python_int_squares_of_int64_sums(self):
        w = self.two_row_scheme(2**40)
        b = exact_risk(2, 5, w)
        assert b._parent_sums.dtype == np.int64 and max(b._parent_sums) > 2**31.5
        _, sums = python_int_breakdown(2, 5, w)
        assert list(b.numerator_terms.values()) == [Fraction(s * s) for s in sums]
        assert b.numerator == sum(s * s for s in sums)

    @given(weight_vector_st(max_level=8), st.integers(2**79, 2**119))
    @settings(max_examples=60)
    def test_risk_is_unchanged_on_the_object_path(self, data, half):
        # the risk is scale invariant; reducing by a divisor of the denominator
        # (< 2^15) leaves numerators above 2^65 when the odd scale K exceeds 2^80
        d, n, entries = data
        w = mapped_weights(d, n, entries)
        k = 2 * half + 1
        scaled = WeightVector(d, n, w.table, [v * k for v in w.numerators.tolist()],
                              w.denominator)
        assert scaled.numerators.dtype == object
        b = exact_risk(d, n, scaled)
        assert b._parent_sums.dtype == object
        assert b.risk == exact_risk(d, n, w).risk

    @pytest.mark.parametrize("d, n, scheme", [(3, 602, "product"), (4, 82, "power:3")])
    def test_gap_product_schemes_stay_on_int64(self, d, n, scheme):
        w = scheme_weights(scheme, d, n)
        b = exact_risk(d, n, w)
        assert w.numerators.dtype == np.int64
        assert b._parent_sums.dtype == np.int64
        assert (b.risk, b._parent_sums.tolist()) == python_int_breakdown(d, n, w)

    def test_full_support_optimum_stays_exact(self):
        from sud_estimate.spectral import build_incidence, max_eigenpair

        result = max_eigenpair(build_incidence(3, 122))
        w = result.eigvec
        floats = result._vector[result._vector > 0].tolist()
        assert [Fraction(v, w.denominator) for v in w.numerators.tolist()] == list(
            map(Fraction, floats))
        assert exact_risk(3, 122, w).risk == python_int_breakdown(3, 122, w)[0]


class TestBoxRemoval:
    @pytest.mark.parametrize(
        "d, n",
        [(1, 0), (1, 9), (2, 1), (2, 5), (2, 401), (3, 0), (3, 30), (3, 602), (4, 0), (4, 12),
         (4, 82), (5, 9), (6, 14), (7, 10)],
    )
    def test_matches_reference_loop_bit_for_bit(self, d, n):
        got = _box_removal(d, n).matrix
        want = reference_incidence(d, n)
        assert got.shape == want.shape
        for name in ("indptr", "indices"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_every_row_has_a_parent(self):
        # exact_risk sums each CSR row with np.add.reduceat, which returns a
        # wrong value for an empty segment instead of zero
        for d in range(1, 7):
            for n in range(13):
                assert np.diff(_box_removal(d, n).matrix.indptr).min() >= 1, (d, n)

    @pytest.mark.parametrize(
        "d, n, scheme",
        [(2, 400, "power:60"), (3, 30, "product"), (4, 12, "optimal"), (3, 30, "sparse"),
         (5, 14, "sparse")],
    )
    def test_numerator_matches_reference_loop(self, d, n, scheme):
        # power:60 coefficients reach 200^60, far beyond int64; a sparse support,
        # like a file: scheme's, has rows with repeated parts and zeros
        w = sparse_weights(d, n) if scheme == "sparse" else scheme_weights(scheme, d, n)
        b = reference_incidence(d, n)
        cols = enumerate_partitions(d, n)
        sums = [
            sum(w.entries.get(cols[j], 0) for j in b.indices[b.indptr[r] : b.indptr[r + 1]])
            for r in range(b.shape[0])
        ]
        assert exact_risk(d, n, w).numerator == sum(s * s for s in sums)

    def test_tables_and_strict_mask(self):
        s = _box_removal(3, 9)
        cols = list(map(tuple, s.parent_table.tolist()))
        assert list(map(tuple, s.child_table.tolist())) == enumerate_partitions(3, 10)
        assert cols == enumerate_partitions(3, 9)
        strict = set(enumerate_partitions(3, 9, strict=True))
        assert s.strict.tolist() == [p in strict for p in cols]


class TestFloatPath:
    """Sweep points keep the exact risk; their floats are it, rounded once."""

    def test_matches_exact_path(self):
        for d, lo in ((2, 3), (3, 6)):
            for scheme in ("product", "uniform"):
                curve = risk_curve(d, range(lo, lo + 20), scheme)
                assert [p.n for p in curve.points] == list(range(lo, lo + 20))
                for p in curve.points:
                    assert p.risk == exact_risk(d, p.n, scheme_weights(scheme, d, p.n)).risk
                    assert p.risk_float == float(p.risk)
                    assert p.n2_risk == p.n * p.n * p.risk_float

    def test_huge_coefficients_do_not_overflow(self):
        # coefficients near 200^60: squared as raw floats they overflowed to NaN
        w = power_weights(2, 400, 60)
        point = risk_curve(2, [400], "power:60").points[0]
        assert point.risk == exact_risk(2, 400, w).risk
        assert math.isfinite(point.risk_float) and math.isfinite(point.n2_risk)

    def test_huge_fractional_exponent_does_not_overflow(self):
        # 200.0 ** 1000.5, the largest gap product at d=2 N=40, raised OverflowError;
        # the scheme sits almost wholly on (30, 10), whose risk alone is 1/2
        point = risk_curve(2, [40], "power:2001/2").points[0]
        assert point.risk_float == pytest.approx(0.49996, abs=1e-5)


def object_expansion(d: int, n: int) -> ExpansionDiagnostics:
    """The expansion pieces computed on whole-table object arrays of Python ints."""
    children = partition_table(d, n + 1)
    gaps = children.copy()
    gaps[:, :-1] -= children[:, 1:]
    p = gaps.astype(object)
    before = np.ones_like(p)
    before[:, 1:] = np.cumprod(p[:, :-1], axis=1)
    after = np.ones_like(p)
    after[:, :-1] = np.cumprod(p[:, :0:-1], axis=1)[:, ::-1]
    r = -before * after
    r[:, 1:] += (p[:, 1:] - 1) * before[:, :-1] * after[:, 1:]
    r[gaps == 0] = 0
    r_sum = r.sum(axis=1)
    prod = before[:, -1] * p[:, -1]
    k = np.count_nonzero(gaps, axis=1).astype(object)
    kp = k * prod * prod
    c_t = int(np.dot(k, kp))
    c_u = d * int(kp.sum())
    return ExpansionDiagnostics(
        d, n, Fraction(c_t), Fraction(c_u),
        Fraction(2 * int(np.dot(k * prod, r_sum)), c_t),
        Fraction(2 * d * int(np.dot(prod, r_sum)), c_u),
        Fraction(int(np.dot(r_sum, r_sum)), c_t),
        Fraction(d * int((r * r).sum()), c_u),
    )


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
        assert diag.u2 - diag.t2 == Fraction(7, 64)

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

    @pytest.mark.parametrize("d, n", [
        (2, 2), (2, 57), (2, 1200), (3, 5), (3, 121), (3, 600), (4, 9), (4, 70),
        (5, 14), (5, 33), (6, 20), (6, 29),
    ])
    def test_matches_the_object_array_reference(self, d, n):
        diag = expansion_diagnostics(d, n)
        assert diag == object_expansion(d, n)
        for value in (diag.c_t, diag.c_u, diag.t1, diag.u1, diag.t2, diag.u2):
            assert type(value.numerator) is int and type(value.denominator) is int

    def test_largest_level_inside_the_bound_is_exact(self):
        # at d=1 the one child of level n+1 has gap n+1; the bound 2(n+1) reaches 2^62 at n = 2^61 - 1
        n = 2**61 - 2
        assert expansion_diagnostics(1, n) == ExpansionDiagnostics(
            1, n, Fraction((n + 1) ** 2), Fraction((n + 1) ** 2),
            Fraction(-2, n + 1), Fraction(-2, n + 1), Fraction(1, (n + 1) ** 2),
            Fraction(1, (n + 1) ** 2),
        )
        with pytest.raises(ValueError, match="int64"):
            expansion_diagnostics(1, n + 1)

    def test_level_beyond_the_bound_is_refused_before_any_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a partition table was built")

        monkeypatch.setattr("sud_estimate.risk.partition_table", refuse)
        with pytest.raises(ValueError, match="int64"):
            expansion_diagnostics(2, 10**10)

    def test_degenerate_levels_raise(self):
        with pytest.raises(EmptySumError):
            expansion_diagnostics(2, 1)
        with pytest.raises(EmptySumError):
            expansion_diagnostics(3, 4)


class TestRiskCurve:
    def test_skips_infeasible_levels(self):
        curve = risk_curve(2, range(1, 7), "product")
        assert [p.n for p in curve.points] == [3, 4, 5, 6]
        assert [n for n, _ in curve.skipped] == [1, 2]
        assert curve.points[0].risk == Fraction(1, 2)

    def test_all_infeasible_gives_empty_curve(self):
        curve = risk_curve(3, range(1, 5), "product")
        assert curve.points == ()
        assert len(curve.skipped) == 4

    def test_fit_recovers_known_constant(self):
        curve = risk_curve(2, range(40, 161, 4), "product")
        assert curve.fit is not None
        assert curve.fit.constant == pytest.approx(10.0, rel=0.02)
        assert curve.fit.window[0] >= 100

    def test_workers_do_not_change_results(self):
        one = risk_curve(2, range(1, 30), "product", workers=1)
        two = risk_curve(2, range(1, 30), "product", workers=2)
        assert one == two

    def test_one_scheme_build_per_level(self, monkeypatch):
        calls = []

        def counting(spec, d, n, **kwargs):
            calls.append(n)
            return scheme_weights(spec, d, n, **kwargs)

        monkeypatch.setattr("sud_estimate.risk.scheme_weights", counting)
        curve = risk_curve(2, range(1, 7), "product")
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]
        assert [n for n, _ in curve.skipped] == [1, 2]

    def test_csv_shape(self):
        curve = risk_curve(2, range(3, 8), "product")
        text = curve_to_csv(curve, exact=True)
        lines = text.strip().split("\n")
        assert lines[0] == "N,risk_num,risk_den,risk_float,N2_risk"
        assert lines[1].startswith("3,1,2,0.5,")
        assert len(lines) == 1 + len(curve.points)

    def test_fit_requires_points(self):
        with pytest.raises(ValueError):
            fit_constant([RiskPoint(3, Fraction(1, 2))])

import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fraction_records, mapped_weights, weight_vector_st
from sud_estimate import partitions
from sud_estimate.errors import EmptySupportError
from sud_estimate.risk import exact_risk
from sud_estimate.spectral import build_incidence, max_eigenpair
from sud_estimate.weights import (
    WeightVector,
    _exact_ratios,
    _fraction_records,
    _gap_products,
    _int_array,
    _sum_of_products,
    fraction_text,
    int_text,
    load_weights,
    parse_scheme,
    power_weights,
    product_weights,
    records_text,
    save_weights,
    scheme_weights,
    uniform_weights,
    weights_from_json,
)


def scheme_records(w: WeightVector):
    """The weight records of ``w`` from its integer form."""
    return _fraction_records(w.table, w.numerators.tolist(), w.denominator)


class TestGapWeights:
    def test_product_examples(self):
        assert product_weights(2, 3).entries[(2, 1)] == 1
        assert product_weights(2, 5).entries == {(4, 1): 3, (3, 2): 2}
        assert (3, 3) not in product_weights(2, 6).entries  # not strict
        assert product_weights(3, 9).entries[(5, 3, 1)] == 4

    def test_power_examples(self):
        assert power_weights(2, 5, 0).entries[(4, 1)] == 1
        assert power_weights(2, 5, 1).entries[(4, 1)] == 3
        assert power_weights(2, 5, 2).entries[(4, 1)] == 9
        assert (3, 3) not in power_weights(2, 6, 0).entries  # off the strict set even at alpha=0
        half = power_weights(2, 5, Fraction(1, 2)).entries
        assert half[(4, 1)] / half[(3, 2)] == pytest.approx((3 / 2) ** 0.5)
        with pytest.raises(ValueError):
            power_weights(2, 5, -1)


class TestGapProducts:
    @pytest.mark.parametrize("d, n", [
        (1, 1), (1, 40), (2, 3), (2, 41), (2, 5000), (3, 6), (3, 77), (3, 1000),
        (4, 10), (4, 93), (5, 15), (5, 44), (6, 21), (6, 38),
    ])
    def test_products_are_the_object_array_products_as_python_ints(self, d, n):
        # int64 products wrap silently; these must equal the Python-int products
        table, products = _gap_products(d, n)
        gaps = table.copy()
        gaps[:, :-1] -= table[:, 1:]
        assert products.dtype == np.int64
        assert products.tolist() == gaps.astype(object).prod(axis=1).tolist()

    def test_largest_level_inside_the_bound_is_exact(self):
        # d=1 has one row, whose gap is the level n; the bound (n/d)^d / d! reaches 2^63 at 2^63
        assert _gap_products(1, 2**63 - 1)[1].tolist() == [2**63 - 1]
        with pytest.raises(ValueError, match="int64"):
            _gap_products(1, 2**63)

    def test_smallest_strict_level_is_accepted_at_any_d(self):
        # its one row has every gap 1, so its product is 1 however large d is
        assert product_weights(48, 1176).entries == {tuple(range(48, 0, -1)): 1}

    def test_level_beyond_the_bound_is_refused_before_any_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a partition table was built")

        monkeypatch.setattr("sud_estimate.weights.partition_table", refuse)
        with pytest.raises(ValueError, match="int64"):
            _gap_products(2, 10**10)


class TestSumOfProducts:
    @staticmethod
    def assert_matches_python_ints(a, b):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        want = int(np.dot(a.astype(object), b.astype(object)))
        got = _sum_of_products(a, b)
        assert type(got) is int and got == want
        return got

    @pytest.mark.parametrize("a, b", [
        ([2**63 - 1], [1]),
        ([(2**63 - 1) // 7] * 7, [1] * 7),  # 2^63 - 1 = 7 * 1317624576693539401
        ([-(2**63 - 1) // 7] * 7, [1] * 7),
    ])
    def test_bound_at_int64_max_is_exact(self, a, b):
        # inside the bound: one int64 dot
        assert self.assert_matches_python_ints(a, b) in (2**63 - 1, -(2**63 - 1))

    @pytest.mark.parametrize("a, b", [
        ([2**62], [2]),
        ([2**62, 2**62], [1, 1]),  # int64 wraps this sum to -2^63
        ([-(2**62), -(2**62)], [1, 1]),
        ([2**32, 3], [2**31, 5]),
    ])
    def test_bound_at_2_63_is_exact(self, a, b):
        # outside the bound: an int64 dot would wrap
        self.assert_matches_python_ints(a, b)

    def test_default_second_factor_and_object_arrays(self):
        a = np.array([3, 2**40, 7], dtype=np.int64)
        assert _sum_of_products(a) == 9 + 2**80 + 49
        big = np.array([2**70, 1], dtype=object)
        assert _sum_of_products(big) == 2**140 + 1
        assert _sum_of_products(np.zeros(0, dtype=np.int64)) == 0


class TestIntArray:
    def test_dtype_is_int64_exactly_when_every_value_fits(self):
        assert _int_array([2**63 - 1, 0]).dtype == np.int64
        wide = _int_array([2**63, 1])
        assert wide.dtype == object and wide.tolist() == [2**63, 1]
        assert {type(v) for v in wide.tolist()} == {int}
        assert not _int_array([1, 2]).flags.writeable

    def test_scheme_numerators_are_read_only_arrays(self):
        for w in (product_weights(3, 30), power_weights(2, 40, 60),
                  mapped_weights(2, 5, {(4, 1): Fraction(1, 3), (3, 2): 2})):
            assert isinstance(w.numerators, np.ndarray) and not w.numerators.flags.writeable
        assert power_weights(2, 40, 60).numerators.dtype == object

    def test_from_table_keeps_copies(self):
        table = np.array([[4, 1], [3, 2]])
        numerators = np.array([3, 2])
        w = WeightVector(2, 5, table, numerators)
        table[0, 0] = numerators[0] = 0
        assert w == product_weights(2, 5)
        assert table.flags.writeable and numerators.flags.writeable


class TestWeightVector:
    def test_drops_zeros_and_sorts(self):
        w = mapped_weights(2, 5, {(3, 2): Fraction(2), (5, 0): Fraction(0), (4, 1): Fraction(3)})
        assert w.table.tolist() == [[4, 1], [3, 2]]
        assert (5, 0) not in w.entries
        assert w.norm_sq == 13

    def test_validation(self):
        with pytest.raises(ValueError):
            mapped_weights(2, 5, {(4, 1): Fraction(-1)})
        with pytest.raises(ValueError):
            mapped_weights(2, 5, {(3, 1): Fraction(1)})  # wrong level
        with pytest.raises(ValueError):
            mapped_weights(3, 5, {(4, 1): Fraction(1)})  # wrong d

    @pytest.mark.parametrize(
        "d, key, value, message",
        [
            (2, (True, False), 1, "partition entries must be ints, got True"),
            (2, (3.0, 2), 1, "partition entries must be ints, got 3.0"),
            (3, (4, 1), 1, "expected 3 rows, got 2: (4, 1)"),
            (2, (1, 4), 1, "rows must be weakly decreasing: (1, 4)"),
            (2, (6, -1), 1, "rows must be nonnegative: (6, -1)"),
            (2, (3, 1), 1, "partition (3, 1) has level 4, expected 5"),
            (2, (3, 2), -1, "coefficient for (3, 2) is negative: -1"),
        ],
    )
    def test_names_the_offending_entry_among_valid_ones(self, d, key, value, message):
        valid = {(5, 0): Fraction(1), (4, 1): Fraction(2)} if d == 2 else {(3, 1, 1): 1}
        for entries in ({key: value}, {**valid, key: value}):
            with pytest.raises(ValueError, match=re.escape(message)):
                mapped_weights(d, 5, entries)

    @pytest.mark.parametrize("numerators, shape", [
        ([3, 2], "(2,)"), (np.array([3, 2]), "(2,)"), ([3, 2, 1, 7], "(4,)"),
        ([[3, 2, 1]], "(1, 3)"), (5, "()"),
    ])
    @pytest.mark.parametrize("rows", [[[5, 0], [4, 1], [3, 2]], [[3, 2], [4, 1], [5, 0]]],
                             ids=["canonical", "reversed"])
    def test_numerators_not_one_per_row_are_refused(self, rows, numerators, shape):
        # 2 numerators built a 3-row scheme, 4 counted a coefficient with no row
        message = f"numerators of shape {shape} for a table of 3 rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightVector(2, 5, np.array(rows), numerators)

    def test_norm_sq_is_the_exact_sum_of_squares(self):
        w = mapped_weights(2, 6, {(6, 0): Fraction(1, 6), (5, 1): Fraction(-0, 4),
                                  (4, 2): Fraction(3, 10), (3, 3): 2})
        assert w.norm_sq == Fraction(1, 36) + Fraction(9, 100) + 4
        assert w.table.tolist() == [[6, 0], [4, 2], [3, 3]]

    def test_scheme_build_and_risk_validate_in_bulk(self, monkeypatch):
        # product_weights(3, 600) has 29,701 entries; none is validated on its own
        calls = []
        original = partitions.check_partition

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("sud_estimate") and (
                getattr(module, "check_partition", None) is original
            ):
                monkeypatch.setattr(module, "check_partition", counting)
        w = product_weights(3, 600)
        exact_risk(3, 600, w)
        assert len(w.entries) == 29701
        assert len(calls) <= 3

    @given(weight_vector_st(), st.integers(1, 12))
    def test_mapping_and_table_routes_agree(self, data, extra):
        d, n, entries = data
        w = mapped_weights(d, n, entries)
        scale = math.lcm(*(Fraction(v).denominator for v in entries.values())) * extra
        table = np.array(list(entries), dtype=np.int64)
        numerators = [int(Fraction(v) * scale) for v in entries.values()]
        v = WeightVector(d, n, table, numerators, scale)
        assert v == w
        assert v.entries == w.entries == {p: Fraction(c) for p, c in entries.items() if c}
        assert v.norm_sq == w.norm_sq
        assert v.denominator == w.denominator
        assert math.gcd(v.denominator, *v.numerators) == 1

    @pytest.mark.parametrize("numerators", [[1.5, 2.0], [3.0, 2.0], np.array([1.5, 2.0]),
                                            np.array([3, 2], dtype=float)])
    def test_non_integer_numerators_are_refused(self, numerators):
        # an int64 cast would truncate 1.5 to 1 without a word
        with pytest.raises(TypeError):
            WeightVector(2, 5, np.array([[4, 1], [3, 2]]), numerators)

    @pytest.mark.parametrize("n, table, row", [
        (5, np.array([[4.7, 1.2]]), "(4.7, 1.2)"),
        (1, np.array([[True, False]]), "(True, False)"),
        (5, np.array([[4.0, 1.0]]), "(4.0, 1.0)"),
        (5, np.array([[4, 1]], dtype=object), "(4, 1)"),
    ])
    def test_non_integer_tables_are_refused(self, n, table, row):
        # an int64 cast would build the first two on (4, 1) and (1, 0) without a word
        with pytest.raises(ValueError, match=re.escape(f"partition {row} is not a row of ints")):
            WeightVector(2, n, table, [1])

    @pytest.mark.parametrize("table, numerators, shape", [
        ([], [], "(0,)"),
        (np.array([4, 1]), [1], "(2,)"),
        (np.array([[[4, 1]]]), [1], "(1, 1, 2)"),
        (np.array([[5, 0, 0]]), [1], "(1, 3)"),
        (np.zeros((0, 3), dtype=np.int64), [], "(0, 3)"),
    ])
    def test_a_table_that_is_not_k_by_d_is_refused(self, table, numerators, shape):
        # the first two raised IndexError at table.shape[1]; the last was accepted
        with pytest.raises(ValueError, match=re.escape(f"table of shape {shape}")):
            WeightVector(2, 5, table, numerators)

    def test_a_repeated_row_is_refused_whatever_its_coefficients(self):
        for numerators in ([1, 0], [0, 1]):  # a zero on either copy does not hide it
            with pytest.raises(ValueError, match="appears twice"):
                WeightVector(2, 5, np.array([[3, 2], [4, 1], [3, 2]]), [2] + numerators)

    def test_table_route_sorts_rows_and_rejects_a_repeated_row(self):
        table = np.array([[3, 2], [4, 1]])
        assert WeightVector(2, 5, table, [2, 3]) == product_weights(2, 5)
        with pytest.raises(ValueError, match="appears twice"):
            WeightVector(2, 5, np.array([[4, 1], [4, 1]]), [1, 1])

    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_named_schemes_equal_their_mapping(self, alpha):
        w = power_weights(3, 14, alpha)
        table = partitions.partition_table(3, 14, strict=True)
        mapped = {
            (a, b, c): ((a - b) * (b - c) * c) ** alpha for a, b, c in table.tolist()
        }
        assert w == mapped_weights(3, 14, mapped)
        assert "entries" not in vars(w)

    def test_float_coefficients_unit_norm(self):
        w = product_weights(2, 9)
        norm = math.sqrt(float(w.norm_sq))
        coeffs = [v / w.denominator / norm for v in w.numerators.tolist()]
        assert sum(c * c for c in coeffs) == pytest.approx(1.0, abs=1e-14)


class TestExactRatios:
    SPECIAL = [0.0, 5e-324, 2.2250738585072014e-308, 0.1, 0.5, 1.0, 1.5, 2.0**60]

    @staticmethod
    def assert_exact(values):
        numerators, denominator = _exact_ratios(values)
        assert denominator > 0 and denominator & (denominator - 1) == 0  # a power of two
        assert [Fraction(v, denominator) for v in numerators] == [Fraction(x) for x in values]

    @pytest.mark.parametrize("x", SPECIAL)
    def test_each_float_is_taken_exactly(self, x):
        self.assert_exact([x])

    def test_one_denominator_serves_every_float(self):
        self.assert_exact(self.SPECIAL)
        self.assert_exact(max_eigenpair(build_incidence(3, 40))._vector.tolist())

    def test_fractional_power_risk_is_unchanged(self):
        risk = exact_risk(3, 20, power_weights(3, 20, Fraction(1, 2))).risk
        assert fraction_text(risk) == (
            "126835403950688110269745528897690/745111679123624544998754831318057"
        )

    def test_eigvec_has_the_form_of_its_floats_taken_one_by_one(self):
        result = max_eigenpair(build_incidence(3, 40))
        vector = result._vector
        ratios = [x.as_integer_ratio() for x in vector[vector > 0].tolist()]
        scale = math.lcm(*(q for _, q in ratios))
        want = WeightVector(3, 40, result._columns[vector > 0],
                            [p * (scale // q) for p, q in ratios], scale)
        w = result.eigvec
        assert w.denominator == want.denominator
        assert np.array_equal(w.numerators, want.numerators)
        assert np.array_equal(w.table, want.table)


class TestSchemes:
    def test_product_scheme_support(self):
        w = product_weights(2, 5)
        assert w.entries == {(4, 1): Fraction(3), (3, 2): Fraction(2)}

    def test_uniform_scheme(self):
        w = uniform_weights(2, 7)
        assert set(w.entries.values()) == {Fraction(1)}
        assert w.table.tolist() == [[6, 1], [5, 2], [4, 3]]

    def test_empty_strict_set_raises(self):
        with pytest.raises(EmptySupportError):
            product_weights(2, 2)
        with pytest.raises(EmptySupportError):
            uniform_weights(3, 5)

    def test_power_matches_product_and_uniform(self):
        assert power_weights(2, 9, 1).entries == product_weights(2, 9).entries
        assert power_weights(2, 9, 0).entries == uniform_weights(2, 9).entries

    def test_parse_scheme(self):
        assert parse_scheme("product").kind == "product"
        assert parse_scheme("power:1/2").alpha == Fraction(1, 2)
        assert parse_scheme("power:0.5").alpha == Fraction(1, 2)
        assert parse_scheme("optimal").support == "full"
        assert parse_scheme("optimal:strict").support == "strict"
        assert parse_scheme("file:/tmp/w.json").path == "/tmp/w.json"
        for bad in ("bogus", "power:", "power:-1", "optimal:weird"):
            with pytest.raises(ValueError):
                parse_scheme(bad)

    def test_scheme_weights_dispatch(self):
        assert scheme_weights("product", 2, 5).entries == product_weights(2, 5).entries
        assert scheme_weights("power:2", 2, 5).entries == {
            (4, 1): Fraction(9),
            (3, 2): Fraction(4),
        }

    def test_optimal_scheme_is_unit_norm_floats(self):
        w = scheme_weights("optimal", 2, 4)
        assert w.d == 2 and w.level == 4
        assert float(w.norm_sq) == pytest.approx(1.0, abs=1e-10)


class TestSerialization:
    def test_int_text_prints_plain_digits_at_any_size(self):
        values = [0, 1, -1, 9, 10, 10**30, -(10**18), 2**63, 10**4299 - 1, -(10**4299)]
        assert [int_text(v) for v in values] == [str(v) for v in values]
        big = -(7**6000)  # 5,071 digits, past Python's default limit of 4,300
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            expected = str(big)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert int_text(big) == expected

    def test_round_trip(self):
        w = product_weights(2, 7)
        back = weights_from_json(json.loads("".join(records_text(scheme_records(w)))))
        assert back == w

    def test_record_format(self):
        recs = list(scheme_records(product_weights(2, 5)))
        assert recs == [([4, 1], "3/1"), ([3, 2], "2/1")]

    @pytest.mark.parametrize(
        "w",
        [None, product_weights(2, 5), mapped_weights(1, 3, {(3,): Fraction(1, 3)}),
         power_weights(3, 9, Fraction(1, 2)), power_weights(2, 5, 10000)],
        ids=["empty", "product", "d=1", "power:1/2", "beyond-the-digit-limit"],
    )
    def test_records_text_is_the_json_dumps_text(self, w):
        records = [] if w is None else fraction_records(w)

        def text(depth: int) -> str:
            return "".join(records_text([] if w is None else scheme_records(w), "weight", depth))

        assert text(0) == json.dumps(records, indent=2)
        assert json.dumps({"a": 1, "c": records}, indent=2) == (
            '{\n  "a": 1,\n  "c": ' + text(1) + "\n}"
        )
        assert json.dumps({"a": {"c": records}}, indent=2) == (
            '{\n  "a": {\n    "c": ' + text(2) + "\n  }\n}"
        )
        values = [{"parts": r["parts"], "value": r["weight"]} for r in records]
        pairs = [(r["parts"], r["value"]) for r in values]
        assert json.dumps({"c": values}, indent=2) == (
            '{\n  "c": ' + "".join(records_text(pairs, "value", 1)) + "\n}"
        )

    def test_file_round_trip_and_scheme(self, tmp_path):
        w = power_weights(2, 8, 2)
        path = tmp_path / "w.json"
        save_weights(w, path)
        assert load_weights(path) == w
        again = scheme_weights(f"file:{path}", 2, 8)
        assert again == w
        with pytest.raises(ValueError):
            scheme_weights(f"file:{path}", 2, 9)  # level mismatch
        data = json.loads(path.read_text())
        assert all(set(rec) == {"parts", "weight"} for rec in data)

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{"parts": [4, 1], "weight": "3"}, {"parts": [3, 2]}], "weight record 1 "),
            ([{"weight": "3"}], "weight record 0 "),
            ([{"parts": [4, 1], "weight": "1/0"}], "weight record 0 "),
            ([{"parts": ["4", "1"], "weight": "3"}], "partition entries must be ints, got '4'"),
            ({"parts": [4, 1], "weight": "3"}, "must be a JSON list, not dict"),
            # a repeated partition is refused, not overwritten by its last record
            ([{"parts": [4, 1], "weight": "1/2"}, {"parts": [4, 1], "weight": "1/3"},
              {"parts": [3, 2], "weight": "1"}], "a partition of level 5 appears twice"),
            # an infinite weight raised OverflowError
            ([{"parts": [4, 1], "weight": 1}, {"parts": [3, 2], "weight": float("inf")}],
             "weight record 1 is malformed"),
            ([{"parts": [4, 1], "weight": float("-inf")}], "weight record 0 is malformed"),
        ],
    )
    def test_malformed_records_name_the_record(self, records, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            weights_from_json(records)

    def test_decimal_exponent_up_to_the_digit_limit(self):
        # Fraction computes 10 to the exponent; past the limit int() keeps on
        # decimal text, the weight is refused before that power is formed
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        limit = limit or 4300
        for text in (f"1e{limit}", f"1E+{limit}", f"3e-{limit}"):
            w = weights_from_json([{"parts": [4, 1], "weight": text}])
            assert w.entries == {(4, 1): Fraction(text)}
        for text in (f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e1_000_000", " 7e999999999 "):
            with pytest.raises(ValueError, match="weight record 0 is malformed.*exponent"):
                weights_from_json([{"parts": [4, 1], "weight": text}])

    def test_deeply_nested_file_names_the_path(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match=re.escape(f"weight file {path}")):
            load_weights(path)

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ValueError, match=re.escape(f"cannot read weight file {path}")):
            load_weights(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(EmptySupportError):
            load_weights(path)

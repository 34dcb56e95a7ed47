import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import weight_vector_st
from sud_estimate import partitions
from sud_estimate.errors import EmptySupportError
from sud_estimate.risk import exact_risk
from sud_estimate.weights import (
    WeightVector,
    load_weights,
    normalize,
    parse_scheme,
    power_gap_weight,
    power_weights,
    product_gap_weight,
    product_weights,
    save_weights,
    scheme_weights,
    uniform_weights,
    weights_from_json,
    weights_to_json,
)


class TestGapWeights:
    def test_product_examples(self):
        assert product_gap_weight((2, 1)) == 1
        assert product_gap_weight((4, 1)) == 3
        assert product_gap_weight((3, 2)) == 2
        assert product_gap_weight((3, 3)) == 0  # not strict
        assert product_gap_weight((5, 3, 1)) == 4

    def test_power_examples(self):
        assert power_gap_weight((4, 1), 0) == 1
        assert power_gap_weight((4, 1), 1) == 3
        assert power_gap_weight((4, 1), 2) == 9
        assert power_gap_weight((3, 3), 0) == 0  # off the strict set even at alpha=0
        assert power_gap_weight((4, 1), Fraction(1, 2)) == pytest.approx(3**0.5)
        with pytest.raises(ValueError):
            power_gap_weight((4, 1), -1)


class TestWeightVector:
    def test_drops_zeros_and_sorts(self):
        w = WeightVector(2, 5, {(3, 2): Fraction(2), (5, 0): Fraction(0), (4, 1): Fraction(3)})
        assert w.support == ((4, 1), (3, 2))
        assert w.coefficient((5, 0)) == 0
        assert w.norm_sq == 13

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightVector(2, 5, {(4, 1): Fraction(-1)})
        with pytest.raises(ValueError):
            WeightVector(2, 5, {(3, 1): Fraction(1)})  # wrong level
        with pytest.raises(ValueError):
            WeightVector(3, 5, {(4, 1): Fraction(1)})  # wrong d

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
                WeightVector(d, 5, entries)

    def test_norm_sq_is_the_exact_sum_of_squares(self):
        w = WeightVector(2, 6, {(6, 0): Fraction(1, 6), (5, 1): Fraction(-0, 4),
                                (4, 2): Fraction(3, 10), (3, 3): 2})
        assert w.norm_sq == Fraction(1, 36) + Fraction(9, 100) + 4
        assert w.support == ((6, 0), (4, 2), (3, 3))

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
        w = WeightVector(d, n, entries)
        scale = math.lcm(*(Fraction(v).denominator for v in entries.values())) * extra
        table = np.array(list(entries), dtype=np.int64)
        numerators = [int(Fraction(v) * scale) for v in entries.values()]
        v = WeightVector.from_table(d, n, table, numerators, scale)
        assert v == w
        assert v.entries == w.entries == {p: Fraction(c) for p, c in entries.items() if c}
        assert v.norm_sq == w.norm_sq
        assert v.denominator == w.denominator
        assert math.gcd(v.denominator, *v.numerators) == 1

    def test_table_route_sorts_rows_and_rejects_a_repeated_row(self):
        table = np.array([[3, 2], [4, 1]])
        assert WeightVector.from_table(2, 5, table, [2, 3]) == product_weights(2, 5)
        with pytest.raises(ValueError, match="appears twice"):
            WeightVector.from_table(2, 5, np.array([[4, 1], [4, 1]]), [1, 1])

    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_named_schemes_equal_their_mapping(self, alpha):
        w = power_weights(3, 14, alpha)
        table = partitions.partition_table(3, 14, strict=True)
        mapped = {
            tuple(parts): power_gap_weight(parts, alpha) for parts in table.tolist()
        }
        assert w == WeightVector(3, 14, mapped)
        assert "entries" not in vars(w)

    def test_squared_weights_example(self):
        w = WeightVector(2, 5, {(4, 1): Fraction(3), (3, 2): Fraction(2)})
        assert w.squared_weights() == {(4, 1): Fraction(9, 13), (3, 2): Fraction(4, 13)}

    def test_float_coefficients_unit_norm(self):
        w = product_weights(2, 9)
        coeffs = w.float_coefficients()
        assert sum(c * c for c in coeffs.values()) == pytest.approx(1.0, abs=1e-14)


class TestNormalize:
    def test_examples(self):
        w = normalize(WeightVector(2, 5, {(4, 1): Fraction(3), (3, 2): Fraction(2)}))
        assert w.entries == {(4, 1): Fraction(1), (3, 2): Fraction(2, 3)}
        assert w.squared_weights() == {(4, 1): Fraction(9, 13), (3, 2): Fraction(4, 13)}
        single = normalize(WeightVector(2, 3, {(2, 1): Fraction(7)}))
        assert single.squared_weights() == {(2, 1): Fraction(1)}

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupportError):
            normalize(WeightVector(2, 2, {}))

    @given(weight_vector_st())
    def test_scale_invariance_and_unit_sum(self, data):
        d, n, entries = data
        w = WeightVector(d, n, entries)
        assert normalize(w.scaled(Fraction(7, 3))) == normalize(w)
        assert sum(w.squared_weights().values()) == 1
        assert sum(normalize(w).squared_weights().values()) == 1


class TestSchemes:
    def test_product_scheme_support(self):
        w = product_weights(2, 5)
        assert w.entries == {(4, 1): Fraction(3), (3, 2): Fraction(2)}

    def test_uniform_scheme(self):
        w = uniform_weights(2, 7)
        assert set(w.entries.values()) == {Fraction(1)}
        assert w.support == ((6, 1), (5, 2), (4, 3))

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
    def test_round_trip(self):
        w = product_weights(2, 7)
        back = weights_from_json(weights_to_json(w))
        assert back == w

    def test_record_format(self):
        recs = weights_to_json(product_weights(2, 5))
        assert recs == [
            {"parts": [4, 1], "weight": "3/1"},
            {"parts": [3, 2], "weight": "2/1"},
        ]

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
        ],
    )
    def test_malformed_records_name_the_record(self, records, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            weights_from_json(records)

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ValueError, match=re.escape(f"cannot read weight file {path}")):
            load_weights(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(EmptySupportError):
            load_weights(path)

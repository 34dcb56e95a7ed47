import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    brute_partitions,
    brute_ssyt,
    brute_syt,
    is_strict,
    partition_st,
    removable_rows,
    weyl_dimension,
)
from sud_estimate.partitions import check_partition, enumerate_partitions, partition_table, pieri_add


class TestEnumeration:
    def test_known_lists(self):
        assert enumerate_partitions(2, 2) == [(2, 0), (1, 1)]
        assert enumerate_partitions(2, 4) == [(4, 0), (3, 1), (2, 2)]
        assert enumerate_partitions(3, 6, strict=True) == [(3, 2, 1)]
        assert enumerate_partitions(2, 1, strict=True) == []
        assert enumerate_partitions(3, 0) == [(0, 0, 0)]

    def test_matches_bruteforce_including_order(self):
        for d in (2, 3, 4):
            for n in range(9):
                assert enumerate_partitions(d, n) == brute_partitions(d, n)

    def test_canonical_order_is_lex_descending(self):
        for d, n in [(2, 9), (3, 8), (4, 7)]:
            out = enumerate_partitions(d, n)
            assert out == sorted(out, reverse=True)

    def test_strict_threshold(self):
        for d in (2, 3, 4, 5):
            for n in range(25):
                nonempty = bool(enumerate_partitions(d, n, strict=True))
                assert nonempty == (n >= d * (d + 1) // 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0, 3)
        with pytest.raises(ValueError):
            enumerate_partitions(2, -1)


def reference_descending(n: int, slots: int, cap: int):
    """Recursive lex-descending generator: largest first part, then the rest."""
    if slots == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(cap, n), -(-n // slots) - 1, -1):
        for rest in reference_descending(n - first, slots - 1, first):
            yield (first, *rest)


class TestPartitionTable:
    def test_int64_table_of_d_columns(self):
        for d, n, strict in [(1, 0, False), (3, 7, False), (4, 12, True), (3, 5, True)]:
            table = partition_table(d, n, strict)
            assert table.dtype == np.int64
            assert table.shape == (len(enumerate_partitions(d, n, strict)), d)
        assert partition_table(3, 5, strict=True).shape == (0, 3)

    def test_matches_bruteforce_up_to_six_rows(self):
        for d in range(1, 7):
            for n in range(15):
                assert enumerate_partitions(d, n) == brute_partitions(d, n), (d, n)

    @pytest.mark.parametrize("d, n", [(3, 603), (4, 83), (2, 2001)])
    def test_matches_recursive_generator_at_large_levels(self, d, n):
        assert enumerate_partitions(d, n) == list(reference_descending(n, d, n))

    def test_strict_rows_are_the_filtered_full_table(self):
        for d, n in [(d, n) for d in range(1, 7) for n in range(15)] + [(3, 603), (4, 83)]:
            full = enumerate_partitions(d, n)
            assert enumerate_partitions(d, n, strict=True) == [p for p in full if is_strict(p)]

    def test_rows_are_tuples_of_python_ints(self):
        assert all(type(x) is int for p in enumerate_partitions(3, 9) for x in p)


class TestValidation:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))

    def test_rejects_negatives_and_non_ints(self):
        with pytest.raises(ValueError):
            check_partition((2, -1))
        with pytest.raises(ValueError):
            check_partition((2.0, 1))
        with pytest.raises(ValueError):
            check_partition((True, False))

    def test_d_mismatch(self):
        with pytest.raises(ValueError):
            check_partition((2, 1), d=3)


class TestWeylDimension:
    def test_known_values(self):
        assert weyl_dimension((1, 0)) == 2
        assert weyl_dimension((2, 1)) == 2
        assert weyl_dimension((1, 1)) == 1
        assert weyl_dimension((1, 0, 0)) == 3
        assert weyl_dimension((1, 1, 0)) == 3
        assert weyl_dimension((2, 1, 0)) == 8
        assert weyl_dimension((4, 2, 0)) == 27
        assert weyl_dimension((1, 1, 1, 1)) == 1

    def test_against_tableau_enumeration(self):
        for d in (2, 3):
            for n in range(7):
                for parts in enumerate_partitions(d, n):
                    assert weyl_dimension(parts) == brute_ssyt(parts, d)

    @given(partition_st(max_level=10))
    def test_full_column_invariance(self, parts):
        shifted = tuple(x + 1 for x in parts)
        assert weyl_dimension(shifted) == weyl_dimension(parts)


class TestSytCount:
    def test_known_values(self):
        assert brute_syt((2, 1)) == 2
        assert brute_syt((3, 2)) == 5
        assert brute_syt((7, 0)) == 1
        assert brute_syt((1, 1, 1)) == 1
        assert brute_syt((0, 0)) == 1


class TestBranching:
    def test_pieri_examples(self):
        assert pieri_add((2, 1)) == [(1, (3, 1)), (2, (2, 2))]
        assert pieri_add((2, 2)) == [(1, (3, 2))]
        assert pieri_add((2, 0)) == [(1, (3, 0)), (2, (2, 1))]
        assert pieri_add((0, 0, 0)) == [(1, (1, 0, 0))]

    @given(partition_st(max_level=12))
    def test_add_remove_duality(self, parts):
        for i, child in pieri_add(parts):
            assert i in removable_rows(child)
            removed = child[: i - 1] + (child[i - 1] - 1,) + child[i:]
            assert removed == parts

    def test_duality_is_exhaustive(self):
        # every (parent, child) pair found by removal is found by addition
        for d in (2, 3):
            for n in range(8):
                up = {
                    (parts, child)
                    for parts in enumerate_partitions(d, n)
                    for _, child in pieri_add(parts)
                }
                down = set()
                for child in enumerate_partitions(d, n + 1):
                    for i in removable_rows(child):
                        parent = child[: i - 1] + (child[i - 1] - 1,) + child[i:]
                        down.add((parent, child))
                assert up == down

    @settings(max_examples=60)
    @given(partition_st(max_level=14))
    def test_dimension_branching(self, parts):
        d = len(parts)
        total = sum(weyl_dimension(child) for _, child in pieri_add(parts))
        assert total == d * weyl_dimension(parts)

    def test_tensor_power_dimension_count(self):
        # sum over level-N partitions of multiplicity * dimension = d^N
        for d in (2, 3, 4):
            for n in range(10):
                total = sum(
                    brute_syt(p) * weyl_dimension(p)
                    for p in enumerate_partitions(d, n)
                )
                assert total == d**n


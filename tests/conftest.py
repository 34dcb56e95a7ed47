"""Shared strategies and brute-force oracles for the test suite.

The oracles re-derive quantities from first principles (exhaustive
enumeration, recursive tableau counting) so the fast implementations are
checked against something that cannot share their bugs.  The Weyl dimension
formula is itself checked against tableau enumeration in test_partitions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from sud_estimate.partitions import enumerate_partitions
from sud_estimate.weights import WeightVector, _key_table


@st.composite
def partition_st(draw, d: int | None = None, max_level: int = 12, strict: bool = False):
    """A partition drawn from the canonical enumeration."""
    dd = d if d is not None else draw(st.integers(2, 4))
    lo = dd * (dd + 1) // 2 if strict else 0
    n = draw(st.integers(lo, max(lo, max_level)))
    return draw(st.sampled_from(enumerate_partitions(dd, n, strict=strict)))


@st.composite
def weight_vector_st(draw, d: int | None = None, max_level: int = 10):
    """(d, n, entries) for a nonzero weight vector on level-n partitions."""
    dd = d if d is not None else draw(st.integers(2, 3))
    n = draw(st.integers(1, max_level))
    pool = enumerate_partitions(dd, n)
    support = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=min(6, len(pool)), unique=True)
    )
    values = draw(
        st.lists(
            st.fractions(min_value=0, max_value=20, max_denominator=12),
            min_size=len(support),
            max_size=len(support),
        )
    )
    if all(v == 0 for v in values):
        values[0] += 1
    return dd, n, dict(zip(support, values))


def mapped_weights(d: int, n: int, entries) -> WeightVector:
    """The scheme with coefficient ``entries[p]`` on partition p of level n
    (absent or zero: off the support), over the lcm of the denominators."""
    values = [Fraction(v) for v in entries.values()]
    scale = math.lcm(*(v.denominator for v in values))
    return WeightVector(d, n, _key_table(d, n, list(entries)),
                        [v.numerator * (scale // v.denominator) for v in values], scale)


def brute_partitions(d: int, n: int) -> list[tuple[int, ...]]:
    """Exhaustive enumeration by filtering every weakly decreasing d-tuple of 0..n."""
    out = [
        p
        for p in itertools.combinations_with_replacement(range(n, -1, -1), d)
        if sum(p) == n and all(a >= b for a, b in zip(p, p[1:]))
    ]
    return sorted(out, reverse=True)


@lru_cache(maxsize=None)
def brute_syt(shape: tuple[int, ...]) -> int:
    """Standard tableaux counted by removing the largest entry from a corner."""
    shape = tuple(s for s in shape if s)
    if sum(shape) == 0:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            total += brute_syt(shape[:i] + (shape[i] - 1,) + shape[i + 1 :])
    return total


def gap_vector(parts) -> tuple[int, ...]:
    """Row gaps lambda_i - lambda_{i+1}, the last row compared with 0."""
    return tuple(a - b for a, b in zip(parts, (*parts[1:], 0)))


def is_strict(parts) -> bool:
    """Strictly decreasing rows with a positive last row."""
    return min(gap_vector(parts)) >= 1


def removable_rows(parts) -> set[int]:
    """1-based rows from which a box can be removed."""
    return {i for i, g in enumerate(gap_vector(parts), start=1) if g > 0}


def weyl_dimension(parts) -> int:
    """SU(d) irrep dimension by the Weyl formula prod_{i<j} (l_i - l_j + j - i) / (j - i)."""
    pairs = list(itertools.combinations(range(len(parts)), 2))
    num = math.prod(parts[i] - parts[j] + j - i for i, j in pairs)
    dimension, rest = divmod(num, math.prod(j - i for i, j in pairs))
    assert rest == 0, parts
    return dimension


def brute_ssyt(shape: tuple[int, ...], d: int) -> int:
    """Column-strict tableaux with entries <= d, counted by backtracking."""
    rows = [s for s in shape if s]
    cells = [(i, j) for i, row in enumerate(rows) for j in range(row)]

    def fill(k: int, grid: dict) -> int:
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, d + 1):
            grid[(i, j)] = v
            total += fill(k + 1, grid)
        grid.pop((i, j), None)  # lo > d leaves the cell unset
        return total

    return fill(0, {})


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

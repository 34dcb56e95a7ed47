"""Partitions labelling SU(d) irreducible representations.

A partition is a weakly decreasing tuple of d nonnegative integers (trailing
zeros kept, so the tuple length always equals d).  Its level is the total
number of boxes.  Row indices are 1-based throughout, matching the usual
Young-diagram convention, so ``e_i`` means "add one box to row i".

Two integers are attached to each partition at level N:

* ``weyl_dimension`` -- the dimension of the SU(d) irrep with that highest
  weight,
* ``syt_count`` -- the number of standard Young tableaux of the shape, which
  by Schur-Weyl duality is the multiplicity of the irrep inside the N-fold
  tensor power of the defining representation.

Both are computed in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "check_partition",
    "level",
    "gap_vector",
    "parts_from_gaps",
    "is_strict",
    "partition_table",
    "enumerate_partitions",
    "weyl_dimension",
    "syt_count",
    "pieri_add",
    "removable_rows",
    "IrrepInfo",
    "irrep_info",
]


def check_partition(parts, d: int | None = None) -> tuple[int, ...]:
    """Validate ``parts`` as a partition and return it as a tuple of ints.

    Raises ValueError if entries are not weakly decreasing nonnegative
    integers, or if ``d`` is given and does not match the tuple length.
    """
    out = []
    for x in parts:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"partition entries must be ints, got {x!r}")
        out.append(x)
    t = tuple(out)
    if d is not None and len(t) != d:
        raise ValueError(f"expected {d} rows, got {len(t)}: {t}")
    if not t:
        raise ValueError("partition needs at least one row")
    if any(a < b for a, b in zip(t, t[1:])):
        raise ValueError(f"rows must be weakly decreasing: {t}")
    if t[-1] < 0:
        raise ValueError(f"rows must be nonnegative: {t}")
    return t


def level(parts) -> int:
    """Number of boxes."""
    return sum(parts)


def gap_vector(parts) -> tuple[int, ...]:
    """Successive row differences p_i = lambda_i - lambda_{i+1}.

    The last row is compared against 0, so the result has the same length d
    and satisfies sum(i * p_i for i = 1..d) == level(parts).
    """
    t = check_partition(parts)
    return tuple(t[i] - (t[i + 1] if i + 1 < len(t) else 0) for i in range(len(t)))


def parts_from_gaps(gaps) -> tuple[int, ...]:
    """Inverse of :func:`gap_vector`: lambda_i = p_i + p_{i+1} + ... + p_d."""
    gaps = tuple(gaps)
    if any(g < 0 for g in gaps):
        raise ValueError(f"gaps must be nonnegative: {gaps}")
    tail = 0
    parts = []
    for g in reversed(gaps):
        tail += g
        parts.append(tail)
    return tuple(reversed(parts))


def is_strict(parts) -> bool:
    """True if all rows are strictly decreasing and the last row is positive."""
    return all(g >= 1 for g in gap_vector(parts))


def partition_table(d: int, n: int, strict: bool = False) -> np.ndarray:
    """All partitions of ``n`` into at most ``d`` parts, one per row of a (k, d) int64 table.

    Rows are in the canonical lexicographically descending order.  The table
    is built one column at a time: each prefix branches into every admissible
    next entry, largest first, so each prefix's completions stay contiguous
    and in order.  With ``strict=True`` only partitions with
    lambda_1 > ... > lambda_d > 0 are kept; lambda is such a partition exactly
    when lambda - (d, d-1, ..., 1) is a partition of n - d(d+1)/2, so that
    set is the shifted table of the smaller level (empty when n < d(d+1)/2).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if strict:
        base = n - d * (d + 1) // 2
        if base < 0:
            return np.zeros((0, d), dtype=np.int64)
        return partition_table(d, base) + np.arange(d, 0, -1)
    columns: list[np.ndarray] = []
    rest = np.array([n], dtype=np.int64)  # boxes left for the remaining rows
    cap = rest  # length of the row above
    for slots in range(d, 1, -1):
        hi = np.minimum(cap, rest)
        # entries hi, hi-1, ..., ceil(rest / slots): each leaves room for the rest
        counts = hi + rest // -slots + 1
        prefix = np.repeat(np.arange(len(rest)), counts)
        value = (hi + np.cumsum(counts) - counts)[prefix] - np.arange(len(prefix))
        columns = [column[prefix] for column in columns]
        columns.append(value)
        rest = rest[prefix] - value
        cap = value
    columns.append(rest)  # the last row takes what is left
    return np.stack(columns, axis=1)


def enumerate_partitions(d: int, n: int, strict: bool = False) -> list[tuple[int, ...]]:
    """The rows of :func:`partition_table` as d-tuples of ints, in canonical order.

    The order is lexicographically descending and is the canonical order used
    everywhere in this package.  With ``strict=True`` only partitions with
    lambda_1 > lambda_2 > ... > lambda_d > 0 are kept; that set is nonempty
    exactly when n >= d(d+1)/2.
    """
    return list(map(tuple, partition_table(d, n, strict).tolist()))


def weyl_dimension(parts, d: int | None = None) -> int:
    """Dimension of the SU(d) irrep labelled by ``parts``.

    Computed from the Weyl dimension formula
    prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i), which is an exact
    integer; adding a full column (+1 to every row) does not change it.
    """
    t = check_partition(parts, d)
    m = len(t)
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= t[i] - t[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:  # cannot happen for a valid partition
        raise ValueError(f"non-integer dimension for {t}")
    return q


def _conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    if not shape:
        return ()
    return tuple(sum(1 for row in shape if row > j) for j in range(shape[0]))


def syt_count(parts) -> int:
    """Number of standard Young tableaux of the shape, via hook lengths.

    Equals the multiplicity of the irrep inside the N-fold tensor power of
    the defining representation (N = level).  The empty shape counts 1.
    """
    t = check_partition(parts)
    shape = tuple(row for row in t if row > 0)
    n = sum(shape)
    if n == 0:
        return 1
    conj = _conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    q, r = divmod(math.factorial(n), hooks)
    if r:
        raise ValueError(f"hook product does not divide {n}! for {t}")
    return q


def pieri_add(parts, d: int | None = None) -> list[tuple[int, tuple[int, ...]]]:
    """Rows where one box can be added without leaving the partition lattice.

    Returns [(i, parts + e_i)] with 1-based row indices i, ordered by i.
    Row i is addable iff i == 1 or lambda_{i-1} > lambda_i.  These are the
    irreps appearing when tensoring with the defining representation.
    """
    t = check_partition(parts, d)
    out = []
    for i in range(1, len(t) + 1):
        if i == 1 or t[i - 2] > t[i - 1]:
            child = t[: i - 1] + (t[i - 1] + 1,) + t[i:]
            out.append((i, child))
    return out


def removable_rows(parts, d: int | None = None) -> set[int]:
    """Rows where one box can be removed: {i : lambda_i > lambda_{i+1}}.

    1-based, with the convention lambda_{d+1} = 0.  Requires at least one
    box.  The set has d elements iff the partition is strictly decreasing
    with positive last row.
    """
    t = check_partition(parts, d)
    if sum(t) < 1:
        raise ValueError("the zero partition has no removable box")
    m = len(t)
    return {i for i in range(1, m + 1) if t[i - 1] > (t[i] if i < m else 0)}


@dataclass(frozen=True)
class IrrepInfo:
    """Dimension / multiplicity pair of one irrep inside the N-fold tensor power."""

    parts: tuple[int, ...]
    dimension: int
    multiplicity: int


def irrep_info(parts, d: int | None = None) -> IrrepInfo:
    t = check_partition(parts, d)
    return IrrepInfo(t, weyl_dimension(t), syt_count(t))


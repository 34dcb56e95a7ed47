"""Partitions labelling SU(d) irreducible representations.

A partition is a weakly decreasing tuple of d nonnegative integers (trailing
zeros kept, so the tuple length always equals d).  Its level is the total
number of boxes.  Rows are numbered from 1 throughout, matching the usual
Young-diagram convention, so ``e_i`` means "add one box to row i".

The partitions of one level form a (k, d) int64 table in the canonical
lexicographically descending order (``partition_table``); scheme builds, box
removal and the character oracle read it, and ``enumerate_partitions`` lists
its rows as tuples.  Every pass over it reads a column, so the table and the
tables cut from it (``_compress_rows``) are column-contiguous.  ``pieri_add``
gives the children of one partition.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_partition",
    "level",
    "partition_table",
    "enumerate_partitions",
    "pieri_add",
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


def partition_table(d: int, n: int, strict: bool = False) -> np.ndarray:
    """All partitions of ``n`` into at most ``d`` parts, one per row of a
    column-contiguous (k, d) int64 table.

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
    return np.array(columns).T


def _compress_rows(keep: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table[keep]`` for a boolean ``keep``, but column-contiguous like ``table``."""
    return np.compress(keep, table.T, axis=1).T


def enumerate_partitions(d: int, n: int, strict: bool = False) -> list[tuple[int, ...]]:
    """The rows of :func:`partition_table` as d-tuples of ints, in canonical order.

    The order is lexicographically descending and is the canonical order used
    everywhere in this package.  With ``strict=True`` only partitions with
    lambda_1 > lambda_2 > ... > lambda_d > 0 are kept; that set is nonempty
    exactly when n >= d(d+1)/2.
    """
    return list(map(tuple, partition_table(d, n, strict).tolist()))


def pieri_add(parts) -> list[tuple[int, tuple[int, ...]]]:
    """Rows where one box can be added without leaving the partition lattice.

    Returns [(i, parts + e_i)] with 1-based row numbers i, ordered by i.
    Row i is addable iff i == 1 or lambda_{i-1} > lambda_i.  These are the
    irreps appearing when tensoring with the defining representation.
    """
    t = check_partition(parts)
    out = []
    for i in range(1, len(t) + 1):
        if i == 1 or t[i - 2] > t[i - 1]:
            child = t[: i - 1] + (t[i - 1] + 1,) + t[i:]
            out.append((i, child))
    return out

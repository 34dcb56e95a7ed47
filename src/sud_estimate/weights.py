"""Coefficient schemes over the partitions of one level.

A scheme assigns a nonnegative coefficient c(lambda) to every partition of N
into at most d parts.  Coefficients are exact rationals, held as integer
numerators over one common denominator on the support table (no Fraction per
partition until one is asked for), and are deliberately left unnormalised:
every risk expression downstream is a ratio of quadratic forms in c, so
dividing by the squared norm on the way out is exact, whereas rescaling the
coefficients themselves to unit Euclidean norm would require square roots.  The squared-weight view ``squared_weights`` is
the exactly normalised object (it sums to 1 in rational arithmetic).

The scheme of main interest puts c(lambda) proportional to the product of the
row gaps lambda_i - lambda_{i+1}; it vanishes off the strictly decreasing
partitions and achieves the 1/N^2 estimation rate.  ``power:<alpha>`` raises
the gap product to ``alpha`` (alpha = 0 is uniform on the strict set), and
``optimal`` takes the leading eigenvector of the incidence quadratic form.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import EmptySupportError
from .partitions import check_partition, gap_vector, level, partition_table

__all__ = [
    "WeightVector",
    "product_gap_weight",
    "power_gap_weight",
    "product_weights",
    "power_weights",
    "uniform_weights",
    "normalize",
    "parse_scheme",
    "scheme_weights",
    "weights_to_json",
    "weights_from_json",
    "save_weights",
    "load_weights",
]


@dataclass(frozen=True, init=False, eq=False)
class WeightVector:
    """Exact nonnegative coefficients on the partitions of one level.

    The state is the integer form, in canonical order: ``table`` is the
    read-only (k, d) int64 support table and ``numerators[i] / denominator``
    is the coefficient of ``table[i]``, with positive numerators and the form
    reduced by their gcd with the denominator, so equal schemes have equal
    forms.  ``norm_sq`` is the exact sum of squared coefficients; the map
    ``entries`` of Fractions is built the first time it is read.  Instances
    are immutable.

    ``WeightVector(d, level, entries)`` takes a map partition -> coefficient
    (absent or zero: off the support); the named schemes use
    :meth:`from_table`.  Both routes end in one batched check over all rows,
    and a ValueError names the first row that fails it.
    """

    d: int
    level: int
    norm_sq: Fraction
    denominator: int = field(repr=False)
    numerators: tuple[int, ...] = field(repr=False)
    table: np.ndarray = field(repr=False)

    def __init__(self, d: int, level: int, entries: Mapping[tuple[int, ...], Fraction]):
        values = [v if type(v) is Fraction else Fraction(v) for v in entries.values()]
        scale = math.lcm(*(v.denominator for v in values))
        self._set(d, level, _key_table(d, level, list(map(tuple, entries))),
                  [v.numerator * (scale // v.denominator) for v in values], scale)

    @classmethod
    def from_table(cls, d: int, level: int, table: np.ndarray, numerators,
                   denominator: int = 1) -> "WeightVector":
        """The scheme with coefficient ``numerators[i] / denominator`` on row i of ``table``."""
        w = cls.__new__(cls)
        w._set(d, level, table, list(numerators), denominator)
        return w

    def _set(self, d: int, level: int, table: np.ndarray, numerators: list[int], denominator: int):
        """Check rows (d entries, sum ``level``, weakly decreasing, nonnegative) and
        numerators (nonnegative); drop zeros, sort rows canonically, reduce."""
        bad = np.flatnonzero(
            (table.sum(axis=1) != level) | np.any(table[:, :-1] < table[:, 1:], axis=1)
            | (table[:, -1] < 0)
        ) if table.shape[1] == d > 0 else range(len(table))
        for i in bad[:1]:  # name the first offender
            t = check_partition(tuple(table[i].tolist()), d)
            raise ValueError(f"partition {t} has level {sum(t)}, expected {level}")
        if min(numerators, default=0) < 0:
            i = next(i for i, v in enumerate(numerators) if v < 0)
            raise ValueError(f"coefficient for {tuple(table[i].tolist())} is negative: "
                             f"{Fraction(numerators[i], denominator)}")
        if 0 in numerators or not _descending(table):
            order = [i for i in np.lexsort(table.T[::-1])[::-1].tolist() if numerators[i]]
            table, numerators = table[order], [numerators[i] for i in order]
        if not _descending(table):
            raise ValueError(f"a partition of level {level} appears twice")
        g = math.gcd(denominator, *numerators)
        if g > 1:
            numerators = [v // g for v in numerators]
        table = np.array(table, dtype=np.int64)
        table.flags.writeable = False
        norm_sq = Fraction(sum(map(operator.mul, numerators, numerators)), (denominator // g)**2)
        vars(self).update(  # frozen: set the fields directly
            d=d, level=level, norm_sq=norm_sq, denominator=denominator // g,
            numerators=tuple(numerators), table=table,
        )

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return (self.d, self.level, self.denominator, self.numerators) == (
            other.d, other.level, other.denominator, other.numerators
        ) and np.array_equal(self.table, other.table)

    @cached_property
    def entries(self) -> dict[tuple[int, ...], Fraction]:
        return {p: Fraction(v, self.denominator) for p, v in zip(self.support, self.numerators)}

    def coefficient(self, parts) -> Fraction:
        return self.entries.get(tuple(parts), Fraction(0))

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))

    def squared_weights(self) -> dict[tuple[int, ...], Fraction]:
        """Exactly normalised squared coefficients; they sum to 1."""
        if not self.numerators:
            raise EmptySupportError(f"no nonzero coefficient at level {self.level} for d={self.d}")
        return {parts: v * v / self.norm_sq for parts, v in self.entries.items()}

    def float_coefficients(self) -> dict[tuple[int, ...], float]:
        """Coefficients scaled to unit Euclidean norm, as floats."""
        if not self.numerators:
            raise EmptySupportError(f"no nonzero coefficient at level {self.level} for d={self.d}")
        norm = math.sqrt(float(self.norm_sq))
        return {p: v / self.denominator / norm for p, v in zip(self.support, self.numerators)}

    def scaled(self, factor) -> "WeightVector":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError(f"scale factor must be positive, got {f}")
        return WeightVector.from_table(self.d, self.level, self.table, [
            v * f.numerator for v in self.numerators], self.denominator * f.denominator)


def _key_table(d: int, n: int, keys: list[tuple]) -> np.ndarray:
    """The (k, d) int64 table of ``keys``.  Length d, exact int entries and row
    sum n are checked over all keys at once; if that fails, a ValueError names
    the first key that is no partition of level n into d rows."""
    if not keys:
        return np.zeros((0, d), dtype=np.int64)
    if (d < 1 or set(map(len, keys)) != {d}
            or set(map(type, itertools.chain.from_iterable(keys))) != {int}
            or set(map(sum, keys)) != {n}):
        for t in keys:
            t = check_partition(t, d)
            if level(t) != n:
                raise ValueError(f"partition {t} has level {level(t)}, expected {n}")
    try:
        return np.array(keys, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"partition rows of level {n} exceed int64") from exc


def _descending(table: np.ndarray) -> bool:
    """True if the rows of ``table`` are strictly lex-descending."""
    step = table[:-1] - table[1:]
    first = step[np.arange(len(step)), np.argmax(step != 0, axis=1)] if step.size else step
    return bool(np.all(first > 0))


def _exact_ratios(values) -> tuple[list[int], int]:
    """Floats as exact integer numerators over one common (power-of-two) denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def normalize(raw: WeightVector) -> WeightVector:
    """Canonical rescaling: the largest coefficient becomes exactly 1.

    Proportions are preserved, zeros stay zero, and the result is invariant
    under positive rescaling of the input, so any two proportional weight
    vectors normalise to the same object.  The exactly normalised view is
    ``squared_weights`` which always sums to 1.  Raises
    :class:`EmptySupportError` when every coefficient vanishes.
    """
    if not raw.numerators:
        raise EmptySupportError(
            f"cannot normalise an all-zero weight vector (d={raw.d}, level {raw.level})"
        )
    return raw.scaled(Fraction(raw.denominator, max(raw.numerators)))


def product_gap_weight(parts) -> int:
    """Product of the row gaps; zero unless the partition is strictly decreasing."""
    return math.prod(gap_vector(parts))


def _exponent(alpha) -> Fraction:
    a = Fraction(alpha)
    if a < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return a


def power_gap_weight(parts, alpha) -> Fraction | float:
    """(product of gaps) ** alpha on strict partitions, zero elsewhere.

    Exact for integer alpha >= 0; other exponents fall back to floating
    point.  alpha = 0 gives the uniform scheme on the strict set, alpha = 1
    the plain gap product.
    """
    prod, a = product_gap_weight(parts), _exponent(alpha)
    if prod and a.denominator != 1:
        return float(prod) ** float(a)
    return Fraction(prod) ** a.numerator if prod else Fraction(0)


def _gap_products(d: int, n: int) -> tuple[np.ndarray, list[int]]:
    """The strict table of level n and the gap product of each row, in canonical order."""
    table = partition_table(d, n, strict=True)
    if not len(table):
        raise EmptySupportError(
            f"no strictly decreasing partition at level {n} for d={d} "
            f"(need N >= {d * (d + 1) // 2})"
        )
    gaps = table.copy()
    gaps[:, :-1] -= table[:, 1:]
    return table, gaps.astype(object).prod(axis=1).tolist()


def product_weights(d: int, n: int) -> WeightVector:
    """Gap-product coefficients on the strict partitions of level n."""
    return WeightVector.from_table(d, n, *_gap_products(d, n))


def power_weights(d: int, n: int, alpha) -> WeightVector:
    """Gap-product-to-the-alpha coefficients on the strict partitions.

    Exact for integer alpha; any other exponent is evaluated in floating
    point and each float is then taken exactly.
    """
    table, products = _gap_products(d, n)
    a = _exponent(alpha)
    if a.denominator == 1:
        return WeightVector.from_table(d, n, table, [p**a.numerator for p in products])
    x = float(a)
    return WeightVector.from_table(d, n, table, *_exact_ratios([float(p) ** x for p in products]))


def uniform_weights(d: int, n: int) -> WeightVector:
    """Equal coefficients on every strict partition of level n."""
    return power_weights(d, n, 0)


@dataclass(frozen=True)
class Scheme:
    """Parsed scheme specification string."""

    kind: str
    alpha: Fraction | None = None
    path: str | None = None
    support: str = "full"

    def label(self) -> str:
        if self.kind == "power":
            return f"power:{self.alpha}"
        if self.kind == "file":
            return f"file:{self.path}"
        if self.kind == "optimal" and self.support != "full":
            return f"optimal:{self.support}"
        return self.kind


def parse_scheme(spec: str | Scheme) -> Scheme:
    """Parse ``product``, ``uniform``, ``power:<alpha>``, ``optimal[:support]``
    or ``file:<path>``.

    ``alpha`` accepts integers, decimals and rationals like ``1/2``.
    """
    if isinstance(spec, Scheme):
        return spec
    text = spec.strip()
    if text == "product":
        return Scheme("product")
    if text == "uniform":
        return Scheme("uniform")
    if text.startswith("power:"):
        arg = text.split(":", 1)[1]
        try:
            alpha = Fraction(arg)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad exponent in scheme {text!r}") from exc
        if alpha < 0:
            raise ValueError(f"exponent must be >= 0 in scheme {text!r}")
        return Scheme("power", alpha=alpha)
    if text == "optimal":
        return Scheme("optimal")
    if text.startswith("optimal:"):
        support = text.split(":", 1)[1]
        if support not in ("full", "strict"):
            raise ValueError(f"unknown support {support!r} in scheme {text!r}")
        return Scheme("optimal", support=support)
    if text.startswith("file:"):
        return Scheme("file", path=text.split(":", 1)[1])
    raise ValueError(f"unknown scheme {spec!r}")


def scheme_weights(spec: str | Scheme, d: int, n: int, *, tol: float = 1e-12) -> WeightVector:
    """Materialise a scheme specification as a weight vector at level n."""
    scheme = parse_scheme(spec)
    if scheme.kind == "product":
        return product_weights(d, n)
    if scheme.kind == "uniform":
        return uniform_weights(d, n)
    if scheme.kind == "power":
        return power_weights(d, n, scheme.alpha)
    if scheme.kind == "optimal":
        from .spectral import optimal_weights  # deferred: spectral imports weights

        return optimal_weights(d, n, support=scheme.support, tol=tol)
    if scheme.kind == "file":
        w = load_weights(scheme.path)
        if w.d != d or w.level != n:
            raise ValueError(
                f"weights in {scheme.path} are for d={w.d}, level {w.level}, "
                f"requested d={d}, level {n}"
            )
        return w
    raise ValueError(f"unknown scheme kind {scheme.kind!r}")


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def weights_to_json(w: WeightVector) -> list[dict]:
    """Serialisable form: one record per support partition, canonical order."""
    return [
        {"parts": list(parts), "weight": _fraction_str(value)}
        for parts, value in w.entries.items()
    ]


def weights_from_json(records) -> WeightVector:
    """Inverse of :func:`weights_to_json`; a malformed record's ValueError names its index."""
    if not isinstance(records, list):
        raise ValueError(f"weight records must be a JSON list, not {type(records).__name__}")
    entries = {}
    for i, rec in enumerate(records):
        try:
            entries[tuple(rec["parts"])] = Fraction(rec["weight"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"weight record {i} is malformed: {exc!r}") from exc
    if not entries:
        raise EmptySupportError("weight file has no entries")
    first = check_partition(next(iter(entries)))
    return WeightVector(len(first), level(first), entries)


def save_weights(w: WeightVector, path) -> None:
    Path(path).write_text(json.dumps(weights_to_json(w), indent=2) + "\n")


def load_weights(path) -> WeightVector:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read weight file {path}: {exc.strerror}") from exc
    return weights_from_json(json.loads(text))

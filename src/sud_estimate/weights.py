"""Coefficient schemes over the partitions of one level.

A scheme assigns a nonnegative coefficient c(lambda) to every partition of N
into at most d parts.  Coefficients are kept as exact rationals and are
deliberately left unnormalised: every risk expression downstream is a ratio
of quadratic forms in c, so dividing by the squared norm on the way out is
exact, whereas rescaling the coefficients themselves to unit Euclidean norm
would require square roots.  The squared-weight view ``squared_weights`` is
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
from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True)
class WeightVector:
    """Exact nonnegative coefficients on the partitions of one level.

    ``entries`` maps partition -> coefficient; absent partitions carry
    coefficient zero, and zero entries are dropped at construction so the
    stored support is exactly the set of nonzero coefficients.  Every key is
    validated as a partition of ``level`` into ``d`` rows in one batched pass
    over all keys; a ValueError names the first key that fails.  Instances
    are immutable; ``norm_sq`` is the exact sum of squared coefficients.

    The integer form is kept beside the entries, in the same canonical
    order: ``table`` is the (k, d) int64 table of the support, and
    ``numerators[i] / denominator`` is the coefficient of ``table[i]``, with
    ``denominator`` the least common denominator of the coefficients.
    """

    d: int
    level: int
    entries: Mapping[tuple[int, ...], Fraction]
    norm_sq: Fraction = field(init=False)
    denominator: int = field(init=False, repr=False, compare=False)
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = list(map(tuple, self.entries))
        table = _partition_table_of(self.d, self.level, keys)
        if table is None:
            for t in keys:  # name the first offender
                t = check_partition(t, self.d)
                if level(t) != self.level:
                    raise ValueError(
                        f"partition {t} has level {level(t)}, expected {self.level}"
                    )
            table = np.array(keys, dtype=np.int64)  # valid keys with int subclass entries
        values = [v if type(v) is Fraction else Fraction(v) for v in self.entries.values()]
        nums = [v.numerator for v in values]
        if nums and min(nums) < 0:
            t, v = next((t, v) for t, v in zip(keys, values) if v < 0)
            raise ValueError(f"coefficient for {t} is negative: {v}")
        # canonical order is lex-descending; zero coefficients drop out
        order = [i for i in np.lexsort(table.T[::-1])[::-1].tolist() if nums[i]] if keys else []
        scale = math.lcm(*(v.denominator for v in values))
        numerators = tuple([nums[i] * (scale // values[i].denominator) for i in order])
        table = table[order]
        table.flags.writeable = False
        # sum of squares over the common denominator: one Fraction, not one per entry
        object.__setattr__(self, "norm_sq", Fraction(sum([a * a for a in numerators]), scale**2))
        object.__setattr__(self, "entries", {keys[i]: values[i] for i in order})
        object.__setattr__(self, "denominator", scale)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "table", table)

    def coefficient(self, parts) -> Fraction:
        return self.entries.get(tuple(parts), Fraction(0))

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.entries)

    def squared_weights(self) -> dict[tuple[int, ...], Fraction]:
        """Exactly normalised squared coefficients; they sum to 1."""
        if not self.entries:
            raise EmptySupportError(
                f"no nonzero coefficient at level {self.level} for d={self.d}"
            )
        return {parts: v * v / self.norm_sq for parts, v in self.entries.items()}

    def float_coefficients(self) -> dict[tuple[int, ...], float]:
        """Coefficients scaled to unit Euclidean norm, as floats."""
        if not self.entries:
            raise EmptySupportError(
                f"no nonzero coefficient at level {self.level} for d={self.d}"
            )
        norm = math.sqrt(float(self.norm_sq))
        return {parts: float(v) / norm for parts, v in self.entries.items()}

    def scaled(self, factor) -> "WeightVector":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError(f"scale factor must be positive, got {f}")
        return WeightVector(self.d, self.level, {p: v * f for p, v in self.entries.items()})


def _partition_table_of(d: int, n: int, keys: list[tuple]) -> np.ndarray | None:
    """The (k, d) int64 table of ``keys`` if each is a partition of level n into d
    rows of exact ints, else None.  Each condition is checked over all keys at
    once: length d, exact int type, row sum n, then the row order on the table.
    """
    if not keys:
        return np.zeros((0, d), dtype=np.int64)
    if (d < 1 or set(map(len, keys)) != {d}
            or set(map(type, itertools.chain.from_iterable(keys))) != {int}
            or set(map(sum, keys)) != {n}):
        return None
    try:
        table = np.array(keys, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"partition rows of level {n} exceed int64") from exc
    monotone = np.all(table[:, :-1] >= table[:, 1:]) and np.all(table[:, -1] >= 0)
    return table if monotone else None


def normalize(raw: WeightVector) -> WeightVector:
    """Canonical rescaling: the largest coefficient becomes exactly 1.

    Proportions are preserved, zeros stay zero, and the result is invariant
    under positive rescaling of the input, so any two proportional weight
    vectors normalise to the same object.  The exactly normalised view is
    ``squared_weights`` which always sums to 1.  Raises
    :class:`EmptySupportError` when every coefficient vanishes.
    """
    if not raw.entries:
        raise EmptySupportError(
            f"cannot normalise an all-zero weight vector (d={raw.d}, level {raw.level})"
        )
    top = max(raw.entries.values())
    return raw.scaled(Fraction(1, 1) / top)


def product_gap_weight(parts) -> int:
    """Product of the row gaps; zero unless the partition is strictly decreasing."""
    return math.prod(gap_vector(parts))


def _exponent(alpha) -> Fraction:
    a = Fraction(alpha)
    if a < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return a


def _raised(prod: int, a: Fraction) -> Fraction | float:
    if prod == 0:
        return Fraction(0)
    if a.denominator == 1:
        return Fraction(prod) ** a.numerator
    return float(prod) ** float(a)


def power_gap_weight(parts, alpha) -> Fraction | float:
    """(product of gaps) ** alpha on strict partitions, zero elsewhere.

    Exact for integer alpha >= 0; other exponents fall back to floating
    point.  alpha = 0 gives the uniform scheme on the strict set, alpha = 1
    the plain gap product.
    """
    prod = product_gap_weight(parts)
    return _raised(prod, _exponent(alpha))


def _gap_products(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Gap product of every strict partition of level n, in canonical order."""
    table = partition_table(d, n, strict=True)
    if not len(table):
        raise EmptySupportError(
            f"no strictly decreasing partition at level {n} for d={d} "
            f"(need N >= {d * (d + 1) // 2})"
        )
    gaps = table.copy()
    gaps[:, :-1] -= table[:, 1:]
    return dict(zip(map(tuple, table.tolist()), map(math.prod, gaps.tolist())))


def product_weights(d: int, n: int) -> WeightVector:
    """Gap-product coefficients on the strict partitions of level n."""
    return WeightVector(d, n, _gap_products(d, n))


def power_weights(d: int, n: int, alpha) -> WeightVector:
    """Gap-product-to-the-alpha coefficients on the strict partitions."""
    products = _gap_products(d, n)
    a = _exponent(alpha)
    return WeightVector(d, n, {parts: _raised(prod, a) for parts, prod in products.items()})


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

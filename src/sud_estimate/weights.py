"""Coefficient schemes over the partitions of one level.

A scheme assigns a nonnegative coefficient c(lambda) to every partition of N
into at most d parts.  Coefficients are exact rationals, held in one integer
form: integer numerators over one common denominator on the support table
(no Fraction per partition until one is asked for).  That form is also what
:class:`WeightVector` is built from; the named schemes make it from their
tables, and a weight file is read into it.  The numerators are one array:
int64 when every one fits, which is the case for the gap products and their
small powers, and an object array of Python ints otherwise, as for
eigenvector floats taken exactly; sums of their products are int64 dots only
under a bound that keeps them exact.  Coefficients are deliberately left
unnormalised: every risk expression downstream is a ratio of quadratic forms
in c, so dividing by the squared norm on the way out is exact, whereas
rescaling the coefficients themselves to unit Euclidean norm would require
square roots.  Only the character oracle, which works in floating point
anyway, scales them to unit norm.  A scheme is written, to a weight file or
a report, one record at a time by :func:`records_text`, with no list of records.

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
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptySupportError
from .partitions import _compress_rows, check_partition, level, partition_table

__all__ = [
    "WeightVector",
    "product_weights",
    "power_weights",
    "uniform_weights",
    "parse_scheme",
    "scheme_weights",
    "records_text",
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
    forms.  ``numerators`` is a read-only 1-D array, int64 when every
    numerator fits and object (Python ints) otherwise.  ``norm_sq`` is the
    exact sum of squared coefficients; the map ``entries`` of Fractions is
    built the first time it is read.  Instances are immutable.

    ``WeightVector(d, level, table, numerators, denominator=1)`` is the one
    constructor: the scheme with coefficient ``numerators[i] / denominator``
    on row i of ``table``, a zero coefficient being off the support.  It
    keeps copies of both.  ``table`` must be (k, d), k >= 0 (a ValueError
    names its shape otherwise), with a signed integer dtype (a ValueError
    names its first row otherwise), and ``numerators`` 1-D of length k (a
    ValueError names its shape and k otherwise).  An integer array of numerators is
    taken as int64, anything else as an object array whose
    entries must be ints (a TypeError otherwise).  One batched check runs over all rows, and a
    ValueError names the first row that fails it; rows are sorted
    canonically, and a row that appears twice is refused.
    """

    d: int
    level: int
    norm_sq: Fraction
    denominator: int = field(repr=False)
    numerators: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)

    def __init__(self, d: int, level: int, table, numerators, denominator: int = 1):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[1] != d:
            raise ValueError(f"table of shape {table.shape} is not (k, {d}): "
                             f"one row of {d} parts per partition")
        # a cast would truncate floats, read bools as ints and wrap large uint64
        if table.dtype.kind != "i":
            for row in table[:1]:
                raise ValueError(f"partition {tuple(row.tolist())} is not a row of ints "
                                 f"({table.dtype} table)")
        table = table.astype(np.int64)
        if isinstance(numerators, np.ndarray) and numerators.dtype.kind == "i":
            numerators = numerators.astype(np.int64)
        else:
            numerators = np.array(numerators, dtype=object)
        if numerators.shape != (len(table),):
            raise ValueError(f"numerators of shape {numerators.shape} for a table of "
                             f"{len(table)} rows: one numerator per row")
        if d > 0:  # one pass per column
            bad = table[:, -1] < 0
            total = table[:, -1].copy()
            for j in range(d - 1):
                bad |= table[:, j] < table[:, j + 1]
                total += table[:, j]
            bad = np.flatnonzero(bad | (total != level))
        else:
            bad = range(len(table))
        for i in bad[:1]:  # name the first offender
            t = check_partition(tuple(table[i].tolist()), d)
            raise ValueError(f"partition {t} has level {sum(t)}, expected {level}")
        # an int64 array needs no type check, and with denominator 1 no reduction
        g = (math.gcd(denominator, *numerators.tolist())  # a TypeError for a non-integer
             if numerators.dtype == object or denominator > 1 else 1)
        # with none negative, 0 is present iff low == 0
        low = numerators.min(initial=1)
        if low < 0:
            i = int(np.argmax(numerators < 0))
            raise ValueError(f"coefficient for {tuple(table[i].tolist())} is negative: "
                             f"{Fraction(int(numerators[i]), denominator)}")
        if not _descending(table):
            order = np.lexsort(table.T[::-1])[::-1]
            table, numerators = table[order], numerators[order]
            if not _descending(table):
                raise ValueError(f"a partition of level {level} appears twice")
        if low == 0:
            # dropping rows from a canonical table leaves it canonical
            keep = numerators != 0
            table, numerators = table[keep], numerators[keep]
        if g > 1:
            numerators, denominator = numerators // g, denominator // g
        numerators = _int_array(numerators)
        table.flags.writeable = False
        vars(self).update(  # frozen: set the fields directly
            d=d, level=level, norm_sq=Fraction(_sum_of_products(numerators), denominator**2),
            denominator=denominator, numerators=numerators, table=table,
        )

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return (self.d, self.level, self.denominator) == (
            other.d, other.level, other.denominator
        ) and np.array_equal(self.numerators, other.numerators) and np.array_equal(
            self.table, other.table)

    @cached_property
    def entries(self) -> dict[tuple[int, ...], Fraction]:
        return {tuple(p): Fraction(v, self.denominator)
                for p, v in zip(self.table.tolist(), self.numerators.tolist())}


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
    """True if the rows of ``table`` are strictly lex-descending.

    The step between consecutive rows is read column by column from the
    last: its first nonzero entry, which decides the order, must be positive.
    """
    if len(table) < 2:
        return True
    first = table[:-1, -1] - table[1:, -1]
    for j in range(table.shape[1] - 2, -1, -1):
        step = table[:-1, j] - table[1:, j]
        np.copyto(first, step, where=step != 0)
    return bool(np.all(first > 0))


_INT64_MAX = 2**63 - 1


def _int_array(values) -> np.ndarray:
    """Integers as a read-only 1-D array: int64 when every one fits, else object.

    An int64 array is kept as it is.  An object array or a list of Python
    ints is taken as int64, or, when one of them does not fit, as an object
    array of the same ints.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            values = np.asarray(values, dtype=object)
    values.flags.writeable = False
    return values


def _magnitude(a: np.ndarray) -> int:
    """max |a| of an int64 array (0 if empty), as a Python int."""
    return max(int(np.maximum.reduce(a, initial=0)), -int(np.minimum.reduce(a, initial=0)))


def _sum_of_products(a: np.ndarray, b: np.ndarray | None = None) -> int:
    """sum(a * b) of two integer arrays of one length as an exact Python int;
    b defaults to a.

    It is one int64 dot when both arrays are int64 and max|a| * max|b| *
    len(a) <= 2^63 - 1, which bounds every partial sum; otherwise it is a dot
    of object arrays, whose products and sums are Python ints.
    """
    b = a if b is None else b
    if a.dtype == b.dtype == np.int64:
        top_a = _magnitude(a)
        top_b = top_a if b is a else _magnitude(b)
        if top_a * top_b * len(a) <= _INT64_MAX:
            return int(a.dot(b))
    x = a.astype(object, copy=False)
    return int(np.dot(x, x if b is a else b.astype(object, copy=False)))


def _exact_ratios(values) -> tuple[list[int], int]:
    """Finite floats as exact integer numerators over one common power-of-two denominator.

    One ``np.frexp`` splits every float into a mantissa in [0.5, 1), which
    times 2^53 is an exact int64, and an exponent e, so the float is that
    integer times 2^(e - 53).  With s the smallest e - 53 of a nonzero float,
    or 0 if that is larger, each numerator is its mantissa integer shifted
    left by e - 53 - s, and the denominator is 2^-s.  The form is not
    reduced; :class:`WeightVector` reduces it.
    """
    mantissa, exponent = np.frexp(np.asarray(values, dtype=float))
    exponent -= 53
    nonzero = mantissa != 0
    low = int(exponent.min(initial=0, where=nonzero))
    shifts = np.where(nonzero, exponent - low, 0).tolist()
    digits = (mantissa * 2.0**53).astype(np.int64).tolist()
    return list(map(operator.lshift, digits, shifts)), 1 << -low


def _built(structure):
    """``structure``, or what it returns when it is a function that builds it."""
    return structure() if callable(structure) else structure


def _check_gap_bound(d: int, m: int, terms: int = 1) -> None:
    """Refuse (ValueError) a level m where terms * (m/d)^d / d! reaches 2^63.

    The gaps p_j = lambda_j - lambda_(j+1) >= 0 of a partition of level m
    into d rows have sum_j j * p_j = m, so by AM-GM their product, if not 0,
    is prod (j p_j) / d! <= (m/d)^d / d!, and less at a lower level.  int64
    +, - and * are exact modulo 2^64, so below the bound any value formed
    from them is exact, whatever its intermediate values, if it is a gap
    product, a sum of at most ``terms`` of them, the difference of two such
    sums, or any value times 0.
    """
    if d >= 1 and terms * m**d >= 2**63 * d**d * math.factorial(d):
        raise ValueError(f"level {m} is too large for d={d}: its gap products "
                         f"may not fit in int64")


def _gap_products(d: int, n: int, structure=None) -> tuple[np.ndarray, np.ndarray]:
    """The strict table of level n and the int64 gap product of each row, in canonical order.

    The products are taken one column of gaps at a time.  A level past the
    bound of :func:`_check_gap_bound` is refused, and a level 0 <= n <
    d(d+1)/2, which has no strict row, with :class:`EmptySupportError`, both
    before any table is built.  The strict table is the ``strict`` rows of
    the box-removal ``structure`` of level n (full or strict support; a
    function that builds it is called only after those refusals), or is
    enumerated when ``structure`` is None.
    """
    _check_gap_bound(d, n)
    if 0 <= n < d * (d + 1) // 2:  # a negative level is refused by the table build
        raise EmptySupportError(
            f"no strictly decreasing partition at level {n} for d={d} "
            f"(need N >= {d * (d + 1) // 2})"
        )
    structure = _built(structure)
    if structure is None:
        table = partition_table(d, n, strict=True)
    elif (structure.d, structure.level) == (d, n):
        table = _compress_rows(structure.strict, structure.parent_table)
    else:
        raise ValueError(f"structure is the one of d={structure.d}, level {structure.level}, "
                         f"not of ({d}, {n})")
    products = table[:, -1].copy()
    for j in range(d - 1):
        products *= table[:, j] - table[:, j + 1]
    return table, products


def product_weights(d: int, n: int, structure=None) -> WeightVector:
    """Gap-product coefficients on the strict partitions of level n, read from
    ``structure`` when it is given (see :func:`_gap_products`)."""
    return WeightVector(d, n, *_gap_products(d, n, structure))


# Exact numerators of power:<alpha> are (gap product)^alpha, and the exact risk
# squares and sums them, so the cost grows without bound in alpha: power:1000000
# at d=2 N=5 ran 95 s on a 2-core host.  The cap is on alpha times log2 of the
# largest gap product, so a level whose products are all 1 takes any alpha.  At
# the boundary a request takes 3 s (d=2 N=5, alpha 165,394) to 8 s (d=2 N=400,
# alpha 18,347) there, and the exponents the tests and scripts use stay far below.
MAX_POWER_BITS = 2**18


def power_weights(d: int, n: int, alpha, structure=None) -> WeightVector:
    """Gap-product-to-the-alpha coefficients on the strict partitions, read from
    ``structure`` when it is given (see :func:`_gap_products`).

    Exact for integer alpha.  Any other exponent is evaluated in floating
    point on the products divided by their maximum, each float then taken
    exactly: a ratio in (0, 1] raised to alpha cannot overflow, and the
    common factor changes only rounding because schemes are unnormalised.
    A ratio that underflows to 0 leaves the support.  An integer alpha is
    refused when alpha * log2(largest gap product), the bits of the largest
    numerator, exceeds ``MAX_POWER_BITS``.
    """
    table, products = _gap_products(d, n, structure)
    a = Fraction(alpha)
    if a < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    top = int(products.max())
    if a.denominator == 1:
        k = a.numerator if top > 1 else 1  # every product is 1, and so is every power of it
        bits = math.log2(top)
        if bits and k > MAX_POWER_BITS / bits:
            raise ValueError(f"exponent too large at d={d}, level {n}: the gap products "
                             f"({bits:.3g} bits) to that power exceed the cap of "
                             f"{MAX_POWER_BITS} bits")
        if top**k <= _INT64_MAX:  # every power is exact in int64
            return WeightVector(d, n, table, products**k)
        return WeightVector(d, n, table, [p**k for p in products.tolist()])
    x = float(a)
    return WeightVector(d, n, table, *_exact_ratios([(p / top) ** x for p in products.tolist()]))


def uniform_weights(d: int, n: int, structure=None) -> WeightVector:
    """Equal coefficients on every strict partition of level n, read from
    ``structure`` when it is given (see :func:`_gap_products`)."""
    return power_weights(d, n, 0, structure)


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


def _parse_fraction(value) -> Fraction:
    """``Fraction(value)``, but a ValueError for a decimal exponent, which Fraction
    raises 10 to, past the digit limit ``int`` keeps on decimal text (4,300 if none)."""
    exponent = isinstance(value, str) and re.search(r"e([-+]?[\d_]+)\s*\Z", value, re.I)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if exponent and abs(int(exponent[1])) > limit:
        raise ValueError(f"decimal exponent beyond the limit of {limit}")
    return Fraction(value)


def parse_scheme(spec: str | Scheme) -> Scheme:
    """Parse ``product``, ``uniform``, ``power:<alpha>``, ``optimal[:support]``
    or ``file:<path>``.

    ``alpha`` accepts integers, decimals and rationals like ``1/2``, read by
    :func:`_parse_fraction`.
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
            alpha = _parse_fraction(arg)
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


def scheme_weights(spec: str | Scheme, d: int, n: int, *, tol: float = 1e-12,
                   structure=None) -> WeightVector:
    """Materialise a scheme specification as a weight vector at level n.

    ``structure`` is the box-removal structure of level n
    (:class:`~sud_estimate.risk.IncidenceStructure`) when the caller holds
    one, or a function of no arguments that builds it.  Product, power and
    uniform then read their support as its strict rows, and the optimal
    scheme is solved on it (it must be the full-support one); a function is
    called only after the refusals that need no table.  A ``file:`` scheme
    reads neither.
    """
    scheme = parse_scheme(spec)
    if scheme.kind == "product":
        return product_weights(d, n, structure)
    if scheme.kind == "uniform":
        return uniform_weights(d, n, structure)
    if scheme.kind == "power":
        return power_weights(d, n, scheme.alpha, structure)
    if scheme.kind == "optimal":
        from .spectral import optimal_weights  # deferred: spectral imports weights

        return optimal_weights(d, n, support=scheme.support, tol=tol,
                               structure=_built(structure))
    if scheme.kind == "file":
        w = load_weights(scheme.path)
        if w.d != d or w.level != n:
            raise ValueError(
                f"weights in {scheme.path} are for d={w.d}, level {w.level}, "
                f"requested d={d}, level {n}"
            )
        return w
    raise ValueError(f"unknown scheme kind {scheme.kind!r}")


def int_text(value: int) -> str:
    """Decimal digits of an int the package computed, however many there are.

    ``str`` refuses an int of more than ``sys.get_int_max_str_digits()``
    digits (4,300 by default), a guard against slow parsing of untrusted
    text; an int converts to ``Decimal`` exactly, with exponent 0, and
    prints as plain digits at any size.  Parsing user input keeps the limit.
    """
    return str(Decimal(value))


def fraction_text(value: Fraction) -> str:
    """``num/den``, exact at any size."""
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def _fraction_records(table: np.ndarray, numerators, denominator: int):
    """``(parts, "num/den")`` of each row of ``table`` with its numerator (Python ints) over
    ``denominator``, in lowest terms by one gcd, with no ``Fraction``; a scheme's records
    are ``_fraction_records(w.table, w.numerators.tolist(), w.denominator)``."""
    for parts, v in zip(table.tolist(), numerators):
        g = math.gcd(v, denominator)
        yield parts, f"{int_text(v // g)}/{int_text(denominator // g)}"


def records_text(records, key: str = "weight", depth: int = 0):
    """``json.dumps(list, indent=2)`` of ``{"parts": parts, key: text}`` for each ``(parts,
    text)`` of ``records`` (ints and a string), byte for byte, one piece per record.

    ``depth`` is the nesting level the list sits at in an enclosing
    ``indent=2`` document: its lines are indented by 2 * depth more spaces,
    and the text can follow ``"key": `` in it.  With an indent ``json.dumps``
    walks a list in its pure-Python encoder; here each record is one format
    of its parts and its text, quoted by the encoder's own string escaper.
    """
    item, line, part = ("\n" + "  " * (depth + k) for k in (1, 2, 3))
    quote = json.encoder.encode_basestring_ascii
    name = quote(key)
    sep = "["
    for parts, text in records:
        yield (f'{sep}{item}{{{line}"parts": [{part}{("," + part).join(map(str, parts))}{line}],'
               f'{line}{name}: {quote(text)}{item}}}')
        sep = ","
    yield "[]" if sep == "[" else "\n" + "  " * depth + "]"


def weights_from_json(records) -> WeightVector:
    """Inverse of :func:`save_weights`, on the parsed records; a malformed record's
    ValueError names its index.

    The scheme's level and d are those of the first record, and its integer
    form has the lcm of the weights' denominators as its denominator.  A
    weight is read by :func:`_parse_fraction`; an infinite one is malformed.
    """
    if not isinstance(records, list):
        raise ValueError(f"weight records must be a JSON list, not {type(records).__name__}")
    keys, values = [], []
    for i, rec in enumerate(records):
        try:
            values.append(_parse_fraction(rec["weight"]))
            keys.append(tuple(rec["parts"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"weight record {i} is malformed: {exc!r}") from exc
    if not keys:
        raise EmptySupportError("weight file has no entries")
    first = check_partition(keys[0])
    d, n = len(first), level(first)
    scale = math.lcm(*(v.denominator for v in values))
    return WeightVector(d, n, _key_table(d, n, keys),
                        [v.numerator * (scale // v.denominator) for v in values], scale)


def save_weights(w: WeightVector, path) -> None:
    """Stream ``w`` into a weight file, opened first (a ValueError if it cannot be): its
    ``{"parts": [ints], "weight": "num/den"}`` records as ``json.dumps(records,
    indent=2)`` prints them, in canonical order, and a final newline."""
    try:
        with open(path, "w") as f:
            f.writelines(records_text(_fraction_records(w.table, w.numerators.tolist(),
                                                        w.denominator)))
            f.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write weight file {path}: {exc.strerror}") from exc


def load_weights(path) -> WeightVector:
    try:
        records = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read weight file {path}: {exc.strerror}") from exc
    except RecursionError as exc:
        raise ValueError(f"weight file {path} is nested too deeply to parse") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"weight file {path} is not UTF-8 JSON text: {exc}") from exc
    return weights_from_json(records)

"""Character-theoretic oracle: alternants and Haar-measure quadrature.

Everything the exact risk engine computes combinatorially can be recomputed
analytically from SU(d) characters:

* chi_lambda(U) is the Schur polynomial of the eigenvalues of U,
* the squared modulus of the Weyl denominator turns the Haar integral of a
  class function into a (d-1)-dimensional torus integral,
* tensoring with the defining representation (a pointwise product of
  characters) must match box addition on partitions,
* the risk of a scheme has an integral form built from character products
  only, with no reference to box removal.

The one evaluation primitive is the alternant
a_(lambda+delta)(z) = det(z_i^(lambda_j + d - j)), batched over the rows of
an eigenvalue matrix.  By the bialternant formula chi_lambda =
a_(lambda+delta) / a_delta, and a_delta is the Weyl denominator, so every
character identity checked here is multiplied through by a_delta.  The
alternant itself is a Laplace expansion that shares its minors: column by
column, smallest exponent first, every minor on k of the variables is built
from the minors on k-1 of them.  It adds and multiplies only, with no
division and no pivoting, so the whole oracle divides by nothing and a node
where eigenvalues collide still gives a zero.

The quadrature is the trapezoid rule on the torus grid of M points per
angle, with one node per Weyl orbit.  The Weyl density is |a_delta|^2, so
every Haar integral of character products is a plain sum of alternant
products.  Every such integrand is symmetric in the eigenphases and vanishes
where two of them coincide, so the sum over the M^(d-1) grid nodes is d!
times the sum over one node per orbit of d distinct phases: about C(M, d)/M
nodes (the Weyl integration formula on a finite grid).  Every integrand is
a trigonometric polynomial, so the rule is exact (up to rounding) once the
per-angle resolution exceeds the largest frequency; 2(N + d + 1) + 1 points
per angle cover every integrand this package produces at level N.  One rule
at the highest level of a run serves every check and level below it.

Partitions differing by full columns label the same SU(d) irrep; their
alternants agree because the eigenvalue product is 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .errors import EmptySupportError, ResolutionError
from .partitions import check_partition, enumerate_partitions, partition_table, pieri_add
from .weights import WeightVector

__all__ = [
    "TorusPoint",
    "random_torus_points",
    "QuadratureRule",
    "haar_quadrature",
    "min_resolution",
    "branching_defect",
    "orthogonality_defect",
    "quadrature_risk",
]

@dataclass(frozen=True)
class TorusPoint:
    """A point on the maximal torus of SU(d), carried by d-1 free angles.

    The d-th eigenphase is -(sum of the others), so the eigenvalue product
    is exactly 1.  Every angle must be finite.
    """

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        for i, a in enumerate(angles):
            if not math.isfinite(a):
                raise ValueError(f"torus angle {i} is {a}, not a finite number")
        object.__setattr__(self, "angles", angles)

    @property
    def eigenphases(self) -> tuple[float, ...]:
        return self.angles + (-math.fsum(self.angles),)

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        return tuple(complex(math.cos(t), math.sin(t)) for t in self.eigenphases)


def random_torus_points(d: int, count: int, seed: int = 0) -> list[TorusPoint]:
    """Sample of torus points, uniform in the free angles on [0, 2 pi).

    The angles come from the standard library's ``random.Random(seed)``,
    ``uniform(0, 2 pi)`` drawn point by point, so one seed always gives the
    same sample; it is not numpy's stream for that seed, and no numpy
    generator is loaded.  A negative seed is refused: ``random.Random``
    would seed with its absolute value.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return [
        TorusPoint(tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(d - 1)))
        for _ in range(count)
    ]


def _eigenvalue_matrix(angles: np.ndarray) -> np.ndarray:
    """(n, d-1) free angles -> (n, d) unit eigenvalues with product 1."""
    full = np.concatenate([angles, -angles.sum(axis=1, keepdims=True)], axis=1)
    return np.exp(1j * full)


def _alternant(parts: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """a_(lambda+delta) = det(z_i^(lambda_j + d - j)) at every row of ``z``.

    The determinant is expanded along its exponent columns taken in
    ascending order, e_1 < ... < e_d.  Stage k holds, for every k-subset
    S = {s_0 < ... < s_(k-1)} of the variables, the minor on S and the k
    smallest exponents,

        M(S) = sum_p (-1)^(k-1-p) z_(s_p)^(e_k) M(S minus s_p),

    so stage d is the alternant up to the column-reversal sign
    (-1)^(d(d-1)/2).  The powers come from one ladder array that advances
    with the stages: by one multiplication per unit step, or, when that
    takes more products, by square-and-multiply from z in place.  The
    variables are laid out as a contiguous (d, n) array, and each stage is
    dropped once the next is built.
    """
    d = len(parts)
    zt = np.ascontiguousarray(z.T)
    power = np.ones_like(zt)  # z^reached, row by variable
    term = np.empty(len(z), dtype=zt.dtype)
    reached = 0
    minors = {(): 1.0}
    for k, exponent in enumerate(p + i for i, p in enumerate(reversed(parts))):
        if exponent - reached > exponent.bit_length() + exponent.bit_count():
            # square-and-multiply from z in place: fewer products than the step
            np.copyto(power, zt)
            for bit in f"{exponent:b}"[1:]:
                power *= power
                if bit == "1":
                    power *= zt
        else:
            for _ in range(exponent - reached):
                power *= zt
        reached = exponent
        stage = {}
        for subset in combinations(range(d), k + 1):
            total = power[subset[k]] * minors[subset[:k]]
            for p in range(k):
                np.multiply(power[subset[p]], minors[subset[:p] + subset[p + 1:]], out=term)
                if (k - p) % 2:
                    total -= term
                else:
                    total += term
            stage[subset] = total
        minors = stage
    alternant = minors[tuple(range(d))]
    return -alternant if d * (d - 1) // 2 % 2 else alternant


class QuadratureRule:
    """Trapezoid rule for class functions against Haar measure, one node per orbit.

    Every node stands for the d! grid nodes of its orbit and has the cell
    weight ``cell`` = 1 / resolution^(d-1).
    ``weights`` fold in the Weyl density, |a_delta|^2 * cell per node, so
    integrating a class function is a dot product with its values at
    ``eigenvalues``.  Character products need no density: |a_delta|^2
    cancels the denominators, so ``inner_product`` sums alternants times
    ``cell``.  Exact for integrands whose per-angle frequency content stays
    below ``resolution``.  Alternants are cached per label until
    :func:`quadrature_risk` integrates a higher level, which drops every
    label below its own.
    """

    def __init__(self, d, resolution, eigenvalues):
        self.d = d
        self.resolution = resolution
        self.eigenvalues = eigenvalues  # (n, d)
        self.cell = 1.0 / resolution ** (d - 1)
        self._alternants: dict[tuple[int, ...], np.ndarray] = {}
        self.weights = np.abs(self.alternant((0,) * d)) ** 2 * self.cell  # (n,)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.dot(self.weights, values))

    def alternant(self, parts) -> np.ndarray:
        """a_(lambda+delta) at every node: chi_lambda times the Weyl denominator."""
        t = check_partition(parts, self.d)
        if t not in self._alternants:
            self._alternants[t] = _alternant(t, self.eigenvalues)
        return self._alternants[t]

    def inner_product(self, a, b) -> complex:
        """Haar inner product <chi_a, chi_b>; 1 on equivalent labels, else 0."""
        return complex(self.cell * np.vdot(self.alternant(b), self.alternant(a)))


def min_resolution(d: int, n: int) -> int:
    """Per-angle points that make every level-n risk integrand exact.

    That integrand reaches frequency 2(n + d + 1) per free angle, and the
    trapezoid rule is exact one point above its bandwidth.
    """
    return 2 * (n + d + 1) + 1


def haar_quadrature(d: int, resolution: int) -> QuadratureRule:
    """One grid node per regular Weyl orbit, the Weyl density in the weights.

    With M = ``resolution`` the grid phases are 2 pi k / M with k in Z_M^d
    and sum(k) = 0 mod M.  A node is an index tuple k_1 < ... < k_d, the
    sorted representative of an orbit of d! grid nodes; the grid nodes where
    two phases coincide are left out, as every integrand vanishes there.
    The nodes are the (d-1)-subsets of Z_M whose completing index
    k_d = -sum(k) mod M exceeds k_(d-1): C(M, d)/M of them when
    gcd(d, M) = 1.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if resolution < 2 * d - 1:
        raise ResolutionError(
            f"resolution {resolution} cannot even normalise the measure for d={d}"
        )
    free = np.fromiter(
        chain.from_iterable(combinations(range(resolution), d - 1)), dtype=np.int64
    ).reshape(-1, d - 1)
    free = free[-free.sum(axis=1) % resolution > free[:, -1]]
    return QuadratureRule(d, resolution, _eigenvalue_matrix(2.0 * math.pi * free / resolution))


def branching_defect(d: int, max_level: int, points: Iterable[TorusPoint]) -> float:
    """The largest pointwise defect of the branching rule, multiplied
    through by a_delta, over every label up to ``max_level``.

    Tensoring with the defining representation adds one box in every
    admissible row, so chi_lambda * (z_1 + ... + z_d) is the sum of the
    children's characters.  Times the Weyl denominator this is the
    polynomial identity a_(lambda+delta) * (z_1 + ... + z_d) = sum over
    children mu of a_(mu+delta), which divides by nothing; the defect is
    its maximum absolute deviation over the sample.

    Labels are taken level by level in enumeration order, on one eigenvalue
    matrix, and each label's alternant is evaluated once, from level 0 to
    ``max_level`` + 1: a child's alternant is kept for its own identity one
    level up, and a level's alternants are dropped once it is passed.
    """
    z = _sample_eigenvalues(points, d)
    if z is None:
        return 0.0
    worst = 0.0
    alternants: dict[tuple[int, ...], np.ndarray] = {}
    for n in range(max_level + 1):
        alternants = {t: a for t, a in alternants.items() if sum(t) >= n}
        for t in enumerate_partitions(d, n):
            worst = max(worst, _branching_deviation(t, z, alternants))
    return worst


def _sample_eigenvalues(points: Iterable[TorusPoint], d: int) -> np.ndarray | None:
    """The eigenvalue matrix of a sample on SU(d); None for an empty sample."""
    angles = np.array([point.angles for point in points], dtype=float)
    if not len(angles):
        return None
    if angles.shape[1] + 1 != d:
        raise ValueError(f"points are on SU({angles.shape[1] + 1}), partition has {d} rows")
    return _eigenvalue_matrix(angles)


def _branching_deviation(t: tuple[int, ...], z: np.ndarray, alternants: dict) -> float:
    """max |a_(t+delta) * p_1 - sum over children a_(mu+delta)| over the rows of ``z``;
    alternants missing from ``alternants`` are evaluated and added to it."""

    def alternant(parts):
        if parts not in alternants:
            alternants[parts] = _alternant(parts, z)
        return alternants[parts]

    lhs = alternant(t) * z.sum(axis=1)
    rhs = sum(alternant(child) for _, child in pieri_add(t))
    return float(np.max(np.abs(lhs - rhs)))


def orthogonality_defect(d: int, max_level: int, rule: QuadratureRule | None = None) -> float:
    """Largest deviation of the character Gram matrix from its exact value.

    Runs over every pair of partitions up to ``max_level``; the exact inner
    product is 1 when the labels are SU(d)-equivalent (equal parts after
    removing full columns) and 0 otherwise.  The rule defaults to
    ``haar_quadrature(d, min_resolution(d, max_level))``.  Beside the rule's
    cache it holds one conjugated copy of the labels' alternants; row a of
    the Gram matrix is that block times the cached alternant of a.
    """
    if rule is None:
        rule = haar_quadrature(d, min_resolution(d, max_level))
    labels = np.concatenate([partition_table(d, n) for n in range(max_level + 1)])
    values = [rule.alternant(tuple(p)) for p in labels.tolist()]
    conj = np.stack(values)
    np.conjugate(conj, out=conj)
    gram = rule.cell * np.stack([conj @ a for a in values])
    classes: dict[tuple[int, ...], int] = {}
    ids = np.array([classes.setdefault(tuple(p - p[-1]), len(classes)) for p in labels])
    expected = ids[:, None] == ids[None, :]
    return float(np.max(np.abs(gram - expected)))


def quadrature_risk(d: int, n: int, w: WeightVector, rule: QuadratureRule | None = None) -> float:
    """Risk recomputed as a Haar integral of character products.

    For unit-norm coefficients c the risk equals

        1 - (1/d^2) * Integral |sum_lambda c(lambda) chi_lambda(U)|^2
                               * |chi_box(U)|^2  dU,

    which touches no box-removal combinatorics: expanding the product of
    characters is left entirely to the integral.  With the Weyl density the
    integrand is |sum_lambda c(lambda) a_(lambda+delta) * p_1|^2, where
    p_1 = z_1 + ... + z_d, summed with the uniform cell weight.  The rule
    defaults to ``haar_quadrature(d, min_resolution(d, n))``, bandwidth + 1,
    which is exact for this integrand; one rule at the resolution of the
    highest level serves every lower level, and its alternants are reused.
    The rule's cache is dropped below level n first, so a run that takes its
    levels in increasing order holds one level's labels at a time.
    A rule whose resolution is inside the integrand bandwidth is refused
    outright (passing the top-degree self-test would not rule out aliasing of
    lower frequencies); one that fails the self-test is refused as well.
    """
    if w.d != d or w.level != n:
        raise ValueError(f"weights are for d={w.d}, level {w.level}, not ({d}, {n})")
    if rule is None:
        rule = haar_quadrature(d, min_resolution(d, n))
    bandwidth = min_resolution(d, n) - 1
    if rule.resolution <= bandwidth:
        raise ResolutionError(
            f"resolution {rule.resolution} is inside the level-{n} integrand "
            f"bandwidth {bandwidth}"
        )
    top = (n + 1,) + (0,) * (d - 1)
    self_test = abs(rule.inner_product(top, top) - 1.0)
    if self_test > 1e-9:
        raise ResolutionError(
            f"resolution {rule.resolution} fails the level-{n + 1} orthonormality "
            f"self-test (defect {self_test:.3e})"
        )
    rule._alternants = {t: a for t, a in rule._alternants.items() if sum(t) >= n}
    if not len(w.numerators):
        raise EmptySupportError(f"no nonzero coefficient at level {n} for d={d}")
    den, norm = w.denominator, math.sqrt(float(w.norm_sq))  # unit-norm coefficients
    total = np.zeros(rule.eigenvalues.shape[0], dtype=complex)
    for parts, v in zip(w.table.tolist(), w.numerators.tolist()):
        total += v / den / norm * rule.alternant(tuple(parts))
    p1 = rule.eigenvalues.sum(axis=1)
    integral = rule.cell * float(np.sum(np.abs(total * p1) ** 2))
    return 1.0 - integral / (d * d)

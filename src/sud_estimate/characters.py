"""Character-theoretic oracle: Schur evaluation and Haar-measure quadrature.

Everything the exact risk engine computes combinatorially can be recomputed
analytically from SU(d) characters:

* chi_lambda(U) is the Schur polynomial of the eigenvalues of U,
* the squared modulus of the Weyl denominator turns the Haar integral of a
  class function into a (d-1)-dimensional torus integral,
* tensoring with the defining representation (a pointwise product of
  characters) must match box addition on partitions,
* the risk of a scheme has an integral form built from character products
  only, with no reference to box removal.

The quadrature is a tensor trapezoid rule on the torus.  By the bialternant
formula chi_lambda = a_(lambda+delta) / a_delta, and the Weyl density is
|a_delta|^2, so every Haar integral of character products is a plain sum of
alternant products: no division, and nothing special where eigenvalues
collide.  Every such integrand is a trigonometric polynomial, so the rule is
exact (up to rounding) once the per-angle resolution exceeds the largest
frequency; 2(N + d + 1) + 1 points per angle cover every integrand this
package produces at level N.

Partitions differing by full columns label the same SU(d) irrep; characters
evaluated here agree on such pairs because the eigenvalue product is 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalInstabilityError, ResolutionError
from .partitions import check_partition, enumerate_partitions, pieri_add
from .weights import WeightVector

__all__ = [
    "TorusPoint",
    "random_torus_points",
    "schur_eval",
    "su_equivalent",
    "QuadratureRule",
    "haar_quadrature",
    "min_resolution",
    "pieri_residual",
    "orthogonality_defect",
    "quadrature_risk",
]

# Below this pairwise eigenvalue distance evaluation switches from the
# Weyl-denominator ratio to divided differences, which divide by nothing.  The
# ratio loses digits well before the pair collides: at a pair 1.25e-5 apart on
# SU(4) its branching residual is 6.2e-9, against 7.7e-13 for divided
# differences.  Quadrature integrals never take the ratio: they sum alternant
# products, so on a grid only ``QuadratureRule.character_values`` reaches the
# fallback, at nodes whose eigenvalues collide (and whose Haar weight is 0).
CONFLUENCE_THRESHOLD = 1e-3


@dataclass(frozen=True)
class TorusPoint:
    """A point on the maximal torus of SU(d), carried by d-1 free angles.

    The d-th eigenphase is -(sum of the others), so the eigenvalue product
    is exactly 1.
    """

    angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    @property
    def d(self) -> int:
        return len(self.angles) + 1

    @property
    def eigenphases(self) -> tuple[float, ...]:
        return self.angles + (-math.fsum(self.angles),)

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        return tuple(complex(math.cos(t), math.sin(t)) for t in self.eigenphases)


def random_torus_points(d: int, count: int, seed: int = 0) -> list[TorusPoint]:
    """Deterministic sample of torus points, uniform in the free angles."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 2.0 * math.pi, size=(count, d - 1))
    return [TorusPoint(tuple(row)) for row in draws]


def su_equivalent(a, b) -> bool:
    """True when two partitions differ by full columns (same SU(d) irrep)."""
    a = check_partition(a)
    b = check_partition(b, len(a))
    diffs = {x - y for x, y in zip(a, b)}
    return len(diffs) == 1


def _eigenvalue_matrix(angles: np.ndarray) -> np.ndarray:
    """(n, d-1) free angles -> (n, d) unit eigenvalues with product 1."""
    full = np.concatenate([angles, -angles.sum(axis=1, keepdims=True)], axis=1)
    return np.exp(1j * full)


def _pair_product(z: np.ndarray) -> np.ndarray:
    """Weyl denominator prod_{i<j} (z_i - z_j) per row."""
    n, d = z.shape
    out = np.ones(n, dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            out *= z[:, i] - z[:, j]
    return out


def _min_pair_gap(z: np.ndarray) -> np.ndarray:
    n, d = z.shape
    out = np.full(n, np.inf)
    for i in range(d):
        for j in range(i + 1, d):
            out = np.minimum(out, np.abs(z[:, i] - z[:, j]))
    return out


def _staircase_exponents(parts: tuple[int, ...]) -> np.ndarray:
    d = len(parts)
    return np.array([parts[j] + d - 1 - j for j in range(d)], dtype=np.int64)


def _alternant(parts: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """a_(lambda+delta) = det(z_i^(lambda_j + d - j)) at every row of ``z``."""
    return np.linalg.det(z[:, :, None] ** _staircase_exponents(parts)[None, None, :])


def _h_table(z: Sequence[complex], kmax: int) -> list[list[complex]]:
    """h[m][k] = complete homogeneous polynomial h_k(z_1..z_{m+1}).

    Built by the recurrence h_k(z_1..z_m) = h_k(z_1..z_{m-1})
    + z_m * h_{k-1}(z_1..z_m), which never subtracts like terms and is
    well defined for repeated arguments.
    """
    table: list[list[complex]] = []
    prev = [complex(1.0)] + [complex(0.0)] * kmax  # h_k of no variables
    for zm in z:
        row = [complex(1.0)]
        for k in range(1, kmax + 1):
            row.append(prev[k] + zm * row[k - 1])
        table.append(row)
        prev = row
    return table


def _schur_confluent(parts: tuple[int, ...], z: Sequence[complex]) -> complex:
    """Divided-difference evaluation, stable under eigenvalue collisions.

    The bialternant ratio equals det(h_{mu_j - i + 1}(z_1..z_i)) divided by
    the same determinant built for the empty partition; both use only
    complete homogeneous polynomials, so confluent points need no limits.
    At the identity the value reduces to the Weyl dimension exactly.
    """
    d = len(parts)
    mu = _staircase_exponents(parts)
    kmax = int(mu[0])
    h = _h_table(list(z), kmax)

    def build(exponents: np.ndarray) -> np.ndarray:
        m = np.zeros((d, d), dtype=complex)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                k = int(exponents[j - 1]) - i + 1
                if k == 0:
                    m[i - 1, j - 1] = 1.0
                elif k > 0:
                    m[i - 1, j - 1] = h[i - 1][k]
        return m

    numerator = np.linalg.det(build(mu))
    denominator = np.linalg.det(build(_staircase_exponents((0,) * d)))
    if not np.isfinite(numerator) or abs(denominator) < 0.5:
        raise NumericalInstabilityError(
            f"divided-difference evaluation failed for {parts} at {z!r}"
        )
    return complex(numerator / denominator)


def _batch_schur(parts: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """Schur values at every row of ``z`` (shape (n, d)).

    Generic rows use the bialternant determinant ratio, batched; rows whose
    eigenvalues nearly collide are recomputed by divided differences.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _alternant(parts, z) / _pair_product(z)
    for idx in np.flatnonzero(_min_pair_gap(z) < CONFLUENCE_THRESHOLD):
        values[idx] = _schur_confluent(parts, z[idx])
    if not np.all(np.isfinite(values)):
        raise NumericalInstabilityError(
            f"character evaluation produced non-finite values for {parts}"
        )
    return values


def schur_eval(parts, point: TorusPoint | Sequence[float]) -> complex:
    """chi_lambda at a torus point: the Schur polynomial of the eigenvalues.

    Uses the ratio of alternants det(z_i^(lambda_j + d - j)) / det(z_i^(d-j));
    when two eigenvalues are closer than ``CONFLUENCE_THRESHOLD`` the
    evaluation switches to a divided-difference form that is exact in the
    confluent limit (and equals the Weyl dimension at the identity).
    """
    t = check_partition(parts)
    if not isinstance(point, TorusPoint):
        point = TorusPoint(tuple(point))
    if point.d != len(t):
        raise ValueError(f"point is on SU({point.d}), partition has {len(t)} rows")
    z = np.array([point.eigenvalues])
    return complex(_batch_schur(t, z)[0])


class QuadratureRule:
    """Tensor trapezoid rule for class functions against Haar measure.

    Every node has the cell weight ``cell`` = 1 / (d! resolution^(d-1)).
    ``weights`` fold in the Weyl density, |Delta(z)|^2 * cell per node, so
    integrating a class function is a dot product with its values at
    ``eigenvalues``.  Character products need no density: |Delta|^2 cancels
    the denominators, so ``inner_product`` sums alternants times ``cell``.
    Exact for integrands whose per-angle frequency content stays below
    ``resolution``.  Alternants and character values are cached per label.
    """

    def __init__(self, d, resolution, angles, eigenvalues):
        self.d = d
        self.resolution = resolution
        self.angles = angles  # (n, d-1)
        self.eigenvalues = eigenvalues  # (n, d)
        self.cell = 1.0 / (math.factorial(d) * resolution ** (d - 1))
        self.weights = np.abs(_pair_product(eigenvalues)) ** 2 * self.cell  # (n,)
        self._cache: dict[tuple, np.ndarray] = {}

    @property
    def nodes(self) -> tuple[TorusPoint, ...]:
        return tuple(TorusPoint(tuple(row)) for row in self.angles)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.dot(self.weights, values))

    def _cached(self, parts, evaluate) -> np.ndarray:
        key = (evaluate, check_partition(parts, self.d))
        if key not in self._cache:
            self._cache[key] = evaluate(key[1], self.eigenvalues)
        return self._cache[key]

    def alternant(self, parts) -> np.ndarray:
        """a_(lambda+delta) at every node: chi_lambda times the Weyl denominator."""
        return self._cached(parts, _alternant)

    def character_values(self, parts) -> np.ndarray:
        return self._cached(parts, _batch_schur)

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
    """Uniform tensor grid with the Weyl density folded into the weights.

    The grid has ``resolution`` points per free angle, resolution**(d-1)
    nodes total.  Nodes where eigenvalues collide stay on the grid with
    weight zero; their alternants vanish, so they add nothing to an integral.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if resolution < 2 * d - 1:
        raise ResolutionError(
            f"resolution {resolution} cannot even normalise the measure for d={d}",
            suggested_resolution=2 * d - 1,
        )
    ticks = 2.0 * math.pi * np.arange(resolution) / resolution
    grids = np.meshgrid(*([ticks] * (d - 1)), indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    return QuadratureRule(d, resolution, angles, _eigenvalue_matrix(angles))


def pieri_residual(parts, points: Iterable[TorusPoint]) -> float:
    """Pointwise defect of the branching identity chi_lambda * chi_box.

    Tensoring with the defining representation adds one box in every
    admissible row, so chi_lambda(z) * (z_1 + ... + z_d) must equal the sum
    of the children characters at every point.  Returns the maximum absolute
    deviation over the sample; each character is evaluated once over all of
    it.
    """
    t = check_partition(parts)
    z = np.array([point.eigenvalues for point in points], dtype=complex)
    if z.size == 0:
        return 0.0
    if z.shape[1] != len(t):
        raise ValueError(f"points are on SU({z.shape[1]}), partition has {len(t)} rows")
    lhs = _batch_schur(t, z) * z.sum(axis=1)
    rhs = sum(_batch_schur(child, z) for _, child in pieri_add(t))
    return float(np.max(np.abs(lhs - rhs)))


def orthogonality_defect(d: int, max_level: int, resolution: int | None = None) -> float:
    """Largest deviation of the character Gram matrix from its exact value.

    Runs over every pair of partitions up to ``max_level``; the exact inner
    product is 1 when the labels are SU(d)-equivalent and 0 otherwise.
    """
    if resolution is None:
        resolution = min_resolution(d, max_level)
    rule = haar_quadrature(d, resolution)
    labels = [
        p
        for n in range(max_level + 1)
        for p in enumerate_partitions(d, n)
    ]
    values = np.stack([rule.alternant(p) for p in labels])
    gram = rule.cell * (values @ np.conj(values.T))
    worst = 0.0
    for a, b in itertools.product(range(len(labels)), repeat=2):
        expected = 1.0 if su_equivalent(labels[a], labels[b]) else 0.0
        worst = max(worst, abs(gram[a, b] - expected))
    return worst


def quadrature_risk(
    d: int, n: int, w: WeightVector, resolution: int | None = None
) -> float:
    """Risk recomputed as a Haar integral of character products.

    For unit-norm coefficients c the risk equals

        1 - (1/d^2) * Integral |sum_lambda c(lambda) chi_lambda(U)|^2
                               * |chi_box(U)|^2  dU,

    which touches no box-removal combinatorics: expanding the product of
    characters is left entirely to the integral.  With the Weyl density the
    integrand is |sum_lambda c(lambda) a_(lambda+delta) * p_1|^2, where
    p_1 = z_1 + ... + z_d, summed with the uniform cell weight.  The rule
    resolution defaults to ``min_resolution(d, n)``, bandwidth + 1, which is
    exact for this integrand.
    A requested resolution below the integrand bandwidth is refused outright
    (passing the top-degree self-test would not rule out aliasing of lower
    frequencies); one that fails the self-test is refused as well.
    """
    if w.d != d or w.level != n:
        raise ValueError(f"weights are for d={w.d}, level {w.level}, not ({d}, {n})")
    if resolution is None:
        resolution = min_resolution(d, n)
    bandwidth = min_resolution(d, n) - 1
    if resolution <= bandwidth:
        raise ResolutionError(
            f"resolution {resolution} is inside the level-{n} integrand "
            f"bandwidth {bandwidth}",
            suggested_resolution=min_resolution(d, n),
        )
    rule = haar_quadrature(d, resolution)
    top = (n + 1,) + (0,) * (d - 1)
    self_test = abs(rule.inner_product(top, top) - 1.0)
    if self_test > 1e-9:
        raise ResolutionError(
            f"resolution {resolution} fails the level-{n + 1} orthonormality "
            f"self-test (defect {self_test:.3e})",
            suggested_resolution=min_resolution(d, n),
        )
    coeff = w.float_coefficients()
    total = np.zeros(rule.eigenvalues.shape[0], dtype=complex)
    for parts, c in coeff.items():
        total += c * rule.alternant(parts)
    p1 = rule.eigenvalues.sum(axis=1)
    integral = rule.cell * float(np.sum(np.abs(total * p1) ** 2))
    return 1.0 - integral / (d * d)

"""Risk-optimal coefficients via the leading eigenpair of the incidence form.

The risk numerator is a quadratic form c^T B^T B c where B is the 0/1
incidence matrix between partitions of level N+1 (rows) and their level-N
parents (columns).  Minimising the risk over unit-norm schemes is therefore
an extremal eigenvalue problem:

    optimal risk = 1 - eigmax(B^T B) / d^2,

and eigmax <= d^2 because every row of B has at most d ones.  The leading
eigenvector is entrywise nonnegative (B^T B is a nonnegative matrix), so it
is itself a valid scheme.

B^T B is never materialised; power iteration applies B and B^T once each per
step.  The iteration starts from the all-ones vector, which has positive
overlap with the nonnegative leading eigenvector, and stops on a residual
certificate ||A v - theta v|| <= tol * theta.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from fractions import Fraction

from scipy.sparse import csr_matrix

from .errors import ConvergenceError, EmptySupportError
from .risk import _box_removal, exact_risk
from .weights import WeightVector, product_weights

__all__ = [
    "IncidenceStructure",
    "build_incidence",
    "SpectralResult",
    "max_eigenpair",
    "optimal_weights",
    "OptimalityGap",
    "optimality_gap",
]


@dataclass(frozen=True)
class IncidenceStructure:
    """Sparse box-removal incidence between level N+1 and level N.

    ``matrix[r, c] = 1`` iff removing one box from ``rows[r]`` gives
    ``cols[c]``.  ``support`` selects the columns: "full" keeps every level-N
    partition, "strict" only the strictly decreasing ones (where the
    gap-product scheme lives).  Rows are always the full level-(N+1) set;
    with strict columns some rows have degree zero.
    """

    d: int
    level: int
    support: str
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    matrix: csr_matrix

    def row_degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel().astype(int)

    def col_degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel().astype(int)


def build_incidence(d: int, n: int, support: str = "full") -> IncidenceStructure:
    if support not in ("full", "strict"):
        raise ValueError(f"support must be 'full' or 'strict', got {support!r}")
    structure = _box_removal(d, n)
    if support == "full":
        return IncidenceStructure(d, n, support, structure.rows, structure.cols, structure.matrix)
    keep = np.flatnonzero(structure.strict)
    if not keep.size:
        raise EmptySupportError(f"no {support} partition at level {n} for d={d}")
    cols = tuple(structure.cols[j] for j in keep)
    return IncidenceStructure(d, n, support, structure.rows, cols, structure.matrix[:, keep])


@dataclass(frozen=True)
class SpectralResult:
    """Leading eigenpair of B^T B with its convergence certificate."""

    d: int
    level: int
    support: str
    eigmax: float
    eigvec: WeightVector
    iterations: int
    residual: float

    @property
    def optimal_risk(self) -> float:
        return 1.0 - self.eigmax / (self.d * self.d)


def _vector_to_weights(structure: IncidenceStructure, v: np.ndarray) -> WeightVector:
    entries = {}
    for parts, value in zip(structure.cols, v):
        if value > 0.0:
            entries[parts] = Fraction(float(value))
    return WeightVector(structure.d, structure.level, entries)


def max_eigenpair(
    structure: IncidenceStructure,
    tol: float = 1e-12,
    max_iterations: int = 10**6,
) -> SpectralResult:
    """Power iteration for the largest eigenpair of B^T B.

    Deterministic: all-ones start, fixed-order sparse reductions, Rayleigh
    quotient estimate.  Stops when ||A v - theta v|| <= tol * theta; hitting
    the iteration cap raises :class:`ConvergenceError` with the best iterate
    attached as ``best``.  The iterates stay entrywise nonnegative, so the
    returned eigenvector is a valid weight vector.  If the support graph
    splits into components whose top eigenvalues tie exactly, the iterate
    converges to a nonnegative mixture over the tied components; the
    eigenvalue estimate is unaffected.
    """
    b = structure.matrix
    bt = b.T.tocsr()
    ncols = b.shape[1]
    v = np.full(ncols, 1.0 / np.sqrt(ncols))
    theta = 0.0
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        w = bt @ (b @ v)
        theta = float(v @ w)
        residual = float(np.linalg.norm(w - theta * v))
        if residual <= tol * theta and theta > 0:
            return SpectralResult(
                structure.d, structure.level, structure.support,
                theta, _vector_to_weights(structure, v), iteration, residual,
            )
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise EmptySupportError(
                f"incidence form is identically zero at level {structure.level}"
            )
        v = w / norm
    best = SpectralResult(
        structure.d, structure.level, structure.support,
        theta, _vector_to_weights(structure, v), max_iterations, residual,
    )
    raise ConvergenceError(
        f"power iteration did not reach residual {tol:g} * theta within "
        f"{max_iterations} steps (last residual {residual:.3e})",
        best=best,
    )


def optimal_weights(
    d: int, n: int, support: str = "full", tol: float = 1e-12
) -> WeightVector:
    """Leading-eigenvector scheme at level n."""
    return max_eigenpair(build_incidence(d, n, support), tol=tol).eigvec


@dataclass(frozen=True)
class OptimalityGap:
    """Gap-product risk against the spectral optimum at the same level.

    ``risk_product`` is None when the strict set is empty (the gap-product
    scheme does not exist there); the full-support optimum always exists.
    ``support_gap`` = strict optimum - full optimum >= 0 measures how much
    restricting to strict partitions costs.
    """

    d: int
    level: int
    risk_product: Fraction | None
    risk_optimal: float
    risk_optimal_strict: float | None
    gap: float | None

    @property
    def support_gap(self) -> float | None:
        if self.risk_optimal_strict is None:
            return None
        return self.risk_optimal_strict - self.risk_optimal


def optimality_gap(d: int, n: int, tol: float = 1e-12) -> OptimalityGap:
    """Compare the gap-product scheme with the spectral optimum at level n.

    The product scheme can never beat the full-support optimum; the returned
    ``gap`` (product risk - optimal risk) is nonnegative up to the solver
    tolerance.
    """
    full = max_eigenpair(build_incidence(d, n, "full"), tol=tol)
    try:
        strict = max_eigenpair(build_incidence(d, n, "strict"), tol=tol)
        strict_risk = strict.optimal_risk
    except EmptySupportError:
        strict_risk = None
    try:
        product = exact_risk(d, n, product_weights(d, n)).risk
    except EmptySupportError:
        product = None
    gap = float(product) - full.optimal_risk if product is not None else None
    return OptimalityGap(d, n, product, full.optimal_risk, strict_risk, gap)

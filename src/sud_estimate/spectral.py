"""Risk-optimal coefficients via the leading eigenpair of the incidence form.

The risk numerator is a quadratic form c^T B^T B c where B is the 0/1
incidence matrix between partitions of level N+1 (rows) and their level-N
parents (columns).  Minimising the risk over unit-norm schemes is therefore
an extremal eigenvalue problem:

    optimal risk = 1 - eigmax(B^T B) / d^2,

and eigmax <= d^2 because every row of B has at most d ones.  The leading
eigenvector is entrywise nonnegative (B^T B is a nonnegative matrix), so it
is itself a valid scheme.

B^T B is never materialised: a thick-restart Lanczos solve (Wu & Simon, SIAM
J. Matrix Anal. Appl. 22, 2000; the scheme behind ARPACK) applies B and B^T
once each per step, on a basis of fixed size with full
reorthogonalisation.  It starts from the all-ones vector, which has positive
overlap with the nonnegative leading eigenvector, and returns only a pair
that passes a residual certificate ||A v - theta v|| <= tol * theta
recomputed on the final nonnegative vector.  Plain numpy throughout: B is
the :class:`~sud_estimate.risk.BoxMatrix` of the box-removal structure, and
its two products are bincounts.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import ConvergenceError, EmptySupportError
from .risk import IncidenceStructure, _box_removal, _full_structure, exact_risk
from .weights import WeightVector, _exact_ratios, product_weights

__all__ = [
    "build_incidence",
    "SpectralResult",
    "max_eigenpair",
    "optimal_weights",
    "OptimalityGap",
    "optimality_gap",
]


def _restrict(structure: IncidenceStructure, support: str) -> IncidenceStructure:
    """``structure`` (full support) restricted to the columns of ``support``."""
    if support not in ("full", "strict"):
        raise ValueError(f"support must be 'full' or 'strict', got {support!r}")
    if support == "full":
        return structure
    keep = np.flatnonzero(structure.strict)
    if not keep.size:
        raise EmptySupportError(
            f"no strict partition at level {structure.level} for d={structure.d}"
        )
    return IncidenceStructure(
        structure.d, structure.level, support, structure.child_table,
        structure.parent_table[keep], structure.matrix.take_columns(keep),
    )


def build_incidence(d: int, n: int, support: str = "full") -> IncidenceStructure:
    return _restrict(_box_removal(d, n), support)


@dataclass(frozen=True)
class SpectralResult:
    """Leading eigenpair of B^T B with its convergence certificate.

    ``eigvec`` is the unit eigenvector as a scheme on the columns of B, built
    from the vector and the column table the first time it is read; every
    positive float is taken exactly, over one power-of-two denominator
    (``weights._exact_ratios``).
    """

    d: int
    level: int
    support: str
    eigmax: float
    iterations: int
    residual: float
    _vector: np.ndarray = field(repr=False, compare=False)
    _columns: np.ndarray = field(repr=False, compare=False)

    @property
    def optimal_risk(self) -> float:
        return 1.0 - self.eigmax / (self.d * self.d)

    @cached_property
    def eigvec(self) -> WeightVector:
        positive = self._vector > 0.0
        return WeightVector.from_table(
            self.d, self.level, self._columns[positive],
            *_exact_ratios(self._vector[positive]),
        )


# Basis size of the restarted Lanczos solve: ARPACK's default ncv for one
# eigenpair.  Each restart keeps about half of it as Ritz vectors (Wu & Simon).
_BASIS_SIZE = 20
_KEPT = 10


def _certified(structure: IncidenceStructure, v: np.ndarray, iterations: int) -> SpectralResult:
    """Nonnegative unit vector from a Ritz vector, with its own residual.

    The leading eigenvector is nonnegative up to sign, so ``|v|`` is that
    vector up to rounding; theta and the residual are recomputed on it.
    """
    v = np.abs(v)
    v /= np.linalg.norm(v)
    b = structure.matrix
    w = b.rmatvec(b @ v)
    theta = float(v @ w)
    residual = float(np.linalg.norm(w - theta * v))
    return SpectralResult(
        structure.d, structure.level, structure.support,
        theta, iterations, residual, v, structure.parent_table,
    )


def max_eigenpair(
    structure: IncidenceStructure,
    tol: float = 1e-12,
    max_iterations: int = 10**6,
) -> SpectralResult:
    """Thick-restart Lanczos for the largest eigenpair of B^T B.

    Deterministic: all-ones start, a basis of at most ``_BASIS_SIZE`` vectors
    orthogonalised twice against all earlier ones, Ritz pairs from
    ``np.linalg.eigh`` of the projected matrix, and restarts that keep the
    ``_KEPT`` largest Ritz vectors.  ``iterations`` counts applications of
    B^T B (the certificate's own product aside) and ``max_iterations`` caps
    it; at the cap :class:`ConvergenceError` is raised with the current Ritz
    pair attached as ``best``.  The returned eigenvector is entrywise
    nonnegative and carries the recomputed residual ||A v - theta v|| <=
    tol * theta.  A breakdown (the basis spans an invariant subspace, as on
    small forms and inside the mirror-symmetric half of the d=2 form, where
    beta falls to rounding level rather than to zero) ends the solve: its
    Ritz pairs are exact, so a failed certificate there raises
    :class:`ConvergenceError`.  If the support graph splits into components
    whose top eigenvalues tie exactly, the vector is a nonnegative mixture
    over the tied components; the eigenvalue is unaffected.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    b = structure.matrix
    if b.nnz == 0:
        raise EmptySupportError(
            f"incidence form is identically zero at level {structure.level}"
        )
    ncols = b.shape[1]
    size = min(_BASIS_SIZE, ncols)
    basis = np.empty((size + 1, ncols))
    basis[0] = 1.0 / np.sqrt(ncols)
    projected = np.zeros((size, size))
    first = 0
    iterations = 0

    def ritz(k: int) -> SpectralResult:
        _, vectors = np.linalg.eigh(projected[:k, :k])
        return _certified(structure, vectors[:, -1] @ basis[:k], iterations)

    while True:
        for j in range(first, size):
            if iterations == max_iterations:
                best = ritz(j)
                raise ConvergenceError(
                    f"Lanczos did not reach residual {tol:g} * theta within "
                    f"{max_iterations} applications (last residual {best.residual:.3e})",
                    best=best,
                )
            w = b.rmatvec(b @ basis[j])
            iterations += 1
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            again = basis[: j + 1] @ w
            w -= again @ basis[: j + 1]
            projected[: j + 1, j] = projected[j, : j + 1] = h + again
            beta = float(np.linalg.norm(w))
            # beta bounds the residual of every Ritz pair of the basis so far
            if beta <= tol * projected[0, 0]:
                found = ritz(j + 1)
                if found.residual <= tol * found.eigmax:
                    return found
                raise ConvergenceError(
                    f"Lanczos broke down at {iterations} applications with residual "
                    f"{found.residual:.3e} above {tol:g} * theta",
                    best=found,
                )
            basis[j + 1] = w / beta
        theta, vectors = np.linalg.eigh(projected)
        if beta * abs(vectors[-1, -1]) <= tol * theta[-1]:
            found = ritz(size)
            if found.residual <= tol * found.eigmax:
                return found
        # restart from the largest Ritz vectors, largest first, and the last
        # Lanczos vector; their couplings are recomputed by the next projection
        first = min(_KEPT, size - 1)
        basis[:first] = vectors[:, : -first - 1 : -1].T @ basis[:size]
        basis[first] = basis[size]
        projected[:] = 0.0
        projected[range(first), range(first)] = theta[: -first - 1 : -1]


def optimal_weights(
    d: int, n: int, support: str = "full", tol: float = 1e-12,
    structure: IncidenceStructure | None = None,
) -> WeightVector:
    """Leading-eigenvector scheme at level n.

    It is solved on ``structure``, the full-support box-removal structure of
    level n, restricted to ``support``; by default the structure is built.
    """
    return max_eigenpair(_restrict(_full_structure(d, n, structure), support), tol=tol).eigvec


@dataclass(frozen=True)
class OptimalityGap:
    """Gap-product risk against the spectral optima at the same level.

    ``full`` and ``strict`` are the eigenpairs on the two supports, the ones
    the ``optimal`` command reports.  When the strict set is empty,
    ``strict`` and ``risk_product`` are None (the gap-product scheme does not
    exist there); the full-support optimum always exists.  ``gap`` is the
    product risk minus the full-support optimum.
    """

    d: int
    level: int
    risk_product: Fraction | None
    full: SpectralResult
    strict: SpectralResult | None

    @property
    def risk_optimal(self) -> float:
        return self.full.optimal_risk

    @property
    def risk_optimal_strict(self) -> float | None:
        return None if self.strict is None else self.strict.optimal_risk

    @property
    def gap(self) -> float | None:
        return None if self.risk_product is None else float(self.risk_product) - self.risk_optimal


def optimality_gap(
    d: int, n: int, tol: float = 1e-12, max_iterations: int = 10**6
) -> OptimalityGap:
    """Compare the gap-product scheme with the spectral optima at level n.

    One box-removal structure serves both solves, full first, and the
    product scheme, whose support is the strict structure's columns, and its
    exact risk.  The product scheme can never beat the
    full-support optimum; the returned ``gap`` (product risk - optimal risk)
    is nonnegative up to the solver tolerance.
    """
    structure = _box_removal(d, n)
    full = max_eigenpair(structure, tol=tol, max_iterations=max_iterations)
    try:
        strict_structure = _restrict(structure, "strict")
    except EmptySupportError:
        return OptimalityGap(d, n, None, full, None)
    strict = max_eigenpair(strict_structure, tol=tol, max_iterations=max_iterations)
    product = exact_risk(d, n, product_weights(d, n, strict_structure), structure).risk
    return OptimalityGap(d, n, product, full, strict)

"""Risk-optimal coefficients via the leading eigenpair of the incidence form.

The risk numerator is a quadratic form c^T B^T B c where B is the 0/1
incidence matrix between partitions of level N+1 (rows) and their level-N
parents (columns).  Minimising the risk over unit-norm schemes is therefore
an extremal eigenvalue problem:

    optimal risk = 1 - eigmax(B^T B) / d^2,

and eigmax <= d^2 because every row of B has at most d ones.  The leading
eigenvector is entrywise nonnegative (B^T B is a nonnegative matrix), so it
is itself a valid scheme.  Reports score that scheme with
:func:`~sud_estimate.risk.exact_risk` rather than by the formula above,
whose subtraction cancels: at d=2 N=2000 it is 1.3e-10 relative off the
closed form sin^2(pi / (N+3)), and the exact risk within 2e-16.

B^T B is never materialised: a thick-restart Lanczos solve (Wu & Simon, SIAM
J. Matrix Anal. Appl. 22, 2000; the scheme behind ARPACK) on a basis of
fixed size with full reorthogonalisation, run on a Chebyshev polynomial of
A = B^T B (Zhou & Saad, SIAM J. Matrix Anal. Appl. 29, 2007).  It starts
from the all-ones vector, which has positive overlap with the nonnegative
leading eigenvector.  A first cycle of plain steps on A gives its two
largest Ritz values theta_1 >= theta_2; by Cauchy interlacing theta_2 <=
lambda_2 < lambda_1, so a cut below theta_1 (at theta_2 when that is at
least theta_1 / 2) leaves lambda_1 above it.  The rest of the solve runs on
p(A) = T_8(2A/cut - I) / T_8(2 theta_1/cut - 1): |p| <= 1 on [0, cut], which
holds every eigenvalue but those above the cut, and p increases above it,
so p(A) has the same top eigenvector with a much wider relative gap.  Each
filtered step applies A eight times by the three-term recurrence and
reorthogonalises once, so most applications skip the per-step
orthogonalisation against the basis.  ``iterations`` counts applications
of A, those inside the filter included.  The solve returns only a pair
that passes a residual certificate ||A v - theta v|| <= tol * theta,
recomputed with A itself on the final nonnegative vector.  Plain numpy
throughout: B is the :class:`~sud_estimate.risk.BoxMatrix` of the
box-removal structure, and its two products are bincounts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, EmptySupportError
from .risk import BoxMatrix, IncidenceStructure, _box_removal, _full_structure, exact_risk
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
        """1 - eigmax / d^2, read only by the benchmark's ``perfbench/pin.py``.

        It cancels at large N; the reports take the exact risk of ``eigvec``
        (:class:`OptimalityGap`).
        """
        return 1.0 - self.eigmax / (self.d * self.d)

    @cached_property
    def eigvec(self) -> WeightVector:
        positive = self._vector > 0.0
        return WeightVector(self.d, self.level, self._columns[positive],
                            *_exact_ratios(self._vector[positive]))


# Basis size of the restarted Lanczos solve: ARPACK's default ncv for one
# eigenpair.  Each restart keeps about half of it as Ritz vectors (Wu & Simon),
# and the first cycle, on B^T B itself, takes that many steps unless the basis
# holds the whole space.
_BASIS_SIZE = 20
_KEPT = 10
# Degree of the Chebyshev filter: applications of B^T B per filtered step.
_DEGREE = 8
# Least ratio beta / projected[0, 0] that the breakdown test accepts, whatever
# tol is.  A breakdown leaves that ratio at rounding level, and below tol it
# would be taken as a new direction.  Over every full and strict form at d=2
# N <= 409, d=3 N <= 124, d=4 N <= 29 and d=5 N <= 14 it is <= 6.9e-14 at each
# breakdown and >= 5.2e-6 at every other step.
_BREAKDOWN = 1e-12
# Failed certificates in a row that may leave the best one's relative residual
# above half its value before the solve stops.  A tol below the certificate's
# rounding floor fails every attempt: at d=3 N=100 the first is 4.9e-16 theta
# and none of 4,981 attempts up to 40,000 applications beat 3.9e-16 theta.
# Every solve sampled at tol >= 1e-15 passed its first certificate.
_STALLS = 32
# Applications of B^T B after which the solve gives up.  The stall stop ends
# every solve whose certificates fail; this cap ends one whose Ritz estimate
# never passes, so that no certificate is attempted.
_MAX_APPLICATIONS = 10**6


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


def _cut(top: float, second: float) -> float:
    """Upper end of the interval [0, cut] that the filter damps.

    ``top`` and ``second`` are the two largest Ritz values of the first
    cycle.  By Cauchy interlacing second <= lambda_2 < lambda_1 and top <=
    lambda_1, so any cut below top keeps lambda_1 above it.  The cut is kept
    strictly below top, also when the two tie, and at least top / 2, so that
    the filter's scale T_m(2 top / cut - 1) stays finite and above 1.
    """
    return max(top / 2, min(second, top * (1 - 2**-20)))


def _chebyshev(b: BoxMatrix, cut: float, scale: float):
    """x -> T_m(2A/cut - I) x / scale for A = B^T B, m = ``_DEGREE``.

    The three-term recurrence T_(k+1) = 2 t T_k - T_(k-1): m applications of
    A and no orthogonalisation.
    """
    shift = 2.0 / cut

    def apply(x: np.ndarray) -> np.ndarray:
        prev, y = x, b.rmatvec(b @ x)
        y *= shift
        y -= x
        for _ in range(_DEGREE - 1):
            nxt = b.rmatvec(b @ y)
            nxt *= 2 * shift
            nxt -= y
            nxt -= y
            nxt -= prev
            prev, y = y, nxt
        y /= scale
        return y

    return apply


def max_eigenpair(structure: IncidenceStructure, tol: float = 1e-12) -> SpectralResult:
    """Thick-restart Lanczos for the largest eigenpair of B^T B, Chebyshev-filtered.

    Deterministic: all-ones start, a basis of at most ``_BASIS_SIZE`` vectors
    orthogonalised twice against all earlier ones, Ritz pairs from
    ``np.linalg.eigh`` of the projected matrix, and restarts that keep the
    ``_KEPT`` largest Ritz vectors.  The first cycle is ``_KEPT`` plain
    steps on A = B^T B, or as many as there are columns when the basis
    holds them all; that cycle then exhausts the Krylov space and ends the
    solve by breakdown.  Unless it ends the solve, its two largest Ritz
    values set the damped interval [0, cut] (:func:`_cut`), and the solve
    restarts from its top Ritz vector on p(A) = T_m(2A/cut - I) /
    T_m(2 theta_1/cut - 1), m = ``_DEGREE``, applied by the three-term
    recurrence with no orthogonalisation.  |p| <= 1 on [0, cut] and p
    increases above it, so lambda_1 > cut stays the strict top of p(A) with
    the same eigenvector, and each filtered step widens its relative gap.
    After each filtered step the top Ritz pair of p(A) is tested (beta times
    the last entry of its projected eigenvector, against tol times its Ritz
    value); a pair that passes is certified on A itself, and one that fails
    the certificate does not stop the solve, unless it is the ``_STALLS``-th
    failure in a row that leaves the best failed certificate's relative
    residual above half its value.  That happens when tol is below the
    certificate's rounding floor, and it raises :class:`ConvergenceError`
    with the best failed certificate attached as ``best``.

    ``iterations`` counts applications of B^T B, the ``_DEGREE`` of each
    filtered step included (the certificate's own product aside), and
    ``_MAX_APPLICATIONS`` caps it: a step that would pass the cap raises
    :class:`ConvergenceError` instead, with the current Ritz vector,
    certified, attached as ``best``.  The returned eigenvector is entrywise
    nonnegative and carries the recomputed residual ||A v - theta v|| <=
    tol * theta.  A breakdown (the basis spans an invariant subspace, as on
    forms of at most ``_BASIS_SIZE`` columns and inside the mirror-symmetric
    half of the d=2 form, where beta falls to rounding level rather than to
    zero; it is tested at max(tol, ``_BREAKDOWN``) times the first diagonal
    entry of the projected matrix) ends the solve: its Ritz pairs are exact,
    so a failed certificate there raises :class:`ConvergenceError`.  If the
    support graph splits into components whose top eigenvalues tie exactly,
    the vector is a nonnegative mixture over the tied components; the
    eigenvalue is unaffected.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
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
    first, last = 0, size if size == ncols else _KEPT
    iterations = 0
    # the best failed certificate, its residual / theta, and the failures since that halved
    best, floor, stalls = None, math.inf, 0
    step, cost = (lambda x: b.rmatvec(b @ x)), 1

    def ritz(k: int) -> SpectralResult:
        if k == 0:  # a filtered phase that has not taken a step
            return _certified(structure, basis[0], iterations)
        _, vectors = np.linalg.eigh(projected[:k, :k])
        return _certified(structure, vectors[:, -1] @ basis[:k], iterations)

    while True:
        for j in range(first, last):
            if iterations + cost > _MAX_APPLICATIONS:
                best = ritz(j)
                raise ConvergenceError(
                    f"Lanczos did not reach residual {tol:g} * theta within "
                    f"{_MAX_APPLICATIONS} applications (last residual {best.residual:.3e})",
                    best=best,
                )
            w = step(basis[j])
            iterations += cost
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            again = basis[: j + 1] @ w
            w -= again @ basis[: j + 1]
            projected[: j + 1, j] = projected[j, : j + 1] = h + again
            beta = float(np.linalg.norm(w))
            # beta bounds the residual of every Ritz pair of the basis so far
            if beta <= max(tol, _BREAKDOWN) * projected[0, 0]:
                found = ritz(j + 1)
                if found.residual <= tol * found.eigmax:
                    return found
                raise ConvergenceError(
                    f"Lanczos broke down at {iterations} applications with residual "
                    f"{found.residual:.3e} above {tol:g} * theta",
                    best=found,
                )
            basis[j + 1] = w / beta
            # the top Ritz pair after each filtered step and at the end of a cycle
            if cost > 1 or j + 1 == last:
                theta, vectors = np.linalg.eigh(projected[: j + 1, : j + 1])
                if beta * abs(vectors[-1, -1]) <= tol * theta[-1]:
                    found = _certified(structure, vectors[:, -1] @ basis[: j + 1], iterations)
                    if found.residual <= tol * found.eigmax:
                        return found
                    ratio = found.residual / found.eigmax
                    stalls = 0 if ratio <= floor / 2 else stalls + 1
                    if ratio < floor:
                        best, floor = found, ratio
                    if stalls == _STALLS:
                        raise ConvergenceError(
                            f"Lanczos stalled at {iterations} applications: {_STALLS} "
                            f"certificates in a row did not halve the best residual "
                            f"{floor:.3e} * theta, above {tol:g} * theta",
                            best=best,
                        )
        if cost == 1:
            # the filter, from the first cycle's two largest Ritz values;
            # restart from its top Ritz vector alone
            top = theta[-1]
            cut = _cut(top, theta[-2])
            scale = math.cosh(_DEGREE * math.acosh(2 * top / cut - 1))
            step, cost = _chebyshev(b, cut, scale), _DEGREE
            basis[0] = vectors[:, -1] @ basis[:last]
            first, last = 0, size
            projected[:] = 0.0
            continue
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
    the ``optimal`` command reports, and ``risk_full`` and ``risk_strict``
    are the exact risks of their eigenvector schemes (:func:`exact_risk`),
    next to the exact ``risk_product``.  When the strict set is empty,
    ``strict``, ``risk_strict`` and ``risk_product`` are None (the
    gap-product scheme does not exist there); the full-support optimum
    always exists.  All three risks are exact; reports round them when they
    print.
    """

    d: int
    level: int
    risk_product: Fraction | None
    risk_full: Fraction
    risk_strict: Fraction | None
    full: SpectralResult
    strict: SpectralResult | None


def optimality_gap(d: int, n: int, tol: float = 1e-12) -> OptimalityGap:
    """Compare the gap-product scheme with the spectral optima at level n.

    One box-removal structure serves both solves, full first, the product
    scheme, whose support is the strict structure's columns, and the exact
    risks of the product and of both eigenvector schemes.  The product
    scheme can never beat the full-support optimum: ``risk_product`` -
    ``risk_full`` is nonnegative up to the solver tolerance.
    """
    structure = _box_removal(d, n)
    full = max_eigenpair(structure, tol=tol)
    risk_full = exact_risk(d, n, full.eigvec, structure).risk
    try:
        strict_structure = _restrict(structure, "strict")
    except EmptySupportError:
        return OptimalityGap(d, n, None, risk_full, None, full, None)
    strict = max_eigenpair(strict_structure, tol=tol)
    product = exact_risk(d, n, product_weights(d, n, strict_structure), structure).risk
    risk_strict = exact_risk(d, n, strict.eigvec, structure).risk
    return OptimalityGap(d, n, product, risk_full, risk_strict, full, strict)

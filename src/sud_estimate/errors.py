"""Exception types shared across the package."""

__all__ = [
    "EmptySupportError",
    "EmptySumError",
    "ConvergenceError",
    "ResolutionError",
    "NumericalInstabilityError",
]


class EmptySupportError(ValueError):
    """Raised when no partition carries nonzero weight.

    Typical cause: the strictly decreasing set at level N is empty, which
    happens exactly when N < d(d+1)/2.
    """


class EmptySumError(ValueError):
    """Raised when a sum that must be nonzero has no terms for the given (d, N)."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver stops without a certified result.

    The best iterate found so far is attached as ``best`` so callers can
    inspect how close the run got.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ResolutionError(RuntimeError):
    """Raised when a quadrature grid is too coarse for the requested integrand."""


class NumericalInstabilityError(RuntimeError):
    """Raised when a report would carry a NaN or an infinity; the CLI then exits 3."""

"""Risk and rate analysis of coefficient schemes for estimating an SU(d) rotation.

The package computes, in exact rational arithmetic, the estimation risk of
covariant measurement schemes indexed by partitions; finds risk-optimal
schemes spectrally; evaluates the closed-form constant governing the 1/N^2
rate; and cross-checks everything against an independent character-theoretic
oracle built on Haar-measure quadrature.
"""

from .asymptotics import (
    ConstantReport,
    exact_constant,
)
from .characters import (
    QuadratureRule,
    TorusPoint,
    branching_defect,
    haar_quadrature,
    orthogonality_defect,
    quadrature_risk,
)
from .errors import (
    ConvergenceError,
    EmptySumError,
    EmptySupportError,
    NumericalInstabilityError,
    ResolutionError,
)
from .partitions import (
    enumerate_partitions,
    partition_table,
    pieri_add,
)
from .risk import (
    ExpansionDiagnostics,
    RiskBreakdown,
    exact_risk,
    expansion_diagnostics,
    risk_curve,
)
from .spectral import (
    SpectralResult,
    build_incidence,
    max_eigenpair,
    optimal_weights,
    optimality_gap,
)
from .weights import (
    WeightVector,
    power_weights,
    product_weights,
    scheme_weights,
    uniform_weights,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConstantReport",
    "ConvergenceError",
    "EmptySumError",
    "EmptySupportError",
    "ExpansionDiagnostics",
    "NumericalInstabilityError",
    "QuadratureRule",
    "ResolutionError",
    "RiskBreakdown",
    "SpectralResult",
    "TorusPoint",
    "WeightVector",
    "branching_defect",
    "build_incidence",
    "enumerate_partitions",
    "exact_constant",
    "exact_risk",
    "expansion_diagnostics",
    "haar_quadrature",
    "max_eigenpair",
    "optimal_weights",
    "optimality_gap",
    "orthogonality_defect",
    "partition_table",
    "pieri_add",
    "power_weights",
    "product_weights",
    "quadrature_risk",
    "risk_curve",
    "scheme_weights",
    "uniform_weights",
]

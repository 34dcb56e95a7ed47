"""Risk and rate analysis of coefficient schemes for estimating an SU(d) rotation.

The package computes, in exact rational arithmetic, the estimation risk of
covariant measurement schemes indexed by partitions; finds risk-optimal
schemes spectrally; evaluates the closed-form constant governing the 1/N^2
rate; and cross-checks everything against an independent character-theoretic
oracle built on Haar-measure quadrature.
"""

from .asymptotics import (
    ConstantReport,
    constant_vs_risk_consistency,
    exact_constant,
    riemann_constant,
)
from .characters import (
    QuadratureRule,
    TorusPoint,
    haar_quadrature,
    orthogonality_defect,
    pieri_residual,
    quadrature_risk,
    schur_eval,
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
    gap_vector,
    irrep_info,
    partition_table,
    pieri_add,
    removable_rows,
    syt_count,
    weyl_dimension,
)
from .risk import (
    ExpansionDiagnostics,
    RiskBreakdown,
    exact_risk,
    expansion_diagnostics,
    float_risk,
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
    normalize,
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
    "build_incidence",
    "constant_vs_risk_consistency",
    "enumerate_partitions",
    "exact_constant",
    "exact_risk",
    "expansion_diagnostics",
    "float_risk",
    "gap_vector",
    "haar_quadrature",
    "irrep_info",
    "max_eigenpair",
    "normalize",
    "optimal_weights",
    "optimality_gap",
    "orthogonality_defect",
    "partition_table",
    "pieri_add",
    "pieri_residual",
    "power_weights",
    "product_weights",
    "quadrature_risk",
    "removable_rows",
    "riemann_constant",
    "risk_curve",
    "scheme_weights",
    "schur_eval",
    "syt_count",
    "uniform_weights",
    "weyl_dimension",
]

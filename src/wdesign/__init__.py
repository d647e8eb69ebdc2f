"""Weighted optimality and optimality for systems of estimable functions.

Build information matrices of treatment-plus-nuisance designs, evaluate
eigenvalue-based criteria through either the system-of-interest route or the
weighted route, certify numerically that the two agree, analyze primary and
secondary weights, and search for optimal exact designs.
"""

from . import errors
from .criteria import (
    CertificationReport,
    CriterionValue,
    InterpretationReport,
    POSITIVE_SPECTRUM_CRITERIA,
    a_opt_interpretation_check,
    certify_theorem1,
    certify_theorem2,
    certify_theorem3,
    certify_theorem4,
    criterion_value,
    e_opt_interpretation_check,
    phi_for_system,
    phi_weighted,
    spectral_deviation,
    value_from_positive_spectrum,
)
from .estimable import (
    EstimableSystem,
    info_matrix_for_system,
    scale_system,
    system_from_weight_matrix_R,
    system_from_weight_matrix_sqrt,
)
from .linalg import (
    Spectrum,
    SymMatrix,
    eig_sym,
    pinv,
    projector,
)
from .model import (
    DesignSpec,
    EstimationSpace,
    design_matrix,
    estimation_space,
    infeasible_columns,
    information_matrix,
)
from .search import (
    ArgmaxEquivalenceReport,
    SearchProblem,
    SearchResult,
    argmax_equivalence_check,
    enumerate_optimal,
    exchange_search,
)
from .weighting import (
    WeightMatrix,
    WeightRecord,
    WeightReport,
    check_weight_dominance,
    estimation_equivalent,
    make_weight_matrix,
    secondary_weights,
    variance_decomposition,
    weight_matrix_from_system,
    weight_of,
    weighted_info_matrix,
    weighted_variance,
)

__version__ = "0.1.0"

__all__ = [
    "ArgmaxEquivalenceReport",
    "CertificationReport",
    "CriterionValue",
    "DesignSpec",
    "EstimableSystem",
    "EstimationSpace",
    "InterpretationReport",
    "POSITIVE_SPECTRUM_CRITERIA",
    "SearchProblem",
    "SearchResult",
    "Spectrum",
    "SymMatrix",
    "WeightMatrix",
    "WeightRecord",
    "WeightReport",
    "a_opt_interpretation_check",
    "argmax_equivalence_check",
    "certify_theorem1",
    "certify_theorem2",
    "certify_theorem3",
    "certify_theorem4",
    "check_weight_dominance",
    "criterion_value",
    "design_matrix",
    "e_opt_interpretation_check",
    "eig_sym",
    "enumerate_optimal",
    "errors",
    "estimation_equivalent",
    "estimation_space",
    "exchange_search",
    "infeasible_columns",
    "info_matrix_for_system",
    "information_matrix",
    "make_weight_matrix",
    "phi_for_system",
    "phi_weighted",
    "pinv",
    "projector",
    "scale_system",
    "secondary_weights",
    "spectral_deviation",
    "system_from_weight_matrix_R",
    "system_from_weight_matrix_sqrt",
    "value_from_positive_spectrum",
    "variance_decomposition",
    "weight_matrix_from_system",
    "weight_of",
    "weighted_info_matrix",
    "weighted_variance",
]

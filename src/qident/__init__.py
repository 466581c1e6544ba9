"""qident: identifiability analysis for binary Q-matrices in restricted
latent class models (DINA, DINO, GDINA).

The package decides strict and generic identifiability of a design matrix
from combinatorial conditions, constructs certified indistinguishable
alternative models where identifiability fails, and ships the estimation
machinery (EM, exhaustive design search, error-decay experiments) to check
the theory against simulated data.
"""

__version__ = "0.1.0"

from .errors import QidentError
from .qmatrix import (
    IdentifiabilityVerdict,
    QMatrix,
    Scenario,
    check_conditions_DE,
    check_generic_completeness,
    classify_batch,
    classify_dina,
    classify_gdina,
    enumerate_canonical,
    gamma_matrix,
    q_equivalent,
    strip_zero_rows,
)
from .rlcm import (
    Dataset,
    DinaParams,
    GdinaParams,
    RlcmModel,
    full_distribution,
    pmf,
    simulate,
    theta_table,
)
from .witness import WitnessPair, certify

__all__ = [
    "__version__",
    "QidentError",
    "QMatrix",
    "Scenario",
    "IdentifiabilityVerdict",
    "check_generic_completeness",
    "check_conditions_DE",
    "classify_dina",
    "classify_gdina",
    "classify_batch",
    "enumerate_canonical",
    "gamma_matrix",
    "q_equivalent",
    "strip_zero_rows",
    "Dataset",
    "DinaParams",
    "GdinaParams",
    "RlcmModel",
    "theta_table",
    "full_distribution",
    "pmf",
    "simulate",
    "WitnessPair",
    "certify",
]

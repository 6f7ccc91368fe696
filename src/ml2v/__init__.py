"""Two-variable Mittag-Leffler function E(x, y) = sum x^n y^m / Gamma(alpha n + beta m + mu).

Three independent evaluation routes (power series, contour-integral
representations, large-argument asymptotics), an automatic dispatcher, and an
extended-precision oracle for cross-validation.
"""

from .asymptotics import TruncationOrders, classify_case, eval_asymptotic
from .core import (
    ContourSpec,
    Evaluation,
    Parameters,
    RegionLabel,
    admissible_theta_window,
    classify_region,
    validate_params,
)
from .errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DomainError,
    GeometryError,
    MagnitudeFloor,
    NumericFailure,
    PoleProximityError,
    QuadratureError,
    RegionError,
    ThinWindowWarning,
)
from .gamma import recip_gamma, recip_gamma_hankel
from .oracle import CorpusRecord, load_corpus, make_record, oracle_eval, write_corpus
from .representations import (
    choose_contour,
    classify_pair,
    eval_auto,
    eval_hyperbola,
    eval_many,
    eval_with_contour,
    pole_images,
)
from .series import SeriesBudget, eval_double_series, eval_ml_one

__version__ = "0.5.0"

__all__ = [
    "BudgetExceeded",
    "ContourSpec",
    "CorpusRecord",
    "DegenerateDenominator",
    "DomainError",
    "Evaluation",
    "GeometryError",
    "MagnitudeFloor",
    "NumericFailure",
    "Parameters",
    "PoleProximityError",
    "QuadratureError",
    "RegionError",
    "RegionLabel",
    "SeriesBudget",
    "ThinWindowWarning",
    "TruncationOrders",
    "admissible_theta_window",
    "choose_contour",
    "classify_case",
    "classify_pair",
    "classify_region",
    "eval_asymptotic",
    "eval_auto",
    "eval_double_series",
    "eval_hyperbola",
    "eval_many",
    "eval_ml_one",
    "eval_with_contour",
    "load_corpus",
    "make_record",
    "oracle_eval",
    "pole_images",
    "recip_gamma",
    "recip_gamma_hankel",
    "validate_params",
    "write_corpus",
    "__version__",
]

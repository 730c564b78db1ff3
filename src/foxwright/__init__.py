"""Fox-Wright series evaluation and functional-inequality verification.

The package evaluates series of Fox-Wright type (and the hypergeometric,
Mittag-Leffler, Wright and normalized Bessel specializations) in ordinary
double precision with geometric tail bounds, and verifies the Turan-type,
Lazarevic-type, Wilker-type, ratio-monotonicity and log-concavity
inequalities these functions satisfy, over reproducible parameter grids,
against an independent high-precision oracle.
"""

from .errors import (
    ConvergenceError,
    DivergentSeriesError,
    DomainError,
    FoxWrightError,
    GridError,
    LengthError,
    NoConvergenceError,
    ParameterError,
    SingularTransformError,
)
from .gammakit import digamma, gamma_inequality_check, gamma_ratio, log_gamma
from .series import (
    EvalConfig,
    EvalResult,
    FoxWrightParams,
    TailSpec,
    dbeta1,
    derivative,
    epsilon,
    evaluate,
    evaluate_normalized,
    evaluate_tail,
    evaluate_tilde,
    log_term,
)
from .functions import (
    HypergeometricParams,
    MittagLefflerParams,
    bessel_norm,
    kummer_2f2_pair,
    mittag_leffler,
    ml_derivative_identity_check,
    pFq,
    pfq_direct,
    wright,
)
from .inequalities import (
    chi_check,
    corollary3_2f2_check,
    kn_ratio,
    kn_value_and_bound,
    lazarevic_bessel_check,
    lazarevic_check,
    logconcavity_check,
    ratio_monotonicity_check,
    tail_turan_check,
    turan_alpha_check,
    turan_beta_check,
    wilker_bessel_check,
    wilker_check,
    wilker_wright_check,
    xi_prime,
)
from .oracle import (
    MonotoneVerdict,
    finite_difference,
    hp_eval,
    hp_pfq,
    seq_ratio_monotone,
    series_ratio_monotone_check,
)
from .report import (
    TOL_ABS,
    TOL_REL,
    GridSpec,
    InequalityReport,
    grid_from_json,
    margin_passes,
)
from .suites import (
    EXPLORERS,
    SUITES,
    SuiteDef,
    explorer_ids,
    hp_margin,
    run_explore,
    run_suite,
    suite_ids,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FoxWrightError",
    "DomainError",
    "ParameterError",
    "DivergentSeriesError",
    "GridError",
    "LengthError",
    "NoConvergenceError",
    "ConvergenceError",
    "SingularTransformError",
    # gamma kit
    "log_gamma",
    "digamma",
    "gamma_ratio",
    "gamma_inequality_check",
    # series engine
    "FoxWrightParams",
    "EvalConfig",
    "EvalResult",
    "TailSpec",
    "epsilon",
    "log_term",
    "evaluate",
    "evaluate_normalized",
    "evaluate_tilde",
    "evaluate_tail",
    "derivative",
    "dbeta1",
    # named specializations
    "HypergeometricParams",
    "MittagLefflerParams",
    "pFq",
    "pfq_direct",
    "mittag_leffler",
    "wright",
    "bessel_norm",
    "kummer_2f2_pair",
    "ml_derivative_identity_check",
    # inequality checkers
    "turan_alpha_check",
    "turan_beta_check",
    "corollary3_2f2_check",
    "ratio_monotonicity_check",
    "tail_turan_check",
    "kn_ratio",
    "kn_value_and_bound",
    "chi_check",
    "lazarevic_check",
    "lazarevic_bessel_check",
    "wilker_check",
    "wilker_bessel_check",
    "wilker_wright_check",
    "logconcavity_check",
    "xi_prime",
    # oracle
    "hp_eval",
    "hp_pfq",
    "MonotoneVerdict",
    "seq_ratio_monotone",
    "series_ratio_monotone_check",
    "finite_difference",
    # reports and grids
    "TOL_ABS",
    "TOL_REL",
    "margin_passes",
    "InequalityReport",
    "GridSpec",
    "grid_from_json",
    # suite runner
    "SuiteDef",
    "SUITES",
    "EXPLORERS",
    "run_suite",
    "run_explore",
    "hp_margin",
    "suite_ids",
    "explorer_ids",
]

"""hypident: numerical verification of a family of hypergeometric integral
identities, from scalar closed forms up to a CLI grid runner."""

__version__ = "0.1.0"

from .errors import (DegenerateConfigurationError, DomainError,
                     HypidentError, NodeBudgetError, UsageError)
from .identity_suite import (ParameterPair, QuadraticFamily,
                             check_barnes_triple, check_main_identity,
                             check_obstruction_integer, check_product_formula,
                             check_q_integral, check_quadratic_transform,
                             check_spectral_kernel, check_spectral_power,
                             check_spectral_product, check_spectral_resolvent,
                             check_weighted_residual, kernel_factors,
                             kernel_shifts, quadratic_family)
from .quadrature import (DEFAULT_POLICY, EvaluationPolicy, IntegralEstimate,
                         chebyshev_rule, gauss_kronrod_panel,
                         integrate_chebyshev_weighted,
                         integrate_decaying_halfline)
from .records import (FAIL, PASS, SKIPPED, UNCONVERGED, CheckRecord,
                      build_record, record_id)
from .special_functions import f_2it_unit_interval, f_it, log_gamma

__all__ = [
    "__version__",
    "HypidentError", "DomainError", "DegenerateConfigurationError",
    "UsageError", "NodeBudgetError",
    "EvaluationPolicy", "DEFAULT_POLICY",
    "CheckRecord", "PASS", "FAIL", "UNCONVERGED", "SKIPPED",
    "build_record", "record_id",
    "log_gamma", "f_it", "f_2it_unit_interval",
    "check_quadratic_transform", "check_product_formula",
    "IntegralEstimate", "chebyshev_rule", "integrate_chebyshev_weighted",
    "gauss_kronrod_panel", "integrate_decaying_halfline",
    "ParameterPair", "QuadraticFamily", "kernel_shifts", "kernel_factors",
    "quadratic_family",
    "check_main_identity", "check_barnes_triple", "check_spectral_power",
    "check_spectral_resolvent", "check_spectral_product",
    "check_spectral_kernel", "check_q_integral", "check_obstruction_integer",
    "check_weighted_residual",
]

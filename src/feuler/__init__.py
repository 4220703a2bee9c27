"""Exact umbral calculus for Frobenius-Euler polynomials over Q(lambda)."""

from .scalar import LAMBDA, NEG_INF, ONE, ZERO, LambdaPoly, LambdaRat, PoleError, lrat
from .xpoly import X, XPoly
from .umbral import NotInvertibleError, TruncationError, TruncSeries, appell_expand
from .frobenius import (
    BasisExpansion,
    clear_caches,
    delta_pow_at_zero,
    fe_numbers,
    fe_poly,
    fe_series,
    from_fe_basis,
    j_lambda,
    lowering_coeff,
    stirling_lambda,
    surjection_sum,
    to_fe_basis,
)
from .suite import (
    DEFAULT_SEED,
    IDENTITY_IDS,
    Cell,
    VerificationReport,
    run_suite,
)
from .cli import PolyParseError, parse_poly_expr

__version__ = "0.1.0"

__all__ = [
    "LAMBDA",
    "NEG_INF",
    "ONE",
    "ZERO",
    "LambdaPoly",
    "LambdaRat",
    "PoleError",
    "lrat",
    "X",
    "XPoly",
    "NotInvertibleError",
    "TruncationError",
    "TruncSeries",
    "appell_expand",
    "BasisExpansion",
    "clear_caches",
    "delta_pow_at_zero",
    "fe_numbers",
    "fe_poly",
    "fe_series",
    "from_fe_basis",
    "j_lambda",
    "lowering_coeff",
    "stirling_lambda",
    "surjection_sum",
    "to_fe_basis",
    "DEFAULT_SEED",
    "IDENTITY_IDS",
    "Cell",
    "VerificationReport",
    "run_suite",
    "PolyParseError",
    "parse_poly_expr",
    "__version__",
]

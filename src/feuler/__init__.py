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

__version__ = "0.1.0"

# names of the verification suite and of the command line, imported on first
# access (PEP 562), so that `import feuler` loads the algebra alone
_SUITE_NAMES = ("DEFAULT_SEED", "IDENTITY_IDS", "Cell", "VerificationReport", "run_suite")
_CLI_NAMES = ("PolyParseError", "parse_poly_expr")

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
    *_SUITE_NAMES,
    *_CLI_NAMES,
    "__version__",
]


def __getattr__(name):
    # any other name, the submodules cli and suite among them, is missing, so
    # `from feuler import cli` imports the submodule
    if name in _SUITE_NAMES:
        from . import suite as module
    elif name in _CLI_NAMES:
        from . import cli as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_SUITE_NAMES, *_CLI_NAMES})

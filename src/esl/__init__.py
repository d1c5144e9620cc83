"""Integrability exponents of pushforward measures by polynomial maps.

Exact engines (sparse rational polynomials, Newton-polyhedron thresholds,
closed-form exponent conversions) paired with empirical verification over
the reals (Monte Carlo pushforwards, tail and Fourier-decay fits) and over
the p-adics (exact cylinder masses).

numpy loads on first use.  `realnum` and `padic` bind the handle `_np`:
numpy itself when it is already imported, otherwise a stub from the standard
library's `importlib.util.LazyLoader` that loads numpy at its first attribute
access.  The exact engines never touch it, so `esl exact` never loads numpy;
`real`, `padic` and the `padic-xy` suite of `verify` load it at their first
array.
"""


def _lazy_numpy():
    import importlib.util
    import sys

    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


_np = _lazy_numpy()

from .values import (
    INF,
    BoundKind,
    BoundedValue,
    ExponentValue,
    FieldValidity,
    KStarBounds,
    LctValue,
)
from .polys import (
    ExponentOverflowError,
    NotLocallyDominantError,
    NotMonomialError,
    PolyMap,
    Polynomial,
    MinorBudgetError,
    ShiftBudgetError,
    as_monomial_ideal,
    jacobian_matrix,
    jacobian_minors,
    partial_derivative,
    shift_to_origin,
)
from .lct import (
    Divisor,
    MonomialIdeal,
    ResolutionData,
    lct_from_resolution,
    lct_monomial,
    lct_principal_monomial,
)
from .exponents import (
    ExactInvariants,
    MonomialLocalModel,
    consistency_chain_check,
    delta_from_eps,
    eps_equidimensional,
    eps_from_delta,
    eps_from_lct,
    eps_lower_bound,
    eps_monomial_model,
    eps_upper_bound_complex,
    k_star_bounds_from_lct,
    k_star_upper_from_eps,
    lct_from_eps,
    reverse_young_self,
    young_combine,
)
from .mapspec import MapSpec, MapSpecError, parse_map_spec

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Closed-form conversions and bounds between the four singularity exponents.

The exponents in play: the pushforward integrability exponent eps, the
log-canonical threshold lct, the Fourier-decay exponent delta, and the
minimal smoothing convolution power k.  All arithmetic here is exact
rational; infinity is handled explicitly, never as a float.

Conventions used throughout:

* one-dimensional formula: eps = lct/(1 - lct), infinite when lct >= 1;
* equidimensional equality: eps equals the Jacobian-ideal threshold itself;
* Young exponent algebra transports convolution to truncated addition of
  s = eps/(1 + eps), with infinity contributing s = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .lct import lct_monomial
from .values import (
    INF,
    BoundKind,
    BoundedValue,
    ExponentValue,
    KStarBounds,
)


@dataclass(frozen=True)
class MonomialLocalModel:
    """Local normal form: monomial map exponents a and density exponents b.

    Models the pushforward of a measure with density proportional to
    prod |x_i|^{b_i} under the map x -> prod x_i^{a_i}.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("exponent lists must have equal length")
        if not self.a:
            raise ValueError("model needs at least one variable")
        if any(x < 1 for x in self.a):
            raise ValueError("map exponents must be >= 1")
        if any(x < 0 for x in self.b):
            raise ValueError("density exponents must be >= 0")

    def threshold(self) -> Fraction:
        return min(Fraction(bi + 1, ai) for ai, bi in zip(self.a, self.b))


def eps_from_lct(c: ExponentValue) -> ExponentValue:
    """Integrability exponent from the threshold: c/(1-c), infinite at c >= 1."""
    if not c.is_infinite and c.fraction == 0:
        raise ValueError("threshold must be strictly positive")
    if c.is_infinite or c.fraction >= 1:
        return INF
    c_frac = c.fraction
    return ExponentValue(c_frac / (1 - c_frac))


def lct_from_eps(e: ExponentValue) -> BoundedValue:
    """Threshold from the integrability exponent: e/(1+e).

    An infinite exponent only pins the threshold down to >= 1, so that case
    is reported as a lower bound rather than the number 1.
    """
    if e.is_infinite:
        return BoundedValue(ExponentValue(1), BoundKind.LOWER_BOUND)
    if e.fraction <= 0:
        raise ValueError("exponent must be strictly positive")
    e_frac = e.fraction
    return BoundedValue(ExponentValue(e_frac / (1 + e_frac)), BoundKind.EXACT)


def eps_monomial_model(model: MonomialLocalModel, density_positive_at_origin: bool = True) -> BoundedValue:
    """Integrability exponent of a monomial local model.

    Exact when the smooth density factor is nonzero at the origin, otherwise
    only a lower bound.
    """
    c = model.threshold()
    value = INF if c >= 1 else ExponentValue(c / (1 - c))
    kind = BoundKind.EXACT if density_positive_at_origin else BoundKind.LOWER_BOUND
    return BoundedValue(value, kind)


def eps_equidimensional(pmap: polys.PolyMap) -> BoundedValue:
    """Exact integrability exponent of an equidimensional map at the origin.

    Equals the threshold of the Jacobian-determinant ideal.  Requires the
    determinant to be a monomial; otherwise resolution data is needed and
    NotMonomialError propagates with that guidance.
    """
    if pmap.n != pmap.m:
        raise ValueError("equidimensional formula needs matching dimensions")
    ideal = polys.as_monomial_ideal(polys.jacobian_minors(pmap))
    return BoundedValue(lct_monomial(ideal).value, BoundKind.EXACT)


def eps_lower_bound(pmap: polys.PolyMap) -> BoundedValue:
    """Lower bound for the integrability exponent: the Jacobian-ideal threshold."""
    ideal = polys.as_monomial_ideal(polys.jacobian_minors(pmap))
    return BoundedValue(lct_monomial(ideal).value, BoundKind.LOWER_BOUND)


def eps_upper_bound_complex(lct_jacobian: ExponentValue) -> ExponentValue | None:
    """Complex-field upper bound lam/(1-lam); inapplicable once lam >= 1."""
    if not lct_jacobian.is_infinite and lct_jacobian.fraction <= 0:
        raise ValueError("threshold must be strictly positive")
    if lct_jacobian.is_infinite or lct_jacobian.fraction >= 1:
        return None
    lam = lct_jacobian.fraction
    return ExponentValue(lam / (1 - lam))


def _young_s(e: ExponentValue) -> Fraction:
    """Transport to the additive scale s = e/(1+e); infinity maps to 1."""
    if e.is_infinite:
        return Fraction(1)
    return e.fraction / (1 + e.fraction)


def young_combine(e1: ExponentValue, e2: ExponentValue) -> ExponentValue:
    """Best exponent of a convolution guaranteed by Young's inequality."""
    if (not e1.is_infinite and e1.fraction <= 0) or (not e2.is_infinite and e2.fraction <= 0):
        raise ValueError("exponents must be strictly positive")
    s = _young_s(e1) + _young_s(e2)
    if s >= 1:
        return INF
    return ExponentValue(s / (1 - s))


def reverse_young_self(e: ExponentValue) -> ExponentValue:
    """Exponent a single factor retains when its self-convolution has exponent e.

    Finite input gives e/(2+e) exactly; infinite input returns infinity (the
    formula's limit) and callers should treat that case as degenerate.
    """
    if e.is_infinite:
        return INF
    if e.fraction <= 0:
        raise ValueError("exponent must be strictly positive")
    return ExponentValue(e.fraction / (2 + e.fraction))


def k_star_bounds_from_lct(c: ExponentValue) -> KStarBounds:
    """Bracket for the smoothing convolution power: ceil(1/c) .. floor(1/c)+1.

    Thresholds above 1 (or infinite) are outside the informative regime;
    the conventional bracket (1, 2) is returned with the degenerate flag.
    """
    if not c.is_infinite and c.fraction <= 0:
        raise ValueError("threshold must be strictly positive")
    if c.is_infinite or c.fraction > 1:
        return KStarBounds(1, 2, degenerate=True)
    inv = 1 / c.fraction
    return KStarBounds(math.ceil(inv), math.floor(inv) + 1)


def k_star_upper_from_eps(e: ExponentValue) -> int:
    """Upper bound floor((1+e)/e) + 1 from iterated Young smoothing.

    An infinite exponent yields 2, the limit of the formula: almost-bounded
    densities need not be bounded, but one convolution with any finite
    positive exponent already lands in the bounded class.
    """
    if e.is_infinite:
        return 2
    if e.fraction <= 0:
        raise ValueError("exponent must be strictly positive")
    return math.floor((1 + e.fraction) / e.fraction) + 1


def delta_from_eps(e: ExponentValue) -> ExponentValue:
    """Fourier-decay exponent from the integrability exponent: e/(1+e)."""
    if e.is_infinite:
        return ExponentValue(1)
    if e.fraction <= 0:
        raise ValueError("exponent must be strictly positive")
    return ExponentValue(e.fraction / (1 + e.fraction))


def eps_from_delta(d: ExponentValue) -> ExponentValue:
    """Integrability exponent from Fourier decay: d/(1-d), infinite at d >= 1."""
    if not d.is_infinite and d.fraction <= 0:
        raise ValueError("decay exponent must be strictly positive")
    if d.is_infinite or d.fraction >= 1:
        return INF
    d_frac = d.fraction
    return ExponentValue(d_frac / (1 - d_frac))


def consistency_chain_check(lct_grad: ExponentValue, lct_f: ExponentValue) -> bool:
    """Lojasiewicz-type consistency between gradient and function thresholds.

    Checks lct_grad >= lct_f, plus the two converted comparisons
    lct_f/(1-lct_f) >= lct_grad (when lct_f < 1) and
    lct_grad/(1-lct_grad) >= lct_f/(1-lct_f) (when lct_grad < 1).
    """
    for value in (lct_grad, lct_f):
        if value.is_infinite or not 0 < value.fraction <= 1:
            raise ValueError("thresholds must lie in (0, 1]")
    grad, f = lct_grad.fraction, lct_f.fraction
    if grad < f:
        return False
    if f < 1 and f / (1 - f) < grad:
        return False
    if grad < 1 and f < 1 and grad / (1 - grad) < f / (1 - f):
        return False
    return True

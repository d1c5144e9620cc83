"""Closed-form conversions and bounds between the four singularity exponents.

The exponents in play: the pushforward integrability exponent eps, the
log-canonical threshold lct, the Fourier-decay exponent delta, and the
minimal smoothing convolution power k.  All arithmetic here is exact
rational; infinity is handled explicitly, never as a float.

`ExactInvariants` runs the exact pipeline of a recentered map (Jacobian
minors, monomial ideal, Jacobian and fiber thresholds, exponent) once, each
stage on first read.  The exponent functions take thresholds, not maps, so
the report builders and the verify suites read one record and never rerun
the pipeline.

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
from functools import cached_property

from . import polys
from .lct import MonomialIdeal, lct_monomial, lct_principal_monomial
from .values import (
    INF,
    BoundKind,
    BoundedValue,
    ExponentValue,
    KStarBounds,
    LctValue,
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


def eps_monomial_model(model: MonomialLocalModel) -> BoundedValue:
    """Integrability exponent of a monomial local model, exact: the model's
    density has no smooth factor that could vanish at the origin."""
    return BoundedValue(eps_from_lct(ExponentValue(model.threshold())), BoundKind.EXACT)


def eps_equidimensional(lct_jacobian: LctValue) -> BoundedValue:
    """Exact exponent of an equidimensional map: its Jacobian-ideal threshold itself."""
    return BoundedValue(lct_jacobian.value, BoundKind.EXACT)


def eps_lower_bound(lct_jacobian: LctValue) -> BoundedValue:
    """Lower bound for the integrability exponent: the Jacobian-ideal threshold."""
    return BoundedValue(lct_jacobian.value, BoundKind.LOWER_BOUND)


class ExactInvariants:
    """The exact pipeline of a map already recentered at its base point.

    Each field is computed once, on first read, by the function that a
    report's provenance names, so reading eps_exact of a map with n > m = 1
    takes no minors and solves no LP.  `ideal` holds the NotMonomialError or
    NotLocallyDominantError instead when the minors raise one; the fields
    that need the ideal are then None.
    """

    def __init__(self, pmap: polys.PolyMap):
        self.pmap = pmap

    @cached_property
    def minors(self) -> list[polys.Polynomial]:
        return polys.jacobian_minors(self.pmap)

    @cached_property
    def ideal(self) -> MonomialIdeal | polys.NotMonomialError | polys.NotLocallyDominantError:
        try:
            return polys.as_monomial_ideal(self.minors)
        except (polys.NotMonomialError, polys.NotLocallyDominantError) as err:
            return err

    @cached_property
    def lct_jacobian(self) -> LctValue | None:
        return lct_monomial(self.ideal) if isinstance(self.ideal, MonomialIdeal) else None

    @cached_property
    def lct_fiber(self) -> LctValue | None:
        """Threshold of the fiber when the map is a single term c*z^a (a != 0, m = 1)."""
        comp = self.pmap.components[0]
        exps = comp.terms()[0][0] if self.pmap.m == 1 and comp.is_single_term else ()
        return lct_principal_monomial(exps) if any(exps) else None

    @cached_property
    def eps_exact(self) -> ExponentValue | None:
        """The exponent itself when n = m (Jacobian threshold) or when the fiber
        threshold is known (lct/(1-lct)); None otherwise."""
        if self.pmap.n > self.pmap.m:
            return None if self.lct_fiber is None else eps_from_lct(self.lct_fiber.value)
        return None if self.lct_jacobian is None else eps_equidimensional(self.lct_jacobian).value


def eps_upper_bound_complex(lct_jacobian: ExponentValue) -> ExponentValue | None:
    """Complex-field upper bound lam/(1-lam); inapplicable once lam >= 1."""
    upper = eps_from_lct(lct_jacobian)
    return None if upper.is_infinite else upper


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
    return eps_from_lct(d)


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

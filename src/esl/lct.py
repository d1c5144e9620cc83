"""Exact log-canonical thresholds.

Three routes are implemented:

* monomial ideals, by exact rational linear programming on the Newton
  polyhedron (Howald's description: the threshold is 1/t* where t* is the
  smallest t with t*(1,...,1) inside conv(generators) + R_{>=0}^n);
* principal monomials, where the threshold is 1/max_i a_i directly;
* user-supplied log-resolution data, via min (b_i + 1)/a_i over divisors
  through the point.

All values are exact rationals (or +infinity for the unit ideal) and carry
a field-validity tag.  The point of localization is always the origin;
callers recenter maps first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import simplex
from .values import INF, ExponentValue, FieldValidity, LctValue

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal exponent vectors."""

    n: int
    generators: tuple[Exponents, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a monomial ideal needs at least one generator")
        for vec in self.generators:
            if len(vec) != self.n:
                raise ValueError(f"generator {vec} has length {len(vec)}, expected {self.n}")
            if any(e < 0 for e in vec):
                raise ValueError(f"negative exponent in generator {vec}")
        for vec in self.generators:
            for other in self.generators:
                if other != vec and _dominates(other, vec):
                    raise ValueError(f"generator {vec} is dominated by {other}")

    @classmethod
    def from_vectors(cls, n: int, vectors: Iterable[Sequence[int]]) -> "MonomialIdeal":
        """Build an ideal, deduplicating and discarding dominated generators."""
        unique = {tuple(int(e) for e in v) for v in vectors}
        minimal = [
            v for v in unique
            if not any(other != v and _dominates(other, v) for other in unique)
        ]
        return cls(n, tuple(sorted(minimal)))

    @property
    def is_unit(self) -> bool:
        return (0,) * self.n in self.generators


def _dominates(low: Exponents, high: Exponents) -> bool:
    """True when x^high lies in the ideal generated by x^low."""
    return all(a <= b for a, b in zip(low, high))


@dataclass(frozen=True)
class Divisor:
    """One exceptional divisor of a log-resolution: multiplicity of the
    pulled-back ideal (a), of the resolution Jacobian (b), and whether the
    divisor image passes through the studied point."""

    a: int
    b: int
    passes_through_x: bool = True

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("ideal multiplicity a must be >= 1")
        if self.b < 0:
            raise ValueError("Jacobian multiplicity b must be >= 0")


@dataclass(frozen=True)
class ResolutionData:
    divisors: tuple[Divisor, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, triples: Iterable[tuple[int, int, bool]]) -> "ResolutionData":
        return cls(tuple(Divisor(a, b, through) for a, b, through in triples))


def newton_polyhedron_threshold(ideal: MonomialIdeal) -> Fraction:
    """Smallest t such that t*(1,...,1) lies in the Newton polyhedron.

    Solved as an exact LP: minimize t subject to sum_j lam_j = 1,
    lam_j >= 0, and sum_j lam_j * a_j <= t componentwise.
    """
    if ideal.is_unit:
        return Fraction(0)
    gens = ideal.generators
    g, n = len(gens), ideal.n
    # Variables: lam_1..lam_g, t, s_1..s_n (slacks), all >= 0.
    rows = [[gens[j][i] for j in range(g)] + [-1] + [int(s == i) for s in range(n)]
            for i in range(n)]
    rows.append([1] * g + [0] * (1 + n))
    value, _solution = simplex.solve_min([0] * g + [1] + [0] * n, rows, [0] * n + [1])
    return value


def lct_monomial(ideal: MonomialIdeal) -> LctValue:
    """Threshold of a monomial ideal at the origin, exact.

    The unit ideal has threshold +infinity; otherwise the value is the
    reciprocal of the Newton-polyhedron entry time of the diagonal ray.
    """
    t_star = newton_polyhedron_threshold(ideal)
    if t_star == 0:
        return LctValue(INF, FieldValidity.ALL_LOCAL_FIELDS)
    return LctValue(ExponentValue(1 / t_star), FieldValidity.ALL_LOCAL_FIELDS)


def lct_principal_monomial(exps: Sequence[int]) -> LctValue:
    """Threshold of a single monomial x^a: 1/max_i a_i.

    Variables with zero exponent impose no condition and are ignored.
    """
    exps = tuple(int(e) for e in exps)
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    positive = [e for e in exps if e > 0]
    if not positive:
        raise ValueError("the zero monomial has no threshold; unit ideal handled upstream")
    return LctValue(ExponentValue(Fraction(1, max(positive))), FieldValidity.ALL_LOCAL_FIELDS)


def lct_from_resolution(data: ResolutionData) -> LctValue:
    """Threshold from log-resolution data: min (b+1)/a over divisors through x."""
    through = [d for d in data.divisors if d.passes_through_x]
    if not through:
        raise ValueError("no divisor passes through the point")
    value = min(Fraction(d.b + 1, d.a) for d in through)
    return LctValue(ExponentValue(value), FieldValidity.ALL_LOCAL_FIELDS)

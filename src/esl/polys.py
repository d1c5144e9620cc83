"""Exact sparse multivariate polynomials and polynomial maps.

Terms live in a map from exponent vectors to nonzero rational coefficients;
printing and hashing use the graded-lexicographic order so equal polynomials
have identical canonical forms.  Everything here is immutable and pure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .lct import MonomialIdeal

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]

MAX_EXPONENT = 2**31 - 1
# Terms that recentering may expand, and the bits of their coefficients,
# summed over the map's terms.  The largest benchmark map, x1^100 expanded
# around a nonzero integer point, takes 5,150 terms and 686,800 bits.
SHIFT_TERM_BUDGET = 100_000
SHIFT_BIT_BUDGET = 100_000_000
# Work that expanding the maximal minors may take: one unit per minor, and
# len(entry) * len(minor) (at least 1) per cofactor product of the Laplace
# expansion.  Every map whose minors took under about 2 s fits: the dense
# 6 x 6 map (sum i*x_i)*(sum i*x_i + x_j) + x_j^3 takes 185,566 units, and
# the 9 x 18 block map x_j^2*x_{j+9} takes 261,632.
MINOR_BUDGET = 300_000


class ExponentOverflowError(OverflowError):
    """An exponent exceeded the hard cap of 2^31 - 1."""


class ShiftBudgetError(ValueError):
    """Recentering would expand more terms than SHIFT_TERM_BUDGET, or
    coefficients of more bits in all than SHIFT_BIT_BUDGET."""


class NotMonomialError(ValueError):
    """A generator expected to be a single term has several."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"generator {index} is not a single term")


class NotLocallyDominantError(ValueError):
    """All maximal minors vanish identically on the chart."""


class MinorBudgetError(ValueError):
    """Expanding the maximal minors would take more work than MINOR_BUDGET."""


def _check_exponents(exps: Exponents, n: int) -> Exponents:
    exps = tuple(int(e) for e in exps)
    if len(exps) != n:
        raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {n}")
    for e in exps:
        if e < 0:
            raise ValueError(f"negative exponent in {exps}")
        if e > MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
    return exps


def _grlex_key(exps: Exponents):
    return (sum(exps), exps)


class Polynomial:
    """A polynomial in n variables with exact rational coefficients."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponents, Scalar] | None = None):
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        cleaned: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                cleaned[_check_exponents(exps, n)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _wrap(cls, n: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """`terms` as they are, unchecked: the caller guarantees nonzero Fraction
        coefficients and keys of n ints in [0, MAX_EXPONENT]."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, axis: int) -> "Polynomial":
        if not 0 <= axis < n:
            raise IndexError(f"axis {axis} out of range for dimension {n}")
        exps = tuple(1 if i == axis else 0 for i in range(n))
        return cls(n, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(n, {tuple(exps): Fraction(coeff)})

    # -- structure ----------------------------------------------------

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_single_term(self) -> bool:
        return len(self._terms) == 1

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------

    def _binary(self, other, sign: int) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            value = terms.get(exps, Fraction(0)) + sign * coeff
            if value == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = value
        return Polynomial._wrap(self.n, terms)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("ambient dimension mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.n, other)
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(self.n, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if any(e > MAX_EXPONENT for e in exps):
                    raise ExponentOverflowError(f"exponent overflow in product at {exps}")
                value = terms.get(exps, Fraction(0)) + c1 * c2
                if value == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = value
        return Polynomial._wrap(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.constant(self.n, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            canonical = tuple((e, c) for e, c in self.terms())
            object.__setattr__(self, "_hash", hash((self.n, canonical)))
        return self._hash

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        # Canonical form: terms in descending graded-lex order, "-1*" spelled
        # out on a leading negative unit coefficient so the text stays within
        # the map-spec grammar (which has no unary minus on variables).
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for idx, (exps, coeff) in enumerate(self.terms()):
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e > 0
            ]
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if idx == 0:
                if coeff > 0:
                    parts.append(body)
                elif factors and magnitude == 1:
                    parts.append(f"-1*{body}")
                else:
                    parts.append(f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self})"


class PolyMap:
    """A polynomial map F^n -> F^m given by m component polynomials, n >= m."""

    __slots__ = ("components", "n", "m")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        n = components[0].n
        if any(p.n != n for p in components):
            raise ValueError("all components must share the ambient dimension")
        m = len(components)
        if n < m:
            raise ValueError(f"source dimension {n} smaller than target dimension {m}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMap) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        body = ", ".join(str(p) for p in self.components)
        return f"PolyMap[{self.n}->{self.m}]({body})"

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls([Polynomial.variable(n, i) for i in range(n)])


def partial_derivative(p: Polynomial, axis: int) -> Polynomial:
    """Formal partial derivative along the given axis (0-based)."""
    if not 0 <= axis < p.n:
        raise IndexError(f"axis {axis} out of range for dimension {p.n}")
    # Lowering one exponent is one-to-one, so no two terms land on one key.
    return Polynomial._wrap(p.n, {exps[:axis] + (exps[axis] - 1,) + exps[axis + 1:]:
                                  coeff * exps[axis]
                                  for exps, coeff in p._terms.items() if exps[axis]})


def jacobian_matrix(pmap: PolyMap) -> list[list[Polynomial]]:
    """Matrix of partials; entry (j, i) is d(component j)/d(x_{i+1})."""
    return [[partial_derivative(comp, i) for i in range(pmap.n)] for comp in pmap.components]


def _spend(spent: list[int], units: int) -> None:
    spent[0] += units
    if spent[0] > MINOR_BUDGET:
        raise MinorBudgetError(f"expanding the Jacobian minors takes more than {MINOR_BUDGET} "
                               f"minors and term products, over the minor budget {MINOR_BUDGET}")


def _determinant(matrix: list[list[Polynomial]], spent: list[int]) -> Polynomial:
    """Laplace expansion along the first row; spent[0] counts its term products."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    n = matrix[0][0].n
    total = Polynomial.zero(n)
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero:
            continue
        minor = _determinant([row[:col] + row[col + 1:] for row in matrix[1:]], spent)
        _spend(spent, len(entry) * max(len(minor), 1))
        cofactor = entry * minor
        total = total + cofactor if col % 2 == 0 else total - cofactor
    return total


def jacobian_minors(pmap: PolyMap) -> list[Polynomial]:
    """All maximal (m x m) minors of the differential, in column order.

    Identically-zero minors are kept; consumers that need generators of the
    ideal drop them (see as_monomial_ideal).
    """
    jac = jacobian_matrix(pmap)
    spent = [0]
    _spend(spent, math.comb(pmap.n, pmap.m))
    return [_determinant([[row[c] for c in cols] for row in jac], spent)
            for cols in itertools.combinations(range(pmap.n), pmap.m)]


def as_monomial_ideal(generators: Sequence[Polynomial]) -> MonomialIdeal:
    """Read a list of single-term generators as a monomial ideal.

    Zero generators are dropped first; if none survive, the map is not
    locally dominant on this chart and that is reported as its own error.
    A generator with a nonzero constant term is a unit in the local ring at
    the origin (where all thresholds here are taken), so the whole ideal is
    the unit ideal.  Any other surviving generator with more than one term
    raises NotMonomialError carrying its index in the input list.  Exponent
    vectors dominated componentwise by another generator are redundant and
    discarded.
    """
    generators = list(generators)
    if not generators:
        raise NotLocallyDominantError("empty generator list")
    n = generators[0].n
    vectors: list[Exponents] = []
    for index, gen in enumerate(generators):
        if gen.n != n:
            raise ValueError("generators live in different ambient dimensions")
        if gen.is_zero:
            continue
        if gen.coefficient((0,) * n) != 0:
            return MonomialIdeal.from_vectors(n, [(0,) * n])
        if not gen.is_single_term:
            raise NotMonomialError(index, f"generator {index} has {len(gen)} terms: {gen}")
        [(exps, _coeff)] = gen.terms()
        vectors.append(exps)
    if not vectors:
        raise NotLocallyDominantError("all minors vanish identically on this chart")
    return MonomialIdeal.from_vectors(n, vectors)


def substitute_affine(terms: Mapping[Exponents, Scalar], shift: Sequence[Scalar],
                      scale: Sequence[Scalar] | None = None) -> dict[Exponents, Scalar]:
    """Terms of f(shift + scale*z) from the terms {exponents: coeff} of f.

    Each factor (s + c*z)^e expands by the binomial theorem over power
    tables of s and c.  Coefficients stay in the type they come in (int or
    Fraction), zero terms are dropped, and an axis with s = 0 keeps every
    term a single monomial in that variable, at a cost independent of e.
    """
    n = len(shift)
    scale = scale if scale is not None else (1,) * n
    top = [max((exps[i] for exps in terms), default=0) if shift[i] else 0 for i in range(n)]
    shift_powers = [[s**j for j in range(e + 1)] for s, e in zip(shift, top)]
    scale_powers = [[c**j for j in range(e + 1)] for c, e in zip(scale, top)]
    rows: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}

    def row(axis: int, e: int) -> list[tuple[int, Scalar]]:
        """Nonzero (j, coefficient of z^j) in (s + c*z)^e."""
        if (axis, e) not in rows:
            if not shift[axis]:
                power = scale[axis] ** e
                entries = [(e, power)] if power else []
            else:
                s, c = shift_powers[axis], scale_powers[axis]
                entries, binom = [], 1
                for j in range(e + 1):
                    if s[e - j] and c[j]:
                        entries.append((j, binom * s[e - j] * c[j]))
                    binom = binom * (e - j) // (j + 1)  # C(e, j+1)
            rows[axis, e] = entries
        return rows[axis, e]

    result: dict[Exponents, Scalar] = {}
    for exps, coeff in terms.items():
        partial: dict[Exponents, Scalar] = {(): coeff}
        for axis, e in enumerate(exps):
            partial = {k + (j,): v * b for k, v in partial.items() for j, b in row(axis, e)}
        for k, v in partial.items():
            result[k] = result.get(k, 0) + v
    return {k: v for k, v in result.items() if v}


def shift_to_origin(pmap: PolyMap, x0: Sequence[Scalar]) -> PolyMap:
    """Recenter: z maps to f(x0 + z) - f(x0), which vanishes at z = 0.

    The shift runs on integers.  With q the lcm of the base point's
    denominators and L that of a component's coefficients, the terms
    L*c_e*q^(D - deg_s(e)) expand to L*q^D*f(x0 + z) under shift q*x0 and
    scale q on the shifted axes (x0_i != 0).  deg_s and its maximum D count
    only those axes, so a huge exponent where x0_i = 0 never meets q.
    Raises ShiftBudgetError before expanding anything when the expansion
    would exceed SHIFT_TERM_BUDGET terms or SHIFT_BIT_BUDGET coefficient bits.
    """
    if len(x0) != pmap.n:
        raise ValueError(f"base point has dimension {len(x0)}, expected {pmap.n}")
    x0 = [Fraction(v) for v in x0]
    q = math.lcm(*(v.denominator for v in x0))
    shift = [v.numerator * (q // v.denominator) for v in x0]
    scale = [q if s else 1 for s in shift]
    # A term with exponent e_i on each shifted axis expands to prod (e_i + 1)
    # terms; (s_i + q*z_i)^e_i has coefficients of at most e_i*width_i bits,
    # width_i = bit_length(|s_i| + q).  A term off the shifted axes is copied.
    widths = [(abs(s) + q).bit_length() if s else 0 for s in shift]
    expanded = bits = 0
    for exps in (e for comp in pmap.components for e in comp._terms):
        if any(e and w for e, w in zip(exps, widths)):
            count = math.prod(e + 1 for e, w in zip(exps, widths) if w)
            expanded += count
            bits += count * sum(e * w for e, w in zip(exps, widths))
    if expanded > SHIFT_TERM_BUDGET:
        raise ShiftBudgetError(f"recentering would expand {expanded} terms, "
                               f"over the shift term budget {SHIFT_TERM_BUDGET}")
    if bits > SHIFT_BIT_BUDGET:
        raise ShiftBudgetError(f"recentering would expand coefficients of {bits} bits, "
                               f"over the shift bit budget {SHIFT_BIT_BUDGET}")
    components = []
    for comp in pmap.components:
        lcm = math.lcm(*(c.denominator for c in comp._terms.values()))
        degrees = {e: sum(a for a, s in zip(e, shift) if s) for e in comp._terms}
        top = max(degrees.values(), default=0)
        terms = {e: c.numerator * (lcm // c.denominator) * q ** (top - degrees[e])
                 for e, c in comp._terms.items()}
        scaled = substitute_affine(terms, shift, scale)
        scaled.pop((0,) * pmap.n, None)
        denominator = lcm * q**top
        components.append(Polynomial._wrap(pmap.n, {e: Fraction(v, denominator)
                                                    for e, v in scaled.items()}))
    return PolyMap(components)

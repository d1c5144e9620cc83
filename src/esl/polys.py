"""Exact sparse multivariate polynomials and polynomial maps.

Terms live in a map from exponent vectors to nonzero rational coefficients;
printing and hashing use the graded-lexicographic order so equal polynomials
have identical canonical forms.  Everything here is immutable and pure, so
values can be shared freely across worker threads.
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


class ExponentOverflowError(OverflowError):
    """An exponent exceeded the hard cap of 2^31 - 1."""


class NotMonomialError(ValueError):
    """A generator expected to be a single term has several."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"generator {index} is not a single term")


class NotLocallyDominantError(ValueError):
    """All maximal minors vanish identically on the chart."""


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
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._terms)

    @property
    def is_single_term(self) -> bool:
        return len(self._terms) == 1

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

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
        return Polynomial(self.n, terms)

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
        return Polynomial(self.n, {e: -c for e, c in self._terms.items()})

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
        return Polynomial(self.n, terms)

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

    # -- evaluation ---------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.n:
            raise ValueError(f"point has dimension {len(point)}, expected {self.n}")
        point = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value *= x**e
            total += value
        return total

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Floating evaluation; term values are combined with exact summation."""
        if len(point) != self.n:
            raise ValueError(f"point has dimension {len(point)}, expected {self.n}")
        values = []
        for exps, coeff in self._terms.items():
            value = float(coeff)
            for x, e in zip(point, exps):
                if e:
                    value *= float(x) ** e
            values.append(value)
        return math.fsum(values)

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
    terms: dict[Exponents, Fraction] = {}
    for exps, coeff in p.terms():
        e = exps[axis]
        if e == 0:
            continue
        lowered = exps[:axis] + (e - 1,) + exps[axis + 1:]
        terms[lowered] = terms.get(lowered, Fraction(0)) + coeff * e
    return Polynomial(p.n, terms)


def jacobian_matrix(pmap: PolyMap) -> list[list[Polynomial]]:
    """Matrix of partials; entry (j, i) is d(component j)/d(x_{i+1})."""
    return [[partial_derivative(comp, i) for i in range(pmap.n)] for comp in pmap.components]


def _determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    n = matrix[0][0].n
    total = Polynomial.zero(n)
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero:
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        cofactor = entry * _determinant(minor)
        total = total + cofactor if col % 2 == 0 else total - cofactor
    return total


def jacobian_minors(pmap: PolyMap) -> list[Polynomial]:
    """All maximal (m x m) minors of the differential, in column order.

    Identically-zero minors are kept; consumers that need generators of the
    ideal drop them (see as_monomial_ideal).
    """
    jac = jacobian_matrix(pmap)
    minors = []
    for cols in itertools.combinations(range(pmap.n), pmap.m):
        sub = [[row[c] for c in cols] for row in jac]
        minors.append(_determinant(sub))
    return minors


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


def evaluate(pmap: PolyMap, point: Sequence[Scalar]) -> list:
    """Evaluate the map at a point: exact for rational input, float otherwise."""
    if len(point) != pmap.n:
        raise ValueError(f"point has dimension {len(point)}, expected {pmap.n}")
    if all(isinstance(v, (int, Fraction)) for v in point):
        return [comp.evaluate(point) for comp in pmap.components]
    return [comp.evaluate_float([float(v) for v in point]) for comp in pmap.components]


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
    """Recenter: z maps to f(x0 + z) - f(x0), which vanishes at z = 0."""
    if len(x0) != pmap.n:
        raise ValueError(f"base point has dimension {len(x0)}, expected {pmap.n}")
    x0 = [Fraction(v) for v in x0]
    components = []
    for comp in pmap.components:
        terms = substitute_affine(comp._terms, x0)
        terms.pop((0,) * pmap.n, None)
        components.append(Polynomial(pmap.n, terms))
    return PolyMap(components)

"""Shared value types: nonnegative rational exponents with +infinity.

All singularity exponents handled by this package (integrability exponent,
log-canonical threshold, Fourier-decay exponent) are nonnegative rationals
or +infinity, and all closed-form conversions between them are exact
rational maps.  ``ExponentValue`` is the common currency; ``BoundedValue``
records whether a result is an equality or only a one-sided bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

RationalLike = Union[int, Fraction, str, "ExponentValue"]


@total_ordering
class ExponentValue:
    """A nonnegative rational number, or the distinguished value +infinity.

    Instances are immutable and hashable.  Comparisons treat infinity as
    larger than every finite value.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[int, Fraction, str]):
        frac = Fraction(value)
        if frac < 0:
            raise ValueError(f"exponent values must be nonnegative, got {frac}")
        object.__setattr__(self, "_value", frac)

    @classmethod
    def infinity(cls) -> "ExponentValue":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_value", None)
        return obj

    @classmethod
    def of(cls, value: RationalLike) -> "ExponentValue":
        if isinstance(value, ExponentValue):
            return value
        return cls(value)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def fraction(self) -> Fraction:
        if self._value is None:
            raise ValueError("infinite exponent has no finite rational value")
        return self._value

    def __setattr__(self, name, value):
        raise AttributeError("ExponentValue is immutable")

    def _coerce(self, other) -> "ExponentValue":
        if isinstance(other, ExponentValue):
            return other
        if isinstance(other, (int, Fraction)):
            return ExponentValue(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self._value == coerced._value

    def __lt__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        if coerced._value is None:
            return True
        return self._value < coerced._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"ExponentValue({self})"


INF = ExponentValue.infinity()


class BoundKind(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower"
    UPPER_BOUND = "upper"


@dataclass(frozen=True)
class BoundedValue:
    """An exponent together with the strength of the statement producing it.

    ``EXACT`` is reserved for values backed by an equality; one-sided bounds
    keep their direction so reports never overstate what was proved.
    """

    value: ExponentValue
    kind: BoundKind = BoundKind.EXACT

    def __str__(self) -> str:
        prefix = {BoundKind.EXACT: "", BoundKind.LOWER_BOUND: ">=", BoundKind.UPPER_BOUND: "<="}
        return f"{prefix[self.kind]}{self.value}"


@dataclass(frozen=True)
class KStarBounds:
    """Integer bracket for the minimal smoothing convolution power.

    ``degenerate`` flags inputs outside the regime where the bracket is
    informative (threshold above 1); the conventional bracket (1, 2) is
    returned there.
    """

    lower: int
    upper: int
    degenerate: bool = False

    def __post_init__(self):
        if self.lower < 1 or self.upper < self.lower:
            raise ValueError(f"invalid convolution-power bounds ({self.lower}, {self.upper})")


class FieldValidity(enum.Enum):
    """Over which local fields a computed threshold is valid."""

    ALL_LOCAL_FIELDS = "AllLocalFields"
    COMPLEX_ONLY = "ComplexOnly"


@dataclass(frozen=True)
class LctValue:
    """A log-canonical threshold together with its field-validity tag."""

    value: ExponentValue
    validity: FieldValidity = FieldValidity.ALL_LOCAL_FIELDS

    def __str__(self) -> str:
        return f"{self.value} [{self.validity.value}]"

"""Parsing and printing of the textual map-spec format.

Grammar (UTF-8 text, whitespace insignificant):

    file      := header component+ [point]
    header    := "map" "{" "n" "=" INT "," "m" "=" INT "}"
    component := IDENT "=" expr          IDENT = f1..fm, each exactly once
    expr      := term (("+"|"-") term)*
    term      := factor ("*" factor)*
    factor    := RATIONAL | VAR ("^" UINT)? | "(" expr ")"
    VAR       := "x" INT                 1-based, index <= n
    RATIONAL  := INT ("/" POSINT)?
    point     := "at" "(" RATIONAL ("," RATIONAL)* ")"

Polynomials print in canonical form (terms in descending graded-lex order)
inside this grammar, so a spec written out component by component parses
back to itself.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .polys import MAX_EXPONENT, ExponentOverflowError, Polynomial, PolyMap, Scalar


class MapSpecError(ValueError):
    """Parse failure, annotated with the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class UnknownVariableError(MapSpecError):
    pass


class NegativeExponentError(MapSpecError):
    pass


@dataclass(frozen=True)
class MapSpec:
    """Parsed map description: dimensions, components, optional base point."""

    n: int
    m: int
    components: tuple[Polynomial, ...]
    point: tuple[Fraction, ...] | None = None

    def poly_map(self) -> PolyMap:
        return PolyMap(self.components)


# One match per token; group 1 is a comment, which runs to the end of its line.
_TOKEN_RE = re.compile(r"(#.*)|([A-Za-z][A-Za-z0-9]*)|(\d+)|([{}()=,+\-*/^])|(\S)")
_COMPONENT_RE = re.compile(r"f(\d+)")
_VARIABLE_RE = re.compile(r"x(\d+)")
_KINDS = {2: "IDENT", 3: "INT"}  # a symbol's kind is the symbol itself


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens (kind, text, line, column); kind is IDENT, INT or the symbol."""
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN_RE.finditer(line):
            group, raw = match.lastindex, match.group()
            if group == 1:
                break
            if group == 5:  # any other character: a letter, a digit or unknown
                group = 2 if raw.isalpha() else 3 if raw.isdigit() else 0
            if not group:
                raise MapSpecError(f"unrecognized token {raw!r}", line_no, match.start() + 1)
            tokens.append((_KINDS.get(group, raw), raw, line_no, match.start() + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        # An EOF token ends the list, one column past the last character; "$"
        # keeps the empty last line that a final line break opens.
        lines = (source + "$").splitlines()
        self.tokens = _tokenize(source) + [("EOF", "", len(lines), len(lines[-1]))]
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise MapSpecError(f"expected {what or kind}, found {tok[1] or 'end of input'}",
                               *tok[2:])
        self.pos += 1
        return tok

    def expect_ident(self, word: str) -> None:
        tok = self.expect("IDENT", f"'{word}'")
        if tok[1] != word:
            raise MapSpecError(f"expected '{word}', found {tok[1]!r}", *tok[2:])

    @staticmethod
    def integer(tok: tuple[str, str, int, int], digits: str | None = None) -> int:
        """int of the token's text, or of its `digits`, within the digit limit."""
        digits = tok[1] if digits is None else digits
        limit = sys.get_int_max_str_digits()
        if limit and len(digits) > limit:
            raise MapSpecError(f"a number of {len(digits)} digits is over the int-from-str "
                               f"digit limit {limit}", *tok[2:])
        return int(digits)

    # -- grammar ----------------------------------------------------------

    def parse_file(self) -> MapSpec:
        self.expect_ident("map")
        self.expect("{")
        n = self.parse_dimension("n")
        self.expect(",")
        m = self.parse_dimension("m")
        brace = self.expect("}")
        if n < 1 or m < 1:
            raise MapSpecError("dimensions must be positive", *brace[2:])
        if n < m:
            raise MapSpecError(f"source dimension n={n} must be >= target dimension m={m}",
                               *brace[2:])

        components: dict[int, Polynomial] = {}
        while self.peek()[0] == "IDENT" and (match := _COMPONENT_RE.fullmatch(self.peek()[1])):
            tok = self.expect("IDENT")
            index = self.integer(tok, match.group(1))
            if not 1 <= index <= m:
                raise MapSpecError(f"component {tok[1]} out of range for m={m}", *tok[2:])
            if index in components:
                raise MapSpecError(f"component {tok[1]} defined twice", *tok[2:])
            self.expect("=")
            components[index] = self.parse_expr(n)
        missing = [f"f{i}" for i in range(1, m + 1) if i not in components]
        if missing:
            raise MapSpecError(f"missing components: {', '.join(missing)}", *self.peek()[2:])

        point = None
        if self.peek()[:2] == ("IDENT", "at"):
            self.pos += 1
            self.expect("(")
            coords = [Fraction(self.parse_rational())]
            while self.peek()[0] == ",":
                self.pos += 1
                coords.append(Fraction(self.parse_rational()))
            self.expect(")")
            if len(coords) != n:
                raise MapSpecError(f"base point has {len(coords)} coordinates, expected {n}",
                                   *self.peek()[2:])
            point = tuple(coords)

        trailing = self.peek()
        if trailing[0] != "EOF":
            raise MapSpecError(f"unexpected trailing input {trailing[1]!r}", *trailing[2:])
        return MapSpec(n, m, tuple(components[i] for i in range(1, m + 1)), point)

    def parse_dimension(self, name: str) -> int:
        self.expect_ident(name)
        self.expect("=")
        return self.integer(self.expect("INT"))

    def parse_expr(self, n: int) -> Polynomial:
        # One dict collects the signed terms of the whole sum.
        terms: dict[tuple[int, ...], Scalar] = {}
        sign = 1
        while True:
            coeff, exps, product = self.parse_term(n)
            if product is not None:
                for key, value in product.terms():
                    terms[key] = terms.get(key, 0) + sign * value
            elif coeff:
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + sign * coeff
            kind = self.peek()[0]
            if kind != "+" and kind != "-":
                return Polynomial(n, terms)
            sign = 1 if kind == "+" else -1
            self.pos += 1

    def parse_term(self, n: int) -> tuple[Scalar, list[int], Polynomial | None]:
        """(coefficient, exponents, None) while the factors are numbers and
        powers, then (_, _, the product so far); a zero product sums no exponents."""
        coeff: Scalar = 1
        exps = [0] * n
        product = None
        while True:
            kind = self.peek()[0]
            if kind == "IDENT":
                axis, e = self.parse_power(n)
                if product is not None:
                    product *= Polynomial.monomial(n, [e * (i == axis) for i in range(n)])
                elif coeff:
                    exps[axis] += e
                    if exps[axis] > MAX_EXPONENT:
                        raise ExponentOverflowError(f"exponent overflow in product at {tuple(exps)}")
            elif kind == "(":
                self.pos += 1
                inner = self.parse_expr(n)
                self.expect(")")
                if product is None:
                    product = Polynomial(n, {tuple(exps): coeff})
                product *= inner
            elif kind == "-" or kind == "INT":
                value = self.parse_rational()
                if product is not None:
                    product *= value
                else:
                    coeff *= value
            else:
                tok = self.peek()
                raise MapSpecError(f"expected a factor, found {tok[1] or 'end of input'}", *tok[2:])
            if self.peek()[0] != "*":
                return coeff, exps, product
            self.pos += 1

    def parse_power(self, n: int) -> tuple[int, int]:
        """A variable and its exponent, as (0-based axis, exponent)."""
        tok = self.peek()
        match = _VARIABLE_RE.fullmatch(tok[1])
        if not match:
            raise UnknownVariableError(f"unknown variable {tok[1]!r}", *tok[2:])
        index = self.integer(tok, match.group(1))
        if not 1 <= index <= n:
            raise UnknownVariableError(f"variable x{index} out of range for n={n}", *tok[2:])
        self.pos += 1
        if self.peek()[0] != "^":
            return index - 1, 1
        self.pos += 1
        if self.peek()[0] == "-":
            raise NegativeExponentError("negative exponents are not allowed", *self.peek()[2:])
        exponent = self.integer(self.expect("INT", "a nonnegative integer exponent"))
        if exponent > MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent {exponent} exceeds {MAX_EXPONENT}")
        return index - 1, exponent

    def parse_rational(self) -> Scalar:
        """A signed number: an int, or a Fraction when it has a denominator."""
        sign = -1 if self.peek()[0] == "-" else 1
        self.pos += sign < 0
        num = sign * self.integer(self.expect("INT", "a number"))
        if self.peek()[0] != "/":
            return num
        self.pos += 1
        den_tok = self.expect("INT", "a positive denominator")
        den = self.integer(den_tok)
        if den == 0:
            raise MapSpecError("zero denominator", *den_tok[2:])
        return Fraction(num, den)


def parse_map_spec(text: str) -> MapSpec:
    """Parse map-spec text; raises MapSpecError with position on failure."""
    return _Parser(text).parse_file()

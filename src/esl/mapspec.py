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
from dataclasses import dataclass
from fractions import Fraction

from .polys import Polynomial, PolyMap


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


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|[{}()=,+\-*/^]|\S")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, INT, or the literal symbol
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            if line[pos] == "#":
                break
            match = _TOKEN_RE.match(line, pos)
            if not match:
                raise MapSpecError(f"unrecognized character {line[pos]!r}", line_no, pos + 1)
            raw = match.group()
            if raw[0].isalpha():
                kind = "IDENT"
            elif raw[0].isdigit():
                kind = "INT"
            elif raw in "{}()=,+-*/^":
                kind = raw
            else:
                raise MapSpecError(f"unrecognized token {raw!r}", line_no, pos + 1)
            tokens.append(_Token(kind, raw, line_no, pos + 1))
            pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.pos = 0
        # End of input sits one column past the last character of the last line,
        # lines split as _tokenize splits them; "$" marks the end, so a final
        # line break still opens an empty last line.
        lines = (source + "$").splitlines()
        self._eof = _Token("EOF", "", len(lines), len(lines[-1]))

    def peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self._eof

    def advance(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or kind
            raise MapSpecError(f"expected {expected}, found {tok.text or 'end of input'}",
                               tok.line, tok.col)
        return self.advance()

    def expect_ident(self, word: str) -> _Token:
        tok = self.expect("IDENT", f"'{word}'")
        if tok.text != word:
            raise MapSpecError(f"expected '{word}', found {tok.text!r}", tok.line, tok.col)
        return tok

    # -- grammar ----------------------------------------------------------

    def parse_file(self) -> MapSpec:
        self.expect_ident("map")
        self.expect("{")
        self.expect_ident("n")
        self.expect("=")
        n = int(self.expect("INT").text)
        self.expect(",")
        self.expect_ident("m")
        self.expect("=")
        m = int(self.expect("INT").text)
        brace = self.expect("}")
        if n < 1 or m < 1:
            raise MapSpecError("dimensions must be positive", brace.line, brace.col)
        if n < m:
            raise MapSpecError(f"source dimension n={n} must be >= target dimension m={m}",
                               brace.line, brace.col)

        components: dict[int, Polynomial] = {}
        while self.peek().kind == "IDENT" and re.fullmatch(r"f\d+", self.peek().text):
            tok = self.advance()
            index = int(tok.text[1:])
            if not 1 <= index <= m:
                raise MapSpecError(f"component {tok.text} out of range for m={m}",
                                   tok.line, tok.col)
            if index in components:
                raise MapSpecError(f"component {tok.text} defined twice", tok.line, tok.col)
            self.expect("=")
            components[index] = self.parse_expr(n)
        missing = [f"f{i}" for i in range(1, m + 1) if i not in components]
        if missing:
            tok = self.peek()
            raise MapSpecError(f"missing components: {', '.join(missing)}", tok.line, tok.col)

        point = None
        if self.peek().kind == "IDENT" and self.peek().text == "at":
            self.advance()
            self.expect("(")
            coords = [self.parse_rational()]
            while self.peek().kind == ",":
                self.advance()
                coords.append(self.parse_rational())
            self.expect(")")
            if len(coords) != n:
                tok = self.peek()
                raise MapSpecError(f"base point has {len(coords)} coordinates, expected {n}",
                                   tok.line, tok.col)
            point = tuple(coords)

        trailing = self.peek()
        if trailing.kind != "EOF":
            raise MapSpecError(f"unexpected trailing input {trailing.text!r}",
                               trailing.line, trailing.col)
        return MapSpec(n=n, m=m, components=tuple(components[i] for i in range(1, len(components) + 1)),
                       point=point)

    def parse_expr(self, n: int) -> Polynomial:
        # One dict collects the signed terms: no copy of the partial sum per term.
        terms: dict[tuple[int, ...], Fraction] = {}
        sign = 1
        while True:
            for exps, coeff in self.parse_term(n).terms():
                terms[exps] = terms.get(exps, 0) + sign * coeff
            if self.peek().kind not in ("+", "-"):
                return Polynomial(n, terms)
            sign = 1 if self.advance().kind == "+" else -1

    def parse_term(self, n: int) -> Polynomial:
        result = self.parse_factor(n)
        while self.peek().kind == "*":
            self.advance()
            result = result * self.parse_factor(n)
        return result

    def parse_factor(self, n: int) -> Polynomial:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr(n)
            self.expect(")")
            return inner
        if tok.kind == "-" or tok.kind == "INT":
            return Polynomial.constant(n, self.parse_rational())
        if tok.kind == "IDENT":
            match = re.fullmatch(r"x(\d+)", tok.text)
            if not match:
                raise UnknownVariableError(f"unknown variable {tok.text!r}", tok.line, tok.col)
            index = int(match.group(1))
            if not 1 <= index <= n:
                raise UnknownVariableError(
                    f"variable x{index} out of range for n={n}", tok.line, tok.col)
            self.advance()
            exponent = 1
            if self.peek().kind == "^":
                self.advance()
                exp_tok = self.peek()
                if exp_tok.kind == "-":
                    raise NegativeExponentError("negative exponents are not allowed",
                                                exp_tok.line, exp_tok.col)
                exponent = int(self.expect("INT", "a nonnegative integer exponent").text)
            exps = tuple(exponent if i == index - 1 else 0 for i in range(n))
            return Polynomial.monomial(n, exps)
        raise MapSpecError(f"expected a factor, found {tok.text or 'end of input'}",
                           tok.line, tok.col)

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num = int(self.expect("INT", "a number").text)
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("INT", "a positive denominator")
            den = int(den_tok.text)
            if den == 0:
                raise MapSpecError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_map_spec(text: str) -> MapSpec:
    """Parse map-spec text; raises MapSpecError with position on failure."""
    parser = _Parser(_tokenize(text), text)
    return parser.parse_file()

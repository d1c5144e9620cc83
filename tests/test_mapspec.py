import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from esl.mapspec import (
    MapSpec,
    MapSpecError,
    NegativeExponentError,
    UnknownVariableError,
    parse_map_spec,
)
from esl.polys import MAX_EXPONENT, Polynomial

from .oracles import map_spec_text, parse_map_spec_reference


class TestParsing:
    def test_product_map(self):
        spec = parse_map_spec("map{n=2,m=1} f1 = x1*x2")
        assert (spec.n, spec.m) == (2, 1)
        assert spec.components[0] == (
            Polynomial.variable(2, 0) * Polynomial.variable(2, 1))

    def test_two_component_map(self):
        spec = parse_map_spec("map{n=2,m=2} f1=x1^2 f2=x1^2*x2")
        assert spec.components[1] == Polynomial.monomial(2, (2, 1))

    def test_rational_coefficients(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = 2/3*x1 + 5")
        assert spec.components[0].coefficient((1,)) == Fraction(2, 3)
        assert spec.components[0].coefficient((0,)) == 5

    def test_parentheses_and_subtraction(self):
        spec = parse_map_spec("map{n=2,m=1} f1 = (x1 + x2)*(x1 - x2)")
        diff = Polynomial.variable(2, 0) ** 2 - Polynomial.variable(2, 1) ** 2
        assert spec.components[0] == diff

    def test_point_clause(self):
        spec = parse_map_spec("map{n=2,m=1} f1 = x1*x2 at (1/2, -3)")
        assert spec.point == (Fraction(1, 2), Fraction(-3))

    def test_components_any_order(self):
        spec = parse_map_spec("map{n=2,m=2} f2 = x2 f1 = x1")
        assert spec.components[0] == Polynomial.variable(2, 0)

    def test_comments_and_newlines(self):
        text = """map{n=1,m=1}
        # the squaring map
        f1 = x1^2
        """
        assert parse_map_spec(text).components[0] == Polynomial.monomial(1, (2,))


class TestErrors:
    def test_negative_exponent(self):
        with pytest.raises(NegativeExponentError):
            parse_map_spec("map{n=1,m=1} f1 = x1^-1")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_map_spec("map{n=2,m=1} f1 = x3")
        with pytest.raises(UnknownVariableError):
            parse_map_spec("map{n=2,m=1} f1 = y1")

    def test_syntax_error_carries_position(self):
        with pytest.raises(MapSpecError) as err:
            parse_map_spec("map{n=1,m=1}\nf1 = x1 + ")
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line, col", [
        ("map{n=1,m=1} f1=x1 +", 1, 21),
        ("map{n=1,m=1}\nf1 = x1 + ", 2, 11),
        ("map{n=1,m=1}\nf1 = x1 +\n", 3, 1),
        ("map{n=1,m=1}\rf1 = x1 +", 2, 10),
        ("map{n=1,m=1}\r\nf1 = x1 +\u2028", 3, 1),
    ])
    def test_end_of_input_error_sits_past_the_last_character(self, text, line, col):
        with pytest.raises(MapSpecError) as err:
            parse_map_spec(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert f"end of input (line {line}, column {col})" in str(err.value)

    def test_duplicate_component(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("map{n=1,m=1} f1 = x1 f1 = x1")

    def test_missing_component(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("map{n=2,m=2} f1 = x1")

    def test_component_index_out_of_range(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("map{n=2,m=1} f2 = x1")

    def test_source_smaller_than_target(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("map{n=1,m=2} f1 = x1 f2 = x1")

    def test_wrong_point_dimension(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("map{n=2,m=1} f1 = x1*x2 at (1)")

    def test_zero_denominator(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("map{n=1,m=1} f1 = 1/0*x1")


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
    lambda c: c != 0)


def specs(n=2, m=2):
    exps = st.tuples(*[st.integers(0, 6) for _ in range(n)])
    poly = st.dictionaries(exps, coefficients, min_size=0, max_size=4).map(
        lambda terms: Polynomial(n, terms))
    point = st.one_of(
        st.none(),
        st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=5)
                    for _ in range(n)]))
    return st.builds(
        lambda comps, pt: MapSpec(n=n, m=m, components=tuple(comps), point=pt),
        st.lists(poly, min_size=m, max_size=m), point)


class TestRoundTrip:
    def test_canonical_examples(self):
        for text in [
            "map{n=2,m=1} f1 = x1*x2",
            "map{n=2,m=2} f1=x1^2 f2=x1^2*x2 at (0, 0)",
            "map{n=1,m=1} f1 = 0 - x1^2 + 1/3",
            "map{n=1,m=1} f1 = 0",
        ]:
            spec = parse_map_spec(text)
            assert parse_map_spec(map_spec_text(spec)) == spec

    @given(specs())
    def test_parse_print_parse_identity(self, spec):
        assert parse_map_spec(map_spec_text(spec)) == spec

    @given(specs(n=3, m=1))
    def test_single_component_round_trip(self, spec):
        assert parse_map_spec(map_spec_text(spec)) == spec


class TestDigitLimit:
    # A literal past the int-from-str digit limit is a positioned parse error,
    # wherever it sits.
    LONG = "9" * (sys.get_int_max_str_digits() + 700)

    @pytest.mark.parametrize("template, col", [
        ("map{{n=1,m=1}} f1={}*x1", 17),
        ("map{{n=1,m=1}} f1=x1^{}", 20),
        ("map{{n=1,m=1}} f1=x1 at (-{})", 25),
        ("map{{n={},m=1}} f1=x1", 7),
        ("map{{n=1,m=1}} f1=x{}", 17),
        ("map{{n=1,m=1}} f{}=x1", 14),
    ], ids=["coefficient", "exponent", "base-point", "header", "variable", "component"])
    def test_long_literal_is_a_positioned_error(self, template, col):
        with pytest.raises(MapSpecError) as err:
            parse_map_spec(template.format(self.LONG))
        limit = sys.get_int_max_str_digits()
        assert str(err.value) == (f"a number of {len(self.LONG)} digits is over the "
                                  f"int-from-str digit limit {limit} (line 1, column {col})")


def _outcome(parse, text):
    """A parse's result, or its exception's class, message and position."""
    try:
        spec = parse(text)
    except Exception as err:  # any exception must match the reference's
        return type(err), str(err), getattr(err, "line", None), getattr(err, "col", None)
    # The components' term order too, which shift_to_origin iterates.
    return spec, [list(c._terms.items()) for c in spec.components]


_numbers = st.one_of(
    st.sampled_from(["0", "00", "1", "2", "7", "12345678901234567890123"]),
    st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda t: f"{t[0]} / {t[1]}"),
)
# Mostly valid powers; about one in twelve goes wrong in one of the ways a
# factor can.
_powers = st.sampled_from(
    [f"x{i}{e}" for i in ("1", "2", "3", "01")
     for e in ("", "^0", "^2", "^3", f"^{MAX_EXPONENT - 1}", f"^{MAX_EXPONENT}")]
    + ["x0", "y1", "x1^-1", f"x1^{MAX_EXPONENT + 1}", "1/0"])


def _expressions(leaves):
    factors = st.one_of(_numbers, _numbers.map(lambda s: "-" + s), _powers, _powers, leaves)
    terms = st.lists(factors, min_size=1, max_size=4).map(" * ".join)
    return st.lists(st.tuples(st.sampled_from(["+", "-"]), terms), min_size=1, max_size=4).map(
        lambda parts: " ".join(sign + " " + term for sign, term in parts)[2:])


_expression = st.recursive(_expressions(st.nothing()),
                           lambda inner: _expressions(inner.map(lambda e: f"({e})")),
                           max_leaves=10)
_breaks = st.sampled_from([" ", "", "\t", "\n", "\r\n", "\u2028", " # a note\n", "\r"])
_junk = st.sampled_from(["@", ")", "(", "*", "^", "+", "/", ",", "=", "\u00e9", "\u00b2",
                         "\u0663", "#", "at", "f1", "x1"])


@st.composite
def _spec_texts(draw):
    n = draw(st.sampled_from([3, 3, 3, 2, 1]))
    m = draw(st.integers(1, min(n, 2)))
    tokens = ["map", "{", "n", "=", str(n), ",", "m", "=", str(m), "}"]
    for index in draw(st.permutations(range(1, m + 1))):
        tokens += [f"f{index}", "=", draw(_expression)]
    if draw(st.booleans()):
        tokens += ["at", "(", ", ".join(draw(st.lists(_numbers, min_size=n, max_size=n))), ")"]
    # Malformed in about two cases of five: drop, repeat or insert a token.
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if edit == "drop":
            del tokens[at]
        elif edit == "repeat":
            tokens.insert(at, tokens[at])
        else:
            tokens.insert(at, draw(_junk))
    return "".join(token + draw(_breaks) for token in tokens)


class TestAgainstReferenceParser:
    @settings(max_examples=300)
    @given(_spec_texts())
    def test_same_spec_or_same_error(self, text):
        assert _outcome(parse_map_spec, text) == _outcome(parse_map_spec_reference, text)

    @pytest.mark.parametrize("expr", [
        "x1^2147483647*x1", "(x1+1)*x1^2147483647", "0*x1^2147483648", "x1^2147483648*0",
        "0*x1^2147483647*x1", "x1^2147483647*0*x1", "(x1-x1)*x1^2147483647*x1",
        "(x1+x2)*x1^2147483647*x2^5", "(x1-x1)*(x1+1)", "2*(x1+1)*3/4*x2 - (x2)*(x1)",
        "x1^2147483647*x2*x1", "x2*(x1^2147483647+1)*x1", "0*x2 + x1 + 5",
    ])
    def test_examples(self, expr):
        text = f"map{{n=2,m=1}} f1={expr}"
        assert _outcome(parse_map_spec, text) == _outcome(parse_map_spec_reference, text)


class TestParseCost:
    # c*(x1 - 2)^100 written expanded, as the benchmark's recentered maps are.
    TEXT = "map{n=1,m=1} f1 = " + str(-2 * (Polynomial.variable(1, 0) - 2) ** 100)

    def test_one_polynomial_per_component(self, monkeypatch):
        built = []
        init = Polynomial.__init__
        monkeypatch.setattr(Polynomial, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        assert len(self.TEXT) > 3000
        spec = parse_map_spec(self.TEXT + " at (2)")
        assert len(built) == 1 and len(spec.components[0]) == 101

    def test_no_fraction_per_integer_literal(self, monkeypatch):
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            staticmethod(lambda cls, *args, **kw: made.append(args)
                                         or new(cls, *args, **kw)))
        spec = parse_map_spec(self.TEXT)
        # One per stored coefficient, made by the Polynomial constructor.
        assert len(made) == len(spec.components[0]) == 101

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from esl.mapspec import (
    MapSpec,
    MapSpecError,
    NegativeExponentError,
    UnknownVariableError,
    parse_map_spec,
)
from esl.polys import Polynomial

from .oracles import map_spec_text


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

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from esl.polys import (
    ExponentOverflowError,
    MAX_EXPONENT,
    NotLocallyDominantError,
    NotMonomialError,
    PolyMap,
    Polynomial,
    as_monomial_ideal,
    evaluate,
    jacobian_matrix,
    jacobian_minors,
    partial_derivative,
    shift_to_origin,
    substitute_affine,
)


def var(n, i):
    return Polynomial.variable(n, i)


coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=5).filter(lambda c: c != 0)


def polynomials(n, max_terms=4, max_exp=5):
    exps = st.tuples(*[st.integers(0, max_exp) for _ in range(n)])
    return st.dictionaries(exps, coefficients, min_size=0, max_size=max_terms).map(
        lambda terms: Polynomial(n, terms))


class TestPolynomialBasics:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert len(p) == 1

    def test_canonical_order_graded_lex(self):
        p = var(2, 0) ** 2 + var(2, 1) ** 3 + 1
        exps = [e for e, _ in p.terms()]
        assert exps == [(0, 3), (2, 0), (0, 0)]

    def test_equality_and_hash(self):
        p = var(2, 0) * var(2, 1) + 1
        q = 1 + var(2, 1) * var(2, 0)
        assert p == q and hash(p) == hash(q)

    def test_exponent_cap(self):
        big = Polynomial.monomial(1, (MAX_EXPONENT,))
        with pytest.raises(ExponentOverflowError):
            big * var(1, 0)

    def test_pow(self):
        p = (var(1, 0) + 1) ** 3
        assert p.coefficient((2,)) == 3
        assert p.coefficient((0,)) == 1


class TestPartialDerivative:
    def test_monomial_power_family(self):
        m = 4
        p = Polynomial.monomial(2, (m, m))
        d = partial_derivative(p, 0)
        assert d == Polynomial.monomial(2, (m - 1, m), m)

    def test_constant_derivative_is_zero(self):
        assert partial_derivative(Polynomial.constant(1, 5), 0).is_zero

    def test_hand_derivative(self):
        p = var(2, 0) ** 2 * var(2, 1) ** 3 + Fraction(2, 3) * var(2, 1)
        d = partial_derivative(p, 1)
        assert d == 3 * var(2, 0) ** 2 * var(2, 1) ** 2 + Fraction(2, 3)

    def test_axis_out_of_range(self):
        with pytest.raises(IndexError):
            partial_derivative(var(2, 0), 2)

    @given(polynomials(2), polynomials(2), st.integers(0, 1))
    def test_product_rule(self, p, q, axis):
        lhs = partial_derivative(p * q, axis)
        rhs = p * partial_derivative(q, axis) + q * partial_derivative(p, axis)
        assert lhs == rhs


class TestJacobian:
    def test_identity_matrix(self):
        jac = jacobian_matrix(PolyMap.identity(2))
        assert jac[0][0] == 1 and jac[1][1] == 1
        assert jac[0][1].is_zero and jac[1][0].is_zero

    def test_hand_jacobian(self):
        pmap = PolyMap([var(2, 0) ** 2, var(2, 0) ** 2 * var(2, 1)])
        jac = jacobian_matrix(pmap)
        assert jac[0][0] == 2 * var(2, 0)
        assert jac[0][1].is_zero
        assert jac[1][0] == 2 * var(2, 0) * var(2, 1)
        assert jac[1][1] == var(2, 0) ** 2

    def test_gradient_as_minors(self):
        pmap = PolyMap([var(2, 0) * var(2, 1)])
        assert jacobian_minors(pmap) == [var(2, 1), var(2, 0)]

    def test_single_minor_of_stretch_map(self):
        for d in (2, 3):
            pmap = PolyMap([Polynomial.monomial(2, (d, 0)), Polynomial.monomial(2, (d, 1))])
            minors = jacobian_minors(pmap)
            assert minors == [Polynomial.monomial(2, (2 * d - 1, 0), d)]

    def test_identity_minors(self):
        assert jacobian_minors(PolyMap.identity(3)) == [Polynomial.constant(3, 1)]

    def test_permuting_source_coordinates_permutes_minor_exponents(self):
        n = 3
        pmap = PolyMap([Polynomial.monomial(n, (2, 3, 5))])
        base = {e for gen in jacobian_minors(pmap) for e, _ in gen.terms()}
        for perm in itertools.permutations(range(n)):
            permuted = PolyMap([Polynomial(n, {
                tuple(e[perm[i]] for i in range(n)): c
                for e, c in pmap.components[0].terms()})])
            got = {e for gen in jacobian_minors(permuted) for e, _ in gen.terms()}
            expected = {tuple(e[perm[i]] for i in range(n)) for e in base}
            assert got == expected


class TestMonomialIdealBridge:
    def test_single_minor(self):
        d = 3
        ideal = as_monomial_ideal([Polynomial.monomial(2, (2 * d - 1, 0), d)])
        assert ideal.generators == ((2 * d - 1, 0),)

    def test_gradient_pair(self):
        ideal = as_monomial_ideal([var(2, 1), var(2, 0)])
        assert set(ideal.generators) == {(0, 1), (1, 0)}

    def test_two_terms_rejected_with_index(self):
        with pytest.raises(NotMonomialError) as err:
            as_monomial_ideal([var(2, 0), var(2, 0) + var(2, 1)])
        assert err.value.index == 1

    def test_generator_with_constant_term_is_a_local_unit(self):
        # 2 + 2x is invertible near the origin, so the ideal is everything.
        ideal = as_monomial_ideal([2 + 2 * var(1, 0)])
        assert ideal.is_unit

    def test_zero_minors_dropped(self):
        ideal = as_monomial_ideal([Polynomial.zero(2), var(2, 0)])
        assert ideal.generators == ((1, 0),)

    def test_all_zero_is_not_locally_dominant(self):
        with pytest.raises(NotLocallyDominantError):
            as_monomial_ideal([Polynomial.zero(2)])

    def test_dominated_generators_discarded(self):
        ideal = as_monomial_ideal([
            Polynomial.monomial(2, (1, 0)),
            Polynomial.monomial(2, (2, 1)),
        ])
        assert ideal.generators == ((1, 0),)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=4))
    def test_monomial_map_minors_always_form_an_ideal(self, exps):
        # Any minor of a matrix of single-term entries is a single term or zero.
        pmap = PolyMap([Polynomial.monomial(2, e) for e in exps[:1]])
        try:
            ideal = as_monomial_ideal(jacobian_minors(pmap))
        except NotLocallyDominantError:
            return
        assert ideal.generators


class TestEvaluateAndShift:
    def test_identity_evaluation(self):
        assert evaluate(PolyMap.identity(2), [3, 4]) == [3, 4]

    def test_rational_evaluation(self):
        pmap = PolyMap([var(2, 0) * var(2, 1)])
        assert evaluate(pmap, [Fraction(2, 3), 3]) == [2]

    def test_float_evaluation(self):
        pmap = PolyMap([var(2, 0) ** 2, var(2, 0) ** 2 * var(2, 1)])
        assert evaluate(pmap, [1.0, 1.0]) == [1.0, 1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(PolyMap.identity(2), [1])

    def test_shift_examples(self):
        x = var(1, 0)
        assert shift_to_origin(PolyMap([x**2]), [0]).components[0] == x**2
        assert shift_to_origin(PolyMap([x**2]), [1]).components[0] == x**2 + 2 * x
        xy = PolyMap([var(2, 0) * var(2, 1)])
        assert shift_to_origin(xy, [0, 0]).components[0] == var(2, 0) * var(2, 1)

    @given(polynomials(2), st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    def test_shift_vanishes_at_origin(self, p, x0):
        pmap = PolyMap([p, Polynomial.constant(2, 1) + var(2, 1)])
        shifted = shift_to_origin(pmap, list(x0))
        assert evaluate(shifted, [0, 0]) == [0, 0]

    @given(polynomials(2), st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3)),
        st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    def test_shift_matches_pointwise_evaluation(self, p, x0, z):
        pmap = PolyMap([p, var(2, 0)])
        shifted = shift_to_origin(pmap, list(x0))
        direct = [c.evaluate([x0[0] + z[0], x0[1] + z[1]]) - c.evaluate(list(x0))
                  for c in pmap.components]
        assert evaluate(shifted, list(z)) == direct


def expand_affine(p, shift, scale):
    """Reference expansion of p(shift + scale*z) by Polynomial * and **."""
    result = Polynomial.zero(p.n)
    for exps, coeff in p.terms():
        term = Polynomial.constant(p.n, coeff)
        for i, e in enumerate(exps):
            term = term * (Polynomial.constant(p.n, shift[i]) + scale[i] * var(p.n, i)) ** e
        result = result + term
    return result


def affine_cases(values):
    """(n, polynomial, shift, scale) with n <= 3 and entries drawn from values."""
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), polynomials(n),
        st.tuples(*[values for _ in range(n)]),
        st.tuples(*[values.filter(lambda v: v != 0) for _ in range(n)])))


class TestSubstituteAffine:
    @given(affine_cases(st.integers(-3, 3)))
    def test_integer_matches_reference(self, case):
        n, p, shift, scale = case
        terms = {e: c.numerator for e, c in p.terms()}
        got = substitute_affine(terms, shift, scale)
        assert all(type(c) is int and c != 0 for c in got.values())
        assert Polynomial(n, got) == expand_affine(Polynomial(n, terms), shift, scale)

    @given(affine_cases(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    def test_fraction_matches_reference(self, case):
        n, p, shift, scale = case
        got = substitute_affine(dict(p.terms()), shift, scale)
        assert all(type(c) is Fraction and c != 0 for c in got.values())
        assert Polynomial(n, got) == expand_affine(p, shift, scale)

    @given(affine_cases(st.integers(-3, 3)))
    def test_default_scale_is_one(self, case):
        n, p, shift, _ = case
        assert Polynomial(n, substitute_affine(dict(p.terms()), shift)) == \
            expand_affine(p, shift, (1,) * n)

    @given(polynomials(3))
    def test_zero_shift_keeps_terms(self, p):
        assert substitute_affine(dict(p.terms()), (0, 0, 0)) == dict(p.terms())

    def test_zero_shift_axis_stays_sparse(self):
        got = substitute_affine({(7, 5): 1}, (0, 1))
        assert set(got) == {(7, j) for j in range(6)}

    def test_zero_shift_axis_ignores_exponent_size(self):
        big = MAX_EXPONENT
        recentered = shift_to_origin(PolyMap([var(1, 0) ** big]), [0]).components[0]
        assert dict(recentered.terms()) == {(big,): 1}
        got = substitute_affine({(big, 2): 3}, (0, 1), (-1, 1))
        assert got == {(big, 0): -3, (big, 1): -6, (big, 2): -3}

    def test_recenter_high_power(self):
        shifted = shift_to_origin(PolyMap([var(1, 0) ** 3000]), [1]).components[0]
        assert len(shifted) == 3000
        assert all(shifted.coefficient((j,)) == math.comb(3000, j) for j in range(1, 3001))


class TestPolyMapInvariants:
    def test_target_larger_than_source_rejected(self):
        with pytest.raises(ValueError):
            PolyMap([var(1, 0), var(1, 0)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PolyMap([var(1, 0), var(2, 0)])

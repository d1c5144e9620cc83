import ast
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from esl import polys
from esl.mapspec import parse_map_spec
from esl.polys import (
    ExponentOverflowError,
    MAX_EXPONENT,
    MinorBudgetError,
    NotLocallyDominantError,
    NotMonomialError,
    PolyMap,
    Polynomial,
    ShiftBudgetError,
    as_monomial_ideal,
    jacobian_matrix,
    jacobian_minors,
    partial_derivative,
    shift_to_origin,
    substitute_affine,
)

from .oracles import evaluate_exact, shift_to_origin_fraction
from .test_lazy_numpy import run_python


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

    @pytest.mark.parametrize("spec, units", [
        # One 3 x 3 minor of constants: 3 cofactor products of 2 x 2 minors,
        # each of which forms 2 more, one term by one: 1 + 3 + 3 * 2.
        ("map{n=3,m=3} f1=x1+2*x2+3*x3 f2=4*x1+5*x2+6*x3 f3=7*x1+8*x2+10*x3", 10),
        # One 2 x 2 minor: (2*x1 + 1) * x1 forms 2 term products, 2*x2 * x2 one.
        ("map{n=2,m=2} f1=x1^2+x2^2+x1 f2=x1*x2", 4),
        # Three 1 x 1 minors form no product.
        ("map{n=3,m=1} f1=x1*x2*x3", 3),
    ])
    def test_minor_budget_counts_minors_and_term_products(self, monkeypatch, spec, units):
        pmap = parse_map_spec(spec).poly_map()
        expected = jacobian_minors(pmap)
        monkeypatch.setattr(polys, "MINOR_BUDGET", units)
        assert jacobian_minors(pmap) == expected
        monkeypatch.setattr(polys, "MINOR_BUDGET", units - 1)
        with pytest.raises(MinorBudgetError, match=f"over the minor budget {units - 1}$"):
            jacobian_minors(pmap)

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


def shift_cases(n):
    """(map, base point) in n variables: rational coefficients, constant
    components, and rational, integer or zero base coordinates."""
    constant = coefficients.map(lambda c: Polynomial.constant(n, c))
    components = st.lists(st.one_of(polynomials(n), constant), min_size=1, max_size=n)
    coordinate = st.one_of(st.just(0), st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=6))
    return st.tuples(components.map(PolyMap), st.tuples(*[coordinate] * n).map(list))


def evaluate(pmap, point):
    """Exact values of the map's components at a rational point."""
    return [evaluate_exact(comp, point) for comp in pmap.components]


class TestEvaluateAndShift:
    def test_identity_evaluation(self):
        assert evaluate(PolyMap.identity(2), [3, 4]) == [3, 4]

    def test_rational_evaluation(self):
        pmap = PolyMap([var(2, 0) * var(2, 1)])
        assert evaluate(pmap, [Fraction(2, 3), 3]) == [2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_exact(var(2, 0), [1])

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
        direct = [evaluate_exact(c, [x0[0] + z[0], x0[1] + z[1]]) - evaluate_exact(c, list(x0))
                  for c in pmap.components]
        assert evaluate(shifted, list(z)) == direct

    @given(st.integers(1, 3).flatmap(shift_cases))
    def test_integer_shift_matches_fraction_reference(self, case):
        pmap, x0 = case
        assert shift_to_origin(pmap, x0) == shift_to_origin_fraction(pmap, x0)

    def test_zero_shift_axis_keeps_scale_one(self, tmp_path):
        # In a fresh interpreter with a deadline: this takes about 0.2 s, but
        # scaling the zero-shift axis by q = 2 as well works with powers of 2
        # near 2^(2^31) and takes about 40 s on 2 cores.
        script = (
            "from fractions import Fraction\n"
            "from esl.polys import MAX_EXPONENT, PolyMap, Polynomial, shift_to_origin\n"
            "pmap = PolyMap([Polynomial.monomial(2, (MAX_EXPONENT, 1))])\n"
            "[p] = shift_to_origin(pmap, [0, Fraction(1, 2)]).components\n"
            "print(sorted((e, c.numerator, c.denominator) for e, c in p.terms()))\n")
        result = run_python(tmp_path, "-c", script, timeout=5)
        assert (result.returncode, result.stderr) == (0, "")
        assert ast.literal_eval(result.stdout) == [((MAX_EXPONENT, 0), 1, 2),
                                                   ((MAX_EXPONENT, 1), 1, 1)]

    def test_shift_budget_counts_terms_over_the_shifted_axes(self, monkeypatch):
        monkeypatch.setattr(polys, "SHIFT_TERM_BUDGET", 12)
        x1, x2 = var(2, 0), var(2, 1)
        # x1^3*x2^2 expands to 4*3 = 12 terms at (1, 1), and x1 to 2 more.
        assert len(shift_to_origin(PolyMap([x1**3 * x2**2]), [1, 1]).components[0]) == 11
        assert len(shift_to_origin(PolyMap([x1**3 * x2**2 + x1]), [0, 1]).components[0]) == 4
        with pytest.raises(ShiftBudgetError, match="shift term budget 12"):
            shift_to_origin(PolyMap([x1**3 * x2**2 + x1]), [1, 1])

    def test_shift_bit_budget_counts_coefficient_bits(self, monkeypatch):
        monkeypatch.setattr(polys, "SHIFT_BIT_BUDGET", 120)
        x1, x2 = var(2, 0), var(2, 1)
        # At (1, 1) each factor (1 + z)^e is bounded by e*bit_length(2) bits:
        # 12 terms of 3*2 + 2*2 bits.  At (1/3, 1), q = 3 makes it 12*(9 + 6).
        assert len(shift_to_origin(PolyMap([x1**3 * x2**2]), [1, 1]).components[0]) == 11
        with pytest.raises(ShiftBudgetError, match="shift bit budget 120"):
            shift_to_origin(PolyMap([x1**3 * x2**2]), [Fraction(1, 3), 1])

    def test_shift_budget_skips_terms_off_the_shifted_axes(self, monkeypatch):
        monkeypatch.setattr(polys, "SHIFT_TERM_BUDGET", 12)
        x1, x2 = var(2, 0), var(2, 1)
        # 20 terms, over the budget, none of which the shift expands.
        many = sum((x1**i * x2**j for i in range(1, 5) for j in range(1, 6)), Polynomial.zero(2))
        assert shift_to_origin(PolyMap([many]), [0, 0]) == PolyMap([many])
        # Off x1, each term x2^j is copied; x1 itself expands to 2 terms.
        along = sum((x2**j for j in range(1, 21)), x1)
        [shifted] = shift_to_origin(PolyMap([along]), [Fraction(1, 3), 0]).components
        assert shifted == along


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


def assert_valid_terms(p):
    """p's terms are what the public constructor would store for them."""
    assert Polynomial(p.n, p._terms) == p
    for exps, coeff in p._terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(exps) is tuple and len(exps) == p.n
        assert all(type(e) is int and 0 <= e <= MAX_EXPONENT for e in exps)


class TestArithmeticResultsAreValid:
    # Sums, products, powers, negations, partials and shifts build their
    # results unchecked; each must be what the checked constructor gives.
    @given(polynomials(2), polynomials(2), st.integers(0, 3),
           st.sampled_from([1, -2, Fraction(1, 3)]))
    def test_ring_operations(self, p, q, power, scalar):
        for result in [p + q, p - q, p - p, p * q, p ** power, -p, p * scalar, scalar - p,
                       p + scalar, p * 0]:
            assert_valid_terms(result)

    @given(polynomials(3), st.integers(0, 2))
    def test_partial_derivative(self, p, axis):
        assert_valid_terms(partial_derivative(p, axis))

    @given(shift_cases(2))
    def test_shift_to_origin(self, case):
        pmap, point = case
        for comp in shift_to_origin(pmap, point).components:
            assert_valid_terms(comp)

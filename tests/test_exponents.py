from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from esl.exponents import (
    ExactInvariants,
    MonomialLocalModel,
    consistency_chain_check,
    delta_from_eps,
    eps_equidimensional,
    eps_from_delta,
    eps_from_lct,
    eps_lower_bound,
    eps_monomial_model,
    eps_upper_bound_complex,
    k_star_bounds_from_lct,
    k_star_upper_from_eps,
    lct_from_eps,
    reverse_young_self,
    young_combine,
)
from esl.lct import lct_principal_monomial
from esl.polys import Polynomial, PolyMap
from esl.values import INF, BoundKind, ExponentValue

from .oracles import tail_power_selfconvolution_slope

F = Fraction


def ev(x):
    return ExponentValue(x)


class TestEpsLctConversions:
    def test_half_gives_one(self):
        assert eps_from_lct(ev(F(1, 2))) == ev(1)

    def test_boundary_is_infinite(self):
        assert eps_from_lct(ev(1)).is_infinite
        assert eps_from_lct(INF).is_infinite

    def test_one_over_m(self):
        for m in range(2, 8):
            assert eps_from_lct(ev(F(1, m))) == ev(F(1, m - 1))

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            eps_from_lct(ev(0))

    def test_lct_from_eps_values(self):
        assert lct_from_eps(ev(1)).value == ev(F(1, 2))
        assert lct_from_eps(ev(1)).kind is BoundKind.EXACT
        assert lct_from_eps(ev(F(1, 999))).value == ev(F(1, 1000))

    def test_lct_from_infinite_eps_is_lower_bound_flag(self):
        got = lct_from_eps(INF)
        assert got.value == ev(1) and got.kind is BoundKind.LOWER_BOUND

    @given(st.fractions(min_value=0, max_value=1, max_denominator=50)
           .filter(lambda c: 0 < c < 1))
    def test_round_trip_exact(self, c):
        assert lct_from_eps(eps_from_lct(ev(c))).value == ev(c)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=30)
           .filter(lambda e: e > 0))
    def test_delta_round_trip_exact(self, e):
        assert eps_from_delta(delta_from_eps(ev(e))) == ev(e)


class TestMonomialModel:
    def test_square_map(self):
        got = eps_monomial_model(MonomialLocalModel((2,), (0,)))
        assert got.value == ev(1) and got.kind is BoundKind.EXACT

    def test_identity_map_infinite(self):
        assert eps_monomial_model(MonomialLocalModel((1,), (0,))).value.is_infinite

    def test_diagonal_power(self):
        for m in range(2, 6):
            got = eps_monomial_model(MonomialLocalModel((m, m), (0, 0)))
            assert got.value == ev(F(1, m - 1))

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            MonomialLocalModel((0,), (0,))
        with pytest.raises(ValueError):
            MonomialLocalModel((1, 1), (0,))


class TestEquidimensionalAndBounds:
    def test_stretch_family(self):
        for d in (2, 3):
            for m in (2, 3):
                comps = []
                for j in range(m):
                    exps = [0] * m
                    exps[0] = d
                    if j > 0:
                        exps[j] += 1
                    comps.append(Polynomial.monomial(m, tuple(exps)))
                got = eps_equidimensional(ExactInvariants(PolyMap(comps)).lct_jacobian)
                assert got.value == ev(F(1, d * m - 1))
                assert got.kind is BoundKind.EXACT

    def test_unit_jacobian_is_infinite(self):
        lct_jacobian = ExactInvariants(PolyMap.identity(3)).lct_jacobian
        assert eps_equidimensional(lct_jacobian).value.is_infinite

    def test_perturbed_square_component(self):
        # (x, x^2 (1 + y^3)): determinant 3 x^2 y^2, threshold 1/2.
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        pmap = PolyMap([x, x * x * (1 + y**3)])
        got = eps_equidimensional(ExactInvariants(pmap).lct_jacobian)
        assert got.value == ev(F(1, 2))

    def test_high_degree_perturbation(self):
        # (x, x^2 (1 + y^9)): determinant ~ x^2 y^8, exponent 1/8 exactly.
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        pmap = PolyMap([x, x * x * (1 + y**9)])
        assert eps_equidimensional(ExactInvariants(pmap).lct_jacobian).value == ev(F(1, 8))

    def test_extreme_degree_is_exact_engine_territory(self):
        # (x, x^2 (1 + y^1000)) has exponent exactly 1/999 and a convolution
        # bound of 1001; far beyond what sampling could resolve, trivial to
        # certify symbolically.
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        pmap = PolyMap([x, x * x * (1 + y**1000)])
        got = eps_equidimensional(ExactInvariants(pmap).lct_jacobian).value
        assert got == ev(F(1, 999))
        assert k_star_upper_from_eps(got) == 1001
        assert delta_from_eps(got) == ev(F(1, 1000))

    def test_lower_bound_product_power(self):
        for n in (2, 3):
            for m in (2, 4):
                pmap = PolyMap([Polynomial.monomial(n, (m,) * n)])
                got = eps_lower_bound(ExactInvariants(pmap).lct_jacobian)
                assert got.kind is BoundKind.LOWER_BOUND
                assert got.value == ev(F(n, n * m - 1))

    def test_lower_bound_xy(self):
        pmap = PolyMap([Polynomial.variable(2, 0) * Polynomial.variable(2, 1)])
        assert eps_lower_bound(ExactInvariants(pmap).lct_jacobian).value == ev(2)

    def test_lower_bound_identity(self):
        assert eps_lower_bound(ExactInvariants(PolyMap.identity(2)).lct_jacobian).value.is_infinite

    def test_upper_bound_formula(self):
        for n in range(2, 6):
            for m in range(2, 7):
                lam = F(n, n * m - 1)  # 1/(m - 1/n)
                got = eps_upper_bound_complex(ev(lam))
                assert got == ev(F(n, n * (m - 1) - 1))  # 1/(m - 1 - 1/n)

    def test_upper_bound_inapplicable_at_one(self):
        assert eps_upper_bound_complex(ev(1)) is None
        assert eps_upper_bound_complex(INF) is None

    def test_upper_bound_half(self):
        # Cross-check with the one-dimensional formula: a univariate map
        # with fiber threshold 1/2 (x^2) has exponent exactly 1.
        assert eps_upper_bound_complex(ev(F(1, 2))) == ev(1)
        assert eps_from_lct(lct_principal_monomial((2,)).value) == ev(1)


class TestYoungAlgebra:
    def test_two_squares_saturate(self):
        assert young_combine(ev(1), ev(1)).is_infinite

    def test_halves_combine_to_two(self):
        # Oracle: self-convolution of a density with tail exponent -2/3
        # (integrability exponent 1/2) blows up like y^(-1/3), hence lands
        # exactly in L^(1+2).
        slope = tail_power_selfconvolution_slope(-2.0 / 3.0)
        assert abs(slope - (-1.0 / 3.0)) < 0.02
        assert young_combine(ev(F(1, 2)), ev(F(1, 2))) == ev(2)

    def test_infinite_absorbs(self):
        assert young_combine(ev(F(3, 7)), INF).is_infinite

    @given(st.fractions(min_value=0, max_value=5, max_denominator=20).filter(lambda e: e > 0),
           st.fractions(min_value=0, max_value=5, max_denominator=20).filter(lambda e: e > 0))
    def test_commutative(self, a, b):
        assert young_combine(ev(a), ev(b)) == young_combine(ev(b), ev(a))

    @given(st.fractions(min_value=0, max_value=3, max_denominator=12).filter(lambda e: e > 0),
           st.fractions(min_value=0, max_value=3, max_denominator=12).filter(lambda e: e > 0),
           st.fractions(min_value=0, max_value=3, max_denominator=12).filter(lambda e: e > 0))
    def test_monotone(self, a, b, c):
        lo, hi = min(a, b), max(a, b)
        assert young_combine(ev(lo), ev(c)) <= young_combine(ev(hi), ev(c))

    def test_transport_to_truncated_addition(self):
        # On the scale s = e/(1+e) the combination is plain capped addition.
        grid = [F(i, 21) for i in range(1, 21)]
        for a in grid:
            for b in grid:
                combined = young_combine(ev(a), ev(b))
                s = a / (1 + a) + b / (1 + b)
                if s >= 1:
                    assert combined.is_infinite
                else:
                    assert combined.fraction / (1 + combined.fraction) == s


class TestReverseYoung:
    def test_self_values(self):
        assert reverse_young_self(ev(2)) == ev(F(1, 2))
        assert reverse_young_self(ev(F(1, 100))) == ev(F(1, 201))
        assert reverse_young_self(INF).is_infinite

    @given(st.fractions(min_value=0, max_value=1, max_denominator=40)
           .filter(lambda e: 0 < e < 1))
    def test_inverts_self_combination_below_one(self, e):
        assert reverse_young_self(young_combine(ev(e), ev(e))) == ev(e)

    @given(st.fractions(min_value=0, max_value=6, max_denominator=20).filter(lambda e: e > 0))
    def test_at_least_identity_on_grid(self, e):
        assert reverse_young_self(young_combine(ev(e), ev(e))) >= ev(e)


class TestKStar:
    def test_bounds_examples(self):
        assert k_star_bounds_from_lct(ev(F(1, 4))) == k_star_bounds_from_lct(ev(F(1, 4)))
        b = k_star_bounds_from_lct(ev(F(1, 4)))
        assert (b.lower, b.upper) == (4, 5)
        b = k_star_bounds_from_lct(ev(1))
        assert (b.lower, b.upper) == (1, 2)
        b = k_star_bounds_from_lct(ev(F(2, 5)))  # 1/c = 5/2 not integral
        assert (b.lower, b.upper) == (3, 3)

    def test_degenerate_above_one(self):
        b = k_star_bounds_from_lct(ev(F(3, 2)))
        assert b.degenerate and (b.lower, b.upper) == (1, 2)
        assert k_star_bounds_from_lct(INF).degenerate

    def test_upper_from_eps_examples(self):
        assert k_star_upper_from_eps(ev(F(1, 999))) == 1001
        assert k_star_upper_from_eps(ev(1)) == 3
        assert k_star_upper_from_eps(INF) == 2

    @given(st.fractions(min_value=0, max_value=1, max_denominator=60)
           .filter(lambda c: 0 < c <= 1))
    def test_sandwich_coherence(self, c):
        bounds = k_star_bounds_from_lct(ev(c))
        upper = k_star_upper_from_eps(eps_from_lct(ev(c)))
        assert bounds.lower <= upper
        if (1 / c).denominator != 1:
            assert upper - bounds.lower <= 1


class TestDeltaConversions:
    def test_examples(self):
        assert eps_from_delta(ev(F(1, 2))) == ev(1)
        assert eps_from_delta(ev(1)).is_infinite
        assert delta_from_eps(ev(F(1, 999))) == ev(F(1, 1000))
        assert delta_from_eps(INF) == ev(1)


class TestConsistencyChain:
    def test_power_maps(self):
        for d in range(2, 10):
            assert consistency_chain_check(ev(F(1, d - 1)), ev(F(1, d)))

    def test_product_power(self):
        for m in range(2, 7):
            assert consistency_chain_check(ev(F(2, 2 * m - 1)), ev(F(1, m)))

    def test_degenerate_ones(self):
        assert consistency_chain_check(ev(1), ev(1))

    def test_violations_detected(self):
        assert not consistency_chain_check(ev(F(1, 3)), ev(F(1, 2)))
        # gradient threshold above the converted function threshold:
        # 1/3 maps to 1/2 < 3/5, so the middle clause fails
        assert not consistency_chain_check(ev(F(3, 5)), ev(F(1, 3)))


class TestEquidimensionalAgreesWithFormula:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_univariate_power_maps(self, d):
        x = Polynomial.variable(1, 0)
        via_jacobian = eps_equidimensional(ExactInvariants(PolyMap([x**d])).lct_jacobian).value
        via_formula = eps_from_lct(lct_principal_monomial((d,)).value)
        assert via_jacobian == via_formula == ev(F(1, d - 1))

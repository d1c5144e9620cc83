from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from esl.padic import (
    BudgetExceededError,
    NonIntegralCoefficientsError,
    PadicMassTable,
    ball_ratio_sequence,
    closed_form_xy_ratio,
    cylinder_mass,
    estimate_eps_padic,
    fit_padic_lct,
    is_prime,
    monomial_zero_mass,
    solution_counts,
    zero_fiber_mass,
    zero_fiber_mass_recursive,
)
from esl.polys import Polynomial, PolyMap

F = Fraction
X1 = Polynomial.variable(1, 0)
X2, Y2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
XY = PolyMap([X2 * Y2])
SQUARE = PolyMap([X1 * X1])
IDENT = PolyMap([X1])


class TestCylinderMass:
    def test_identity_is_haar(self):
        for p in (2, 3, 5):
            for k in (0, 1, 2):
                for y in range(p**k):
                    assert cylinder_mass(IDENT, p, k, [y]) == F(1, p**k)

    def test_xy_depth_one(self):
        assert cylinder_mass(XY, 3, 1, [0]) == F(5, 9)

    def test_square_depth_two(self):
        assert cylinder_mass(SQUARE, 3, 2, [0]) == F(1, 3)

    def test_nonzero_target(self):
        # x^2 = 1 mod 3: x in {1, 2}
        assert cylinder_mass(SQUARE, 3, 1, [1]) == F(2, 3)

    def test_haar_consistency(self):
        for pmap, p, k in [(XY, 3, 2), (SQUARE, 5, 2), (PolyMap.identity(2), 2, 3)]:
            counts = solution_counts(pmap, p, k)
            assert counts.sum() == (p**k) ** pmap.n

    def test_depth_coherence(self):
        # mass at depth k equals the sum over the p children at depth k+1
        p, k = 3, 1
        for y in range(p**k):
            parent = cylinder_mass(XY, p, k, [y])
            children = sum(
                cylinder_mass(XY, p, k + 1, [y + t * p**k]) for t in range(p))
            assert parent == children

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            solution_counts(XY, 5, 4, cell_budget=1000)

    def test_non_integral_coefficients_rejected(self):
        bad = PolyMap([Polynomial.constant(1, F(1, 2)) * X1])
        with pytest.raises(NonIntegralCoefficientsError):
            cylinder_mass(bad, 3, 1, [0])

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            cylinder_mass(IDENT, 4, 1, [0])


class TestClosedFormXY:
    def test_base_case(self):
        for p in (2, 3, 5, 7):
            assert closed_form_xy_ratio(p, 0) == 1

    def test_depth_one(self):
        assert closed_form_xy_ratio(3, 1) == F(5, 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_enumeration_to_depth_four(self, p):
        table = ball_ratio_sequence(XY, p, 4, 0, method="enumerate")
        for k, _, ratio in table.rows:
            assert ratio == closed_form_xy_ratio(p, k)

    def test_lower_bound_all_small_primes(self):
        for p in (2, 3, 5, 7):
            for k in range(7):
                assert closed_form_xy_ratio(p, k) >= F((p - 1) ** 2, p**2) * (k + 1)


class TestEngineAgreement:
    CASES = [
        (X2 * Y2, 3),
        (X2**2 * Y2, 3),
        (X2**3 + Y2**3, 5),
        (X2**4 + Y2**4, 5),
        (X2**2 - Y2**2, 3),
        (X1**2 + 3 * X1, 3),
        (2 * X1**3, 2),
    ]

    @pytest.mark.parametrize("poly,p", CASES)
    def test_recursion_matches_enumeration(self, poly, p):
        pmap = PolyMap([poly])
        for k in range(5):
            assert zero_fiber_mass_recursive(poly, p, k) == \
                cylinder_mass(pmap, p, k, [0])

    def test_valuation_matches_enumeration(self):
        for poly, p in [(X2 * Y2, 3), (X2**2 * Y2**3, 2), (4 * X1**2, 2), (X1**5, 3)]:
            if poly.n == 1:
                pmap = PolyMap([poly])
            else:
                pmap = PolyMap([poly])
            for k in range(5):
                assert monomial_zero_mass(poly, p, k) == cylinder_mass(pmap, p, k, [0])

    def test_dispatch_picks_an_exact_engine(self):
        for poly, p in [(X2 * Y2, 3), (X2**3 + Y2**3, 5)]:
            for k in range(4):
                assert zero_fiber_mass(poly, p, k) == \
                    cylinder_mass(PolyMap([poly]), p, k, [0])

    @given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([2, 3, 5]))
    @settings(max_examples=25)
    def test_power_map_valuation_formula(self, d, k, p):
        # mass{val(x^d) >= k} = p^(-ceil(k/d))
        expected = F(1, p ** ((k + d - 1) // d))
        assert monomial_zero_mass(X1**d, p, k) == expected


class TestMassTable:
    def test_monotone_masses_enforced(self):
        with pytest.raises(ValueError):
            PadicMassTable(p=3, m=1, rows=((0, F(1, 2), F(1, 2)), (1, F(3, 4), F(9, 4))))

    def test_ratio_zero_depth_is_total_mass(self):
        table = ball_ratio_sequence(XY, 5, 2, 0)
        assert table.rows[0] == (0, F(1), F(1))

    def test_serialization_round_trip(self):
        table = ball_ratio_sequence(SQUARE, 3, 3, 0)
        rows = table.to_csv_rows()
        assert rows[1][:3] == (1, 1, 3)
        payload = table.to_json_dict()
        assert payload["rows"][1]["mass"] == "1/3"


class TestFits:
    def test_power_maps_within_tolerance(self):
        for d in (2, 3):
            fit = fit_padic_lct(ball_ratio_sequence(PolyMap([X1**d]), 3, 12))
            assert not fit.sentinel_ge_one
            assert abs(fit.slope - 1 / d) <= 0.02
            assert fit.log_power == 0

    def test_product_map_log_power_detected(self):
        fit = fit_padic_lct(ball_ratio_sequence(XY, 3, 12))
        assert fit.log_power == 1
        assert abs(fit.slope - 1.0) <= 0.05

    def test_smooth_sentinel(self):
        fit = fit_padic_lct(ball_ratio_sequence(IDENT, 3, 12))
        assert fit.sentinel_ge_one

    def test_diagonal_sums_match_thom_sebastiani(self):
        # Deep staircase quantization needs a slightly longer run for the
        # quartic case; both slopes land within 0.05 of 1/a + 1/b.
        for (a, b, k_max) in [(3, 3, 12), (4, 4, 16)]:
            fit = fit_padic_lct(ball_ratio_sequence(PolyMap([X2**a + Y2**b]), 5, k_max))
            assert abs(fit.slope - (1 / a + 1 / b)) <= 0.05


class TestEpsClassification:
    def test_product_map_infinite_with_log_explosion(self):
        est = estimate_eps_padic(ball_ratio_sequence(XY, 3, 8))
        assert est.infinite and est.detail == "polynomial ratio growth"

    def test_square_map_exponent_one(self):
        est = estimate_eps_padic(ball_ratio_sequence(SQUARE, 3, 12))
        assert not est.infinite
        assert est.value == pytest.approx(1.0, abs=0.05)
        assert est.threshold == pytest.approx(0.5, abs=0.02)

    def test_identity_constant_ratio(self):
        est = estimate_eps_padic(ball_ratio_sequence(IDENT, 3, 8))
        assert est.infinite and est.detail == "constant ratio"

    def test_fits_need_one_dimensional_target(self):
        table = ball_ratio_sequence(PolyMap([X2, Y2]), 2, 4)
        for fit in (fit_padic_lct, estimate_eps_padic):
            with pytest.raises(ValueError):
                fit(table)

    def test_residuals_reported_on_ambiguity(self):
        est = estimate_eps_padic(ball_ratio_sequence(SQUARE, 3, 12))
        assert est.residual_exponential >= 0 and est.residual_polynomial >= 0


def test_is_prime():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]

from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from esl import padic
from esl.cli import main
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
    zero_fiber_mass_recursive,
)
from esl.polys import Polynomial, PolyMap
from .oracles import enumerated_cylinder_mass

F = Fraction
X1 = Polynomial.variable(1, 0)
X2, Y2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
XY = PolyMap([X2 * Y2])
SQUARE = PolyMap([X1 * X1])
IDENT = PolyMap([X1])


def mass_at(pmap, p, k, y):
    """Enumerated mass of {phi = y mod p^k}: the last entry of its column."""
    return cylinder_mass(pmap, p, k, y)[k]


class TestCylinderMass:
    def test_identity_is_haar(self):
        for p in (2, 3, 5):
            for k in (0, 1, 2):
                for y in range(p**k):
                    assert mass_at(IDENT, p, k, [y]) == F(1, p**k)

    def test_xy_depth_one(self):
        assert mass_at(XY, 3, 1, [0]) == F(5, 9)

    def test_square_depth_two(self):
        assert cylinder_mass(SQUARE, 3, 2, [0]) == [F(1), F(1, 3), F(1, 3)]

    def test_nonzero_target(self):
        # x^2 = 1 mod 3: x in {1, 2}
        assert mass_at(SQUARE, 3, 1, [1]) == F(2, 3)

    def test_haar_consistency(self):
        # Summed over every target y, the masses at depth k add up to 1.
        for pmap, p, k in [(XY, 3, 2), (SQUARE, 5, 2), (PolyMap.identity(2), 2, 3)]:
            targets = product(range(p**k), repeat=pmap.m)
            assert sum(mass_at(pmap, p, k, list(y)) for y in targets) == 1

    def test_depth_coherence(self):
        # mass at depth k equals the sum over the p children at depth k+1
        p, k = 3, 1
        for y in range(p**k):
            parent = mass_at(XY, p, k, [y])
            children = sum(mass_at(XY, p, k + 1, [y + t * p**k]) for t in range(p))
            assert parent == children

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            cylinder_mass(XY, 5, 4, [0], cell_budget=1000)

    def test_modulus_guard_before_any_work(self):
        # 2^32 cells fit the budget, but the modulus 2^32 does not fit int64 products.
        with pytest.raises(BudgetExceededError,
                           match="^modulus too large for vectorized enumeration$"):
            cylinder_mass(IDENT, 2, 32, [0], cell_budget=2**40)

    def test_non_integral_coefficients_rejected(self):
        bad = PolyMap([Polynomial.constant(1, F(1, 2)) * X1])
        with pytest.raises(NonIntegralCoefficientsError):
            cylinder_mass(bad, 3, 1, [0])

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            cylinder_mass(IDENT, 4, 1, [0])

    @pytest.mark.parametrize("engine, source", [
        (partial(cylinder_mass, y=[0]), SQUARE),
        (monomial_zero_mass, X1**2),
        (zero_fiber_mass_recursive, X1**2),
    ], ids=["enumeration", "valuation", "recursion"])
    def test_negative_depth_rejected(self, engine, source):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            engine(source, 3, -1)


class TestClosedFormXY:
    def test_base_case(self):
        for p in (2, 3, 5, 7):
            assert closed_form_xy_ratio(p, 0) == 1

    def test_depth_one(self):
        assert closed_form_xy_ratio(3, 1) == F(5, 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_enumeration_to_depth_four(self, p):
        table = PadicMassTable(p, 1, tuple(cylinder_mass(XY, p, 4, [0])))
        for k, ratio in enumerate(table.ratios):
            assert ratio == closed_form_xy_ratio(p, k)

    def test_lower_bound_all_small_primes(self):
        for p in (2, 3, 5, 7):
            for k in range(7):
                assert closed_form_xy_ratio(p, k) >= F((p - 1) ** 2, p**2) * (k + 1)


# 5^8 cells: every case, the two-variable ones at p = 5 included, is
# enumerated at least to depth 4.
ENUMERATION_BUDGET = 5**8


def enumerable_depth(p: int, n: int) -> int:
    """Deepest k whose p^(nk) cells fit ENUMERATION_BUDGET."""
    k = 0
    while p ** (n * (k + 1)) <= ENUMERATION_BUDGET:
        k += 1
    return k


def enumerated(poly, p):
    masses = cylinder_mass(PolyMap([poly]), p, enumerable_depth(p, poly.n), [0],
                           cell_budget=ENUMERATION_BUDGET)
    assert len(masses) >= 5
    return masses


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
        expected = enumerated(poly, p)
        assert zero_fiber_mass_recursive(poly, p, len(expected) - 1) == expected

    def test_valuation_matches_enumeration(self):
        for poly, p in [(X2 * Y2, 3), (X2**2 * Y2**3, 2), (4 * X1**2, 2), (X1**5, 3),
                        (6 * X2 * Y2**2, 3), (Polynomial.constant(1, 9), 3)]:
            expected = enumerated(poly, p)
            assert monomial_zero_mass(poly, p, len(expected) - 1) == expected

    def test_dispatch_picks_an_exact_engine(self):
        for poly, p in [(X2 * Y2, 3), (X2**3 + Y2**3, 5)]:
            pmap = PolyMap([poly])
            assert ball_ratio_sequence(pmap, p, 3).masses == \
                tuple(cylinder_mass(pmap, p, 3, [0]))

    @given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([2, 3, 5]))
    @settings(max_examples=25)
    def test_power_map_valuation_formula(self, d, k, p):
        # mass{val(x^d) >= k} = p^(-ceil(k/d))
        expected = F(1, p ** ((k + d - 1) // d))
        assert monomial_zero_mass(X1**d, p, k)[k] == expected

    def test_valuation_column_at_large_depth(self):
        # x*y: mass{val(x) + val(y) >= k} = p^-k (k + 1 - k/p), the closed form
        # over p^k, for every depth of one deep column.
        masses = monomial_zero_mass(X2 * Y2, 3, 100)
        assert masses == [closed_form_xy_ratio(3, k) / 3**k for k in range(101)]


@st.composite
def small_maps(draw):
    """(map, p, y, depth): n <= 3, m <= 2, unused axes, constant components,
    negative coefficients and coefficients divisible by p, any target."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(n, 2)))
    unused = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    exps = st.tuples(*[st.just(0) if a in unused else st.sampled_from([1, 2, 3, 0])
                       for a in range(n)])
    coeffs = st.builds(lambda c, v: c * p**v, st.integers(-9, 9), st.integers(0, 3))
    components = []
    for _ in range(m):
        poly = Polynomial.zero(n)
        for e, c in draw(st.lists(st.tuples(exps, coeffs), min_size=1, max_size=3)):
            poly = poly + Polynomial.monomial(n, e, c)
        components.append(poly)
    y = draw(st.lists(st.integers(-40, 40), min_size=m, max_size=m))
    # Down from one depth past the budget, where both engines must fail alike.
    k = enumerable_depth(p, n) + 1 - draw(st.integers(0, enumerable_depth(p, n) + 1))
    return PolyMap(components), p, y, k


def column_or_error(engine, *args):
    try:
        return engine(*args)
    except BudgetExceededError as err:
        return f"BudgetExceededError: {err}"


class TestLiftingMatchesEnumeration:
    @given(small_maps())
    @example((PolyMap([X2**2 * Y2 - 3 * X2, Polynomial.constant(2, 7)]), 3, [-2, 7], 5))
    @example((PolyMap([Polynomial.monomial(3, (2, 0, 0), 25),
                       Polynomial.monomial(3, (1, 1, 0), -1)]), 5, [0, -25], 2))
    def test_column_equals_the_oracle(self, case):
        pmap, p, y, k = case
        assert column_or_error(cylinder_mass, pmap, p, k, y, ENUMERATION_BUDGET) == \
            column_or_error(enumerated_cylinder_mass, pmap, p, k, y, ENUMERATION_BUDGET)


def spy_engines(monkeypatch):
    """Replace the three engines by counting wrappers; returns the call log."""
    calls = []
    for name in ("cylinder_mass", "monomial_zero_mass", "zero_fiber_mass_recursive"):
        def spy(*args, _real=getattr(padic, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(padic, name, spy)
    return calls


class TestOneEngineCallPerTable:
    @pytest.mark.parametrize("pmap,p,engine", [
        (PolyMap([3 * X2**2 * Y2**3]), 3, "monomial_zero_mass"),
        (PolyMap([X2**2 + Y2**2]), 2, "zero_fiber_mass_recursive"),
        (PolyMap([X2 * Y2, X2**2]), 2, "cylinder_mass"),
    ], ids=["valuation", "recursion", "enumeration"])
    def test_one_engine_call(self, monkeypatch, pmap, p, engine):
        calls = spy_engines(monkeypatch)
        table = ball_ratio_sequence(pmap, p, 4)
        assert len(table.masses) == 5
        assert calls == [engine]

    def test_verify_padic_xy_enumerates(self, monkeypatch, capsys):
        # The suite's "enumeration equals closed form" rows, one for each p,
        # read one depth-4 column of cylinder_mass each, and no table of the
        # suite comes from the recursion.
        columns = []

        def enumerate_column(pmap, p, k_max, y, *args, _real=padic.cylinder_mass):
            columns.append((p, k_max, list(y)))
            return _real(pmap, p, k_max, y, *args)

        def no_recursion(*args, **kwargs):
            raise AssertionError("the recursion served a padic-xy table")

        monkeypatch.setattr(padic, "cylinder_mass", enumerate_column)
        monkeypatch.setattr(padic, "zero_fiber_mass_recursive", no_recursion)
        assert main(["verify", "padic-xy"]) == 0
        out = capsys.readouterr().out
        assert all(f"PASS  padic-xy: enumeration equals closed form p={p} k<=4" in out
                   for p in (2, 3, 5))
        assert columns == [(2, 4, [0]), (3, 4, [0]), (5, 4, [0])]

    def test_recursion_over_budget_enumerates_the_whole_table(self, monkeypatch):
        pmap = PolyMap([X2**3 + Y2**3])
        expected = PadicMassTable(5, 1, tuple(cylinder_mass(pmap, 5, 4, [0])))
        monkeypatch.setattr(padic, "zero_fiber_mass_recursive",
                            partial(zero_fiber_mass_recursive, node_budget=0))
        with pytest.raises(BudgetExceededError):
            padic.zero_fiber_mass_recursive(pmap.components[0], 5, 4)
        calls = spy_engines(monkeypatch)
        assert ball_ratio_sequence(pmap, 5, 4) == expected
        assert calls == ["zero_fiber_mass_recursive", "cylinder_mass"]

    def test_node_budget_counts_what_each_depth_adds(self):
        # x^2 + y^2 at p = 2: each depth adds at most 2 nodes to the shared
        # memo, while depth 40 on its own (an empty memo) visits 40 nodes.
        poly = X2**2 + Y2**2
        with pytest.raises(BudgetExceededError):
            zero_fiber_mass_recursive(poly, 2, 40, node_budget=1)
        assert zero_fiber_mass_recursive(poly, 2, 40, node_budget=2) == \
            zero_fiber_mass_recursive(poly, 2, 40)


class TestMassTable:
    def test_monotone_masses_enforced(self):
        with pytest.raises(ValueError):
            PadicMassTable(p=3, m=1, masses=(F(1, 2), F(3, 4)))

    def test_ratio_zero_depth_is_total_mass(self):
        table = ball_ratio_sequence(XY, 5, 2)
        assert (table.masses[0], table.ratios[0]) == (F(1), F(1))

    def test_ratios_are_masses_times_the_haar_scale(self):
        table = ball_ratio_sequence(PolyMap([X2, Y2]), 2, 3)
        assert table.ratios == tuple(mass * 2 ** (2 * k) for k, mass in enumerate(table.masses))
        assert table.ratios is table.ratios  # derived once per table

    def test_serialization_round_trip(self):
        table = ball_ratio_sequence(SQUARE, 3, 3)
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

    def test_vanishing_mass(self):
        table = PadicMassTable(3, 1, (F(1), F(1, 3), F(0), F(0), F(0), F(0)))
        with pytest.raises(ValueError, match="^mass vanished at finite depth$"):
            fit_padic_lct(table)
        est = estimate_eps_padic(table)
        assert (est.infinite, est.value) == (False, 0.0)
        assert est.detail == "mass vanished at finite depth"

    def test_residuals_reported_on_ambiguity(self):
        est = estimate_eps_padic(ball_ratio_sequence(SQUARE, 3, 12))
        assert est.residual_exponential >= 0 and est.residual_polynomial >= 0


def test_is_prime():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]

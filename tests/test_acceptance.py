"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line when its assertions hold (run with
`pytest -v -s tests/test_acceptance.py` to see them); any assertion failure
fails the criterion.  The Monte Carlo criteria use the fixed seed below.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from esl import exponents, padic, polys, realnum
from esl.lct import lct_monomial, lct_principal_monomial
from esl.values import ExponentValue

from .oracles import convolution_power, histogram_uniform, sample_pushforward

SEED = 20250810
F = Fraction


def _report(line: str) -> None:
    print(line)


def product_power_map(n: int, m: int) -> polys.PolyMap:
    return polys.PolyMap([polys.Polynomial.monomial(n, (m,) * n)])


def stretch_map(d: int, m: int) -> polys.PolyMap:
    comps = []
    for j in range(m):
        exps = [0] * m
        exps[0] = d
        if j > 0:
            exps[j] += 1
        comps.append(polys.Polynomial.monomial(m, tuple(exps)))
    return polys.PolyMap(comps)


def test_criterion_01_howald_family_exact():
    start = time.perf_counter()
    for n, m in itertools.product(range(2, 6), range(2, 7)):
        ideal = polys.as_monomial_ideal(polys.jacobian_minors(product_power_map(n, m)))
        got = lct_monomial(ideal).value
        assert got == ExponentValue(F(n, n * m - 1)), (n, m, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(f"[C01] PASS howald-family: 20 exact gradient-ideal thresholds "
            f"equal n/(nm-1) ({elapsed:.2f}s)")


def test_criterion_02_sandwich_tightness_exact():
    for n, m in itertools.product(range(2, 6), range(2, 7)):
        lower = F(n, n * m - 1)                      # 1/(m - 1/n)
        true_eps = F(1, m - 1)
        upper = exponents.eps_upper_bound_complex(ExponentValue(lower))
        assert upper is not None
        got_lower = exponents.eps_lower_bound(
            exponents.ExactInvariants(product_power_map(n, m)).lct_jacobian).value
        assert got_lower == ExponentValue(lower)
        via_formula = exponents.eps_from_lct(lct_principal_monomial((m,) * n).value)
        assert via_formula == ExponentValue(true_eps)
        assert lower <= true_eps <= upper.fraction, (n, m)
    _report("[C02] PASS sandwich: lower 1/(m-1/n) <= 1/(m-1) <= upper 1/(m-1-1/n), "
            "exact for 2<=n<=5, 2<=m<=6")


def test_criterion_03_equidimensional_equality_exact():
    for d, m in itertools.product((2, 3), (2, 3)):
        got = exponents.eps_equidimensional(
            exponents.ExactInvariants(stretch_map(d, m)).lct_jacobian)
        assert got.value == ExponentValue(F(1, d * m - 1)), (d, m, got)
        k_upper = exponents.k_star_upper_from_eps(got.value)
        assert k_upper == d * m + 1, (d, m, k_upper)
    _report("[C03] PASS equidimensional: eps = 1/(dm-1) and k upper bound dm+1 "
            "for d,m in {2,3}")


def test_criterion_04_one_dimensional_real_numerics():
    x = polys.Polynomial.variable(1, 0)
    lines = []
    for d in (2, 3):
        start = time.perf_counter()
        cfg = realnum.SampleConfig.unit_box(seed=SEED, count=1_000_000, n=1)
        values = sample_pushforward(polys.PolyMap([x**d]), cfg)
        hist, magnitudes = realnum.histogram_log_abs(values, bins=200)
        fit = realnum.fit_tail_exponent(hist, realnum.auto_tail_window(hist, magnitudes))
        est = realnum.estimate_eps_star(fit)
        elapsed = time.perf_counter() - start
        assert abs(fit.lambda_hat - 1 / d) <= 0.05, (d, fit.lambda_hat)
        target = 1 / (d - 1)
        assert not est.infinite
        assert abs(est.value - target) <= 0.15 * target, (d, est.value)
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        lines.append(f"x^{d}: lambda={fit.lambda_hat:.3f}, eps={est.value:.3f} "
                     f"({elapsed:.1f}s)")
    _report(f"[C04] PASS one-dimensional numerics at N=10^6, seed {SEED}: "
            + "; ".join(lines))


def test_criterion_05_fourier_decay_consistency():
    x = polys.Polynomial.variable(1, 0)
    square = polys.PolyMap([x * x])
    cfg = realnum.SampleConfig.unit_box(seed=SEED, count=1_000_000, n=1)
    values = sample_pushforward(square, cfg)
    hist, magnitudes = realnum.histogram_log_abs(values, bins=200)
    fit = realnum.fit_tail_exponent(hist, realnum.auto_tail_window(hist, magnitudes))
    eps_hat = realnum.estimate_eps_star(fit).value
    decay = realnum.estimate_delta_star_1d(square, cfg, np.geomspace(10, 3000, 16))
    delta = decay.delta_hat
    assert 0.43 <= delta <= 0.57, delta
    discrepancy = abs(eps_hat - delta / (1 - delta))
    assert discrepancy <= 0.2 * eps_hat, (eps_hat, delta)
    _report(f"[C05] PASS fourier decay: delta={delta:.3f} in [0.43, 0.57], "
            f"|eps - d/(1-d)| = {discrepancy:.3f} <= {0.2 * eps_hat:.3f}")


def test_criterion_06_padic_xy_exact():
    xy = polys.PolyMap([
        polys.Polynomial.variable(2, 0) * polys.Polynomial.variable(2, 1)])
    timings = {}
    for p in (2, 3, 5):
        start = time.perf_counter()
        table = padic.PadicMassTable(p, 1, tuple(padic.cylinder_mass(xy, p, 4, [0])))
        for k, ratio in enumerate(table.ratios):
            assert ratio == padic.closed_form_xy_ratio(p, k), (p, k)
            assert ratio >= F((p - 1) ** 2, p**2) * (k + 1), (p, k)
        timings[p] = time.perf_counter() - start
    assert timings[5] < 30.0, f"runtime {timings[5]:.1f}s exceeds 30s"
    _report(f"[C06] PASS p-adic product map: enumerated ratios equal (k+1) - k/p "
            f"exactly for p in 2,3,5 and k <= 4 (p=5 took {timings[5]:.2f}s)")


def test_criterion_07_padic_lct_fits():
    x = polys.Polynomial.variable(1, 0)
    details = []
    for d in (2, 3):
        fit = padic.fit_padic_lct(padic.ball_ratio_sequence(polys.PolyMap([x**d]), 3, 12))
        assert not fit.sentinel_ge_one
        assert abs(fit.slope - 1 / d) <= 0.02, (d, fit.slope)
        details.append(f"x^{d}: {fit.slope:.4f}")
    xy_poly = polys.Polynomial.variable(2, 0) * polys.Polynomial.variable(2, 1)
    fit = padic.fit_padic_lct(padic.ball_ratio_sequence(polys.PolyMap([xy_poly]), 3, 12))
    assert fit.log_power == 1, fit
    assert abs(fit.slope - 1.0) <= 0.05, fit.slope
    details.append(f"xy: {fit.slope:.4f} with log power {fit.log_power}")
    _report("[C07] PASS p-adic fits via valuation counting: " + "; ".join(details))


def test_criterion_08_algebra_property_suite():
    grid50 = [F(i, 51) for i in range(1, 51)]
    for c in grid50:
        assert exponents.lct_from_eps(
            exponents.eps_from_lct(ExponentValue(c))).value == ExponentValue(c)
    eps_grid = [F(i, 7) + F(1, 13) for i in range(50)]
    for e in eps_grid:
        assert exponents.eps_from_delta(
            exponents.delta_from_eps(ExponentValue(e))) == ExponentValue(e)

    small = [F(i, 9) + F(1, 18) for i in range(9)]
    for a in small:
        for b in small:
            ab = exponents.young_combine(ExponentValue(a), ExponentValue(b))
            assert ab == exponents.young_combine(ExponentValue(b), ExponentValue(a))
        outs = [exponents.young_combine(ExponentValue(a2), ExponentValue(a))
                for a2 in sorted(small)]
        assert all(x <= y for x, y in zip(outs, outs[1:]))

    for e in [F(i, 21) for i in range(1, 21)]:
        assert exponents.reverse_young_self(
            exponents.young_combine(ExponentValue(e), ExponentValue(e))) \
            == ExponentValue(e)

    for c in grid50:
        bounds = exponents.k_star_bounds_from_lct(ExponentValue(c))
        upper = exponents.k_star_upper_from_eps(exponents.eps_from_lct(ExponentValue(c)))
        assert bounds.lower <= upper
        if (1 / c).denominator != 1:
            assert upper - bounds.lower <= 1
    _report("[C08] PASS algebra suite: exact round trips (50 pts each way), "
            "young commutativity/monotonicity, reverse-young identity (20 pts), "
            "convolution-power sandwich (50 pts)")


def test_criterion_09_lojasiewicz_chain():
    checked = 0
    x = polys.Polynomial.variable(1, 0)
    for d in range(2, 10):
        grad = lct_monomial(polys.as_monomial_ideal(
            polys.jacobian_minors(polys.PolyMap([x**d])))).value
        fiber = lct_principal_monomial((d,)).value
        assert exponents.consistency_chain_check(grad, fiber), d
        checked += 1
    for n in range(2, 5):
        for m in range(2, 7):
            grad = lct_monomial(polys.as_monomial_ideal(
                polys.jacobian_minors(product_power_map(n, m)))).value
            fiber = lct_principal_monomial((m,) * n).value
            assert exponents.consistency_chain_check(grad, fiber), (n, m)
            checked += 1
    _report(f"[C09] PASS consistency chain on {checked} corpus maps "
            "(powers and product powers, exact thresholds from both engines)")


def test_criterion_10_convolution_boundedness():
    x = polys.Polynomial.variable(1, 0)
    growths = {}
    for d in (2, 3):
        cfg = realnum.SampleConfig.unit_box(seed=SEED, count=1_000_000, n=1)
        values = sample_pushforward(polys.PolyMap([x**d]), cfg)
        sups = {}
        for bins in (512, 2048):
            hist = histogram_uniform(values, bins=bins, lo=-1.0, hi=1.0)
            sups[bins] = convolution_power(hist, 2).densities.max()
        growths[d] = sups[2048] / sups[512] - 1
    assert abs(growths[2]) < 0.05, growths
    assert growths[3] > 0.5, growths
    _report(f"[C10] PASS convolution boundedness: square-map growth "
            f"{growths[2]:+.1%} (<5%), cube-map growth {growths[3]:+.1%} (>50%)")

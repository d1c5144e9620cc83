"""Built-in verification suites for the command line.

Each suite runs a family of exact identities end to end through the public
engines and reports one row per check.  Suites are deterministic and fast
(no Monte Carlo); the statistical estimators are exercised by the test
suite and the `real` command instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exponents, padic, polys
from .lct import lct_principal_monomial
from .values import ExponentValue


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _product_power_map(n: int, m: int) -> polys.PolyMap:
    """The map (x_1 ... x_n)^m as a single-component polynomial map."""
    return polys.PolyMap([polys.Polynomial.monomial(n, (m,) * n)])


def _stretch_family_map(d: int, m: int) -> polys.PolyMap:
    """(x_1^d, x_1^d x_2, ..., x_1^d x_m): equidimensional with one fat direction."""
    comps = []
    for j in range(m):
        exps = [0] * m
        exps[0] = d
        if j > 0:
            exps[j] += 1
        comps.append(polys.Polynomial.monomial(m, tuple(exps)))
    return polys.PolyMap(comps)


def howald_family() -> list[CheckResult]:
    """Gradient-ideal thresholds and exponent sandwich for (x_1...x_n)^m."""
    rows = []
    for n in range(2, 6):
        for m in range(2, 7):
            inv = exponents.ExactInvariants(_product_power_map(n, m))
            got = inv.lct_jacobian.value
            expected = Fraction(n, n * m - 1)  # 1/(m - 1/n)
            ok = not got.is_infinite and got.fraction == expected
            rows.append(CheckResult(
                "howald-family", f"lct gradient ideal n={n} m={m}",
                ok, f"got {got}, expected {expected}"))

            lower = got.fraction
            upper = exponents.eps_upper_bound_complex(ExponentValue(lower))
            true_eps = inv.eps_exact  # the fiber formula, since n > m = 1
            sandwich = (
                upper is not None
                and not true_eps.is_infinite
                and lower <= true_eps.fraction <= upper.fraction
                and true_eps.fraction == Fraction(1, m - 1)
            )
            rows.append(CheckResult(
                "howald-family", f"sandwich n={n} m={m}",
                sandwich,
                f"lower {lower} <= true {true_eps} <= upper "
                f"{upper.fraction if upper else None}"))
    return rows


def one_dim() -> list[CheckResult]:
    """One-dimensional formula against the equidimensional engine, and the
    equidimensional family with its convolution bound."""
    rows = []
    for d in range(2, 10):
        x = polys.Polynomial.variable(1, 0)
        via_equidim = exponents.ExactInvariants(polys.PolyMap([x**d])).eps_exact
        via_formula = exponents.eps_from_lct(lct_principal_monomial((d,)).value)
        ok = via_equidim == via_formula == ExponentValue(Fraction(1, d - 1))
        rows.append(CheckResult(
            "one-dim", f"x^{d} both engines",
            ok, f"equidimensional {via_equidim}, formula {via_formula}"))
    for d in (2, 3):
        for m in (2, 3):
            eps = exponents.ExactInvariants(_stretch_family_map(d, m)).eps_exact
            k_up = exponents.k_star_upper_from_eps(eps)
            ok = eps == ExponentValue(Fraction(1, d * m - 1)) and k_up == d * m + 1
            rows.append(CheckResult(
                "one-dim", f"stretch family d={d} m={m}",
                ok, f"eps {eps} (expected 1/{d*m-1}), k upper {k_up} (expected {d*m+1})"))
    return rows


def padic_xy() -> list[CheckResult]:
    """Enumerated product-map masses against the closed form, plus depth fits."""
    rows = []
    xy = polys.PolyMap([
        polys.Polynomial.variable(2, 0) * polys.Polynomial.variable(2, 1)])
    for p in (2, 3, 5):
        table = padic.PadicMassTable(p, 1, tuple(padic.cylinder_mass(xy, p, 4, [0])))
        match = all(ratio == padic.closed_form_xy_ratio(p, k)
                    for k, ratio in enumerate(table.ratios))
        rows.append(CheckResult(
            "padic-xy", f"enumeration equals closed form p={p} k<=4",
            match, f"ratios {[str(r) for r in table.ratios]}"))
        bound = all(ratio >= Fraction((p - 1) ** 2, p**2) * (k + 1)
                    for k, ratio in enumerate(table.ratios))
        rows.append(CheckResult(
            "padic-xy", f"lower bound ((p-1)/p)^2 (k+1) holds p={p}",
            bound, "exact rational comparison"))
    x = polys.Polynomial.variable(1, 0)
    for d in (2, 3):
        fit = padic.fit_padic_lct(padic.ball_ratio_sequence(polys.PolyMap([x**d]), 3, 12))
        ok = fit.slope is not None and abs(fit.slope - 1 / d) <= 0.02
        rows.append(CheckResult(
            "padic-xy", f"valuation-counting fit x^{d} p=3 k<=12",
            ok, f"slope {fit.slope}, expected {1/d:.4f} +/- 0.02"))
    fit = padic.fit_padic_lct(padic.ball_ratio_sequence(xy, 3, 12))
    ok = fit.log_power == 1 and fit.slope is not None and abs(fit.slope - 1.0) <= 0.05
    rows.append(CheckResult(
        "padic-xy", "product map fit detects log factor",
        ok, f"slope {fit.slope}, log_power {fit.log_power}"))
    return rows


def young_algebra() -> list[CheckResult]:
    """Exact exponent algebra on rational grids."""
    rows = []
    grid50 = [Fraction(i, 51) for i in range(1, 51)]

    ok = all(
        exponents.lct_from_eps(exponents.eps_from_lct(ExponentValue(c))).value
        == ExponentValue(c)
        for c in grid50
    )
    rows.append(CheckResult("young-algebra", "lct -> eps -> lct round trip (50 points)",
                            ok, "exact rational equality"))

    eps_grid = [Fraction(i, 7) + Fraction(1, 13) for i in range(50)]
    ok = all(
        exponents.eps_from_delta(exponents.delta_from_eps(ExponentValue(e)))
        == ExponentValue(e)
        for e in eps_grid
    )
    rows.append(CheckResult("young-algebra", "eps -> delta -> eps round trip (50 points)",
                            ok, "exact rational equality"))

    small = [Fraction(i, 8) + Fraction(1, 16) for i in range(8)]
    commutative = all(
        exponents.young_combine(ExponentValue(a), ExponentValue(b))
        == exponents.young_combine(ExponentValue(b), ExponentValue(a))
        for a in small for b in small
    )
    rows.append(CheckResult("young-algebra", "young_combine commutative (8x8 grid)",
                            commutative, "exact"))

    monotone = True
    ordered = sorted(small)
    for b in small:
        outs = [exponents.young_combine(ExponentValue(a), ExponentValue(b)) for a in ordered]
        monotone &= all(x <= y for x, y in zip(outs, outs[1:]))
    rows.append(CheckResult("young-algebra", "young_combine monotone", monotone, "exact"))

    grid20 = [Fraction(i, 21) for i in range(1, 21)]
    ok = all(
        exponents.reverse_young_self(
            exponents.young_combine(ExponentValue(e), ExponentValue(e)))
        == ExponentValue(e)
        for e in grid20
    )
    rows.append(CheckResult("young-algebra",
                            "reverse_young_self inverts self-convolution (20 points)",
                            ok, "exact rational equality"))

    sandwich = True
    for c in grid50:
        bounds = exponents.k_star_bounds_from_lct(ExponentValue(c))
        upper = exponents.k_star_upper_from_eps(
            exponents.eps_from_lct(ExponentValue(c)))
        sandwich &= bounds.lower <= upper
        if (1 / c).denominator != 1:
            sandwich &= abs(upper - bounds.lower) <= 1
    rows.append(CheckResult("young-algebra", "convolution-power sandwich (50 points)",
                            sandwich, "exact integer comparisons"))
    return rows


def chain() -> list[CheckResult]:
    """Gradient-vs-function threshold consistency across the exact corpus."""
    x = polys.Polynomial.variable(1, 0)
    maps = [(f"x^{d}", polys.PolyMap([x**d])) for d in range(2, 10)]
    maps += [(f"(x1...x{n})^{m}", _product_power_map(n, m))
             for n in range(2, 5) for m in range(2, 7)]
    rows = []
    for name, pmap in maps:
        inv = exponents.ExactInvariants(pmap)
        lct_grad, lct_f = inv.lct_jacobian.value, inv.lct_fiber.value
        ok = exponents.consistency_chain_check(lct_grad, lct_f)
        rows.append(CheckResult("chain", name, ok, f"grad {lct_grad}, function {lct_f}"))
    return rows


SUITES = {
    "howald-family": howald_family,
    "one-dim": one_dim,
    "padic-xy": padic_xy,
    "young-algebra": young_algebra,
    "chain": chain,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    return SUITES[name]()

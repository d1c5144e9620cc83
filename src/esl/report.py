"""Report builders for the command-line surface.

All reports share the self-describing schema "esl-report/1".  Every numeric
field carries a provenance entry naming the operation that produced it, so
downstream consumers can audit which equality or bound was used.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from fractions import Fraction
from importlib import resources
from typing import Sequence

from . import exponents, padic, polys, realnum
from .lct import MonomialIdeal
from .mapspec import MapSpec
from .values import ExponentValue, FieldValidity

SCHEMA = "esl-report/1"


def report_schema() -> dict:
    """The published JSON schema every report validates against."""
    path = resources.files("esl").joinpath("schemas/report.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _field(value, provenance: str, **extra) -> dict:
    return {"value": value, "provenance": provenance, **extra}


def _map_echo(spec: MapSpec) -> dict:
    echo = {
        "n": spec.n,
        "m": spec.m,
        "components": _texts(spec.components, "a map component"),
    }
    if spec.point is not None:
        echo["point"] = [str(c) for c in spec.point]
    return echo


def _recentered(spec: MapSpec) -> polys.PolyMap:
    """The map shifted so that its base point (default: the origin) sits at 0."""
    point = spec.point if spec.point is not None else (Fraction(0),) * spec.n
    return polys.shift_to_origin(spec.poly_map(), point)


class DigitLimitError(ValueError):
    """A coefficient to print has more decimal digits than the interpreter's
    int-to-str conversion allows (sys.get_int_max_str_digits)."""


def _texts(polynomials: Sequence[polys.Polynomial], what: str) -> list[str]:
    try:
        return [str(p) for p in polynomials]
    except ValueError as err:  # the only error str raises on an int or a Fraction
        limit = sys.get_int_max_str_digits()
        raise DigitLimitError(f"{what} has a coefficient of more than {limit} digits, "
                              f"over the int-to-str digit limit {limit}") from err


_IDEAL_ERRORS = {  # error class -> (report name, guidance)
    polys.NotMonomialError: ("NotMonomial", "a maximal minor is not a single term; supply "
                             "log-resolution data (a_i, b_i) and use lct_from_resolution instead"),
    polys.NotLocallyDominantError: ("NotLocallyDominant", "all maximal minors vanish "
                                    "identically; the map is not locally dominant near this point"),
}


def exact_report(spec: MapSpec) -> dict:
    """Exact invariants of the map at its base point (default: origin).

    Serializes `exponents.ExactInvariants` of the recentered map: its
    Jacobian minors, their monomial ideal, the Jacobian and fiber thresholds
    and the exponent where it is exact.  The lower and upper bounds on the
    exponent when n > m, the convolution bracket and the decay exponent
    come from the functions their provenance names.
    """
    report: dict = {"schema": SCHEMA, "command": "exact", "map": _map_echo(spec), "notes": []}
    notes: list[str] = report["notes"]
    inv = exponents.ExactInvariants(_recentered(spec))
    report["jacobian_minors"] = _texts(inv.minors, "a recentered Jacobian minor")

    ideal = inv.ideal
    if not isinstance(ideal, MonomialIdeal):
        error, guidance = _IDEAL_ERRORS[type(ideal)]
        index = {"generator_index": ideal.index} if error == "NotMonomial" else {}
        report["monomial_ideal"] = {"error": error, **index, "guidance": guidance}
        return report
    report["monomial_ideal"] = {"n": ideal.n, "generators": [list(g) for g in ideal.generators]}

    lct_jac, lct_fiber, eps_exact = inv.lct_jacobian, inv.lct_fiber, inv.eps_exact
    report["lct_jacobian"] = _field(str(lct_jac.value), "lct_monomial",
                                    field_validity=lct_jac.validity.value)
    if lct_fiber is not None:
        report["lct_fiber"] = _field(str(lct_fiber.value), "lct_principal_monomial",
                                     field_validity=lct_fiber.validity.value)

    eps_section: dict = {}
    if spec.n == spec.m:
        eps_section["exact"] = _field(str(eps_exact), "eps_equidimensional",
                                      field_validity=lct_jac.validity.value)
        notes.append("equidimensional map: exponent equals the Jacobian-ideal threshold")
    elif eps_exact is not None:
        eps_section["exact"] = _field(str(eps_exact), "eps_from_lct",
                                      field_validity=lct_fiber.validity.value)
        notes.append("one-dimensional monomial target: exact formula lct/(1-lct) applies")

    eps_lower = None
    if spec.n > spec.m:
        eps_lower = exponents.eps_lower_bound(lct_jac).value
        eps_section["lower"] = _field(str(eps_lower), "eps_lower_bound",
                                      field_validity=lct_jac.validity.value)
        upper = exponents.eps_upper_bound_complex(lct_jac.value)
        if upper is not None:
            validity = (FieldValidity.ALL_LOCAL_FIELDS if spec.m == 1
                        else FieldValidity.COMPLEX_ONLY)
            eps_section["upper"] = _field(str(upper), "eps_upper_bound_complex",
                                          field_validity=validity.value)
        else:
            notes.append("Jacobian threshold >= 1: the upper-bound formula does not apply")
    report["eps"] = eps_section

    k_section: dict = {}
    # eps_exact is known whenever n = m, and eps_lower whenever n > m.
    best_eps = eps_exact if eps_exact is not None else eps_lower
    k_section["upper"] = _field(exponents.k_star_upper_from_eps(best_eps), "k_star_upper_from_eps")
    if lct_fiber is not None:
        bounds = exponents.k_star_bounds_from_lct(lct_fiber.value)
        k_section["bracket"] = _field([bounds.lower, bounds.upper], "k_star_bounds_from_lct",
                                      degenerate=bounds.degenerate)
    report["k_bounds"] = k_section

    if spec.m == 1 and eps_exact is not None:
        if eps_exact.is_infinite:
            delta = exponents.lct_from_eps(eps_exact)
            report["delta"] = _field(str(delta.value), "lct_from_eps", kind=delta.kind.value)
            notes.append("infinite exponent only pins the decay exponent down to >= 1")
        else:
            report["delta"] = _field(str(exponents.delta_from_eps(eps_exact)),
                                     "delta_from_eps", kind="exact")
    elif spec.m > 1:
        notes.append("decay exponent omitted: for higher-dimensional targets it depends "
                     "on the linear functional and is not determined by eps")
    return report


# tuple(float(t) for t in numpy.geomspace(10.0, 3000.0, 16)), written out so
# that importing this module does not load numpy.
DEFAULT_T_GRID = (
    10.0, 14.626533728893852, 21.39354889224695, 31.29134644531899,
    45.768393420496096, 66.94329500821696, 97.91483623609773, 143.21546547664022,
    209.47458362933102, 306.3887062800405, 448.14047465571656, 655.4741767834342,
    958.7315155141838, 1402.291884862172, 2051.0669551690708, 3000.0,
)


def _weighted_exact_eps(shifted: polys.PolyMap, weights: Sequence[int]) -> ExponentValue | None:
    """Exact exponent under the density prod |z_i|^{b_i}, known only for a
    single-term map c*z^a: the monomial local model on the axes with a_i > 0."""
    comp = shifted.components[0]
    if not comp.is_single_term:
        return None
    [(exps, _)] = comp.terms()
    axes = [i for i, a in enumerate(exps) if a > 0]
    model = exponents.MonomialLocalModel(tuple(exps[i] for i in axes),
                                         tuple(weights[i] for i in axes))
    return exponents.eps_monomial_model(model).value


def real_report(spec: MapSpec, samples: int, seed: int, bins: int,
                density_weights: Sequence[int] | None = None) -> tuple[dict, realnum.Histogram]:
    """Monte Carlo report over the reals, with exact-vs-empirical comparison."""
    if spec.m != 1:
        raise ValueError("real-field estimation requires a one-dimensional target")
    report: dict = {"schema": SCHEMA, "command": "real", "map": _map_echo(spec), "notes": []}

    shifted = _recentered(spec)
    cfg = realnum.SampleConfig.unit_box(
        seed=seed, count=samples, n=spec.n,
        density_weights=tuple(density_weights) if density_weights else None)
    report["sample_config"] = {
        "seed": seed, "count": samples,
        "box": [[str(lo), str(hi)] for lo, hi in cfg.box],
        "density_weights": list(cfg.density_weights) if cfg.density_weights else None,
    }

    # One pass evaluates the draw and the antithetic mirror of its first half.
    images = realnum.evaluate_array(shifted, realnum.sample_source(cfg),
                                    mirror=max(samples // 2, 1))[:, 0]
    hist, magnitudes = realnum.histogram_log_abs(images[:samples], bins=bins)
    window = realnum.auto_tail_window(hist, magnitudes)
    del magnitudes  # 8 bytes a sample that the Fourier estimate need not carry
    fit = realnum.fit_tail_exponent(hist, window)
    report["tail_fit"] = dict(asdict(fit), provenance="fit_tail_exponent",
                              window_bins=list(window))

    eps_est = realnum.estimate_eps_star(fit)
    report["eps_estimate"] = dict(asdict(eps_est), provenance="estimate_eps_star")

    decay = realnum.estimate_delta_star_1d(shifted, cfg, DEFAULT_T_GRID, drawn=images)
    report["delta_estimate"] = dict(asdict(decay), provenance="estimate_delta_star_1d")

    if any(cfg.density_weights or ()):
        exact_eps = _weighted_exact_eps(shifted, cfg.density_weights)
    else:
        exact_eps = exponents.ExactInvariants(shifted).eps_exact
    comparison: dict = {}
    if exact_eps is not None:
        comparison["exact_eps"] = str(exact_eps)
        if exact_eps.is_infinite or eps_est.infinite:
            passed = exact_eps.is_infinite and eps_est.infinite
        else:
            target = float(exact_eps.fraction)
            passed = abs(eps_est.value - target) <= 0.15 * target
        comparison["eps_within_15_percent"] = bool(passed)
        comparison["verdict"] = "PASS" if passed else "FAIL"
    else:
        comparison["verdict"] = "NO-EXACT-VALUE"
    report["comparison"] = comparison
    return report, hist


def padic_report(spec: MapSpec, p: int, k_max: int,
                 cell_budget: int | None = None) -> tuple[dict, padic.PadicMassTable]:
    """Exact p-adic mass table and exponent fits around the origin."""
    report: dict = {"schema": SCHEMA, "command": "padic", "map": _map_echo(spec), "notes": []}
    if spec.point is not None and any(c.denominator != 1 for c in spec.point):
        raise ValueError("p-adic analysis needs an integral base point")
    shifted = _recentered(spec)

    table = padic.ball_ratio_sequence(shifted, p, k_max, cell_budget)
    report["mass_table"] = dict(table.to_json_dict(), provenance="ball_ratio_sequence")

    if spec.m == 1:
        if k_max >= 4:
            fit = padic.fit_padic_lct(table)
            report["lct_fit"] = dict(asdict(fit), provenance="fit_padic_lct")
        est = padic.estimate_eps_padic(table)
        report["eps_estimate"] = dict(asdict(est), provenance="estimate_eps_padic")
        if est.infinite and est.detail == "polynomial ratio growth":
            report["notes"].append("log-explosion detected: density grows like a power "
                                   "of the depth, so the exponent is infinite but the "
                                   "density is unbounded")
    return report, table

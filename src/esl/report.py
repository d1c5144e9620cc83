"""Report builders for the command-line surface.

All reports share the self-describing schema "esl-report/1".  Every numeric
field carries a provenance entry naming the operation that produced it, so
downstream consumers can audit which equality or bound was used.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from importlib import resources
from typing import Sequence

import numpy as np

from . import exponents, padic, polys, realnum
from .lct import lct_monomial, lct_principal_monomial
from .mapspec import MapSpec
from .values import ExponentValue, FieldValidity

SCHEMA = "esl-report/1"


def report_schema() -> dict:
    """The published JSON schema every report validates against."""
    path = resources.files("esl").joinpath("schemas/report.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _ev(value: ExponentValue) -> str:
    return str(value)


def _field(value, provenance: str, **extra) -> dict:
    entry = {"value": value, "provenance": provenance}
    entry.update(extra)
    return entry


def _map_echo(spec: MapSpec) -> dict:
    echo = {
        "n": spec.n,
        "m": spec.m,
        "components": [str(c) for c in spec.components],
    }
    if spec.point is not None:
        echo["point"] = [str(c) for c in spec.point]
    return echo


def exact_report(spec: MapSpec) -> dict:
    """Exact invariants of the map at its base point (default: origin).

    Pipeline: recenter, take maximal minors of the differential, read them
    as a monomial ideal, compute the Jacobian-ideal threshold, and derive
    the integrability exponent (exact in the equidimensional and monomial
    one-dimensional cases, two-sided bounds otherwise), the convolution
    bracket, and the Fourier-decay exponent.
    """
    report: dict = {"schema": SCHEMA, "command": "exact", "map": _map_echo(spec), "notes": []}
    notes: list[str] = report["notes"]

    pmap = spec.poly_map()
    point = spec.point if spec.point is not None else tuple(Fraction(0) for _ in range(spec.n))
    shifted = polys.shift_to_origin(pmap, point)
    minors = polys.jacobian_minors(shifted)
    report["jacobian_minors"] = [str(p) for p in minors]

    try:
        ideal = polys.as_monomial_ideal(minors)
    except polys.NotMonomialError as err:
        report["monomial_ideal"] = {
            "error": "NotMonomial",
            "generator_index": err.index,
            "guidance": "a maximal minor is not a single term; supply log-resolution "
                        "data (a_i, b_i) and use lct_from_resolution instead",
        }
        return report
    except polys.NotLocallyDominantError:
        report["monomial_ideal"] = {
            "error": "NotLocallyDominant",
            "guidance": "all maximal minors vanish identically; the map is not "
                        "locally dominant near this point",
        }
        return report

    report["monomial_ideal"] = {"n": ideal.n, "generators": [list(g) for g in ideal.generators]}

    lct_jac = lct_monomial(ideal)
    report["lct_jacobian"] = _field(_ev(lct_jac.value), "lct_monomial",
                                    field_validity=lct_jac.validity.value)

    # Fiber threshold drives the exact one-dimensional formula.
    lct_fiber = None
    if spec.m == 1 and shifted.components[0].is_single_term and not shifted.components[0].is_zero:
        [(exps, _)] = shifted.components[0].terms()
        if any(e > 0 for e in exps):
            lct_fiber = lct_principal_monomial(exps)
            report["lct_fiber"] = _field(_ev(lct_fiber.value), "lct_principal_monomial",
                                         field_validity=lct_fiber.validity.value)

    eps_section: dict = {}
    eps_exact: ExponentValue | None = None
    eps_lower: ExponentValue | None = None
    if spec.n == spec.m:
        eps_exact = lct_jac.value
        eps_section["exact"] = _field(_ev(eps_exact), "eps_equidimensional",
                                      field_validity=lct_jac.validity.value)
        notes.append("equidimensional map: exponent equals the Jacobian-ideal threshold")
    elif lct_fiber is not None:
        eps_exact = exponents.eps_from_lct(lct_fiber.value)
        eps_section["exact"] = _field(_ev(eps_exact), "eps_from_lct",
                                      field_validity=lct_fiber.validity.value)
        notes.append("one-dimensional monomial target: exact formula lct/(1-lct) applies")

    if spec.n > spec.m:
        eps_lower = lct_jac.value
        eps_section["lower"] = _field(_ev(eps_lower), "eps_lower_bound",
                                      field_validity=lct_jac.validity.value)
        upper = exponents.eps_upper_bound_complex(lct_jac.value)
        if upper is not None:
            validity = (FieldValidity.ALL_LOCAL_FIELDS if spec.m == 1
                        else FieldValidity.COMPLEX_ONLY)
            eps_section["upper"] = _field(_ev(upper), "eps_upper_bound_complex",
                                          field_validity=validity.value)
        else:
            notes.append("Jacobian threshold >= 1: the upper-bound formula does not apply")
    report["eps"] = eps_section

    k_section: dict = {}
    best_eps = eps_exact if eps_exact is not None else eps_lower
    if best_eps is not None:
        k_section["upper"] = _field(exponents.k_star_upper_from_eps(best_eps),
                                    "k_star_upper_from_eps")
    if lct_fiber is not None:
        bounds = exponents.k_star_bounds_from_lct(lct_fiber.value)
        k_section["bracket"] = _field([bounds.lower, bounds.upper], "k_star_bounds_from_lct",
                                      degenerate=bounds.degenerate)
    report["k_bounds"] = k_section

    if spec.m == 1 and eps_exact is not None:
        if eps_exact.is_infinite:
            report["delta"] = _field("1", "lct_from_eps", kind="lower")
            notes.append("infinite exponent only pins the decay exponent down to >= 1")
        else:
            report["delta"] = _field(_ev(exponents.delta_from_eps(eps_exact)),
                                     "delta_from_eps", kind="exact")
    elif spec.m > 1:
        notes.append("decay exponent omitted: for higher-dimensional targets it depends "
                     "on the linear functional and is not determined by eps")
    return report


DEFAULT_T_GRID = tuple(float(t) for t in np.geomspace(10.0, 3000.0, 16))


def _weighted_exact_eps(shifted: polys.PolyMap, weights: Sequence[int]) -> str | None:
    """Exact exponent under the density prod |z_i|^{b_i}, known only for a
    single-term map c*z^a: the monomial local model on the axes with a_i > 0."""
    comp = shifted.components[0]
    if not comp.is_single_term:
        return None
    [(exps, _)] = comp.terms()
    axes = [i for i, a in enumerate(exps) if a > 0]
    model = exponents.MonomialLocalModel(tuple(exps[i] for i in axes),
                                         tuple(weights[i] for i in axes))
    return _ev(exponents.eps_monomial_model(model).value)


def real_report(spec: MapSpec, samples: int, seed: int, bins: int,
                workers: int = 1, t_grid: Sequence[float] = DEFAULT_T_GRID,
                density_weights: Sequence[int] | None = None) -> tuple[dict, realnum.Histogram]:
    """Monte Carlo report over the reals, with exact-vs-empirical comparison."""
    if spec.m != 1:
        raise ValueError("real-field estimation requires a one-dimensional target")
    report: dict = {"schema": SCHEMA, "command": "real", "map": _map_echo(spec), "notes": []}

    pmap = spec.poly_map()
    point = spec.point if spec.point is not None else tuple(Fraction(0) for _ in range(spec.n))
    shifted = polys.shift_to_origin(pmap, point)
    cfg = realnum.SampleConfig.unit_box(
        seed=seed, count=samples, n=spec.n,
        density_weights=tuple(density_weights) if density_weights else None)
    report["sample_config"] = {
        "seed": seed, "count": samples,
        "box": [[str(lo), str(hi)] for lo, hi in cfg.box],
        "density_weights": list(cfg.density_weights) if cfg.density_weights else None,
    }

    values = realnum.sample_pushforward(shifted, cfg, workers=workers)
    hist = realnum.histogram_log_abs(values, bins=bins)
    window = realnum.auto_tail_window(hist, values)
    fit = realnum.fit_tail_exponent(hist, window)
    report["tail_fit"] = dict(asdict(fit), provenance="fit_tail_exponent",
                              window_bins=list(window))

    eps_est = realnum.estimate_eps_star(fit)
    report["eps_estimate"] = dict(asdict(eps_est), provenance="estimate_eps_star")

    decay = realnum.estimate_delta_star_1d(shifted, cfg, t_grid, workers=workers)
    report["delta_estimate"] = dict(asdict(decay), provenance="estimate_delta_star_1d")

    if any(cfg.density_weights or ()):
        exact_eps = _weighted_exact_eps(shifted, cfg.density_weights)
    else:
        exact_eps = exact_report(spec).get("eps", {}).get("exact", {}).get("value")
    comparison: dict = {}
    if exact_eps is not None:
        comparison["exact_eps"] = exact_eps
        if exact_eps == "inf":
            passed = eps_est.infinite
        elif eps_est.infinite:
            passed = False
        else:
            target = Fraction(exact_eps)
            passed = abs(eps_est.value - float(target)) <= 0.15 * float(target)
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
    pmap = spec.poly_map()
    point = spec.point if spec.point is not None else tuple(Fraction(0) for _ in range(spec.n))
    if any(c.denominator != 1 for c in point):
        raise ValueError("p-adic analysis needs an integral base point")
    shifted = polys.shift_to_origin(pmap, point)

    table = padic.ball_ratio_sequence(shifted, p, k_max, 0, cell_budget)
    report["mass_table"] = dict(table.to_json_dict(), provenance="ball_ratio_sequence")

    if spec.m == 1:
        if k_max >= 4:
            fit = padic.fit_padic_lct(table)
            report["lct_fit"] = dict(
                slope=fit.slope, log_power=fit.log_power,
                sentinel_ge_one=fit.sentinel_ge_one,
                residuals={str(k): v for k, v in fit.residuals.items()},
                provenance="fit_padic_lct")
        est = padic.estimate_eps_padic(table)
        report["eps_estimate"] = dict(asdict(est), provenance="estimate_eps_padic")
        if est.infinite and est.detail == "polynomial ratio growth":
            report["notes"].append("log-explosion detected: density grows like a power "
                                   "of the depth, so the exponent is infinite but the "
                                   "density is unbounded")
    return report, table

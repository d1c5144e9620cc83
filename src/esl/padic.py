"""Exact p-adic pushforward masses by cylinder counting.

Masses of residue cylinders {x : phi(x) = y mod p^k} are exact rationals
count/p^(nk).  Three engines compute them:

* direct enumeration of (Z/p^k)^n, unconditionally correct, budget-guarded;
* valuation combinatorics for monomial maps (the valuation of c*prod x_i^{a_i}
  is val(c) + sum a_i v_i with independent geometric-like valuations v_i);
* a Hensel-style recursive lift counter for zero-fibers of general
  integer-coefficient polynomials, efficient when the singular locus is
  small (diagonal sums and the like).

ball_ratio_sequence is the one place that runs the engines over all depths;
the depth fits (fit_padic_lct, estimate_eps_padic) both read the table it
returns, so a report computes each mass once.

Conventions: |p|_p = 1/p, the Haar measure of Z_p is 1, and only Q_p itself
(prime residue fields) is supported.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .polys import Polynomial, PolyMap, substitute_affine

DEFAULT_CELL_BUDGET = 10_000_000
RECURSION_NODE_BUDGET = 50_000
CELL_BUDGET_ENV = "ESL_CELL_BUDGET"


class BudgetExceededError(RuntimeError):
    """The requested computation exceeds the configured cell budget."""


class NonIntegralCoefficientsError(ValueError):
    """Cylinder counting requires integer coefficients."""


def default_cell_budget() -> int:
    raw = os.environ.get(CELL_BUDGET_ENV)
    if raw:
        return int(raw)
    return DEFAULT_CELL_BUDGET


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class PadicMassTable:
    """Exact ball masses around a target point, by depth.

    ratio(k) = mass(k) * p^(mk) compares the ball mass with the Haar mass of
    its target ball; bounded ratios mean bounded density.
    """

    p: int
    m: int
    rows: tuple[tuple[int, Fraction, Fraction], ...]

    def __post_init__(self):
        masses = [mass for _, mass, _ in self.rows]
        if any(not 0 <= mass <= 1 for mass in masses):
            raise ValueError("masses must lie in [0, 1]")
        if any(a < b for a, b in zip(masses, masses[1:])):
            raise ValueError("masses must be weakly decreasing in depth")

    def masses(self) -> list[Fraction]:
        return [mass for _, mass, _ in self.rows]

    def ratios(self) -> list[Fraction]:
        return [ratio for _, _, ratio in self.rows]

    def to_csv_rows(self) -> list[tuple[int, int, int, int, int]]:
        return [
            (k, mass.numerator, mass.denominator, ratio.numerator, ratio.denominator)
            for k, mass, ratio in self.rows
        ]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "target_dim": self.m,
            "rows": [
                {"k": k, "mass": f"{mass}", "ratio": f"{ratio}"}
                for k, mass, ratio in self.rows
            ],
        }


def _integer_coefficient_terms(poly: Polynomial) -> list[tuple[tuple[int, ...], int]]:
    terms = []
    for exps, coeff in poly.terms():
        if coeff.denominator != 1:
            raise NonIntegralCoefficientsError(f"coefficient {coeff} is not an integer")
        terms.append((exps, coeff.numerator))
    return terms


# ---------------------------------------------------------------------------
# enumeration engine
# ---------------------------------------------------------------------------


def solution_counts(pmap: PolyMap, p: int, k: int, cell_budget: int | None = None) -> np.ndarray:
    """Counts of {x in (Z/p^k)^n : phi(x) = y} for every y in (Z/p^k)^m.

    Returns a flat array indexed by y_1 * M^(m-1) + ... + y_m with M = p^k.
    Exact integer counts; the p^(nk) cells must fit the budget.
    """
    _require_prime(p)
    if k < 0:
        raise ValueError("depth must be >= 0")
    budget = cell_budget if cell_budget is not None else default_cell_budget()
    M = p**k
    cells = M**pmap.n
    if cells > budget:
        raise BudgetExceededError(f"{cells} cells exceed the budget {budget}")
    if M**pmap.m > budget:
        raise BudgetExceededError("target residue space exceeds the budget")
    if M > 2**31:
        raise BudgetExceededError("modulus too large for vectorized enumeration")

    component_terms = [_integer_coefficient_terms(comp) for comp in pmap.components]
    n = pmap.n
    shape = (M,) * n
    axis_res = [np.arange(M, dtype=np.int64).reshape(
        tuple(M if j == i else 1 for j in range(n))) for i in range(n)]

    def eval_component(terms) -> np.ndarray:
        total = np.zeros(shape, dtype=np.int64)
        for exps, coeff in terms:
            contrib = np.full(shape, coeff % M, dtype=np.int64)
            for axis, e in enumerate(exps):
                if e:
                    table = np.array([pow(r, e, M) for r in range(M)], dtype=np.int64)
                    contrib = (contrib * table[axis_res[axis] % M]) % M
            total = (total + contrib) % M
        return total

    flat_index = np.zeros(shape, dtype=np.int64)
    for terms in component_terms:
        flat_index = flat_index * M + eval_component(terms)
    counts = np.bincount(flat_index.ravel(), minlength=M**pmap.m)
    return counts


def cylinder_mass(pmap: PolyMap, p: int, k: int, y: Sequence[int] | int,
                  cell_budget: int | None = None) -> Fraction:
    """Exact mass of the cylinder {x in Z_p^n : phi(x) = y mod p^k}."""
    if isinstance(y, int):
        y = [y]
    y = [int(v) for v in y]
    if len(y) != pmap.m:
        raise ValueError(f"target point has dimension {len(y)}, expected {pmap.m}")
    M = p**k
    counts = solution_counts(pmap, p, k, cell_budget)
    index = 0
    for v in y:
        index = index * M + (v % M)
    return Fraction(int(counts[index]), M**pmap.n)


# ---------------------------------------------------------------------------
# valuation combinatorics for monomial maps
# ---------------------------------------------------------------------------


def _val_p(value: int, p: int, cap: int) -> int:
    if value == 0:
        return cap
    v = 0
    value = abs(value)
    while value % p == 0 and v < cap:
        value //= p
        v += 1
    return v


def monomial_zero_mass(poly: Polynomial, p: int, k: int) -> Fraction:
    """Mass of {val(c * prod x_i^{a_i}) >= k} by convolving valuation laws.

    Each uniform x in Z_p has P(val = j) = (1 - 1/p) p^-j; the monomial's
    valuation is val(c) + sum a_i val(x_i).  Sums are capped at k.
    """
    _require_prime(p)
    if k == 0:
        return Fraction(1)
    if not poly.is_single_term:
        raise ValueError("valuation path requires a single-term polynomial")
    [(exps, coeff)] = poly.terms()
    if coeff.denominator != 1:
        raise NonIntegralCoefficientsError(f"coefficient {coeff} is not an integer")
    start = min(_val_p(coeff.numerator, p, k), k)
    dist: dict[int, Fraction] = {start: Fraction(1)}
    for a in exps:
        if a == 0:
            continue
        new: dict[int, Fraction] = {}
        for s, prob in dist.items():
            if s >= k:
                new[k] = new.get(k, Fraction(0)) + prob
                continue
            j_cap = -((s - k) // a)  # smallest j with s + a*j >= k
            for j in range(j_cap):
                weight = Fraction(p - 1, p ** (j + 1))
                key = s + a * j
                new[key] = new.get(key, Fraction(0)) + prob * weight
            new[k] = new.get(k, Fraction(0)) + prob * Fraction(1, p**j_cap)
        dist = new
    return dist.get(k, Fraction(0))


# ---------------------------------------------------------------------------
# recursive lift counting for zero fibers
# ---------------------------------------------------------------------------


def _reduce_terms_mod(terms: dict[tuple[int, ...], int], modulus: int) -> tuple:
    reduced = {}
    for exps, coeff in terms.items():
        c = coeff % modulus
        if c:
            reduced[exps] = c
    return tuple(sorted(reduced.items()))


def _eval_terms_mod_p(terms, point, p):
    total = 0
    for exps, coeff in terms:
        value = coeff
        for axis, e in enumerate(exps):
            if e:
                value = value * pow(point[axis], e, p)
        total += value
    return total % p


def _gradient_unit_mod_p(terms, point, p, n) -> bool:
    """True when some partial derivative of f is a unit at the point mod p."""
    for axis in range(n):
        total = 0
        for exps, coeff in terms:
            e = exps[axis]
            if e == 0:
                continue
            value = coeff * e
            for ax2, e2 in enumerate(exps):
                power = e2 - 1 if ax2 == axis else e2
                if power:
                    value = value * pow(point[ax2], power, p)
            total += value
        if total % p != 0:
            return True
    return False


def zero_fiber_mass_recursive(poly: Polynomial, p: int, k: int,
                              node_budget: int = RECURSION_NODE_BUDGET) -> Fraction:
    """Mass of {x in Z_p^n : f(x) = 0 mod p^k} by recursive residue lifting.

    Solutions mod p^k reduce mod p to roots of f; around each root r the
    substitution f(r + p z) has coefficient content p^e with e >= 1, so the
    branch contributes p^(n(e-1)) times the count for f(r+pz)/p^e at depth
    k - e.  Memoized on the reduced polynomial; a node budget guards against
    wide branching (use enumeration or the valuation path there).
    """
    _require_prime(p)
    n = poly.n
    base_terms = {exps: c for exps, c in _integer_coefficient_terms(poly)}
    memo: dict[tuple, int] = {}
    nodes = 0

    def count(terms: dict, depth: int) -> int:
        nonlocal nodes
        if depth == 0:
            return 1
        modulus = p**depth
        key = (_reduce_terms_mod(terms, modulus), depth)
        if key in memo:
            return memo[key]
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError("recursion budget exhausted; branching too wide")
        reduced = key[0]
        if not reduced:
            result = p ** (n * depth)
            memo[key] = result
            return result
        total = 0
        for r in iter_product(range(p), repeat=n):
            if _eval_terms_mod_p(reduced, r, p) != 0:
                continue
            if _gradient_unit_mod_p(reduced, r, p, n):
                # Smooth point: each residue class lifts to exactly
                # p^((n-1)(depth-1)) solutions (implicit-coordinate count).
                total += p ** ((n - 1) * (depth - 1))
                continue
            shifted = substitute_affine(dict(reduced), r, (p,) * n)
            if not shifted:
                total += p ** (n * (depth - 1))
                continue
            content = min(_val_p(c, p, depth) for c in shifted.values())
            content = max(content, 1)
            if content >= depth:
                total += p ** (n * (depth - 1))
                continue
            divided = {exps: c // p**content for exps, c in shifted.items()}
            total += p ** (n * (content - 1)) * count(divided, depth - content)
        memo[key] = total
        return total

    return Fraction(count(base_terms, k), p ** (n * k))


# ---------------------------------------------------------------------------
# dispatch and mass tables
# ---------------------------------------------------------------------------


def zero_fiber_mass(poly: Polynomial, p: int, k: int, cell_budget: int | None = None,
                    method: str = "auto") -> Fraction:
    """Mass of {f = 0 mod p^k}, choosing the cheapest exact engine."""
    if method not in ("auto", "valuation", "recursion", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    if k == 0:
        return Fraction(1)
    if method == "valuation" or (method == "auto" and poly.is_single_term):
        return monomial_zero_mass(poly, p, k)
    if method in ("auto", "recursion"):
        try:
            return zero_fiber_mass_recursive(poly, p, k)
        except BudgetExceededError:
            if method == "recursion":
                raise
    return cylinder_mass(PolyMap([poly]), p, k, [0], cell_budget)


def ball_ratio_sequence(pmap: PolyMap, p: int, k_max: int, y: Sequence[int] | int = 0,
                        cell_budget: int | None = None, method: str = "auto") -> PadicMassTable:
    """Exact masses and density ratios of shrinking balls around y.

    ratio(k) = mass(k) * p^(mk); a bounded sequence certifies bounded
    density at y, polynomial growth in k certifies an infinite
    integrability exponent with logarithmic blow-up.
    """
    if isinstance(y, int):
        y = [y] * pmap.m
    y = [int(v) for v in y]
    zero_target = all(v == 0 for v in y)
    rows = []
    for k in range(k_max + 1):
        if pmap.m == 1 and zero_target and method != "enumerate":
            mass = zero_fiber_mass(pmap.components[0], p, k, cell_budget, method=method)
        else:
            mass = cylinder_mass(pmap, p, k, y, cell_budget)
        ratio = mass * Fraction(p) ** (pmap.m * k)
        rows.append((k, mass, ratio))
    return PadicMassTable(p=p, m=pmap.m, rows=tuple(rows))


def closed_form_xy_ratio(p: int, k: int) -> Fraction:
    """Density ratio of the product map x*y at 0, in closed form: (k+1) - k/p.

    Obtained by summing the geometric series over valuations val(x) + val(y)
    >= k; grows linearly in the depth, witnessing logarithmic explosion of
    the pushforward density.
    """
    _require_prime(p)
    if k < 0:
        raise ValueError("depth must be >= 0")
    return Fraction(k + 1) - Fraction(k, p)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicLctFit:
    """Fitted threshold from ball masses: mass ~ p^(-c k) k^log_power."""

    slope: float | None
    log_power: int
    sentinel_ge_one: bool
    residuals: dict[int, float]


@dataclass(frozen=True)
class PadicEpsEstimate:
    infinite: bool
    value: float | None
    threshold: float | None
    residual_exponential: float
    residual_polynomial: float
    ambiguous: bool
    detail: str


def _fit_depth_model(depths: np.ndarray, logs: np.ndarray, log_p_of_k: np.ndarray,
                     powers: Sequence[int]) -> tuple[float, int, dict[int, float]]:
    """Least squares of logs ~ alpha - c*depth + m*log_p(depth), m fixed per model."""
    residuals: dict[int, float] = {}
    best: tuple[float, int, float] | None = None
    design = np.column_stack([np.ones_like(depths), -depths])
    for m in powers:
        target = logs - m * log_p_of_k
        coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        fitted = design @ coeffs
        ssr = float(np.sum((target - fitted) ** 2))
        residuals[m] = ssr
        if best is None or ssr < best[0]:
            best = (ssr, m, float(coeffs[1]))
    _, m, slope = best
    return slope, m, residuals


def _one_dim_depth(table: PadicMassTable) -> int:
    if table.m != 1:
        raise ValueError("depth fits are implemented for one-dimensional targets")
    return len(table.rows) - 1


def fit_padic_lct(table: PadicMassTable) -> PadicLctFit:
    """Fit the threshold exponent from the exact masses of {val(f) >= k}.

    Reads the table that ball_ratio_sequence built around 0, the same table
    estimate_eps_padic reads.  Masses identically proportional to p^-k
    (constant ratio) mean the fiber is smooth-like and only 'threshold >= 1'
    can be asserted; that case is returned as a sentinel.  Otherwise the
    slope of log_p mass against -k over the deep half k in [k_max/2, k_max]
    is reported together with the log-power in {0, 1, 2} minimizing the
    residual.
    """
    k_max = _one_dim_depth(table)
    if k_max < 4:
        raise ValueError("need k_max >= 4 to fit")
    p, masses = table.p, table.masses()
    if len(set(table.ratios()[1:])) == 1:
        return PadicLctFit(slope=None, log_power=0, sentinel_ge_one=True, residuals={})

    k_lo = max(1, math.ceil(k_max / 2))
    depths = np.arange(k_lo, k_max + 1, dtype=float)
    logs = np.array([
        (math.log(masses[k].numerator) - math.log(masses[k].denominator)) / math.log(p)
        for k in range(k_lo, k_max + 1)
    ])
    log_p_of_k = np.log(depths) / math.log(p)
    slope, m, residuals = _fit_depth_model(depths, logs, log_p_of_k, powers=(0, 1, 2))
    return PadicLctFit(slope=slope, log_power=m, sentinel_ge_one=False, residuals=residuals)


def estimate_eps_padic(table: PadicMassTable) -> PadicEpsEstimate:
    """Classify the integrability exponent from ball-ratio growth.

    Reads the table that ball_ratio_sequence built around the target point,
    the same table fit_padic_lct reads.  Constant or polynomially growing
    ratios mean an infinite exponent; geometric growth p^((1-c)k) identifies
    the threshold c and the exponent c/(1-c).  Both growth hypotheses are
    fitted and their residuals reported; close residuals are flagged
    ambiguous.
    """
    k_max = _one_dim_depth(table)
    p, ratios = table.p, table.ratios()
    if len(set(ratios)) == 1:
        return PadicEpsEstimate(
            infinite=True, value=None, threshold=None,
            residual_exponential=0.0, residual_polynomial=0.0,
            ambiguous=False, detail="constant ratio",
        )

    k_lo = max(1, math.ceil(k_max / 2))
    depths = np.arange(k_lo, k_max + 1, dtype=float)
    logs = np.array([
        (math.log(ratios[k].numerator) - math.log(ratios[k].denominator)) / math.log(p)
        if ratios[k] > 0 else float("-inf")
        for k in range(k_lo, k_max + 1)
    ])
    if not np.all(np.isfinite(logs)):
        return PadicEpsEstimate(
            infinite=False, value=0.0, threshold=0.0,
            residual_exponential=float("nan"), residual_polynomial=float("nan"),
            ambiguous=False, detail="mass vanished at finite depth",
        )

    lin_design = np.column_stack([np.ones_like(depths), depths])
    lin_coeffs, _, _, _ = np.linalg.lstsq(lin_design, logs, rcond=None)
    ssr_exp = float(np.sum((logs - lin_design @ lin_coeffs) ** 2))
    log_design = np.column_stack([np.ones_like(depths), np.log(depths)])
    log_coeffs, _, _, _ = np.linalg.lstsq(log_design, logs, rcond=None)
    ssr_poly = float(np.sum((logs - log_design @ log_coeffs) ** 2))

    growth = float(lin_coeffs[1])
    ambiguous = (
        ssr_exp > 0 and ssr_poly > 0
        and max(ssr_exp, ssr_poly) < 2.0 * min(ssr_exp, ssr_poly)
    )
    if ssr_poly <= ssr_exp or growth <= 0.02:
        return PadicEpsEstimate(
            infinite=True, value=None, threshold=None,
            residual_exponential=ssr_exp, residual_polynomial=ssr_poly,
            ambiguous=ambiguous, detail="polynomial ratio growth",
        )
    c = 1.0 - growth
    if c <= 0:
        return PadicEpsEstimate(
            infinite=False, value=0.0, threshold=max(c, 0.0),
            residual_exponential=ssr_exp, residual_polynomial=ssr_poly,
            ambiguous=ambiguous, detail="ratio growth at the Haar rate",
        )
    return PadicEpsEstimate(
        infinite=False, value=c / (1.0 - c), threshold=c,
        residual_exponential=ssr_exp, residual_polynomial=ssr_poly,
        ambiguous=ambiguous, detail="geometric ratio growth",
    )

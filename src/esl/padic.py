"""Exact p-adic pushforward masses by cylinder counting.

Masses of residue cylinders {x : phi(x) = y mod p^k} are exact rationals
count/p^(nk).  Three engines compute them, and each returns the whole
column mass(0), ..., mass(k_max) in one call:

* enumeration that lifts the solutions mod p^(j-1) to those mod p^j, one
  pass for every depth: unconditionally correct, budget-guarded, any map;
* valuation combinatorics for monomial maps (the valuation of c*prod x_i^{a_i}
  is val(c) + sum a_i v_i with independent geometric-like valuations v_i):
  one convolution capped at k_max, then tail sums;
* a Hensel-style recursive lift counter for zero-fibers of general
  integer-coefficient polynomials, efficient when the singular locus is
  small (diagonal sums and the like): one memo shared by all depths.

ball_ratio_sequence chooses one engine for the column around 0; the depth
fits (fit_padic_lct, estimate_eps_padic) both read the table it returns, so
a report computes each mass once.

Conventions: |p|_p = 1/p, the Haar measure of Z_p is 1, and only Q_p itself
(prime residue fields) is supported.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from typing import Sequence

from . import _np as np
from .polys import Polynomial, PolyMap, substitute_affine
from .realnum import fit_line, fit_log_power

DEFAULT_CELL_BUDGET = 10_000_000
RECURSION_NODE_BUDGET = 50_000
CELL_BUDGET_ENV = "ESL_CELL_BUDGET"
# Deepest depth accepted, far above the depth 400 of any test or benchmark
# run; deeper requests are refused before any engine allocates a column.
MAX_DEPTH = 10_000


class BudgetExceededError(RuntimeError):
    """The requested computation exceeds a configured cell or node budget."""


class NonIntegralCoefficientsError(ValueError):
    """Cylinder counting requires integer coefficients."""


def default_cell_budget() -> int:
    raw = os.environ.get(CELL_BUDGET_ENV) or str(DEFAULT_CELL_BUDGET)
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{CELL_BUDGET_ENV} must be an integer >= 1, got {raw!r}")
    return int(raw)


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


def _require_prime_and_depth(p: int, k: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("depth must be >= 0")
    if k > MAX_DEPTH:
        raise ValueError(f"depth {k} is over the depth limit {MAX_DEPTH}")


@dataclass(frozen=True)
class PadicMassTable:
    """Exact masses of the balls {val(phi) >= k} around 0, indexed by depth k.

    ratio(k) = mass(k) * p^(mk) compares the ball mass with the Haar mass of
    its target ball; bounded ratios mean bounded density.
    """

    p: int
    m: int
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        if any(not 0 <= mass <= 1 for mass in self.masses):
            raise ValueError("masses must lie in [0, 1]")
        if any(a < b for a, b in zip(self.masses, self.masses[1:])):
            raise ValueError("masses must be weakly decreasing in depth")

    @cached_property
    def ratios(self) -> tuple[Fraction, ...]:
        scale = self.p**self.m
        return tuple(mass * scale**k for k, mass in enumerate(self.masses))

    def to_csv_rows(self) -> list[tuple[int, int, int, int, int]]:
        return [
            (k, mass.numerator, mass.denominator, ratio.numerator, ratio.denominator)
            for k, (mass, ratio) in enumerate(zip(self.masses, self.ratios))
        ]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "target_dim": self.m,
            "rows": [
                {"k": k, "mass": f"{mass}", "ratio": f"{ratio}"}
                for k, (mass, ratio) in enumerate(zip(self.masses, self.ratios))
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


def _power_mod(x: np.ndarray, e: int, modulus: int) -> np.ndarray:
    """x^e mod modulus by squaring; entries below 2^31 keep every product in int64."""
    if e == 1:
        return x
    half = _power_mod(x * x % modulus, e // 2, modulus)
    return half * x % modulus if e % 2 else half


def cylinder_mass(pmap: PolyMap, p: int, k_max: int, y: Sequence[int],
                  cell_budget: int | None = None) -> list[Fraction]:
    """Masses of the cylinders {x in Z_p^n : phi(x) = y mod p^k}, k = 0..k_max.

    One lifting pass serves every map: a solution mod p^j reduces to one mod
    p^(j-1), so from S_0 = {0} the solutions S_j are the lifts x + p^(j-1) d,
    d in (Z/p)^u, of S_(j-1) that phi sends to y mod p^j.  Only the u axes
    some term uses are lifted, so mass(j) = |S_j| p^((n-u)j) / p^(nj).  Each
    depth's p^(nj) cells must fit the budget.
    """
    _require_prime_and_depth(p, k_max)
    y = [int(v) for v in y]
    if len(y) != pmap.m:
        raise ValueError(f"target point has dimension {len(y)}, expected {pmap.m}")
    budget = cell_budget if cell_budget is not None else default_cell_budget()
    component_terms = [_integer_coefficient_terms(comp) for comp in pmap.components]
    n, M = pmap.n, p**k_max
    for k in range(k_max + 1):
        if p ** (n * k) > budget:
            raise BudgetExceededError(f"{p ** (n * k)} cells exceed the cell budget {budget}")
        if p**k > 2**31:
            raise BudgetExceededError("modulus too large for vectorized enumeration")
    factors = {(a, e) for terms in component_terms for exps, _ in terms
               for a, e in enumerate(exps) if e}
    used = sorted({a for a, _ in factors})
    digits = np.indices((p,) * len(used)).reshape(len(used), p ** len(used))
    points = {a: np.zeros(1, dtype=np.int64) for a in used}
    masses = [Fraction(1)]
    for j in range(1, k_max + 1):
        points = {a: (x[:, None] + p ** (j - 1) * d).ravel()
                  for (a, x), d in zip(points.items(), digits)}
        powers = {(a, e): _power_mod(points[a], e, M) for a, e in factors}
        hits = np.True_  # an array once some term uses a lifted axis
        for terms, target in zip(component_terms, y):
            total = 0
            for exps, coeff in terms:
                term = coeff % M
                for a, e in enumerate(exps):
                    if e:
                        term = term * powers[a, e] % M
                total = total + term
            hits = hits & (total % p**j == target % p**j)
        points = {a: x[hits] for a, x in points.items()}
        masses.append(Fraction(np.count_nonzero(hits) * p ** ((n - len(used)) * j), p ** (n * j)))
    return masses


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


def monomial_zero_mass(poly: Polynomial, p: int, k_max: int) -> list[Fraction]:
    """Masses of {val(c * prod x_i^{a_i}) >= k} for k = 0..k_max.

    Each uniform x in Z_p has P(val = j) = (1 - 1/p) p^-j; the monomial's
    valuation is val(c) + sum a_i val(x_i).  One convolution of these laws,
    capped at k_max, gives P(val = s) for every s < k_max, and the masses
    are its tail sums.
    """
    _require_prime_and_depth(p, k_max)
    if not poly.is_single_term:
        raise ValueError("valuation path requires a single-term polynomial")
    [(exps, coeff)] = _integer_coefficient_terms(poly)
    # law[s] = P(val = s) for s < k_max; the rest of the mass lies at >= k_max.
    law = [Fraction(0)] * k_max
    start = _val_p(coeff, p, k_max)
    if start < k_max:
        law[start] = Fraction(1)
    unit = Fraction(p - 1, p)
    for a in exps:
        if a == 0:
            continue
        # Adding a*v with P(v = j) = unit * p^-j: new[s] = unit*law[s] + new[s-a]/p,
        # in place since new[s-a] is already written when s is reached.
        for s in range(k_max):
            law[s] = unit * law[s] + (law[s - a] / p if s >= a else 0)
    masses = [Fraction(1)]
    for prob in law:
        masses.append(masses[-1] - prob)
    return masses


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


def zero_fiber_mass_recursive(poly: Polynomial, p: int, k_max: int,
                              node_budget: int = RECURSION_NODE_BUDGET) -> list[Fraction]:
    """Masses of {x in Z_p^n : f(x) = 0 mod p^k} for k = 0..k_max, by recursive lifting.

    Solutions mod p^k reduce mod p to roots of f; around each root r the
    substitution f(r + p z) has coefficient content p^e with e >= 1, so the
    branch contributes p^(n(e-1)) times the count for f(r+pz)/p^e at depth
    k - e.  All depths share one memo on (reduced polynomial, depth).  The
    node budget holds per depth and counts the nodes that depth adds to the
    memo; it guards against wide branching (use enumeration or the
    valuation path there).
    """
    _require_prime_and_depth(p, k_max)
    n = poly.n
    base_terms = {exps: c for exps, c in _integer_coefficient_terms(poly)}
    memo: dict[tuple, int] = {}
    masses: list[Fraction] = []
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
            raise BudgetExceededError(f"the recursion's node budget {node_budget} ran out "
                                      f"at depth {len(masses)}")
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

    for k in range(k_max + 1):
        nodes = 0
        masses.append(Fraction(count(base_terms, k), p ** (n * k)))
    return masses


# ---------------------------------------------------------------------------
# mass tables
# ---------------------------------------------------------------------------


def ball_ratio_sequence(pmap: PolyMap, p: int, k_max: int,
                        cell_budget: int | None = None) -> PadicMassTable:
    """Exact masses and density ratios of shrinking balls around 0.

    ratio(k) = mass(k) * p^(mk); a bounded sequence certifies bounded
    density at 0, polynomial growth in k certifies an infinite
    integrability exponent with logarithmic blow-up.  One engine call
    returns the whole column: the valuation engine for a single term, the
    recursion engine for another one-dimensional map, and otherwise one
    lifting pass of cylinder_mass, which also serves the whole table when
    some depth exhausts the recursion's node budget.  When enumeration then
    exceeds its cell budget too, the error names both budgets.
    """
    masses = recursion_error = None
    if pmap.m == 1:
        [poly] = pmap.components
        if poly.is_single_term:
            masses = monomial_zero_mass(poly, p, k_max)
        else:
            try:
                masses = zero_fiber_mass_recursive(poly, p, k_max)
            except BudgetExceededError as err:
                recursion_error = err
    if masses is None:
        try:
            masses = cylinder_mass(pmap, p, k_max, [0] * pmap.m, cell_budget)
        except BudgetExceededError as err:
            if recursion_error is None:
                raise
            raise BudgetExceededError(f"{recursion_error}; enumeration: {err}") from err
    return PadicMassTable(p=p, m=pmap.m, masses=tuple(masses))


def closed_form_xy_ratio(p: int, k: int) -> Fraction:
    """Density ratio of the product map x*y at 0, in closed form: (k+1) - k/p.

    Obtained by summing the geometric series over valuations val(x) + val(y)
    >= k; grows linearly in the depth, witnessing logarithmic explosion of
    the pushforward density.
    """
    _require_prime_and_depth(p, k)
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


def _deep_half(table: PadicMassTable, column: Sequence[Fraction]) -> tuple[np.ndarray, np.ndarray]:
    """Depths k in [k_max/2, k_max] (k >= 1) of a one-dimensional table and
    log_p column[k] there, -inf where the column vanished."""
    if table.m != 1:
        raise ValueError("depth fits are implemented for one-dimensional targets")
    k_max = len(column) - 1
    k_lo = max(1, math.ceil(k_max / 2))
    logs = [(math.log(v.numerator) - math.log(v.denominator)) / math.log(table.p)
            if v > 0 else -math.inf for v in column[k_lo:]]
    return np.arange(k_lo, k_max + 1, dtype=float), np.array(logs)


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
    depths, logs = _deep_half(table, table.masses)
    if len(table.masses) < 5:
        raise ValueError("need k_max >= 4 to fit")
    if len(set(table.ratios[1:])) == 1:
        return PadicLctFit(slope=None, log_power=0, sentinel_ge_one=True, residuals={})
    if not np.all(np.isfinite(logs)):
        raise ValueError("mass vanished at finite depth")
    # logs ~ alpha - c*k + m*log_p(k): regress on -k so the slope is c itself.
    m, fit, residuals = fit_log_power(-depths, logs, np.log(depths) / math.log(table.p),
                                      (0, 1, 2))
    return PadicLctFit(slope=fit.slope, log_power=m, sentinel_ge_one=False, residuals=residuals)


def estimate_eps_padic(table: PadicMassTable) -> PadicEpsEstimate:
    """Classify the integrability exponent from ball-ratio growth.

    Reads the table that ball_ratio_sequence built around 0, the same table
    fit_padic_lct reads.  Constant or polynomially growing
    ratios mean an infinite exponent; geometric growth p^((1-c)k) identifies
    the threshold c and the exponent c/(1-c).  Both growth hypotheses are
    fitted and their residuals reported; close residuals are flagged
    ambiguous.
    """
    depths, logs = _deep_half(table, table.ratios)
    if len(set(table.ratios)) == 1:
        return PadicEpsEstimate(
            infinite=True, value=None, threshold=None,
            residual_exponential=0.0, residual_polynomial=0.0,
            ambiguous=False, detail="constant ratio",
        )
    if not np.all(np.isfinite(logs)):
        return PadicEpsEstimate(
            infinite=False, value=0.0, threshold=0.0,
            residual_exponential=float("nan"), residual_polynomial=float("nan"),
            ambiguous=False, detail="mass vanished at finite depth",
        )

    exponential = fit_line(depths, logs)
    ssr_exp, ssr_poly = exponential.ssr, fit_line(np.log(depths), logs).ssr
    growth = exponential.slope
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

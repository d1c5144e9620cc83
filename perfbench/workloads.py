"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

Each workload is a fixed list of operations, one `esl` command line each.
The seed changes values only (Monte Carlo seeds, base points, unit
coefficients), never sizes, so every seed asks for the same amount of work.
Every operation carries a check that compares the command's exit code and
output with values from `checker`, which never imports `esl`.  The expected
values are computed when the check is first asked for, so generating the
command lines alone is cheap.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from typing import Callable, Sequence

import checker as C

SAMPLES = 1_000_000
WINDOW = 0.15  # the program's PASS window for `real`
EXACT_UNITS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, Fraction(-2, 3))
BASE_VALUES = (-2, -1, 1, 2)
PADIC_UNITS = (1, -1, 2, -2, 4, -4, 5, -5, 7, -7)


@dataclass
class Outcome:
    """What the check of one operation found.

    `problems` lists outputs that disagree with the checker.  `fault` is set
    when the operation's named known fault showed: the operation is then
    counted as failed rather than as a wrong output.  `rows` counts the
    mass-table rows the operation delivered.
    """

    problems: list[str] = field(default_factory=list)
    fault: bool = False
    rows: int = 0


Check = Callable[[int, str], Outcome]


@dataclass
class Op:
    """One command line; `expect` computes the expected values and returns
    the check of the command's exit code and output."""

    label: str
    argv: list[str]
    expect: Callable[[], Check]
    samples: int = 0

    @cached_property
    def check(self) -> Check:
        return self.expect()


# ---------------------------------------------------------------------------
# map-spec text
# ---------------------------------------------------------------------------


def _term_text(coeff: Fraction, exps: Sequence[int]) -> str:
    factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
    magnitude = abs(Fraction(coeff))
    parts = ([str(magnitude)] if magnitude != 1 or not factors else []) + factors
    return "*".join(parts)


def poly_text(terms: Sequence[tuple[Fraction, Sequence[int]]]) -> str:
    """Map-spec text of sum c * x^e, skipping zero coefficients."""
    out = ""
    for coeff, exps in terms:
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        body = _term_text(coeff, exps)
        if not out:
            out = body if coeff > 0 else f"-1*{body}" if abs(coeff) == 1 and any(exps) else f"-{body}"
        else:
            out += f" + {body}" if coeff > 0 else f" - {body}"
    return out or "0"


def spec_text(n: int, components: Sequence[str], point: Sequence[Fraction] | None = None) -> str:
    body = " ".join(f"f{j + 1}={c}" for j, c in enumerate(components))
    text = f"map{{n={n},m={len(components)}}} {body}"
    if point is not None:
        text += " at (" + ", ".join(str(Fraction(v)) for v in point) + ")"
    return text


def monomial_text(coeff, exps: Sequence[int]) -> str:
    return poly_text([(Fraction(coeff), exps)])


def expanded_shifted_product(coeff: Fraction, degrees: Sequence[int],
                             point: Sequence[Fraction]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Terms of coeff * prod_i (x_i - a_i)^{d_i}, expanded by the binomial theorem."""
    per_axis = [[(math.comb(d, j) * (-Fraction(a)) ** (d - j), j) for j in range(d + 1)]
                for d, a in zip(degrees, point)]
    terms = []
    for choice in itertools.product(*per_axis):
        value = Fraction(coeff) * math.prod(c for c, _ in choice)
        terms.append((value, tuple(j for _, j in choice)))
    return sorted(terms, key=lambda t: (-sum(t[1]), [-e for e in t[1]]))


# ---------------------------------------------------------------------------
# exact-corpus
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_exact_report(n: int, m: int, expected: dict, zero_minors: int) -> Check:
    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        rep = json.loads(out)
        bad = []
        if (rep["map"]["n"], rep["map"]["m"]) != (n, m):
            bad.append("map dimensions")
        minors = rep["jacobian_minors"]
        if len(minors) != math.comb(n, m) or minors.count("0") != zero_minors:
            bad.append(f"minors {len(minors)} with {minors.count('0')} zero")
        gens = {tuple(g) for g in rep["monomial_ideal"]["generators"]}
        if gens != expected["generators"]:
            bad.append(f"generators {sorted(gens)} != {sorted(expected['generators'])}")
        if rep["lct_jacobian"]["value"] != expected["lct_jacobian"]:
            bad.append(f"lct_jacobian {rep['lct_jacobian']['value']} != {expected['lct_jacobian']}")
        fiber = rep.get("lct_fiber", {}).get("value")
        if fiber != expected["lct_fiber"]:
            bad.append(f"lct_fiber {fiber} != {expected['lct_fiber']}")
        eps = {key: value["value"] for key, value in rep["eps"].items()}
        if eps != expected["eps"]:
            bad.append(f"eps {eps} != {expected['eps']}")
        k = rep["k_bounds"]
        if k.get("upper", {}).get("value") != expected["k"].get("upper"):
            bad.append(f"k upper {k.get('upper')} != {expected['k'].get('upper')}")
        if "bracket" in expected["k"]:
            lo, hi, degenerate = expected["k"]["bracket"]
            got = k.get("bracket", {})
            if got.get("value") != [lo, hi] or got.get("degenerate") != degenerate:
                bad.append(f"k bracket {got} != {[lo, hi]}")
        elif "bracket" in k:
            bad.append("unexpected k bracket")
        delta = rep.get("delta", {}).get("value")
        if delta != expected["delta"]:
            bad.append(f"delta {delta} != {expected['delta']}")
        elif delta is not None:
            kind = "lower" if expected["eps"].get("exact") == "inf" else "exact"
            if rep["delta"]["kind"] != kind:
                bad.append(f"delta kind {rep['delta']['kind']} != {kind}")
        return Outcome(bad)
    return check


def _monomial_case(label: str, n: int, rows: Sequence[Sequence[int]], coeffs: Sequence[Fraction],
                   lct_jac: Fraction | None, point: Sequence[Fraction] | None = None,
                   text_rows: Sequence[str] | None = None) -> Op:
    """An exact op whose recentered map is the monomial map (c_j x^{A_j})_j."""
    m = len(rows)

    def expect() -> Check:
        minors = C.monomial_map_minors(rows, coeffs)
        gens = C.minimal_generators(minors)
        lower, upper = C.ideal_threshold_bounds(gens)
        if lct_jac is C.INF or not lower <= lct_jac <= upper:
            raise ValueError(f"{label}: closed form {lct_jac} outside [{lower}, {upper}]")
        expected = C.expected_exact(n, m, gens, lct_jac, rows[0] if m == 1 else None)
        zero = sum(1 for _, coeff in minors if coeff == 0)
        return check_exact_report(n, m, expected, zero)

    texts = text_rows or [monomial_text(c, row) for c, row in zip(coeffs, rows)]
    return Op(label, ["exact", spec_text(n, texts, point)], expect)


def _regular_case(label: str, n: int, degrees: Sequence[int], coeffs: Sequence[Fraction],
                  point: Sequence[Fraction]) -> Op:
    """sum_i c_i x_i^{d_i} at a point with nonzero coordinates: a regular point."""
    terms = [(c, tuple(d if j == i else 0 for j in range(n)))
             for i, (c, d) in enumerate(zip(coeffs, degrees))]
    return Op(label, ["exact", spec_text(n, [poly_text(terms)], point)],
              lambda: check_exact_report(n, 1, C.expected_exact(n, 1, {(0,) * n}, C.INF, None), 0))


def _verify_all_op() -> Op:
    def check(rc: int, out: str) -> Outcome:
        lines = out.strip().splitlines()
        results, summary = lines[:-1], lines[-1]
        bad = []
        if rc != 0:
            bad.append(f"exit code {rc}")
        if summary != f"{len(results)}/{len(results)} checks passed":
            bad.append(f"summary {summary!r}")
        seen = {"howald": 0, "one-dim": 0, "stretch": 0, "padic-xy": 0, "chain": 0}
        for line in results:
            if not line.startswith("PASS"):
                bad.append(line)
            if mt := re.search(r"lct gradient ideal n=(\d+) m=(\d+)\s+got (\S+),", line):
                seen["howald"] += 1
                n, m = int(mt[1]), int(mt[2])
                if Fraction(mt[3]) != C.howald_threshold(n, m):
                    bad.append(line)
            elif mt := re.search(r"x\^(\d+) both engines\s+equidimensional (\S+), formula (\S+)", line):
                seen["one-dim"] += 1
                want = C.eps_from_lct(Fraction(1, int(mt[1])))
                if Fraction(mt[2]) != want or Fraction(mt[3]) != want:
                    bad.append(line)
            elif mt := re.search(r"stretch family d=(\d+) m=(\d+)\s+eps (\S+) .*k upper (\d+)", line):
                seen["stretch"] += 1
                d, m = int(mt[1]), int(mt[2])
                eps = C.stretch_threshold(d, m)
                if Fraction(mt[3]) != eps or int(mt[4]) != C.k_upper_from_eps(eps):
                    bad.append(line)
            elif mt := re.search(r"closed form p=(\d+) k<=(\d+)\s+ratios (\[.*\])", line):
                seen["padic-xy"] += 1
                p = int(mt[1])
                ratios = [Fraction(r) for r in json.loads(mt[3].replace("'", '"'))]
                if ratios != [C.xy_ratio(p, k) for k in range(int(mt[2]) + 1)]:
                    bad.append(line)
            elif mt := re.search(r"chain: \(x1\.\.\.x(\d+)\)\^(\d+)\s+grad (\S+), function (\S+)", line):
                seen["chain"] += 1
                n, m = int(mt[1]), int(mt[2])
                if (Fraction(mt[3]), Fraction(mt[4])) != (C.howald_threshold(n, m), Fraction(1, m)):
                    bad.append(line)
        bad += [f"no {kind} lines checked" for kind, count in seen.items() if not count]
        return Outcome(bad)
    return Op("verify all", ["verify", "all"], lambda: check)


HOWALD = ((2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2), (8, 2), (10, 2))
STRETCH = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
# Monomial components in disjoint blocks of variables: exponent vector per block.
BLOCKS = (
    ((2, 3, 1, 5),),
    ((3,), (4,)),
    ((2, 3), (1, 2, 2)),
    ((3, 3, 3), (2, 5, 2)),
    ((2, 3), (1, 2, 1), (1, 1, 4)),
    ((4, 1, 1), (2, 2, 2), (1, 3, 1)),
    ((2, 1, 1), (3, 2), (1, 1, 1, 1, 2)),
)
RECENTERED = ((100,), (12, 9), (5, 4, 3))


def stretch_rows(d: int, m: int) -> list[tuple[int, ...]]:
    """Exponent rows of (x1^d, x1^d x2, ..., x1^d xm)."""
    return [tuple(d if i == 0 else int(i == j) for i in range(m)) for j in range(m)]


def block_rows(blocks: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Exponent rows of one monomial per block, the blocks on disjoint variables."""
    n = sum(len(b) for b in blocks)
    rows, start = [], 0
    for b in blocks:
        rows.append((0,) * start + tuple(b) + (0,) * (n - start - len(b)))
        start += len(b)
    return rows


def exact_corpus(rng: random.Random) -> list[Op]:
    ops = []
    for degrees in RECENTERED:
        n = len(degrees)
        point = [Fraction(rng.choice(BASE_VALUES)) for _ in degrees]
        coeff = Fraction(rng.choice(EXACT_UNITS))
        text = poly_text(expanded_shifted_product(coeff, degrees, point))
        ops.append(_monomial_case(f"recentered {degrees}", n, [degrees], [coeff],
                                  C.waterfill_threshold(degrees), point, [text]))
    point = [Fraction(rng.choice(BASE_VALUES)) for _ in range(2)]
    coeffs = [Fraction(rng.choice(EXACT_UNITS)) for _ in range(2)]
    texts = [poly_text(expanded_shifted_product(coeffs[0], (3,), point[:1])),
             poly_text(expanded_shifted_product(coeffs[1], (3, 1), point))]
    ops.append(_monomial_case("recentered stretch d=3 m=2", 2, [(3, 0), (3, 1)], coeffs,
                              C.stretch_threshold(3, 2), point, texts))
    ops.append(_regular_case("regular x1^400", 1, (400,), [Fraction(rng.choice(EXACT_UNITS))],
                             [Fraction(rng.choice(BASE_VALUES))]))
    ops.append(_regular_case("regular x1^60+x2^40", 2, (60, 40),
                             [Fraction(rng.choice(EXACT_UNITS)) for _ in range(2)],
                             [Fraction(rng.choice(BASE_VALUES)) for _ in range(2)]))
    for n, m in HOWALD:
        ops.append(_monomial_case(f"howald n={n} m={m}", n, [(m,) * n],
                                  [Fraction(rng.choice(EXACT_UNITS))], C.howald_threshold(n, m)))
    for d, m in STRETCH:
        rows = stretch_rows(d, m)
        ops.append(_monomial_case(f"stretch d={d} m={m}", m, rows,
                                  [Fraction(rng.choice(EXACT_UNITS)) for _ in rows],
                                  C.stretch_threshold(d, m)))
    for blocks in BLOCKS:
        rows = block_rows(blocks)
        ops.append(_monomial_case(f"blocks {blocks}", len(rows[0]), rows,
                                  [Fraction(rng.choice(EXACT_UNITS)) for _ in rows],
                                  C.block_threshold(blocks)))
    ops.append(_verify_all_op())
    return ops


# ---------------------------------------------------------------------------
# real-mc
# ---------------------------------------------------------------------------

# Maps whose pushforward density is bounded near the critical value, so the
# true exponent is infinite: regular points, and sums of squares.  The tail
# fit's log-power models can only raise lambda_hat on these, so the
# estimate's class does not depend on the Monte Carlo seed.
REGULAR_COORDS = (Fraction(1, 2), Fraction(3, 4))
# x1^4 sampled with density |x1|: the weighted model's exponent is 1, the
# unweighted map's 1/3.  Fixed inputs; see check_real_report.
WEIGHTED_FAULT = ((4,), (1,), 7)  # map exponents, density weights, seed


def check_real_report(truth: Fraction | None, exact_eps: Sequence[str | None], weights: Sequence[int] | None,
                      seed: int, known_fault: bool = False) -> Check:
    """Estimate within the window of the sampled measure's true exponent, and
    the program's verdict agreeing with that.

    `exact_eps` lists the exact exponents the program may report (None: no
    exact value, so no verdict).  A verdict that disagrees counts as the
    known fault on the operation that names it, and as a wrong output
    anywhere else.
    """
    def check(rc: int, out: str) -> Outcome:
        rep = json.loads(out)
        bad = []
        cfg = rep["sample_config"]
        if (cfg["count"], cfg["seed"], cfg["density_weights"]) != (SAMPLES, seed, weights):
            bad.append(f"sample config {cfg}")
        est = rep["eps_estimate"]
        lam = rep["tail_fit"]["lambda_hat"]
        if est["infinite"] != (lam >= 0.9) or (
                not est["infinite"] and not _close(est["value"], lam / (1 - lam))):
            bad.append(f"eps estimate {est} inconsistent with lambda_hat {lam}")
        if truth is C.INF:
            within = est["infinite"]
        else:
            within = not est["infinite"] and abs(est["value"] - float(truth)) <= WINDOW * float(truth)
        if not within:
            bad.append(f"estimate {est['value']} outside {WINDOW:.0%} of {C.fmt(truth)}")
        comparison = rep["comparison"]
        if comparison.get("exact_eps") not in exact_eps:
            bad.append(f"exact eps {comparison.get('exact_eps')} not in {exact_eps}")
        decay = rep["delta_estimate"]
        if decay["delta_hat"] < 0 or decay["t_range"] != [10.0, 3000.0]:
            bad.append(f"delta estimate {decay}")
        if comparison.get("exact_eps") is None:
            right = "NO-EXACT-VALUE"
        else:
            right = "PASS" if within else "FAIL"
        verdict = comparison["verdict"]
        agrees = verdict == right and rc == (1 if verdict == "FAIL" else 0)
        if not agrees and not known_fault:
            bad.append(f"verdict {verdict} (exit {rc}), expected {right}")
        return Outcome(bad, fault=known_fault and not agrees)
    return check


def real_mc(rng: random.Random) -> list[Op]:
    def coord() -> Fraction:
        return rng.choice((1, -1)) * rng.choice(REGULAR_COORDS)

    cases = (  # label, terms, base point, exact eps the program reports
        ("x1^2 regular point", [(1, (2,))], [coord()], "inf"),
        ("x1^3 regular point", [(1, (3,))], [coord()], "inf"),
        ("x1^2*x2 regular point", [(1, (2, 1))], [coord(), coord()], None),
        ("x1*x2*x3 regular point", [(1, (1, 1, 1))], [coord() for _ in range(3)], None),
        ("x1^2+x2^2", [(1, (2, 0)), (1, (0, 2))], None, None),
        ("x1^2+x2^2+x3^2", [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))], None, None),
    )
    ops = []
    for label, terms, point, exact_eps in cases:
        sign = rng.choice((1, -1))
        seed = rng.randrange(2**31)
        n = len(terms[0][1])
        spec = spec_text(n, [poly_text([(sign * c, e) for c, e in terms])], point)
        ops.append(Op(label, ["real", spec, "--seed", str(seed)],
                      partial(check_real_report, C.INF, [exact_eps], None, seed), samples=SAMPLES))
    # The program reports the unweighted exponent today (the fault) and the
    # weighted one once it compares with the sampled measure.
    a, b, seed = WEIGHTED_FAULT
    truth = C.model_eps(a, b)
    ops.append(Op(f"x1^4 weights {b}",
                  ["real", spec_text(1, [monomial_text(1, a)]), "--weights", ",".join(map(str, b)),
                   "--seed", str(seed)],
                  partial(check_real_report, truth, [C.fmt(C.model_eps(a, [0])), C.fmt(truth)],
                          list(b), seed, known_fault=True),
                  samples=SAMPLES))
    return ops


# ---------------------------------------------------------------------------
# padic-tables
# ---------------------------------------------------------------------------


UNKNOWN = object()  # no claim on the true threshold


def check_padic_report(p: int, m: int, masses: Sequence[Fraction],
                       truth_lct=UNKNOWN) -> Check:
    """Exact mass table, fits recomputed from the exact masses, and, where
    `truth_lct` is given, fits close to the true threshold.
    """
    k_max = len(masses) - 1

    def check(rc: int, out: str) -> Outcome:
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        rep = json.loads(out)
        bad = []
        table = rep["mass_table"]
        rows = table["rows"]
        if (table["p"], table["target_dim"]) != (p, m) or [r["k"] for r in rows] != list(range(k_max + 1)):
            bad.append("mass table shape")
            return Outcome(bad, rows=len(rows))
        for r, mass in zip(rows, masses):
            if Fraction(r["mass"]) != mass or Fraction(r["ratio"]) != mass * p ** (m * r["k"]):
                bad.append(f"k={r['k']}: mass {r['mass']} ratio {r['ratio']}, expected {mass}")
                break
        if m == 1:
            bad += _check_padic_fits(rep, p, masses, truth_lct)
        elif "lct_fit" in rep or "eps_estimate" in rep:
            bad.append("fits reported for a target of dimension > 1")
        return Outcome(bad, rows=len(rows))
    return check


def _check_padic_fits(rep: dict, p: int, masses: Sequence[Fraction], truth_lct) -> list[str]:
    bad = []
    if len(masses) > 4:
        want = C.refit_lct(masses, p)
        got = rep["lct_fit"]
        if (got["sentinel_ge_one"], got["log_power"]) != (want["sentinel_ge_one"], want["log_power"]) \
                or (got["slope"] is None) != (want["slope"] is None) \
                or (got["slope"] is not None and not _close(got["slope"], want["slope"], 1e-6)):
            bad.append(f"lct fit {got} != refit {want}")
    want = C.refit_eps([mass * p**k for k, mass in enumerate(masses)], p)
    got = rep["eps_estimate"]
    if got["infinite"] != want["infinite"] or got["detail"] != want["detail"] or (
            want["value"] is not None and not _close(got["value"], want["value"], 1e-6)):
        bad.append(f"eps estimate {got} != refit {want}")
    if truth_lct is not UNKNOWN:
        eps = C.eps_from_lct(truth_lct)
        if eps is C.INF:
            ok = got["infinite"]
        else:
            ok = not got["infinite"] and abs(got["value"] - float(eps)) <= WINDOW * float(eps)
            slope = rep.get("lct_fit", {}).get("slope")
            ok = ok and slope is not None and abs(slope - float(truth_lct)) <= 0.02
        if not ok:
            bad.append(f"fits {rep.get('lct_fit')} / {got} far from threshold {C.fmt(truth_lct)}")
    return bad


def _padic_op(label: str, p: int, n: int, components: Sequence[str], k_max: int,
              mass: Callable[[int], Fraction], truth_lct=UNKNOWN) -> Op:
    """`mass(k)` is the exact zero-fiber mass at depth k."""
    return Op(label, ["padic", spec_text(n, components), "-p", str(p), "-k", str(k_max)],
              lambda: check_padic_report(p, len(components), [mass(k) for k in range(k_max + 1)],
                                         truth_lct))


def _counted_mass(count: Callable[..., int], terms, p: int, n: int, k: int) -> Fraction:
    return Fraction(count(terms, p, k), p ** (n * k))


def padic_tables(rng: random.Random) -> list[Op]:
    def unit(p: int) -> int:
        return rng.choice([u for u in PADIC_UNITS if u % p])

    ops = []
    # Recursion engine: non-monomial one-dimensional targets.
    for p, k_max in ((2, 40), (3, 24), (5, 12)):
        c = unit(p)
        text = poly_text([(c, (2, 0)), (c, (0, 2))])
        ops.append(_padic_op(f"x1^2+x2^2 p={p}", p, 2, [text], k_max,
                             partial(C.two_squares_mass, p), Fraction(1)))
    for p, k_max, parts in ((3, 12, ((1, 2), (-1, 3))), (3, 9, ((1, 2), (1, 3), (1, 5)))):
        c = unit(p)
        n = len(parts)
        terms = [(c * s, tuple(e if j == i else 0 for j in range(n))) for i, (s, e) in enumerate(parts)]
        mass = partial(_counted_mass, C.separable_zero_count, [(c * s, e) for s, e in parts], p, n)
        ops.append(_padic_op(f"separable {parts} p={p}", p, n, [poly_text(terms)], k_max, mass))
    # Valuation engine: monomials at large depth.
    for p, k_max, a in ((2, 400, (2,)), (3, 40, (1, 1)), (3, 80, (2, 3))):
        n = len(a)
        mass = partial(_counted_mass, C.monomial_zero_count, [a], p, n)
        ops.append(_padic_op(f"monomial {a} p={p}", p, n, [monomial_text(unit(p), a)], k_max, mass,
                             Fraction(1, max(a))))
    # Enumeration engine: targets of dimension 2.
    for p, k_max, rows in ((7, 4, ((2, 0), (2, 1))), (3, 4, ((2, 0, 0), (0, 1, 1)))):
        n = len(rows[0])
        mass = partial(_counted_mass, C.monomial_zero_count, rows, p, n)
        ops.append(_padic_op(f"map {rows} p={p}", p, n, [monomial_text(unit(p), r) for r in rows],
                             k_max, mass))
    return ops


WORKLOADS = {
    "exact-corpus": exact_corpus,
    "real-mc": real_mc,
    "padic-tables": padic_tables,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's command lines; each op's expected values wait for `op.check`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

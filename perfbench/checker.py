"""Independent expected values for the benchmark's checks.

Nothing here imports `esl`: every expected value is computed from closed
forms or by counting, with the standard library and numpy only, so a check
compares the program against a computation made apart from it.

Conventions follow the program's report schema: thresholds and exponents
are exact `Fraction`s, and `None` stands for +infinity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

INF = None  # +infinity for exponents and thresholds


def fmt(value: Fraction | None) -> str:
    return "inf" if value is INF else str(value)


# ---------------------------------------------------------------------------
# exact side: minors, thresholds and the conversions between invariants
# ---------------------------------------------------------------------------


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-valued Gaussian elimination."""
    rows = [list(map(Fraction, row)) for row in matrix]
    size = len(rows)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def monomial_map_minors(exponents: Sequence[Sequence[int]],
                        coeffs: Sequence[Fraction]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Maximal minors of the differential of x -> (c_j x^{A_j})_j.

    d(c_j x^{A_j})/dx_i = c_j A_ji x^{A_j - e_i}, so the minor on the column
    set S is (prod_j c_j) det(A[:, S]) x^{sum_j A_j - 1_S}.  Returned in the
    lexicographic order of S, zero minors included with coefficient 0.
    """
    m, n = len(exponents), len(exponents[0])
    total = [sum(row[i] for row in exponents) for i in range(n)]
    scale = math.prod(Fraction(c) for c in coeffs)
    minors = []
    for cols in itertools.combinations(range(n), m):
        coeff = scale * _det([[row[c] for c in cols] for row in exponents])
        exps = tuple(total[i] - (1 if i in cols else 0) for i in range(n))
        minors.append((exps, coeff))
    return minors


def minimal_generators(minors: Sequence[tuple[tuple[int, ...], Fraction]]) -> set[tuple[int, ...]] | None:
    """Minimal exponent vectors of the ideal the nonzero minors generate.

    Returns None when no minor is nonzero (the map is not locally dominant).
    A zero vector means the unit ideal.
    """
    vectors = {exps for exps, coeff in minors if coeff != 0}
    if not vectors:
        return None
    n = len(next(iter(vectors)))
    if (0,) * n in vectors:
        return {(0,) * n}
    return {v for v in vectors
            if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vectors)}


def waterfill_threshold(a: Sequence[int]) -> Fraction | None:
    """Threshold of the gradient ideal (x^{a - e_i} : a_i > 0) of one monomial.

    The Newton polyhedron meets the diagonal at t with sum_i (a_i - t)_+ = 1
    (spend one unit of convex weight lowering the largest coordinates), so
    the threshold is 1/t; t = 0 is the unit ideal.
    """
    support = sorted((x for x in a if x > 0), reverse=True)
    if not support:
        raise ValueError("constant monomial has no gradient ideal")
    for r in range(1, len(support) + 1):
        t = Fraction(sum(support[:r]) - 1, r)
        below = support[r] if r < len(support) else 0
        if t >= below:
            return INF if t <= 0 else 1 / t
    raise AssertionError("water level not found")


def howald_threshold(n: int, m: int) -> Fraction:
    """Gradient-ideal threshold of (x_1 ... x_n)^m: n/(nm - 1)."""
    return Fraction(n, n * m - 1)


def stretch_threshold(d: int, m: int) -> Fraction:
    """Jacobian threshold of (x1^d, x1^d x2, ..., x1^d xm): det = d x1^(dm-1)."""
    return Fraction(1, d * m - 1)


def block_threshold(blocks: Sequence[Sequence[int]]) -> Fraction | None:
    """Jacobian threshold of monomial components in disjoint variables.

    The Jacobian ideal is the product of the blocks' gradient ideals; in
    disjoint variables the Newton polyhedron is the product of the blocks'
    polyhedra, so the threshold is the minimum over blocks.
    """
    values = [waterfill_threshold(a) for a in blocks]
    finite = [v for v in values if v is not INF]
    return min(finite) if finite else INF


def ideal_threshold_bounds(generators: set[tuple[int, ...]]) -> tuple[Fraction, Fraction]:
    """max_g 1/max(g) <= lct <= n / min_g |g| for a non-unit monomial ideal."""
    n = len(next(iter(generators)))
    lower = max(Fraction(1, max(g)) for g in generators)
    upper = Fraction(n, min(sum(g) for g in generators))
    return lower, upper


def eps_from_lct(c: Fraction | None) -> Fraction | None:
    """eps = c/(1 - c), infinite once c >= 1."""
    if c is INF or c >= 1:
        return INF
    return c / (1 - c)


def k_upper_from_eps(e: Fraction | None) -> int:
    """floor((1 + e)/e) + 1; 2 for an infinite exponent."""
    return 2 if e is INF else math.floor((1 + e) / e) + 1


def k_bracket_from_lct(c: Fraction | None) -> tuple[int, int, bool]:
    """(ceil(1/c), floor(1/c) + 1), degenerate (1, 2) above 1."""
    if c is INF or c > 1:
        return 1, 2, True
    return math.ceil(1 / c), math.floor(1 / c) + 1, False


def delta_from_eps(e: Fraction | None) -> Fraction:
    return Fraction(1) if e is INF else e / (1 + e)


def model_eps(a: Sequence[int], b: Sequence[int]) -> Fraction | None:
    """Monomial local model: c = min (b_i + 1)/a_i over a_i > 0, eps = c/(1-c)."""
    c = min(Fraction(bi + 1, ai) for ai, bi in zip(a, b) if ai > 0)
    return eps_from_lct(c)


def expected_exact(n: int, m: int, generators: set[tuple[int, ...]] | None,
                   lct_jac: Fraction | None, fiber: Sequence[int] | None) -> dict:
    """The fields an exact report must carry, derived from the paper's formulas.

    `lct_jac` is the Jacobian-ideal threshold, `fiber` the exponent vector of
    the single recentered monomial of a one-dimensional map (or None).
    """
    lct_fiber = None
    if m == 1 and fiber is not None and any(fiber):
        lct_fiber = Fraction(1, max(fiber))
    eps: dict = {}
    eps_exact = eps_lower = None
    have_exact = False
    if n == m:
        eps_exact, have_exact = lct_jac, True
    elif lct_fiber is not None:
        eps_exact, have_exact = eps_from_lct(lct_fiber), True
    if have_exact:
        eps["exact"] = fmt(eps_exact)
    if n > m:
        eps_lower = lct_jac
        eps["lower"] = fmt(lct_jac)
        if lct_jac is not INF and lct_jac < 1:
            eps["upper"] = fmt(lct_jac / (1 - lct_jac))
    k: dict = {}
    if have_exact or n > m:
        k["upper"] = k_upper_from_eps(eps_exact if have_exact else eps_lower)
    if lct_fiber is not None:
        k["bracket"] = k_bracket_from_lct(lct_fiber)
    delta = None
    if m == 1 and have_exact:
        delta = delta_from_eps(eps_exact)
    return {"generators": generators, "lct_jacobian": fmt(lct_jac),
            "lct_fiber": None if lct_fiber is None else fmt(lct_fiber),
            "eps": eps, "k": k, "delta": None if delta is None else fmt(delta)}


# ---------------------------------------------------------------------------
# p-adic side: residue counts and valuation sums
# ---------------------------------------------------------------------------


def _powers_mod(values: np.ndarray, e: int, modulus: int) -> np.ndarray:
    out = np.ones_like(values)
    for _ in range(e):
        out = (out * values) % modulus
    return out


def brute_force_zero_count(components: Sequence[Sequence[tuple[tuple[int, ...], int]]],
                           n: int, p: int, k: int) -> int:
    """#{x in (Z/p^k)^n : every component vanishes mod p^k}, by enumeration.

    Components are lists of (exponent tuple, integer coefficient).
    """
    modulus = p**k
    if modulus**n > 2_000_000:
        raise ValueError("brute force is for small depths only")
    grid = np.indices((modulus,) * n, dtype=np.int64).reshape(n, -1)
    zero = np.ones(grid.shape[1], dtype=bool)
    for terms in components:
        total = np.zeros(grid.shape[1], dtype=np.int64)
        for exps, coeff in terms:
            value = np.full(grid.shape[1], coeff % modulus, dtype=np.int64)
            for axis, e in enumerate(exps):
                value = (value * _powers_mod(grid[axis], e, modulus)) % modulus
            total = (total + value) % modulus
        zero &= total == 0
    return int(zero.sum())


def separable_zero_count(terms: Sequence[tuple[int, int]], p: int, k: int) -> int:
    """#{x mod p^k : sum_i c_i x_i^{e_i} = 0 mod p^k} for terms (c_i, e_i).

    Each variable appears in one term, so the count is a cyclic convolution
    of the value distributions of the single terms, read at 0.  The last
    distribution is paired exactly with integers; the others are convolved
    by FFT and rounded, which is exact while counts stay below 2^50.
    """
    modulus = p**k
    residues = np.arange(modulus, dtype=np.int64)
    dists = [np.bincount((c * _powers_mod(residues, e, modulus)) % modulus,
                         minlength=modulus) for c, e in terms]
    acc = dists[0].astype(np.int64)
    for dist in dists[1:-1]:
        if float(acc.sum()) * float(dist.sum()) > 2.0**50:
            raise ValueError("counts too large for an exact FFT convolution")
        conv = np.fft.irfft(np.fft.rfft(acc) * np.fft.rfft(dist), n=modulus)
        rounded = np.rint(conv)
        if np.max(np.abs(conv - rounded)) > 0.25:
            raise ArithmeticError("FFT convolution lost exactness")
        acc = rounded.astype(np.int64)
    last = dists[-1]
    # sum_a acc[a] * last[-a mod M]
    partner = last[(-residues) % modulus]
    if float(acc.max()) * float(partner.max()) * modulus < 2.0**62:
        return int(np.dot(acc, partner))
    return sum(int(a) * int(b) for a, b in zip(acc, partner))


def two_squares_mass(p: int, k: int) -> Fraction:
    """Mass of {x1^2 + x2^2 = 0 mod p^k} in closed form (p = 2, 3 or 5).

    p = 2: 2^-k.  p = 3 (-1 is not a square): both variables need valuation
    >= k/2, so 9^-ceil(k/2).  p = 5 (-1 is a square): the form splits into
    two linear factors, so the ratio is that of x1*x2, (k + 1) - k/p.
    """
    if p == 2:
        return Fraction(1, 2**k)
    if p == 3:
        return Fraction(1, 9 ** math.ceil(k / 2))
    if p == 5:
        return xy_ratio(p, k) / p**k
    raise ValueError("closed form known here for p = 2, 3, 5")


def xy_ratio(p: int, k: int) -> Fraction:
    """Density ratio of x1*x2 at 0: (k + 1) - k/p."""
    return Fraction(k + 1) - Fraction(k, p)


def monomial_zero_count(rows: Sequence[Sequence[int]], p: int, k: int) -> int:
    """#{x mod p^k : every x^{A_j} = 0 mod p^k} by summing over valuations.

    A residue mod p^k has valuation j < k in (p-1) p^(k-1-j) ways and
    valuation >= r in p^(k-r) ways.  The component x^{A_j} vanishes iff
    A_j . v >= k, so the count sums the products of these multiplicities
    over valuation vectors v, with the last variable's condition a tail.
    Unit coefficients do not change valuations and are omitted.
    """
    n = len(rows[0])
    used = [i for i in range(n) if any(row[i] for row in rows)]
    free = n - len(used)
    A = [[row[i] for i in used] for row in rows]

    def ways(j: int) -> int:
        return (p - 1) * p ** (k - 1 - j)

    def count(axis: int, partial: list[int]) -> int:
        if axis == len(used) - 1:
            need = 0
            for j, row in enumerate(A):
                rest = k - partial[j]
                if rest <= 0:
                    continue
                if row[axis] == 0:
                    return 0
                need = max(need, -(-rest // row[axis]))
            return p ** (k - min(need, k))
        total = 0
        for v in range(k + 1):
            mult = ways(v) if v < k else 1
            total += mult * count(axis + 1, [s + row[axis] * v for s, row in zip(partial, A)])
        return total

    return count(0, [0] * len(A)) * p ** (k * free)


# ---------------------------------------------------------------------------
# depth fits, recomputed from exact masses
# ---------------------------------------------------------------------------


def _log_p(value: Fraction, p: int) -> float:
    return (math.log(value.numerator) - math.log(value.denominator)) / math.log(p)


def _ssr_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least squares y ~ a + b x: (b, sum of squared residuals)."""
    design = np.column_stack([np.ones_like(x), x])
    coeffs = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(coeffs[1]), float(np.sum((y - design @ coeffs) ** 2))


def refit_lct(masses: Sequence[Fraction], p: int) -> dict:
    """Threshold fit of exact zero-fiber masses over the deep half of depths.

    Constant ratios mass(k) p^k for k >= 1 only show threshold >= 1.  Else
    log_p mass(k) ~ alpha - c k + j log_p k with the log power j in {0, 1, 2}
    of least residual, and c is the slope.
    """
    k_max = len(masses) - 1
    ratios = [mass * p**k for k, mass in enumerate(masses)]
    if len(set(ratios[1:])) == 1:
        return {"slope": None, "log_power": 0, "sentinel_ge_one": True}
    depths = np.arange(max(1, math.ceil(k_max / 2)), k_max + 1, dtype=float)
    logs = np.array([_log_p(masses[int(k)], p) for k in depths])
    best = None
    for j in (0, 1, 2):
        slope, ssr = _ssr_line(-depths, logs - j * np.log(depths) / math.log(p))
        if best is None or ssr < best[0]:
            best = (ssr, j, slope)
    return {"slope": best[2], "log_power": best[1], "sentinel_ge_one": False}


def refit_eps(ratios: Sequence[Fraction], p: int) -> dict:
    """Exponent class from ratio growth over the deep half of depths.

    Constant ratios, or log-ratios fitted at least as well by a log(k) law
    as by a line, or a line with slope <= 0.02, mean an infinite exponent;
    otherwise the line's slope g gives c = 1 - g and eps = c/(1 - c).
    """
    k_max = len(ratios) - 1
    if len(set(ratios)) == 1:
        return {"infinite": True, "value": None, "detail": "constant ratio"}
    depths = np.arange(max(1, math.ceil(k_max / 2)), k_max + 1, dtype=float)
    if any(ratios[int(k)] == 0 for k in depths):
        return {"infinite": False, "value": 0.0, "detail": "mass vanished at finite depth"}
    logs = np.array([_log_p(ratios[int(k)], p) for k in depths])
    growth, ssr_line = _ssr_line(depths, logs)
    _, ssr_log = _ssr_line(np.log(depths), logs)
    if ssr_log <= ssr_line or growth <= 0.02:
        return {"infinite": True, "value": None, "detail": "polynomial ratio growth"}
    c = 1.0 - growth
    if c <= 0:
        return {"infinite": False, "value": 0.0, "detail": "ratio growth at the Haar rate"}
    return {"infinite": False, "value": c / (1 - c), "detail": "geometric ratio growth"}

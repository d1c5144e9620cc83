"""Independent oracles used by the tests.

These deliberately avoid the library's own solution paths: the LP oracle
enumerates basic solutions instead of pivoting, the reference simplex
pivots a tableau of Fraction entries instead of an integer one over a
common denominator, the integral oracles use direct quadrature/series,
the characteristic function is taken in complex128, the density oracle
sums change-of-variables terms over exactly
isolated real roots, the per-frequency Fourier kernel, the column-stacked
sampler and the whole-array evaluator are the unblocked forms the library's
buffered kernels and chunked sample stage must match bit for bit, the float
evaluator multiplies Python floats term by term, the bump sampler draws a
smooth compactly supported law by rejection, and the cylinder oracle
enumerates all of (Z/p^k)^n afresh at every depth instead of lifting the
solutions of the depth above.  The reference shift recenters in
Fraction arithmetic instead of clearing denominators first.  The reference
map-spec parser builds a Polynomial per number and variable and multiplies
them factor by factor instead of summing exponents in place.  The pushforward
sampler, the antithetic sample, the uniform histogram and its FFT convolution powers, and the
map-spec printer have no caller in the package; the tests and acceptance
criteria use them as tools.  The masked log histogram and the tail window
by np.quantile are the forms the library's sorted-copy and read-by-index
versions must match exactly.
Expected values asserted in the tests were computed (and are re-checked)
with these.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from esl.lct import MonomialIdeal
from esl.mapspec import MapSpec, MapSpecError, NegativeExponentError, UnknownVariableError
from esl.padic import BudgetExceededError, _integer_coefficient_terms
from esl.polys import Polynomial, PolyMap, substitute_affine
from esl.realnum import SHARD_SIZE, Histogram, SampleConfig, evaluate_array
from esl.simplex import InfeasibleError, UnboundedError


def solve_square_system(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the matrix is singular."""
    size = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][size] for i in range(size)]


def lct_by_vertex_enumeration(ideal: MonomialIdeal) -> Fraction | None:
    """Threshold via exhaustive basic-solution enumeration of the same LP.

    Columns are lam_1..lam_g, t, s_1..s_n; rows are the n diagonal-entry
    constraints plus the simplex constraint.  Every square basis is solved
    exactly; the minimum feasible objective is returned (None means the
    threshold is infinite, i.e. the unit ideal).
    """
    if ideal.is_unit:
        return None
    gens = ideal.generators
    g, n = len(gens), ideal.n
    cols = g + 1 + n
    rows = n + 1

    def column(j: int) -> list[Fraction]:
        if j < g:
            return [Fraction(gens[j][i]) for i in range(n)] + [Fraction(1)]
        if j == g:
            return [Fraction(-1)] * n + [Fraction(0)]
        axis = j - g - 1
        return [Fraction(1) if i == axis else Fraction(0) for i in range(n)] + [Fraction(0)]

    rhs = [Fraction(0)] * n + [Fraction(1)]
    best: Fraction | None = None
    for basis in itertools.combinations(range(cols), rows):
        matrix = [[column(j)[i] for j in basis] for i in range(rows)]
        solution = solve_square_system(matrix, rhs)
        if solution is None or any(v < 0 for v in solution):
            continue
        t_value = Fraction(0)
        for var, value in zip(basis, solution):
            if var == g:
                t_value = value
        if g not in basis:
            t_value = Fraction(0)
        if best is None or t_value < best:
            best = t_value
    if best is None or best == 0:
        return None
    return 1 / best


def solve_min_fraction(cost, eq_matrix, eq_rhs) -> tuple[Fraction, list[Fraction]]:
    """Two-phase Bland simplex on a dense tableau of Fraction entries.

    The reference for simplex.solve_min: the same pivot rule, so the same
    value, vertex and exception on every LP.
    """
    num_rows = len(eq_matrix)
    num_cols = len(cost)
    if any(len(row) != num_cols for row in eq_matrix) or len(eq_rhs) != num_rows:
        raise ValueError("inconsistent LP dimensions")

    # Normalize rows so every right-hand side is nonnegative.
    rows = []
    rhs = []
    for row, b in zip(eq_matrix, eq_rhs):
        row = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    # Phase I tableau: original columns, then one artificial per row.
    tableau = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(num_rows)] + [rhs[i]]
               for i in range(num_rows)]
    basis = [num_cols + i for i in range(num_rows)]
    total_cols = num_cols + num_rows

    phase1_cost = [Fraction(0)] * num_cols + [Fraction(1)] * num_rows
    value = _run_fraction_simplex(tableau, basis, phase1_cost, total_cols)
    if value != 0:
        raise InfeasibleError("no feasible point")

    # Drive any artificial variables still basic (at level 0) out of the basis.
    for i, var in enumerate(basis):
        if var < num_cols:
            continue
        pivot_col = next((j for j in range(num_cols) if tableau[i][j] != 0), None)
        if pivot_col is None:
            continue  # redundant row; harmless to keep
        _fraction_pivot(tableau, basis, i, pivot_col)

    # Phase II on the original columns only.
    phase2_cost = [Fraction(v) for v in cost] + [Fraction(0)] * num_rows
    value = _run_fraction_simplex(tableau, basis, phase2_cost, num_cols)

    solution = [Fraction(0)] * num_cols
    for i, var in enumerate(basis):
        if var < num_cols:
            solution[var] = tableau[i][-1]
    return value, solution


def _run_fraction_simplex(tableau, basis, cost, eligible_cols) -> Fraction:
    """Iterate Bland-rule pivots until optimal; returns the objective value."""
    num_rows = len(tableau)
    while True:
        # Reduced costs: c_j - c_B . B^{-1} A_j, computed from the tableau.
        reduced = []
        for j in range(eligible_cols):
            r = cost[j]
            for i in range(num_rows):
                if cost[basis[i]] != 0:
                    r -= cost[basis[i]] * tableau[i][j]
            reduced.append(r)

        entering = next((j for j in range(eligible_cols) if reduced[j] < 0), None)
        if entering is None:
            value = Fraction(0)
            for i in range(num_rows):
                if cost[basis[i]] != 0:
                    value += cost[basis[i]] * tableau[i][-1]
            return value

        # Ratio test; Bland's rule breaks ties by smallest basis variable index.
        leaving = None
        best_ratio = None
        for i in range(num_rows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise UnboundedError("objective unbounded below")

        _fraction_pivot(tableau, basis, leaving, entering)


def _fraction_pivot(tableau, basis, row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [a - factor * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def map_spec_text(spec: MapSpec) -> str:
    """The canonical text of a spec: header, components in order, base point."""
    lines = [f"map{{n={spec.n},m={spec.m}}}"]
    for i, comp in enumerate(spec.components):
        lines.append(f"f{i + 1} = {comp}")
    if spec.point is not None:
        coords = ", ".join(str(c) for c in spec.point)
        lines.append(f"at ({coords})")
    return "\n".join(lines) + "\n"


def evaluate_exact(p: Polynomial, point) -> Fraction:
    """Exact value of p at a rational point, term by term."""
    if len(point) != p.n:
        raise ValueError(f"point has dimension {len(point)}, expected {p.n}")
    point = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in p.terms():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        total += value
    return total


def total_degree(p: Polynomial) -> int:
    return max((sum(e) for e, _ in p.terms()), default=0)


def shift_to_origin_fraction(pmap: PolyMap, x0) -> PolyMap:
    """polys.shift_to_origin with the base point and every product in Fractions."""
    if len(x0) != pmap.n:
        raise ValueError(f"base point has dimension {len(x0)}, expected {pmap.n}")
    x0 = [Fraction(v) for v in x0]
    components = []
    for comp in pmap.components:
        terms = substitute_affine(dict(comp.terms()), x0)
        terms.pop((0,) * pmap.n, None)
        components.append(Polynomial(pmap.n, terms))
    return PolyMap(components)


def max_power_integral(s: float, eps: float, grid: int = 400) -> float:
    """Midpoint quadrature of max(x, y)^(-s) over [eps, 1]^2."""
    xs = np.geomspace(eps, 1.0, grid + 1)
    mids = np.sqrt(xs[:-1] * xs[1:])
    widths = np.diff(xs)
    X, Y = np.meshgrid(mids, mids, indexing="ij")
    W = np.outer(widths, widths)
    return float(np.sum(np.maximum(X, Y) ** (-s) * W))


def tail_power_selfconvolution_slope(exponent: float = -2.0 / 3.0,
                                     points: int = 6) -> float:
    """Blow-up slope at 0 of f*f for f(t) = c t^exponent on (0, 1].

    Quadrature of (f*f)(y) = int_0^y f(t) f(y-t) dt on a shrinking sequence
    of y, returning the fitted log-log slope.
    """
    c = 1.0 + exponent  # normalizes int_0^1 t^exponent dt to 1
    ys = np.geomspace(1e-6, 1e-2, points)
    values = []
    for y in ys:
        t = np.linspace(y * 1e-4, y * (1 - 1e-4), 20001)
        f1 = c * t**exponent
        f2 = c * (y - t) ** exponent
        values.append(float(np.trapezoid(f1 * f2, t)))
    slope = np.polyfit(np.log(ys), np.log(values), 1)[0]
    return float(slope)


def char_function_magnitudes(values: np.ndarray, t_grid) -> np.ndarray:
    """|mean(exp(i t y))| per frequency, in complex128."""
    return np.array([abs(np.exp(1j * t * values).mean()) for t in t_grid])


def char_function_magnitudes_per_frequency(values: np.ndarray, t_grid) -> np.ndarray:
    """The float32 kernel one whole-array pass per frequency, with fresh temporaries."""
    mags = np.empty(len(t_grid))
    limit = np.finfo(float).max / (8 * np.max(np.abs(t_grid)))
    if values.max() > limit or values.min() < -limit:
        values = np.clip(values, -limit, limit)
    for i, t in enumerate(t_grid):
        phase = t * values
        phase -= 2 * np.pi * np.rint(phase / (2 * np.pi))
        phase = np.clip(phase, -np.pi, np.pi, out=phase).astype(np.float32)
        mags[i] = math.hypot(np.cos(phase).mean(dtype=np.float64),
                             np.sin(phase).mean(dtype=np.float64))
    return mags


def float_power(x: float, e: int) -> float:
    """x**e for an integer e >= 1 by square-and-multiply in Python floats
    (or elementwise, for an array x)."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if not e:
            return result
        x = x * x


def evaluate_float(pmap: PolyMap, point) -> list[float]:
    """The map at one point in Python floats, term by term in the map's term order."""
    values = []
    for comp in pmap.components:
        total = 0.0
        for exps, coeff in comp.terms():
            term = float(coeff)
            for x, e in zip(point, exps):
                if e:
                    term = term * float_power(float(x), e)
            total = total + term
        values.append(total)
    return values


def sample_source_stacked(cfg: SampleConfig) -> np.ndarray:
    """The sampler one column_stack per shard and one concatenate at the end."""
    def inverse_power_cdf(u, lo, hi, b):
        h_lo, h_hi = (math.copysign(abs(t) ** (b + 1) / (b + 1), t) for t in (lo, hi))
        v = h_lo + u * (h_hi - h_lo)
        return np.sign(v) * (np.abs(v) * (b + 1)) ** (1.0 / (b + 1))

    n = len(cfg.box)
    weights = cfg.density_weights or (0,) * n
    shards = []
    for index, start in enumerate(range(0, cfg.count, SHARD_SIZE)):
        count = min(SHARD_SIZE, cfg.count - start)
        u = np.random.default_rng(cfg.seed + index).random((count, n))
        shards.append(np.column_stack([
            inverse_power_cdf(u[:, axis], float(lo), float(hi), weights[axis])
            for axis, (lo, hi) in enumerate(cfg.box)]))
    return np.concatenate(shards)


def evaluate_array_reference(pmap: PolyMap, points: np.ndarray, mirror: int = 0) -> np.ndarray:
    """The whole-array evaluator: (N, n) points -> (N + mirror, m) images of
    points[mirror:], then of points[:mirror], then of -points[:mirror] (each
    term z^a added, or subtracted where |a| is odd); full-length term and
    column-power arrays."""
    points = np.roll(np.asarray(points, dtype=float), -mirror, axis=0)
    out = np.zeros((len(points) + mirror, pmap.m))
    term = np.empty(len(points))
    uses = Counter((axis, e) for comp in pmap.components for exps, _ in comp.terms()
                   for axis, e in enumerate(exps) if e)
    powers: dict[tuple[int, int], np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for j, comp in enumerate(pmap.components):
            forward, mirrored = out[:len(points), j], out[len(points):, j]
            for exps, coeff in comp.terms():
                c = float(coeff)
                if not any(exps):
                    term.fill(c)
                for i, key in enumerate((axis, e) for axis, e in enumerate(exps) if e):
                    if key not in powers:
                        powers[key] = float_power(points[:, key[0]], key[1])  # arrays too
                    np.multiply(term if i else c, powers[key], out=term)
                    uses[key] -= 1
                    if not uses[key]:
                        del powers[key]
                np.add(forward, term, out=forward)
                (np.subtract if sum(exps) & 1 else np.add)(mirrored, term[len(term) - mirror:],
                                                           out=mirrored)
    return out


def sample_pushforward(pmap: PolyMap, cfg: SampleConfig) -> np.ndarray:
    """I.i.d. pushforward values phi(X); one-dimensional targets only."""
    if pmap.m != 1:
        raise ValueError("pushforward sampling is implemented for one-dimensional targets")
    if len(cfg.box) != pmap.n:
        raise ValueError("box dimension must match the map's source dimension")
    return evaluate_array(pmap, cfg)[:, 0]


def antithetic_sample(pmap: PolyMap, cfg: SampleConfig) -> np.ndarray:
    """The 1-D images of the first half = max(count//2, 1) points of cfg's
    stream followed by the images of their mirrors -z: the sample `esl real`
    hands the Fourier estimate, drawn here with the half alone."""
    half = max(cfg.count // 2, 1)
    return evaluate_array(pmap, replace(cfg, count=half), mirror=half)[:, 0]


def out_of_range(h: Histogram) -> float:
    """The part of the histogram's total mass that no bin holds."""
    return h.total - float(h.masses.sum())


def histogram_log_abs_masked(values: np.ndarray, bins: int, lo: float | None = None,
                             hi: float | None = None) -> tuple[Histogram, np.ndarray]:
    """histogram_log_abs through a boolean mask of the positive |values|
    and a sort of their compressed copy."""
    values = np.abs(np.asarray(values, dtype=float))
    positive = np.sort(values[values > 0])
    if positive.size == 0:
        raise ValueError("no nonzero values to bin")
    if lo is None:
        lo = float(positive[0]) * (1 - 1e-12)
    if hi is None:
        hi = float(positive[-1]) * (1 + 1e-12)
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for log-spaced edges")
    edges = np.geomspace(lo, hi, bins + 1)
    below = np.concatenate((positive.searchsorted(edges[:-1], side="left"),
                            positive.searchsorted(edges[-1:], side="right")))
    return Histogram(edges=edges, masses=np.diff(below) / values.size, total=1.0), positive


def auto_tail_window_reference(h: Histogram, values: np.ndarray,
                               quantiles: tuple[float, float] = (0.001, 0.05)) -> tuple[int, int]:
    """auto_tail_window on raw samples in any order: np.quantile of their
    positive magnitudes."""
    magnitudes = np.abs(np.asarray(values, dtype=float))
    magnitudes = magnitudes[magnitudes > 0]
    q_lo, q_hi = np.quantile(magnitudes, quantiles)
    i0 = max(int(np.searchsorted(h.edges, q_lo, side="left")), 0)
    i1 = min(int(np.searchsorted(h.edges, q_hi, side="right")) - 1, len(h.masses))
    if i1 <= i0:
        raise ValueError("empty tail window; increase bins or samples")
    return i0, i1


# ---------------------------------------------------------------------------
# uniform histograms and their convolution powers
# ---------------------------------------------------------------------------


class GridTooCoarseError(ValueError):
    """Histogram grid cannot support the requested convolution."""


def histogram_uniform(values: np.ndarray, bins: int, lo: float, hi: float) -> Histogram:
    """Histogram on a uniform grid [lo, hi]; suitable for convolution."""
    values = np.asarray(values, dtype=float)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return Histogram(edges=edges, masses=counts / values.size, total=1.0)


def convolution_power(h: Histogram, k: int) -> Histogram:
    """k-fold self-convolution of a uniform-grid histogram via padded FFT.

    Mass is preserved up to 1e-9 relative (verified); the output grid keeps
    the bin width, with support expanded k-fold.
    """
    if k < 1:
        raise ValueError("convolution power must be >= 1")
    widths = np.diff(h.edges)
    width = widths[0]
    if not np.allclose(widths, width, rtol=1e-9, atol=0):
        raise GridTooCoarseError("convolution requires a uniform grid")
    if int((h.masses > 0).sum()) < 2 and k > 1:
        raise GridTooCoarseError("histogram support too small to convolve")
    if k == 1:
        return Histogram(edges=h.edges.copy(), masses=h.masses.copy(), total=h.total)

    L = len(h.masses)
    out_len = k * (L - 1) + 1
    pad = 1
    while pad < out_len + 1:
        pad <<= 1
    spectrum = np.fft.rfft(h.masses, n=pad) ** k
    conv = np.fft.irfft(spectrum, n=pad)[:out_len]
    conv = np.where(np.abs(conv) < 1e-15, 0.0, conv)
    if (conv < -1e-12).any():
        raise GridTooCoarseError("aliasing detected in convolution output")
    conv = np.clip(conv, 0.0, None)

    in_mass = float(h.masses.sum())
    expected = in_mass**k
    if expected > 0 and abs(float(conv.sum()) - expected) > 1e-9 * max(expected, 1.0):
        raise GridTooCoarseError("convolution failed to preserve mass")

    lo = float(h.edges[0])
    start = k * lo + (k - 1) / 2 * width
    edges = start + width * np.arange(out_len + 1)
    return Histogram(edges=edges, masses=conv, total=h.total**k)


# ---------------------------------------------------------------------------
# exact density oracle (univariate equidimensional case)
# ---------------------------------------------------------------------------


class CriticalValueError(ValueError):
    """The requested target value is a critical value of the map."""


def _poly_coeff_list(p: Polynomial) -> list[Fraction]:
    coeffs = [Fraction(0)] * (total_degree(p) + 1)
    for exps, coeff in p.terms():
        coeffs[exps[0]] = coeff
    return coeffs


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _derivative_coeffs(coeffs: list[Fraction]) -> list[Fraction]:
    return [c * i for i, c in enumerate(coeffs)][1:] or [Fraction(0)]


def _descartes_bound_01(terms: dict[tuple[int], Fraction]) -> int:
    """Upper bound (exact when 0 or 1) on roots in the open interval (0, 1)."""
    # r(u) = (1+u)^degree * q(1/(1+u)); roots of q in (0,1) <-> roots of r in (0,inf).
    degree = max((i for (i,) in terms), default=0)
    reversed_terms = {(degree - i,): c for (i,), c in terms.items()}
    signs = [c > 0 for _, c in sorted(substitute_affine(reversed_terms, (1,)).items())]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _isolate_roots(coeffs: list[Fraction], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the simple real roots of p in (lo, hi].

    Endpoint roots at subdivision points are returned as degenerate
    intervals.  Requires p squarefree on the interval.
    """
    results: list[tuple[Fraction, Fraction]] = []
    terms = {(i,): c for i, c in enumerate(coeffs) if c}

    def recurse(a: Fraction, b: Fraction, depth: int):
        if depth > 128:
            raise RuntimeError("root isolation failed to converge; multiple root suspected")
        bound = _descartes_bound_01(substitute_affine(terms, (a,), (b - a,)))
        if bound == 0:
            return
        if bound == 1:
            results.append((a, b))
            return
        mid = (a + b) / 2
        if _poly_eval(coeffs, mid) == 0:
            results.append((mid, mid))
        recurse(a, mid, depth + 1)
        recurse(mid, b, depth + 1)

    if _poly_eval(coeffs, lo) == 0:
        results.append((lo, lo))
    if _poly_eval(coeffs, hi) == 0:
        results.append((hi, hi))
    recurse(lo, hi, 0)
    return sorted(results)


def _refine_root(coeffs: list[Fraction], a: Fraction, b: Fraction, tol: float = 1e-12) -> float:
    if a == b:
        return float(a)
    f_a = _poly_eval(coeffs, a)
    if f_a == 0:
        return float(a)
    if _poly_eval(coeffs, b) == 0:
        return float(b)
    while float(b - a) > tol:
        mid = (a + b) / 2
        f_mid = _poly_eval(coeffs, mid)
        if f_mid == 0:
            return float(mid)
        if (f_a > 0) != (f_mid > 0):
            b = mid
        else:
            a, f_a = mid, f_mid
    return float((a + b) / 2)


def _normalize_coeffs(c: list[Fraction]) -> list[Fraction]:
    c = c[:]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    p, q = _normalize_coeffs(p), _normalize_coeffs(q)
    if q == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    rem = p[:]
    while len(rem) >= len(q) and _normalize_coeffs(rem) != [Fraction(0)]:
        rem = _normalize_coeffs(rem)
        if len(rem) < len(q):
            break
        factor = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quot[shift] = factor
        for i, qc in enumerate(q):
            rem[i + shift] -= factor * qc
        rem = _normalize_coeffs(rem)
    return _normalize_coeffs(quot), _normalize_coeffs(rem)


def _fraction_gcd_poly(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two univariate rational polynomials (Euclid)."""
    p, q = _normalize_coeffs(p), _normalize_coeffs(q)
    while q != [Fraction(0)]:
        _, r = _poly_divmod(p, q)
        p, q = q, r
    if p == [Fraction(0)]:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _squarefree_part(p: list[Fraction]) -> list[Fraction]:
    deriv = _derivative_coeffs(p)
    g = _fraction_gcd_poly(p, deriv)
    if len(g) <= 1:
        return _normalize_coeffs(p)
    quot, _ = _poly_divmod(p, g)
    return quot


def density_oracle_equidim_1d(pmap: PolyMap, y: float | Fraction,
                              box: tuple[Fraction, Fraction],
                              density_weight: int = 0) -> float:
    """Exact-change-of-variables density of the pushforward at a regular value.

    Enumerates the real roots of phi(x) = y inside the box by Descartes
    isolation plus bisection to 1e-12, and returns the sum of
    base_density(root)/|phi'(root)|.  Raises CriticalValueError when y is a
    critical value (the density may be infinite there).
    """
    if pmap.n != 1 or pmap.m != 1:
        raise ValueError("oracle applies to univariate equidimensional maps")
    y = Fraction(y)
    lo, hi = Fraction(box[0]), Fraction(box[1])
    phi = pmap.components[0]
    shifted = phi - Polynomial.constant(1, y)
    coeffs = _poly_coeff_list(shifted)
    deriv = _derivative_coeffs(coeffs)

    gcd = _fraction_gcd_poly(coeffs, deriv)
    if len(gcd) > 1 and _isolate_roots(_squarefree_part(gcd), lo, hi):
        raise CriticalValueError(f"{y} is a critical value on the box")

    # Mass of |x|^b on the box: H(hi) - H(lo) with H(t) = t |t|^b / (b+1).
    b = density_weight
    normalization = float((hi * abs(hi) ** b - lo * abs(lo) ** b) / (b + 1))

    total = 0.0
    for a, b_iv in _isolate_roots(coeffs, lo, hi):
        root = _refine_root(coeffs, a, b_iv)
        slope = abs(_poly_eval_float(deriv, root))
        if slope < 1e-14:
            raise CriticalValueError(f"derivative vanishes near root {root}")
        base_density = (abs(root) ** density_weight) / normalization
        total += base_density / slope
    return total


def _poly_eval_float(coeffs: list[Fraction], x: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + float(c)
    return total


def bump_sample(seed: int, count: int) -> np.ndarray:
    """(count, 1) draws on [-1, 1] with density proportional to exp(1 - 1/(1 - x^2)).

    Rejection from the uniform law.  The density is smooth with compact
    support, so its Fourier transform decays faster than any power.
    """
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    while sum(len(a) for a in accepted) < count:
        x = rng.uniform(-1.0, 1.0, 2 * count)
        accepted.append(x[rng.random(x.size) < np.exp(1.0 - 1.0 / (1.0 - x * x))])
    return np.concatenate(accepted)[:count, None]


# ---------------------------------------------------------------------------
# cylinder masses by enumeration depth by depth
# ---------------------------------------------------------------------------


def _count_hits(component_terms, n: int, y, M: int, budget: int) -> int:
    """#{x in (Z/M)^n : phi(x) = y mod M}, by vectorized enumeration."""
    cells = M**n
    if cells > budget:
        raise BudgetExceededError(f"{cells} cells exceed the cell budget {budget}")
    if M > 2**31:
        raise BudgetExceededError("modulus too large for vectorized enumeration")
    hits = np.True_
    for terms, target in zip(component_terms, y):
        # Broadcast over the axes the component uses; the rest stay length 1.
        total = np.zeros((1,) * n, dtype=np.int64)
        for exps, coeff in terms:
            term = np.full((1,) * n, coeff % M, dtype=np.int64)
            for axis, e in enumerate(exps):
                if e:
                    powers = np.array([pow(r, e, M) for r in range(M)], dtype=np.int64)
                    term = term * powers.reshape([M if j == axis else 1 for j in range(n)]) % M
            total = (total + term) % M
        hits = hits & (total == target % M)
    return int(np.count_nonzero(hits)) * (cells // np.size(hits))


def enumerated_cylinder_mass(pmap: PolyMap, p: int, k_max: int, y: list[int],
                             budget: int) -> list[Fraction]:
    """Masses of {x in Z_p^n : phi(x) = y mod p^k}, k = 0..k_max, with
    (Z/p^k)^n enumerated afresh at every depth; each depth's p^(nk) cells
    must fit the budget."""
    component_terms = [_integer_coefficient_terms(comp) for comp in pmap.components]
    return [Fraction(_count_hits(component_terms, pmap.n, y, p**k, budget), p ** (pmap.n * k))
            for k in range(k_max + 1)]


# -- reference map-spec parser -------------------------------------------
# One frozen token object per token, and one Polynomial per number and
# variable, multiplied factor by factor.  esl.mapspec.parse_map_spec must
# give the same spec, term order and errors.


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|[{}()=,+\-*/^]|\S")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, INT, or the literal symbol
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            if line[pos] == "#":
                break
            match = _TOKEN_RE.match(line, pos)
            if not match:
                raise MapSpecError(f"unrecognized character {line[pos]!r}", line_no, pos + 1)
            raw = match.group()
            if raw[0].isalpha():
                kind = "IDENT"
            elif raw[0].isdecimal():
                kind = "INT"
            elif raw in "{}()=,+-*/^":
                kind = raw
            else:
                raise MapSpecError(f"unrecognized token {raw!r}", line_no, pos + 1)
            tokens.append(_Token(kind, raw, line_no, pos + 1))
            pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.pos = 0
        # End of input sits one column past the last character of the last line,
        # lines split as _tokenize splits them; "$" marks the end, so a final
        # line break still opens an empty last line.
        lines = (source + "$").splitlines()
        self._eof = _Token("EOF", "", len(lines), len(lines[-1]))

    def peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self._eof

    def advance(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or kind
            raise MapSpecError(f"expected {expected}, found {tok.text or 'end of input'}",
                               tok.line, tok.col)
        return self.advance()

    def expect_ident(self, word: str) -> _Token:
        tok = self.expect("IDENT", f"'{word}'")
        if tok.text != word:
            raise MapSpecError(f"expected '{word}', found {tok.text!r}", tok.line, tok.col)
        return tok

    # -- grammar ----------------------------------------------------------

    def parse_file(self) -> MapSpec:
        self.expect_ident("map")
        self.expect("{")
        self.expect_ident("n")
        self.expect("=")
        n = int(self.expect("INT").text)
        self.expect(",")
        self.expect_ident("m")
        self.expect("=")
        m = int(self.expect("INT").text)
        brace = self.expect("}")
        if n < 1 or m < 1:
            raise MapSpecError("dimensions must be positive", brace.line, brace.col)
        if n < m:
            raise MapSpecError(f"source dimension n={n} must be >= target dimension m={m}",
                               brace.line, brace.col)

        components: dict[int, Polynomial] = {}
        while self.peek().kind == "IDENT" and re.fullmatch(r"f\d+", self.peek().text):
            tok = self.advance()
            index = int(tok.text[1:])
            if not 1 <= index <= m:
                raise MapSpecError(f"component {tok.text} out of range for m={m}",
                                   tok.line, tok.col)
            if index in components:
                raise MapSpecError(f"component {tok.text} defined twice", tok.line, tok.col)
            self.expect("=")
            components[index] = self.parse_expr(n)
        missing = [f"f{i}" for i in range(1, m + 1) if i not in components]
        if missing:
            tok = self.peek()
            raise MapSpecError(f"missing components: {', '.join(missing)}", tok.line, tok.col)

        point = None
        if self.peek().kind == "IDENT" and self.peek().text == "at":
            self.advance()
            self.expect("(")
            coords = [self.parse_rational()]
            while self.peek().kind == ",":
                self.advance()
                coords.append(self.parse_rational())
            self.expect(")")
            if len(coords) != n:
                tok = self.peek()
                raise MapSpecError(f"base point has {len(coords)} coordinates, expected {n}",
                                   tok.line, tok.col)
            point = tuple(coords)

        trailing = self.peek()
        if trailing.kind != "EOF":
            raise MapSpecError(f"unexpected trailing input {trailing.text!r}",
                               trailing.line, trailing.col)
        return MapSpec(n=n, m=m, components=tuple(components[i] for i in range(1, len(components) + 1)),
                       point=point)

    def parse_expr(self, n: int) -> Polynomial:
        # One dict collects the signed terms: no copy of the partial sum per term.
        terms: dict[tuple[int, ...], Fraction] = {}
        sign = 1
        while True:
            for exps, coeff in self.parse_term(n).terms():
                terms[exps] = terms.get(exps, 0) + sign * coeff
            if self.peek().kind not in ("+", "-"):
                return Polynomial(n, terms)
            sign = 1 if self.advance().kind == "+" else -1

    def parse_term(self, n: int) -> Polynomial:
        result = self.parse_factor(n)
        while self.peek().kind == "*":
            self.advance()
            result = result * self.parse_factor(n)
        return result

    def parse_factor(self, n: int) -> Polynomial:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr(n)
            self.expect(")")
            return inner
        if tok.kind == "-" or tok.kind == "INT":
            return Polynomial.constant(n, self.parse_rational())
        if tok.kind == "IDENT":
            match = re.fullmatch(r"x(\d+)", tok.text)
            if not match:
                raise UnknownVariableError(f"unknown variable {tok.text!r}", tok.line, tok.col)
            index = int(match.group(1))
            if not 1 <= index <= n:
                raise UnknownVariableError(
                    f"variable x{index} out of range for n={n}", tok.line, tok.col)
            self.advance()
            exponent = 1
            if self.peek().kind == "^":
                self.advance()
                exp_tok = self.peek()
                if exp_tok.kind == "-":
                    raise NegativeExponentError("negative exponents are not allowed",
                                                exp_tok.line, exp_tok.col)
                exponent = int(self.expect("INT", "a nonnegative integer exponent").text)
            exps = tuple(exponent if i == index - 1 else 0 for i in range(n))
            return Polynomial.monomial(n, exps)
        raise MapSpecError(f"expected a factor, found {tok.text or 'end of input'}",
                           tok.line, tok.col)

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num = int(self.expect("INT", "a number").text)
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("INT", "a positive denominator")
            den = int(den_tok.text)
            if den == 0:
                raise MapSpecError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_map_spec_reference(text: str) -> MapSpec:
    """esl.mapspec.parse_map_spec built from a Polynomial per factor."""
    return _Parser(_tokenize(text), text).parse_file()

"""Monte Carlo verification engine over the real numbers.

Draws samples from monomial-weighted measures on a box, pushes them through
a polynomial map, and estimates the singularity exponents empirically: the
tail exponent of the pushforward density (against the power-times-log
asymptotic model near the critical value), the Fourier-decay exponent, and
L^q divergence behaviour.  An exact density oracle for univariate
equidimensional maps provides an independent cross-check.

Determinism: all sampling is sharded with seeds base_seed + shard_index and
fixed shard size, so a given SampleConfig always produces a bit-identical
stream regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polys import Polynomial, PolyMap, substitute_affine
from .values import ExponentValue

SHARD_SIZE = 1 << 18


class ZeroMassBoxError(ValueError):
    """The sampling box is degenerate (an axis interval has no length)."""


class CriticalValueError(ValueError):
    """The requested target value is a critical value of the map."""


class GridTooCoarseError(ValueError):
    """Histogram grid cannot support the requested convolution."""


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible description of the source measure and sample size.

    The base law is uniform on the box, optionally reweighted by the
    monomial density prod |x_i|^{b_i} (density_weights) and, when
    smooth_bump is set, by a smooth compactly supported bump profile
    (useful to validate estimators on maps with smooth pushforwards).
    """

    seed: int
    count: int
    box: tuple[tuple[Fraction, Fraction], ...]
    density_weights: tuple[int, ...] | None = None
    smooth_bump: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")
        box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        for lo, hi in box:
            if not lo < hi:
                raise ZeroMassBoxError(f"degenerate interval [{lo}, {hi}]")
        if self.density_weights is not None:
            weights = tuple(int(b) for b in self.density_weights)
            if len(weights) != len(box):
                raise ValueError("one density weight per axis required")
            if any(b < 0 for b in weights):
                raise ValueError("density weights must be >= 0")
            object.__setattr__(self, "density_weights", weights)

    @classmethod
    def unit_box(cls, seed: int, count: int, n: int, **kwargs) -> "SampleConfig":
        box = tuple((Fraction(-1), Fraction(1)) for _ in range(n))
        return cls(seed=seed, count=count, box=box, **kwargs)


@dataclass
class Histogram:
    """Binned masses; edges strictly increasing, mass outside range allowed."""

    edges: np.ndarray
    masses: np.ndarray
    total: float

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if len(self.edges) != len(self.masses) + 1:
            raise ValueError("edges must have one more entry than masses")
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("edges must be strictly increasing")
        if self.masses.sum() > self.total * (1 + 1e-12):
            raise ValueError("binned mass exceeds the declared total")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def densities(self) -> np.ndarray:
        return self.masses / self.widths

    @property
    def out_of_range(self) -> float:
        return self.total - float(self.masses.sum())

    def to_csv_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), float(self.masses[i]))
            for i in range(len(self.masses))
        ]


@dataclass(frozen=True)
class ExponentFit:
    """Fitted leading tail exponent of a density near its critical value.

    lambda_hat is the exponent in density ~ c * |y|^(lambda-1) * log(1/|y|)^log_power.
    """

    lambda_hat: float
    log_power: int
    stderr: float
    r2: float

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")
        if not 0 <= self.r2 <= 1:
            raise ValueError("r2 must lie in [0, 1]")


@dataclass(frozen=True)
class EpsEstimate:
    """Empirical integrability exponent; infinite means 'classified infinite'."""

    infinite: bool
    value: float | None
    stderr: float | None


@dataclass(frozen=True)
class FourierDecayFit:
    delta_hat: float
    stderr: float
    t_range: tuple[float, float]
    flag: str | None = None

    def __post_init__(self):
        if self.delta_hat < 0:
            raise ValueError("decay exponent must be >= 0")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _signed_power_cdf_pair(lo: float, hi: float, b: int) -> tuple[float, float]:
    """Antiderivative H(t) = sign(t) |t|^(b+1)/(b+1) evaluated at lo and hi."""
    def H(t: float) -> float:
        return math.copysign(abs(t) ** (b + 1) / (b + 1), t)

    return H(lo), H(hi)


def _inverse_power_cdf(u: np.ndarray, lo: float, hi: float, b: int) -> np.ndarray:
    h_lo, h_hi = _signed_power_cdf_pair(lo, hi, b)
    v = h_lo + u * (h_hi - h_lo)
    return np.sign(v) * (np.abs(v) * (b + 1)) ** (1.0 / (b + 1))


def _bump_profile(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    center = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo)
    s = (x - center) / radius
    out = np.zeros_like(s)
    inside = np.abs(s) < 1
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _shard_counts(total: int) -> list[int]:
    counts = [SHARD_SIZE] * (total // SHARD_SIZE)
    if total % SHARD_SIZE:
        counts.append(total % SHARD_SIZE)
    return counts


def _draw_shard(cfg: SampleConfig, shard_index: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed + shard_index)
    n = len(cfg.box)
    weights = cfg.density_weights or (0,) * n

    def transform(u: np.ndarray) -> np.ndarray:
        cols = []
        for axis in range(n):
            lo, hi = float(cfg.box[axis][0]), float(cfg.box[axis][1])
            cols.append(_inverse_power_cdf(u[:, axis], lo, hi, weights[axis]))
        return np.column_stack(cols)

    if not cfg.smooth_bump:
        return transform(rng.random((count, n)))

    # Rejection against the bump profile; batch sizes are a deterministic
    # function of the remaining deficit, so the stream is reproducible.
    accepted: list[np.ndarray] = []
    got = 0
    while got < count:
        batch = max(4 * (count - got), 1024)
        x = transform(rng.random((batch, n)))
        keep = np.ones(batch, dtype=bool)
        for axis in range(n):
            lo, hi = float(cfg.box[axis][0]), float(cfg.box[axis][1])
            keep &= rng.random(batch) < _bump_profile(x[:, axis], lo, hi)
        x = x[keep]
        accepted.append(x)
        got += len(x)
    return np.concatenate(accepted)[:count]


def sample_source(cfg: SampleConfig, workers: int = 1) -> np.ndarray:
    """Deterministic (count, n) array of draws from the configured measure."""
    counts = _shard_counts(cfg.count)
    if workers > 1 and len(counts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(lambda ic: _draw_shard(cfg, ic[0], ic[1]), enumerate(counts)))
    else:
        shards = [_draw_shard(cfg, i, c) for i, c in enumerate(counts)]
    return np.concatenate(shards)


def evaluate_array(pmap: PolyMap, points: np.ndarray) -> np.ndarray:
    """Vectorized float evaluation: (N, n) points -> (N, m) images."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != pmap.n:
        raise ValueError(f"expected points of shape (N, {pmap.n})")
    out = np.empty((points.shape[0], pmap.m))
    for j, comp in enumerate(pmap.components):
        term_values = []
        for exps, coeff in comp.terms():
            value = np.full(points.shape[0], float(coeff))
            for axis, e in enumerate(exps):
                if e:
                    value = value * points[:, axis] ** e
            term_values.append(value)
        if term_values:
            out[:, j] = np.sum(term_values, axis=0)
        else:
            out[:, j] = 0.0
    return out


def sample_pushforward(pmap: PolyMap, cfg: SampleConfig, workers: int = 1) -> np.ndarray:
    """I.i.d. pushforward values phi(X); one-dimensional targets only."""
    if pmap.m != 1:
        raise ValueError("pushforward sampling is implemented for one-dimensional targets")
    if len(cfg.box) != pmap.n:
        raise ValueError("box dimension must match the map's source dimension")
    return evaluate_array(pmap, sample_source(cfg, workers=workers))[:, 0]


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def histogram_log_abs(values: np.ndarray, bins: int, lo: float | None = None,
                      hi: float | None = None) -> Histogram:
    """Histogram of |values| on log-spaced edges; zeros fall out of range."""
    values = np.abs(np.asarray(values, dtype=float))
    positive = values[values > 0]
    if positive.size == 0:
        raise ValueError("no nonzero values to bin")
    if lo is None:
        lo = float(positive.min()) * (1 - 1e-12)
    if hi is None:
        hi = float(positive.max()) * (1 + 1e-12)
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for log-spaced edges")
    edges = np.geomspace(lo, hi, bins + 1)
    counts, _ = np.histogram(positive, bins=edges)
    return Histogram(edges=edges, masses=counts / values.size, total=1.0)


def histogram_uniform(values: np.ndarray, bins: int, lo: float, hi: float) -> Histogram:
    """Histogram on a uniform grid [lo, hi]; suitable for convolution."""
    values = np.asarray(values, dtype=float)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return Histogram(edges=edges, masses=counts / values.size, total=1.0)


# ---------------------------------------------------------------------------
# tail exponent fitting
# ---------------------------------------------------------------------------


def auto_tail_window(h: Histogram, values: np.ndarray,
                     quantiles: tuple[float, float] = (0.001, 0.05)) -> tuple[int, int]:
    """Bin index range covering |y| between the given sample quantiles.

    The asymptotic model holds as |y| -> 0, so the window hugs the small
    quantiles and excludes the bulk.
    """
    magnitudes = np.abs(np.asarray(values, dtype=float))
    magnitudes = magnitudes[magnitudes > 0]
    q_lo, q_hi = np.quantile(magnitudes, quantiles)
    i0 = int(np.searchsorted(h.edges, q_lo, side="left"))
    i1 = int(np.searchsorted(h.edges, q_hi, side="right")) - 1
    i0 = max(i0, 0)
    i1 = min(i1, len(h.masses))
    if i1 <= i0:
        raise ValueError("empty tail window; increase bins or samples")
    return i0, i1


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares y ~ a + b x; returns (a, b, stderr_b, r2, ssr)."""
    sw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x])
    coeffs, _, _, _ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    a, b = coeffs
    resid = y - (a + b * x)
    ssr = float(np.sum(w * resid**2))
    dof = max(len(x) - 2, 1)
    sigma2 = ssr / dof
    gram = design.T @ (design * w[:, None])
    cov = sigma2 * np.linalg.inv(gram)
    stderr_b = float(np.sqrt(max(cov[1, 1], 0.0)))
    ybar = float(np.sum(w * y) / np.sum(w))
    sst = float(np.sum(w * (y - ybar) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    return float(a), float(b), stderr_b, min(max(r2, 0.0), 1.0), ssr


def fit_tail_exponent(h: Histogram, window: tuple[int, int]) -> ExponentFit:
    """Fit the leading tail exponent on the given bin range.

    Fits log density against log |y| with the log-power multiplier fixed to
    each of 0, 1, 2 and keeps the power with minimal weighted residual;
    weights are bin masses.  Requires at least eight occupied bins.
    """
    i0, i1 = window
    masses = h.masses[i0:i1]
    left, right = h.edges[i0:i1], h.edges[i0 + 1:i1 + 1]
    occupied = masses > 0
    if int(occupied.sum()) < 8:
        raise ValueError(f"only {int(occupied.sum())} occupied bins in window; need >= 8")
    centers = np.sqrt(left * right)[occupied]
    dens = (masses / (right - left))[occupied]
    w = masses[occupied]
    log_y = np.log(centers)
    log_dens = np.log(dens)

    candidates = [0]
    if np.all(centers < 1.0):
        candidates += [1, 2]
    best = None
    for m in candidates:
        adjusted = log_dens - m * np.log(np.log(1.0 / centers)) if m else log_dens
        a, b, se, r2, ssr = _weighted_line_fit(log_y, adjusted, w)
        if best is None or ssr < best[0]:
            best = (ssr, m, b, se, r2)
    _, m, slope, se, r2 = best
    return ExponentFit(lambda_hat=slope + 1.0, log_power=m, stderr=se, r2=r2)


INFINITE_CLASSIFICATION_THRESHOLD = 0.9


def estimate_eps_star(fit: ExponentFit) -> EpsEstimate:
    """Convert a tail exponent into an integrability exponent estimate.

    Near lambda = 1 the conversion has a pole, so values at or above the
    classification threshold are reported as 'infinite' rather than as a
    meaningless large number.
    """
    lam = fit.lambda_hat
    if lam <= 0:
        raise ValueError("tail exponent must be positive")
    if lam >= INFINITE_CLASSIFICATION_THRESHOLD:
        return EpsEstimate(infinite=True, value=None, stderr=None)
    eps = lam / (1 - lam)
    stderr = fit.stderr / (1 - lam) ** 2
    return EpsEstimate(infinite=False, value=eps, stderr=stderr)


# ---------------------------------------------------------------------------
# Fourier decay
# ---------------------------------------------------------------------------


SUPERPOLYNOMIAL_SLOPE = 1.5


def _char_function_magnitudes(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    mags = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        z = np.exp(1j * t * values)
        mags[i] = abs(z.mean())
    return mags


def estimate_delta_star_1d(pmap: PolyMap, cfg: SampleConfig, t_grid: Sequence[float],
                           functionals: Sequence[Sequence[float]] | None = None,
                           workers: int = 1) -> FourierDecayFit:
    """Estimate the power-law Fourier-decay exponent of the pushforward.

    The characteristic function is averaged over antithetic sample pairs
    and the decay exponent is the negative slope of log-magnitude against
    log-frequency on the window where the signal exceeds the Monte Carlo
    noise floor.  For targets of dimension m > 1 a finite family of unit
    functionals must be supplied; the reported exponent is the minimum over
    the family.

    Classification flags: 'superpolynomial' (decay faster than the singular
    power-law regime; delta_hat is reported as the sentinel value 2.0,
    meaning "at least 2"), 'non-decaying' (flat window), and
    'insufficient-signal' (all magnitudes at the noise floor).
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if len(t_grid) < 4 or t_grid[0] <= 0:
        raise ValueError("need at least four positive frequencies")
    if pmap.m > 1:
        if not functionals:
            raise ValueError("supply unit functionals for targets of dimension > 1")
        fits = []
        for ell in functionals:
            composed = _compose_functional(pmap, ell)
            fits.append(estimate_delta_star_1d(composed, cfg, t_grid, workers=workers))
        return min(fits, key=lambda f: f.delta_hat)

    half = max(cfg.count // 2, 1)
    half_cfg = SampleConfig(seed=cfg.seed, count=half, box=cfg.box,
                            density_weights=cfg.density_weights, smooth_bump=cfg.smooth_bump)
    base = sample_source(half_cfg, workers=workers)
    lo = np.array([float(b[0]) for b in cfg.box])
    hi = np.array([float(b[1]) for b in cfg.box])
    mirrored = lo + hi - base  # antithetic partner within the box
    values = np.concatenate([
        evaluate_array(pmap, base)[:, 0],
        evaluate_array(pmap, mirrored)[:, 0],
    ])

    mags = _char_function_magnitudes(values, t_grid)
    noise_floor = 10.0 / math.sqrt(len(values))
    usable = mags > noise_floor
    t_range = (float(t_grid[0]), float(t_grid[-1]))

    if int(usable.sum()) < 4:
        if not usable.any():
            return FourierDecayFit(0.0, 0.0, t_range, flag="insufficient-signal")
        return FourierDecayFit(2.0, 0.0, t_range, flag="superpolynomial")

    x = np.log(t_grid[usable])
    y = np.log(mags[usable])
    _, slope, se, _, _ = _weighted_line_fit(x, y, np.ones_like(x))
    delta = -slope
    if delta < 0.05:
        return FourierDecayFit(max(delta, 0.0), se, t_range, flag="non-decaying")
    if delta >= SUPERPOLYNOMIAL_SLOPE:
        # Decay faster than any singular power law this estimator targets:
        # report the smooth-regime sentinel (meaning "at least 2").
        return FourierDecayFit(max(delta, 2.0), se, t_range, flag="superpolynomial")
    return FourierDecayFit(delta, se, t_range)


def _compose_functional(pmap: PolyMap, ell: Sequence[float]) -> PolyMap:
    if len(ell) != pmap.m:
        raise ValueError("functional length must match target dimension")
    combined = Polynomial.zero(pmap.n)
    for coeff, comp in zip(ell, pmap.components):
        combined = combined + Fraction(coeff).limit_denominator(10**9) * comp
    return PolyMap([combined])


# ---------------------------------------------------------------------------
# exact density oracle (univariate equidimensional case)
# ---------------------------------------------------------------------------


def _poly_coeff_list(p: Polynomial) -> list[Fraction]:
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
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

    b = density_weight
    h_lo, h_hi = _signed_power_cdf_pair(float(lo), float(hi), b)
    normalization = h_hi - h_lo

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


# ---------------------------------------------------------------------------
# convolution powers
# ---------------------------------------------------------------------------


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
# distributional checks
# ---------------------------------------------------------------------------


def small_ball_slope(values: np.ndarray, quantiles: tuple[float, float] = (0.002, 0.2),
                     points: int = 12) -> float:
    """Slope of log mass{|y| <= delta} against log delta over a tail grid."""
    magnitudes = np.sort(np.abs(np.asarray(values, dtype=float)))
    magnitudes = magnitudes[magnitudes > 0]
    lo = np.quantile(magnitudes, quantiles[0])
    hi = np.quantile(magnitudes, quantiles[1])
    deltas = np.geomspace(lo, hi, points)
    masses = np.searchsorted(magnitudes, deltas, side="right") / len(magnitudes)
    _, slope, _, _, _ = _weighted_line_fit(np.log(deltas), np.log(masses), np.ones(points))
    return float(slope)


def distributional_estimate_check(values: np.ndarray, e: ExponentValue,
                                  tolerance: float = 0.07) -> bool:
    """Check the small-ball estimate mass{|y| <= d} <~ d^(1 - 1/(1+e)).

    True when the empirical slope is at least the predicted exponent minus
    the tolerance.
    """
    if e.is_infinite:
        raise ValueError("pass a large finite proxy instead of infinity")
    predicted = 1.0 - 1.0 / (1.0 + float(e.fraction))
    return small_ball_slope(values) >= predicted - tolerance


def lq_divergence_scan(h: Histogram, q: float, decades: int = 3, points: int = 7) -> tuple[bool, float]:
    """Detect divergence of the integral of density^q near the critical value.

    Integrates density^q over |y| >= cutoff for shrinking cutoffs and
    inspects the increments per cutoff step: for a divergent integral the
    increments do not die out; for a convergent one they shrink geometrically.
    Returns (diverges, last_to_first_increment_ratio).
    """
    positive = h.masses > 0
    centers = np.sqrt(h.edges[:-1] * h.edges[1:])
    dens = h.densities
    hi = centers[positive].max()
    lo = max(centers[positive].min(), hi * 10.0 ** (-decades))
    cutoffs = np.geomspace(hi * 0.5, lo, points)
    integrals = []
    for c in cutoffs:
        mask = positive & (centers >= c)
        integrals.append(float(np.sum(dens[mask] ** q * h.widths[mask])))
    increments = np.diff(integrals)
    increments = increments[increments > 0]
    if len(increments) < 2:
        return False, 0.0
    ratio = float(increments[-1] / increments[0])
    return ratio > 0.5, ratio

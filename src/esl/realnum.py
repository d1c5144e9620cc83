"""Monte Carlo verification engine over the real numbers.

Draws samples from monomial-weighted measures on a box, pushes them through
a polynomial map, and estimates the singularity exponents empirically: the
tail exponent of the pushforward density (against the power-times-log
asymptotic model near the critical value), the Fourier-decay exponent and
the small-ball slope.

Determinism: all sampling is sharded with seeds base_seed + shard_index and
fixed shard size, so a given SampleConfig produces a bit-identical stream on
one machine and numpy build, and a shorter count draws a prefix.  `esl real`
evaluates one draw, integer powers as square-and-multiply float products,
and in the same pass the images of -z for its first half, its antithetic
mirror, from the sign (-1)^|a| of each term z^a.  The Fourier estimate
reads that half and its mirror, with float32 cos/sin of float64-reduced
phases summed in float64 block by block in reused buffers, chained to
equal one whole-array sum (1e-9 from complex128; noise floor
10/sqrt(N)).  The frequencies are split across the usable cores (the CPU
affinity, capped by the cgroup CPU quota), each frequency's sums chained
as on one core, so the result does not depend on the core count.  One
weighted line fit, fit_line, and one log-power selector, fit_log_power,
serve every exponent fit here and the depth fits in padic.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import _np as np
from .polys import PolyMap

SHARD_SIZE = 1 << 18
# A multiple of numpy's 8192-element reduce buffer: chained block sums equal one whole-array sum.
BLOCK = 1 << 16


class ZeroMassBoxError(ValueError):
    """The sampling box is degenerate (an axis interval has no length)."""


class ValueUnderflowError(ValueError):
    """Pushforward values in the tail window are too small to fit in double precision."""


class CoefficientOverflowError(ValueError):
    """A coefficient of the map is too large for double precision."""


class ValueOverflowError(ValueError):
    """Pushforward values are too large for double precision."""


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible description of the source measure and sample size.

    The base law is uniform on the box, optionally reweighted by the
    monomial density prod |x_i|^{b_i} (density_weights).
    """

    seed: int
    count: int
    box: tuple[tuple[Fraction, Fraction], ...]
    density_weights: tuple[int, ...] | None = None

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


def sample_source(cfg: SampleConfig) -> np.ndarray:
    """Deterministic (count, n) array of draws from the configured measure."""
    weights = cfg.density_weights or (0,) * len(cfg.box)
    points = np.empty((cfg.count, len(cfg.box)))
    for shard, start in enumerate(range(0, cfg.count, SHARD_SIZE)):
        rows = points[start:start + SHARD_SIZE]
        np.random.default_rng(cfg.seed + shard).random(out=rows)
        for axis, ((lo, hi), b) in enumerate(zip(cfg.box, weights)):
            # Inverse CDF of the density ~ |t|^b on [lo, hi], via H(t) = sign(t) |t|^(b+1)/(b+1);
            # at b = 0 it is lo + u*(hi - lo), computed in place.
            h = [math.copysign(abs(t) ** (b + 1) / (b + 1), t) for t in (float(lo), float(hi))]
            column = rows[:, axis]
            np.add(np.multiply(column, h[1] - h[0], out=column), h[0], out=column)
            if b:
                column[...] = np.sign(column) * (np.abs(column) * (b + 1)) ** (1.0 / (b + 1))
    return points


def _int_power(base: np.ndarray, e: int) -> np.ndarray:
    """base**e for an integer e >= 1 by square-and-multiply, in plain float products."""
    result = base if e & 1 else None
    while e := e >> 1:
        base = base * base
        if e & 1:
            result = base if result is None else result * base
    return result


def evaluate_array(pmap: PolyMap, points: np.ndarray, mirror: int = 0) -> np.ndarray:
    """Vectorized float evaluation: (N, n) points -> (N + mirror, m) images.
    The last mirror rows are the images of -points[:mirror], bit for bit:
    each term z^a is added into them, or subtracted where |a| is odd."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != pmap.n:
        raise ValueError(f"expected points of shape (N, {pmap.n})")
    out = np.zeros((len(points) + mirror, pmap.m))
    term = np.empty(len(points))
    # Each column power x_axis^e is computed once and dropped after its last use.
    uses = Counter((axis, e) for comp in pmap.components for exps, _ in comp.terms()
                   for axis, e in enumerate(exps) if e)
    powers: dict[tuple[int, int], np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # histogram_log_abs refuses non-finite images
        for j, comp in enumerate(pmap.components):
            forward, mirrored = out[:len(points), j], out[len(points):, j]
            for exps, coeff in comp.terms():
                try:
                    c = float(coeff)
                except OverflowError:
                    raise CoefficientOverflowError(
                        f"a coefficient of f{j + 1} overflows double precision "
                        f"(|c| > {np.finfo(float).max:.3g})") from None
                if not any(exps):
                    term.fill(c)
                for i, key in enumerate((axis, e) for axis, e in enumerate(exps) if e):
                    if key not in powers:
                        powers[key] = _int_power(points[:, key[0]], key[1])
                    np.multiply(term if i else c, powers[key], out=term)  # the first: c * x^e
                    uses[key] -= 1
                    if not uses[key]:
                        del powers[key]
                np.add(forward, term, out=forward)
                (np.subtract if sum(exps) & 1 else np.add)(mirrored, term[:mirror], out=mirrored)
    return out


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def histogram_log_abs(values: np.ndarray, bins: int, lo: float | None = None,
                      hi: float | None = None) -> tuple[Histogram, np.ndarray]:
    """Histogram of |values| on log-spaced edges, and the positive |values| it
    binned, ascending (a view of one sorted copy); zeros fall out of range."""
    magnitudes = np.abs(np.asarray(values, dtype=float))
    magnitudes.sort()
    if magnitudes.size and not np.isfinite(magnitudes[-1]):  # inf and NaN sort last
        raise ValueOverflowError(
            f"the pushforward values overflow double precision (|y| > "
            f"{np.finfo(float).max:.3g}); lower the map's coefficients or use `esl exact`")
    positive = magnitudes[magnitudes.searchsorted(0.0, side="right"):]
    if positive.size == 0:
        raise ValueError("no nonzero values to bin")
    if lo is None:
        lo = float(positive[0]) * (1 - 1e-12)
    if hi is None:
        hi = float(positive[-1]) * (1 + 1e-12)
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for log-spaced edges")
    edges = np.geomspace(lo, hi, bins + 1)
    # np.histogram's counts for non-uniform edges: every bin half-open but the last.
    below = np.concatenate((positive.searchsorted(edges[:-1], side="left"),
                            positive.searchsorted(edges[-1:], side="right")))
    return Histogram(edges=edges, masses=np.diff(below) / magnitudes.size, total=1.0), positive


# ---------------------------------------------------------------------------
# tail exponent fitting
# ---------------------------------------------------------------------------


def _sorted_quantile(ascending: np.ndarray, q: float) -> float:
    """np.quantile(ascending, q), method 'linear' with numpy's two-sided lerp, by index."""
    v, last = (len(ascending) - 1) * q, len(ascending) - 1
    a, b = ascending[min(math.floor(v), last)], ascending[min(math.floor(v) + 1, last)]
    gamma = v - math.floor(v)
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


def auto_tail_window(h: Histogram, magnitudes: np.ndarray,
                     quantiles: tuple[float, float] = (0.001, 0.05)) -> tuple[int, int]:
    """Bin index range covering |y| between the given sample quantiles of
    the positive magnitudes, ascending, that histogram_log_abs returns.

    The asymptotic model holds as |y| -> 0, so the window hugs the small
    quantiles and excludes the bulk.
    """
    q_lo, q_hi = (_sorted_quantile(magnitudes, q) for q in quantiles)
    i0 = int(np.searchsorted(h.edges, q_lo, side="left"))
    i1 = int(np.searchsorted(h.edges, q_hi, side="right")) - 1
    i0 = max(i0, 0)
    i1 = min(i1, len(h.masses))
    if i1 <= i0:
        raise ValueError("empty tail window; increase bins or samples")
    return i0, i1


@dataclass(frozen=True)
class LineFit:
    """Weighted least-squares line y ~ intercept + slope * x.

    stderr is the slope's standard error (infinite for a single point) and
    ssr the weighted sum of squared residuals.
    """

    intercept: float
    slope: float
    stderr: float
    r2: float
    ssr: float


def fit_line(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> LineFit:
    """Weighted least squares y ~ a + b x; unit weights by default."""
    w = np.ones_like(x) if w is None else w
    sw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x])
    (a, b), _, _, _ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    resid = y - (a + b * x)
    ssr = float(np.sum(w * resid**2))
    stderr = math.inf
    if len(x) >= 2:
        sigma2 = ssr / max(len(x) - 2, 1)
        cov = sigma2 * np.linalg.inv(design.T @ (design * w[:, None]))
        stderr = float(np.sqrt(max(cov[1, 1], 0.0)))
    ybar = float(np.sum(w * y) / np.sum(w))
    sst = float(np.sum(w * (y - ybar) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    return LineFit(float(a), float(b), stderr, min(max(r2, 0.0), 1.0), ssr)


def fit_log_power(x: np.ndarray, y: np.ndarray, log_term: np.ndarray | None,
                  powers: Sequence[int], w: np.ndarray | None = None
                  ) -> tuple[int, LineFit, dict[int, float]]:
    """Power-times-log model y ~ a + b x + m log_term with m fixed to each of powers.

    Returns the m with the smallest weighted SSR (the first on ties), its
    line fit, and the SSR of every candidate.  log_term is only read for
    nonzero powers.
    """
    residuals: dict[int, float] = {}
    best: tuple[int, LineFit] | None = None
    for m in powers:
        fit = fit_line(x, y - m * log_term if m else y, w)
        residuals[m] = fit.ssr
        if best is None or fit.ssr < best[1].ssr:
            best = (m, fit)
    return best[0], best[1], residuals


def fit_tail_exponent(h: Histogram, window: tuple[int, int]) -> ExponentFit:
    """Fit the leading tail exponent on the given bin range.

    Fits log density against log |y| with the log-power multiplier fixed to
    each of 0, 1, 2 and keeps the power with minimal weighted residual;
    weights are bin masses.  Requires at least eight occupied bins whose
    left edges are normal doubles.
    """
    i0, i1 = window
    masses = h.masses[i0:i1]
    left, right = h.edges[i0:i1], h.edges[i0 + 1:i1 + 1]
    occupied = masses > 0
    if int(occupied.sum()) < 8:
        raise ValueError(f"only {int(occupied.sum())} occupied bins in window; "
                         "need >= 8 (increase --samples)")
    tiny = np.finfo(float).tiny
    if left[occupied][0] < tiny:
        raise ValueUnderflowError(
            f"the pushforward values underflow double precision (tail window down to |y| = "
            f"{left[occupied][0]:.3g}); lower the map's degree near the base point or use "
            "`esl exact`")
    # Geometric bin centres; split the square root where the product of the
    # edges leaves the normal doubles.
    with np.errstate(over="ignore"):
        product = left * right
    normal = np.isfinite(product) & (product >= tiny)
    centers = np.where(normal, np.sqrt(product), np.sqrt(left) * np.sqrt(right))[occupied]
    dens = (masses / (right - left))[occupied]
    powers = (0, 1, 2) if np.all(centers < 1.0) else (0,)
    log_log = np.log(np.log(1.0 / centers)) if len(powers) > 1 else None
    m, fit, _ = fit_log_power(np.log(centers), np.log(dens), log_log, powers, masses[occupied])
    return ExponentFit(lambda_hat=fit.slope + 1.0, log_power=m, stderr=fit.stderr, r2=fit.r2)


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


def _chained_sums(values: np.ndarray, t_grid: np.ndarray, sums: np.ndarray,
                  scratch: np.ndarray, scratch32: np.ndarray) -> None:
    """Add the cos and sin sums of t*values into sums, one row per t, block by block."""
    for start in range(0, len(values), BLOCK):
        block = values[start:start + BLOCK]
        (ph, tu), (ph32, tr) = scratch[:, :len(block)], scratch32[:, :len(block)]
        for i, t in enumerate(t_grid):
            np.divide(np.multiply(block, t, out=ph), 2 * np.pi, out=tu)
            np.subtract(ph, np.multiply(np.rint(tu, out=tu), 2 * np.pi, out=tu), out=ph)
            # Past 2^53 the reduction leaves phases that overflow float32; clip them.
            ph32[...] = np.clip(ph, -np.pi, np.pi, out=ph)
            sums[i, 0] = np.add.reduce(np.cos(ph32, out=tr), dtype=np.float64, initial=sums[i, 0])
            sums[i, 1] = np.add.reduce(np.sin(ph32, out=tr), dtype=np.float64, initial=sums[i, 1])


CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpu_quota() -> int | None:
    """Whole CPUs the cgroup v2 quota grants, ceil(quota/period); None when
    the file is missing or unreadable or reads "max" (no quota)."""
    try:
        with open(CPU_MAX, encoding="ascii") as f:
            quota, period = f.read().split()
        return -(-int(quota) // int(period))
    except (OSError, ValueError):
        return None


def _char_function_magnitudes(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    # Bound |t*y| below the double range, so that neither t*y nor its
    # reduction overflows; phases that large are unresolvable all the same.
    # The check allocates nothing, and only such rare values pay for a copy.
    limit = np.finfo(float).max / (8 * np.max(np.abs(t_grid)))
    if values.max() > limit or values.min() < -limit:
        values = np.clip(values, -limit, limit)
    # Worker k sums the frequencies t_grid[k::workers] over every block in
    # order, so each frequency's sums chain exactly as on one core.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cores or 1, _cpu_quota() or len(t_grid), len(t_grid))
    sums = np.zeros((len(t_grid), 2))
    width = min(BLOCK, len(values))
    jobs = [(values, t_grid[k::workers], sums[k::workers],
             np.empty((2, width)), np.empty((2, width), np.float32)) for k in range(workers)]
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    # Threads start in an empty context; each worker runs in a copy of the
    # caller's, so it keeps the caller's numpy errstate.
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, _chained_sums, *job)
                   for job in jobs]
        for future in futures:
            future.result()
    return np.array([math.hypot(c / len(values), s / len(values)) for c, s in sums])


def estimate_delta_star_1d(pmap: PolyMap, cfg: SampleConfig, t_grid: Sequence[float],
                           drawn: np.ndarray | None = None) -> FourierDecayFit:
    """Estimate the power-law Fourier-decay exponent of the pushforward.

    The characteristic function is averaged over antithetic sample pairs:
    the first h = max(count//2, 1) points z of cfg's stream and their
    mirrors -z, so cfg's box must be symmetric about 0.  drawn, the 1-D
    images evaluate_array(pmap, sample_source(cfg), mirror=h)[:, 0], reuses
    a caller's draw and evaluates nothing; without it the half stream is
    drawn and evaluated with its mirror.
    The decay exponent is the negative slope of log-magnitude against
    log-frequency on the window where the signal exceeds the Monte Carlo
    noise floor.  One-dimensional targets only.

    Classification flags: 'superpolynomial' (decay faster than the singular
    power-law regime; delta_hat is reported as the sentinel value 2.0,
    meaning "at least 2"), 'non-decaying' (flat window),
    'insufficient-signal' (all magnitudes at the noise floor), and
    'unresolvable' (delta_hat 0: every phase t*y at the lowest frequency is
    at least 2^53, where doubles no longer resolve it).
    """
    if pmap.m != 1:
        raise ValueError("Fourier-decay estimation is implemented for one-dimensional targets")
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if len(t_grid) < 4 or t_grid[0] <= 0:
        raise ValueError("need at least four positive frequencies")

    if any(lo != -hi for lo, hi in cfg.box):
        raise ValueError("the antithetic mirror -z needs a box symmetric about 0")

    half = max(cfg.count // 2, 1)
    if drawn is None:
        values = evaluate_array(pmap, sample_source(replace(cfg, count=half)), mirror=half)[:, 0]
    elif len(drawn) != cfg.count + half:
        raise ValueError(f"drawn must hold {cfg.count} + {half} images, got {len(drawn)}")
    else:
        values = np.concatenate((drawn[:half], drawn[cfg.count:]))
    t_range = (float(t_grid[0]), float(t_grid[-1]))
    if np.min(np.abs(values)) >= 2.0**53 / t_grid[0]:
        return FourierDecayFit(0.0, 0.0, t_range, flag="unresolvable")

    mags = _char_function_magnitudes(values, t_grid)
    noise_floor = 10.0 / math.sqrt(len(values))
    usable = mags > noise_floor

    if int(usable.sum()) < 4:
        if not usable.any():
            return FourierDecayFit(0.0, 0.0, t_range, flag="insufficient-signal")
        return FourierDecayFit(2.0, 0.0, t_range, flag="superpolynomial")

    line = fit_line(np.log(t_grid[usable]), np.log(mags[usable]))
    delta, se = -line.slope, line.stderr
    if delta < 0.05:
        return FourierDecayFit(max(delta, 0.0), se, t_range, flag="non-decaying")
    if delta >= SUPERPOLYNOMIAL_SLOPE:
        # Decay faster than any singular power law this estimator targets:
        # report the smooth-regime sentinel (meaning "at least 2").
        return FourierDecayFit(max(delta, 2.0), se, t_range, flag="superpolynomial")
    return FourierDecayFit(delta, se, t_range)


# ---------------------------------------------------------------------------
# small-ball mass
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
    return fit_line(np.log(deltas), np.log(masses)).slope

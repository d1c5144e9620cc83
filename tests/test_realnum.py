import math
import os
import threading
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esl import realnum
from esl.mapspec import parse_map_spec
from esl.polys import Polynomial, PolyMap, shift_to_origin
from esl.realnum import (
    BLOCK,
    SHARD_SIZE,
    Histogram,
    SampleConfig,
    ZeroMassBoxError,
    _char_function_magnitudes,
    _cpu_quota,
    _sorted_quantile,
    auto_tail_window,
    estimate_delta_star_1d,
    estimate_eps_star,
    evaluate_array,
    fit_line,
    fit_log_power,
    fit_tail_exponent,
    histogram_log_abs,
    sample_source,
    small_ball_slope,
)
from esl.report import DEFAULT_T_GRID
from .oracles import (
    CriticalValueError,
    GridTooCoarseError,
    auto_tail_window_reference,
    bump_sample,
    char_function_magnitudes,
    char_function_magnitudes_per_frequency,
    convolution_power,
    density_oracle_equidim_1d,
    evaluate_float,
    float_power,
    histogram_log_abs_masked,
    histogram_uniform,
    out_of_range,
    sample_pushforward,
    sample_source_stacked,
)

SEED = 424242
X = Polynomial.variable(1, 0)
SQUARE = PolyMap([X * X])
CUBE = PolyMap([X**3])
IDENTITY = PolyMap([X])


def unit_cfg(count, **kwargs):
    return SampleConfig.unit_box(seed=SEED, count=count, n=1, **kwargs)


class TestSampling:
    def test_determinism_bit_identical(self):
        cfg = unit_cfg(300_000)
        a = sample_pushforward(SQUARE, cfg)
        b = sample_pushforward(SQUARE, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("count", [1, 9, 100_001, 2 * SHARD_SIZE + 3])
    @pytest.mark.parametrize("weights", [None, (2,)])
    def test_half_stream_is_a_prefix_of_the_full_one(self, count, weights):
        cfg = unit_cfg(count, density_weights=weights)
        half = max(count // 2, 1)
        full = sample_source(cfg)
        assert np.array_equal(sample_source(replace(cfg, count=half)), full[:half])

    @pytest.mark.parametrize("weights", [None, (1,), (0, 2, 1)])
    def test_shards_match_the_column_stacked_sampler(self, weights):
        n = len(weights) if weights else 1
        box = ((-1, 1), (Fraction(-1, 2), Fraction(3, 4)), (0, 2))[:n]
        cfg = SampleConfig(seed=SEED, count=2 * SHARD_SIZE + 3, box=box, density_weights=weights)
        assert np.array_equal(sample_source(cfg), sample_source_stacked(cfg))

    def test_identity_kolmogorov_distance(self):
        values = sample_pushforward(IDENTITY, unit_cfg(100_000))
        sorted_vals = np.sort(values)
        grid = (np.arange(len(values)) + 0.5) / len(values)
        ks = np.max(np.abs((sorted_vals + 1) / 2 - grid))
        assert ks < 0.01

    def test_square_small_ball_masses(self):
        values = sample_pushforward(SQUARE, unit_cfg(1_000_000))
        n = len(values)
        for delta in (0.01, 0.04, 0.09):
            mass = np.mean(np.abs(values) <= delta)
            expected = math.sqrt(delta)
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(mass - expected) <= 3 * sigma

    def test_cube_cdf(self):
        values = sample_pushforward(CUBE, unit_cfg(1_000_000))
        for delta in (0.008, 0.064):
            mass = np.mean((values >= 0) & (values <= delta))
            expected = delta ** (1 / 3) / 2
            sigma = math.sqrt(expected * (1 - expected) / len(values))
            assert abs(mass - expected) <= 4 * sigma

    def test_monomial_weights_change_the_law(self):
        cfg = SampleConfig(seed=SEED, count=200_000,
                           box=((Fraction(-1), Fraction(1)),), density_weights=(2,))
        values = sample_source(cfg)[:, 0]
        # density ~ x^2 on [-1,1]: P(|x| <= 1/2) = (1/2)^3
        mass = np.mean(np.abs(values) <= 0.5)
        assert abs(mass - 0.125) < 0.01

    def test_degenerate_box_rejected(self):
        with pytest.raises(ZeroMassBoxError):
            SampleConfig(seed=1, count=10, box=((Fraction(1), Fraction(1)),))

    def test_multidimensional_target_rejected(self):
        with pytest.raises(ValueError):
            sample_pushforward(PolyMap.identity(2),
                               SampleConfig.unit_box(seed=1, count=10, n=2))

    def test_evaluate_array_matches_scalar(self):
        pmap = PolyMap([X**2 + Fraction(1, 3)])
        pts = np.array([[0.5], [-0.25]])
        out = evaluate_array(pmap, pts)
        assert np.allclose(out[:, 0], [0.25 + 1 / 3, 0.0625 + 1 / 3])


class TestExactPowers:
    POINTS = [-1.7, -1.0, -0.75, -0.3, -1.2e-3, -1e-3, -0.0, 0.0, 9.7e-4, 1e-3, 0.3, 0.999, 1.0, 1.3]

    @pytest.mark.parametrize("e", [*range(1, 10), 56, 130])
    def test_square_and_multiply_bit_for_bit(self, e):
        got = evaluate_array(PolyMap([X**e]), np.array(self.POINTS)[:, None])[:, 0]
        assert np.array_equal(got, [float_power(x, e) for x in self.POINTS])
        # e - 1 rounded products: relative error at most (1 + 2^-53)^(e-1) - 1.
        bound = (1 + Fraction(1, 2**53)) ** (e - 1) - 1
        for x, y in zip(self.POINTS, got):
            exact = Fraction(x) ** e
            if np.finfo(float).tiny <= abs(exact) <= np.finfo(float).max:
                assert abs(Fraction(float(y)) - exact) <= bound * abs(exact)

    def test_shared_column_powers(self):
        spec = parse_map_spec("map{n=3,m=2} f1=2*x1^3*x2^2-x1^3+x2^2*x3^5 "
                              "f2=x1^3*x3^5+1/3*x2^2-x3 at (1/2, -3/4, 1/3)")
        pmap = shift_to_origin(spec.poly_map(), spec.point)
        points = np.random.default_rng(SEED).uniform(-1, 1, (200, 3))
        got = evaluate_array(pmap, points)
        assert np.array_equal(got, [evaluate_float(pmap, point) for point in points])

    @given(st.data())
    def test_mirror_rows_are_the_images_of_minus_z(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, min(n, 2)))
        exps = st.tuples(*[st.integers(0, 5)] * n)  # odd and even degrees, constants
        coeffs = st.fractions(-7, 7, max_denominator=9).filter(bool)
        pmap = PolyMap([Polynomial(n, data.draw(st.dictionaries(exps, coeffs, min_size=1,
                                                                max_size=4)))
                        for _ in range(m)])
        rows = data.draw(st.integers(1, 12))
        points = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
            -1.5, 1.5, (rows, n))
        points[::5, 0] = 0.0
        h = data.draw(st.integers(1, rows))
        got = evaluate_array(pmap, points, mirror=h)
        assert got.shape == (rows + h, m)
        assert np.array_equal(got[:rows], evaluate_array(pmap, points))
        assert np.array_equal(got[rows:], evaluate_array(pmap, -points[:h]))
        assert np.array_equal(got[rows:], [evaluate_float(pmap, -point) for point in points[:h]])


class TestHistogram:
    def test_mass_conservation(self):
        values = sample_pushforward(SQUARE, unit_cfg(200_000))
        h, _ = histogram_log_abs(values, bins=128)
        assert abs(h.masses.sum() + out_of_range(h) - 1.0) < 1e-12

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram(edges=np.array([1.0, 1.0]), masses=np.array([0.5]), total=1.0)

    def test_csv_rows(self):
        h = histogram_uniform(np.array([0.1, 0.2, 0.9]), bins=2, lo=0.0, hi=1.0)
        rows = h.to_csv_rows()
        assert len(rows) == 2 and abs(sum(r[2] for r in rows) - 1.0) < 1e-12

    @pytest.mark.parametrize("power, bins", [(1, 7), (2, 128), (3, 200), (5, 33)])
    def test_log_abs_matches_numpy_on_unsorted_input(self, power, bins):
        rng = np.random.default_rng(power)
        values = rng.standard_normal(20_001) ** power
        values[::97] = 0.0
        values[5::101] = np.round(values[5::101], 1)  # ties
        h, magnitudes = histogram_log_abs(values, bins=bins)
        positive = np.abs(values)[values != 0]
        assert np.array_equal(magnitudes, np.sort(positive))
        counts, _ = np.histogram(positive, bins=h.edges)
        assert np.array_equal(h.masses, counts / values.size)
        quantiles = (0.001, 0.05)
        q_lo, q_hi = np.quantile(positive, quantiles)
        window = (int(np.searchsorted(h.edges, q_lo, side="left")),
                  int(np.searchsorted(h.edges, q_hi, side="right")) - 1)
        assert auto_tail_window(h, magnitudes, quantiles) == window
        assert auto_tail_window_reference(h, values, quantiles) == window

    @pytest.mark.parametrize("bins, lo, hi", [(7, None, None), (64, 1e-3, 2.0), (33, None, 0.5)])
    def test_sorted_copy_matches_the_masked_reference(self, bins, lo, hi):
        rng = np.random.default_rng(bins)
        values = rng.standard_normal(5_003) ** 3
        values[::11], values[3::13] = 0.0, -0.0
        values[5::7] = np.round(values[5::7], 2)  # ties
        h, magnitudes = histogram_log_abs(values, bins=bins, lo=lo, hi=hi)
        want, want_magnitudes = histogram_log_abs_masked(values, bins=bins, lo=lo, hi=hi)
        assert np.array_equal(h.edges, want.edges)
        assert np.array_equal(h.masses, want.masses) and h.total == want.total
        assert np.array_equal(magnitudes, want_magnitudes)

    def test_non_finite_values_refused(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(realnum.ValueOverflowError, match="overflow double precision"):
                histogram_log_abs(np.array([0.5, bad, -2.0, 0.0]), bins=4)

    @given(st.lists(st.sampled_from([1e-300, 3e-9, 0.25, 0.25, 1.0, 7.5, 1e300])
                    | st.floats(1e-300, 1e300), min_size=1, max_size=60),
           st.floats(0.0, 1.0))
    def test_sorted_quantile_matches_numpy(self, values, q):
        ascending = np.sort(values)
        assert _sorted_quantile(ascending, q) == np.quantile(ascending, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_quantile_matches_numpy_on_random_arrays(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            size = int(rng.integers(1, 3_000))
            ascending = np.sort(10.0 ** rng.uniform(-300, 300, size))
            ascending[rng.integers(0, size, size // 4)] = ascending[0]  # ties
            ascending.sort()
            for q in (*rng.random(4), 0.001, 0.05, 0.0, 1.0):
                assert _sorted_quantile(ascending, q) == np.quantile(ascending, q)


class TestLineFit:
    def test_exact_line_and_weights(self):
        x = np.linspace(-2.0, 3.0, 9)
        fit = fit_line(x, 1.5 - 0.25 * x, np.arange(1.0, 10.0))
        assert fit.intercept == pytest.approx(1.5) and fit.slope == pytest.approx(-0.25)
        assert fit.ssr == pytest.approx(0.0, abs=1e-24) and fit.r2 == pytest.approx(1.0)

    def test_single_point_has_no_slope_error(self):
        fit = fit_line(np.array([1.0]), np.array([0.5]))
        assert fit.intercept + fit.slope == pytest.approx(0.5)
        assert fit.stderr == math.inf and fit.ssr == pytest.approx(0.0, abs=1e-24)

    def test_log_power_selection(self):
        x = np.linspace(1.0, 8.0, 12)
        log_term = np.log(x)
        m, fit, residuals = fit_log_power(x, 2.0 + 0.5 * x + log_term, log_term, (0, 1, 2))
        assert m == 1 and fit.slope == pytest.approx(0.5)
        assert sorted(residuals) == [0, 1, 2] and residuals[1] < min(residuals[0], residuals[2])
        # Power 0 never reads the log term.
        assert fit_log_power(x, 3.0 * x, None, (0,))[0] == 0


class TestTailFit:
    def test_square_lambda_half(self):
        values = sample_pushforward(SQUARE, unit_cfg(1_000_000))
        h, magnitudes = histogram_log_abs(values, bins=200)
        fit = fit_tail_exponent(h, auto_tail_window(h, magnitudes))
        assert abs(fit.lambda_hat - 0.5) < 0.05
        assert fit.log_power == 0

    def test_cube_lambda_third(self):
        values = sample_pushforward(CUBE, unit_cfg(1_000_000))
        h, magnitudes = histogram_log_abs(values, bins=200)
        fit = fit_tail_exponent(h, auto_tail_window(h, magnitudes))
        assert 0.28 <= fit.lambda_hat <= 0.39

    def test_identity_lambda_one(self):
        values = sample_pushforward(IDENTITY, unit_cfg(1_000_000))
        h, magnitudes = histogram_log_abs(values, bins=200)
        fit = fit_tail_exponent(h, auto_tail_window(h, magnitudes))
        assert 0.93 <= fit.lambda_hat <= 1.07

    def test_insufficient_bins_rejected(self):
        values = sample_pushforward(SQUARE, unit_cfg(1_000))
        h, _ = histogram_log_abs(values, bins=10)
        with pytest.raises(ValueError):
            fit_tail_exponent(h, (0, 4))

    def test_eps_star_conversion(self):
        from esl.realnum import ExponentFit
        assert estimate_eps_star(ExponentFit(0.5, 0, 0.01, 0.99)).value == pytest.approx(1.0)
        est = estimate_eps_star(ExponentFit(1 / 3, 0, 0.01, 0.99))
        assert est.value == pytest.approx(0.5)
        assert estimate_eps_star(ExponentFit(0.97, 0, 0.01, 0.99)).infinite
        assert estimate_eps_star(ExponentFit(0.91, 0, 0.01, 0.99)).infinite


class TestOracleAgreement:
    def test_square_histogram_matches_oracle(self):
        count = 1_000_000
        values = sample_pushforward(SQUARE, unit_cfg(count))
        h, _ = histogram_log_abs(values, bins=64, lo=0.01, hi=1.0)
        box = (Fraction(-1), Fraction(1))
        agree = 0
        occupied = 0
        for i in range(len(h.masses)):
            if h.masses[i] == 0:
                continue
            occupied += 1
            center = math.sqrt(h.edges[i] * h.edges[i + 1])
            oracle = density_oracle_equidim_1d(SQUARE, Fraction(center).limit_denominator(10**6), box)
            est = h.densities[i]
            stderr = math.sqrt(h.masses[i] / count) / h.widths[i]
            if abs(est - oracle) <= 3 * stderr:
                agree += 1
        assert occupied >= 50
        assert agree / occupied >= 0.95


class TestDensityOracle:
    def test_known_values(self):
        box = (Fraction(-1), Fraction(1))
        assert density_oracle_equidim_1d(SQUARE, Fraction(1, 4), box) == pytest.approx(1.0)
        assert density_oracle_equidim_1d(CUBE, Fraction(1, 8), box) == pytest.approx(2 / 3)
        assert density_oracle_equidim_1d(IDENTITY, Fraction(1, 3), box) == pytest.approx(0.5)

    def test_multiple_roots_summed(self):
        # phi(x) = x^2 (x - 2): three real preimages of small negative y
        pmap = PolyMap([X**3 - 2 * X**2])
        box = (Fraction(-3), Fraction(3))
        y = Fraction(-1, 10)
        total = density_oracle_equidim_1d(pmap, y, box)
        coeffs = [-float(y), 0.0, -2.0, 1.0]
        roots = np.roots(list(reversed(coeffs)))
        real_roots = [r.real for r in roots if abs(r.imag) < 1e-9 and -3 < r.real < 3]
        expected = sum((1 / 6) / abs(3 * r**2 - 4 * r) for r in real_roots)
        assert total == pytest.approx(expected, rel=1e-9)

    def test_critical_value_detected(self):
        box = (Fraction(-1), Fraction(1))
        with pytest.raises(CriticalValueError):
            density_oracle_equidim_1d(SQUARE, 0, box)

    def test_weighted_base_density(self):
        box = (Fraction(-1), Fraction(1))
        # weight |x|^2: normalization 2/3; at y=1/4 roots +-1/2 with weight 1/4
        got = density_oracle_equidim_1d(SQUARE, Fraction(1, 4), box, density_weight=2)
        assert got == pytest.approx(2 * (0.25 / (2 / 3)) / 1.0)


class TestFourierDecay:
    def test_square_decay(self):
        fit = estimate_delta_star_1d(SQUARE, unit_cfg(1_000_000),
                                     np.geomspace(10, 3000, 16))
        assert 0.43 <= fit.delta_hat <= 0.57
        assert fit.flag is None

    def test_cube_decay(self):
        fit = estimate_delta_star_1d(CUBE, unit_cfg(1_000_000),
                                     np.geomspace(10, 3000, 16))
        assert 0.26 <= fit.delta_hat <= 0.41

    def test_smooth_bump_classified_superpolynomial(self):
        points = bump_sample(SEED, 400_000)
        fit = estimate_delta_star_1d(IDENTITY, unit_cfg(400_000), np.geomspace(3, 100, 12),
                                     drawn=evaluate_array(IDENTITY, points, mirror=200_000)[:, 0])
        assert fit.flag == "superpolynomial"
        assert fit.delta_hat >= 2.0

    def test_drawn_points_give_the_fit_of_a_copy(self):
        pmap = shift_to_origin(parse_map_spec("map{n=2,m=1} f1=x1^2-x2^3").poly_map(), (0, 0))
        cfg = SampleConfig(seed=SEED, count=100_001,
                           box=((-1, 1), (Fraction(-3, 4), Fraction(3, 4))))
        points = sample_source(cfg)
        images = evaluate_array(pmap, points, mirror=50_000)[:, 0]
        from_copy = estimate_delta_star_1d(pmap, cfg, DEFAULT_T_GRID, drawn=images.copy())
        assert estimate_delta_star_1d(pmap, cfg, DEFAULT_T_GRID, drawn=images) == from_copy
        # The caller's points and images are left as they were.
        assert np.array_equal(points, sample_source(cfg))
        assert np.array_equal(images, evaluate_array(pmap, points, mirror=50_000)[:, 0])
        assert estimate_delta_star_1d(pmap, cfg, DEFAULT_T_GRID) == from_copy

    def test_box_not_symmetric_about_zero_rejected(self):
        pmap = PolyMap([Polynomial.variable(2, 0)])
        cfg = SampleConfig(seed=SEED, count=1000, box=((-1, 1), (Fraction(-1, 2), Fraction(3, 4))))
        with pytest.raises(ValueError, match="symmetric about 0"):
            estimate_delta_star_1d(pmap, cfg, DEFAULT_T_GRID)

    def test_drawn_of_the_wrong_length_rejected(self):
        cfg = unit_cfg(1001)
        images = evaluate_array(SQUARE, sample_source(cfg), mirror=500)[:, 0]
        with pytest.raises(ValueError, match="1001 \\+ 500 images, got 1001"):
            estimate_delta_star_1d(SQUARE, cfg, DEFAULT_T_GRID, drawn=images[:1001])

    def test_wide_targets_rejected(self):
        pmap = PolyMap.identity(2)
        with pytest.raises(ValueError):
            estimate_delta_star_1d(pmap, SampleConfig.unit_box(seed=1, count=1000, n=2),
                                   [10.0, 100.0, 1000.0, 10000.0])


def use_cores(monkeypatch, cores, quota=None):
    """Make the affinity lookup report the given number of usable cores, and
    the CPU quota lookup the given whole CPUs (None: no quota)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(realnum, "_cpu_quota", lambda: quota)


class TestCharFunctionKernel:
    @staticmethod
    def golden_real_values():
        # The two `real` maps of tests/golden, recentered, with their seeds and counts.
        for text, seed in [("map{n=2,m=1} f1=x1^2+x2^2", 7),
                           ("map{n=1,m=1} f1=x1^3-x1 at (1/2)", 11)]:
            spec = parse_map_spec(text)
            point = spec.point or (Fraction(0),) * spec.n
            shifted = shift_to_origin(spec.poly_map(), point)
            cfg = SampleConfig.unit_box(seed=seed, count=200_000, n=spec.n)
            yield sample_pushforward(shifted, cfg)

    def test_matches_complex128_reference(self):
        rng = np.random.default_rng(SEED)
        spread = np.geomspace(1e-6, 1e3, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        for values in [*self.golden_real_values(), spread]:
            got = _char_function_magnitudes(values, DEFAULT_T_GRID)
            want = char_function_magnitudes(values, DEFAULT_T_GRID)
            assert np.max(np.abs(got - want)) <= 1e-7

    @pytest.mark.parametrize("size", [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5,
                                      BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5,
                                      100_001, 1_000_000])
    def test_blocked_sums_match_the_per_frequency_kernel(self, size, monkeypatch):
        values = np.random.default_rng(size).standard_normal(size) ** 3
        want = char_function_magnitudes_per_frequency(values, DEFAULT_T_GRID)
        threads = threading.active_count()
        for cores in (1, 3):  # one worker, then three that split 16 frequencies 6/5/5
            use_cores(monkeypatch, cores)
            assert np.array_equal(_char_function_magnitudes(values, DEFAULT_T_GRID), want)
            assert threading.active_count() == threads

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        use_cores(monkeypatch, 2)
        ran_in = []

        def failing(values, t_grid, *scratch):
            ran_in.append(threading.current_thread())
            if t_grid[0] == DEFAULT_T_GRID[1]:
                raise ArithmeticError("the second worker failed")

        monkeypatch.setattr(realnum, "_chained_sums", failing)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="the second worker failed"):
            _char_function_magnitudes(np.ones(10), DEFAULT_T_GRID)
        assert len(ran_in) == 2 and threading.main_thread() not in ran_in
        assert threading.active_count() == threads

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        use_cores(monkeypatch, 2)
        seen = []
        monkeypatch.setattr(realnum, "_chained_sums", lambda *job: seen.append(np.geterr()["over"]))
        with np.errstate(over="raise"):
            _char_function_magnitudes(np.ones(10), DEFAULT_T_GRID)
        assert seen == ["raise", "raise"]

    @pytest.mark.parametrize("cores, quota, workers", [(8, None, 8), (8, 3, 3), (2, 5, 2),
                                                       (32, None, 16), (8, 1, 1)])
    def test_workers_capped_by_the_cpu_quota(self, monkeypatch, cores, quota, workers):
        use_cores(monkeypatch, cores, quota)
        started = []
        monkeypatch.setattr(realnum, "_chained_sums", lambda *job: started.append(job[1]))
        _char_function_magnitudes(np.ones(10), DEFAULT_T_GRID)
        assert len(started) == workers
        assert sorted(np.concatenate(started)) == sorted(DEFAULT_T_GRID)

    @pytest.mark.parametrize("text, quota", [("150000 100000\n", 2), ("200000 100000\n", 2),
                                             ("50000 100000\n", 1), ("max 100000\n", None),
                                             ("", None), (None, None), ("<directory>", None)])
    def test_cpu_quota_read_from_cpu_max(self, tmp_path, monkeypatch, text, quota):
        cpu_max = tmp_path / "cpu.max"
        if text == "<directory>":  # unreadable as a file
            cpu_max.mkdir()
        elif text is not None:  # None: the file is missing
            cpu_max.write_text(text)
        monkeypatch.setattr(realnum, "CPU_MAX", str(cpu_max))
        assert _cpu_quota() == quota

    def test_huge_phases_stay_finite(self, monkeypatch):
        use_cores(monkeypatch, 2)
        values = np.array([1e300, -1e300, 0.0, 3.7e250, 0.0, -2e200, 1e17, 0.5, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mags = _char_function_magnitudes(values, DEFAULT_T_GRID)
        assert np.all(np.isfinite(mags))
        assert np.all((mags >= 0) & (mags <= 1))
        assert np.array_equal(mags, char_function_magnitudes_per_frequency(values, DEFAULT_T_GRID))


class TestConvolution:
    def test_uniform_convolution_is_triangle(self):
        values = sample_pushforward(IDENTITY, unit_cfg(500_000))
        h = histogram_uniform(values, bins=512, lo=-1.0, hi=1.0)
        conv = convolution_power(h, 2)
        centers = 0.5 * (conv.edges[:-1] + conv.edges[1:])
        analytic = np.clip((2 - np.abs(centers)) / 4, 0, None)
        assert np.max(np.abs(conv.densities - analytic)) <= 0.02 * analytic.max()

    def test_mass_preserved(self):
        values = sample_pushforward(SQUARE, unit_cfg(200_000))
        h = histogram_uniform(values, bins=256, lo=-1.0, hi=1.0)
        conv = convolution_power(h, 3)
        assert abs(conv.masses.sum() - h.masses.sum() ** 3) < 1e-9

    def test_square_selfconvolution_bounded(self):
        values = sample_pushforward(SQUARE, unit_cfg(1_000_000))
        sups = []
        for bins in (512, 2048):
            h = histogram_uniform(values, bins=bins, lo=-1.0, hi=1.0)
            sups.append(convolution_power(h, 2).densities.max())
        assert abs(sups[1] / sups[0] - 1) < 0.05

    def test_cube_selfconvolution_blows_up_then_calms(self):
        values = sample_pushforward(CUBE, unit_cfg(1_000_000))
        growth = {}
        for k in (2, 3):
            sups = []
            for bins in (512, 2048):
                h = histogram_uniform(values, bins=bins, lo=-1.0, hi=1.0)
                sups.append(convolution_power(h, k).densities.max())
            growth[k] = sups[1] / sups[0] - 1
        # one self-convolution still blows up at the origin; the next one
        # only retains a logarithmic remnant, far below power-law growth
        assert growth[2] > 0.5
        assert growth[3] < 0.3
        assert growth[3] < growth[2] / 2

    def test_nonuniform_grid_rejected(self):
        h = Histogram(edges=np.array([0.0, 1.0, 3.0]), masses=np.array([0.5, 0.5]), total=1.0)
        with pytest.raises(GridTooCoarseError):
            convolution_power(h, 2)

    def test_identity_power(self):
        h = histogram_uniform(np.array([0.3, -0.4]), bins=16, lo=-1.0, hi=1.0)
        same = convolution_power(h, 1)
        assert np.array_equal(same.masses, h.masses)


class TestSmallBallSlope:
    def test_identity_slope_is_one(self):
        values = sample_pushforward(IDENTITY, unit_cfg(400_000))
        assert abs(small_ball_slope(values) - 1.0) < 0.05


class TestEpsDeltaConsistency:
    @pytest.mark.parametrize("d", [2, 3])
    def test_empirical_exponents_agree(self, d):
        pmap = PolyMap([X**d])
        cfg = unit_cfg(1_000_000)
        values = sample_pushforward(pmap, cfg)
        h, magnitudes = histogram_log_abs(values, bins=200)
        fit = fit_tail_exponent(h, auto_tail_window(h, magnitudes))
        eps_hat = estimate_eps_star(fit).value
        decay = estimate_delta_star_1d(pmap, cfg, np.geomspace(10, 3000, 16))
        delta = decay.delta_hat
        assert abs(eps_hat - delta / (1 - delta)) <= 0.2 * eps_hat

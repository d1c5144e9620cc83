import csv
import inspect
import json
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import jsonschema
import numpy as np
import pytest

from esl import cli, exponents, lct, padic, polys, realnum, report, simplex
from esl.cli import main
from esl.exponents import ExactInvariants
from esl.mapspec import parse_map_spec
from esl.report import exact_report, padic_report, real_report, report_schema

from .oracles import out_of_range
from .test_golden import CASES as GOLDEN_CASES
from .test_lazy_numpy import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_valid_report(payload: dict) -> None:
    jsonschema.validate(payload, report_schema())


class TestExactReports:
    def test_product_power_report(self):
        spec = parse_map_spec("map{n=3,m=1} f1 = x1^2*x2^2*x3^2")
        report = exact_report(spec)
        assert report["schema"] == "esl-report/1"
        assert report["lct_jacobian"]["value"] == "3/5"  # 1/(2 - 1/3)
        assert report["eps"]["lower"]["value"] == "3/5"
        assert report["eps"]["upper"]["value"] == "3/2"  # 1/(1 - 1/3)
        assert report["eps"]["exact"]["value"] == "1"    # fiber threshold 1/2
        assert report["delta"]["value"] == "1/2"
        assert_valid_report(report)

    def test_perturbed_square_component(self):
        # (x, x^2 (1 + y^3)): single minor 3 x^2 y^2, exact exponent 1/2
        spec = parse_map_spec("map{n=2,m=2} f1 = x1 f2 = x1^2 + x1^2*x2^3")
        report = exact_report(spec)
        assert report["eps"]["exact"]["value"] == "1/2"
        assert_valid_report(report)

    def test_equidimensional_report(self):
        spec = parse_map_spec("map{n=2,m=2} f1=x1^2 f2=x1^2*x2")
        report = exact_report(spec)
        assert report["eps"]["exact"]["value"] == "1/3"
        assert report["eps"]["exact"]["provenance"] == "eps_equidimensional"
        assert report["k_bounds"]["upper"]["value"] == 5

    def test_identity_report(self):
        spec = parse_map_spec("map{n=2,m=2} f1=x1 f2=x2")
        report = exact_report(spec)
        assert report["eps"]["exact"]["value"] == "inf"
        assert report["k_bounds"]["upper"]["value"] == 2

    def test_xy_report(self):
        spec = parse_map_spec("map{n=2,m=1} f1=x1*x2")
        report = exact_report(spec)
        assert report["eps"]["exact"]["value"] == "inf"
        assert report["eps"]["lower"]["value"] == "2"
        assert report["delta"]["kind"] == "lower"

    def test_base_point_shift(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1^2 at (1)")
        report = exact_report(spec)
        # recentred map is 2z + z^2: a submersion, infinite exponent
        assert report["eps"]["exact"]["value"] == "inf"

    def test_unit_determinant_is_a_submersion(self):
        spec = parse_map_spec("map{n=2,m=2} f1 = x1 + x2^2 f2 = x2 + x1^2")
        report = exact_report(spec)
        # determinant 1 - 4 x1 x2 is a local unit: the map is a local
        # diffeomorphism and the exponent is infinite
        assert report["eps"]["exact"]["value"] == "inf"

    def test_not_monomial_guidance(self):
        # determinant 2 x1^2 - 3 x2^3 has two terms and no constant part
        spec = parse_map_spec("map{n=2,m=2} f1 = x1^2 + x2^3 f2 = x1*x2")
        report = exact_report(spec)
        assert report["monomial_ideal"]["error"] == "NotMonomial"
        assert "resolution" in report["monomial_ideal"]["guidance"]
        assert_valid_report(report)

    def test_not_locally_dominant(self):
        spec = parse_map_spec("map{n=2,m=2} f1 = x1 f2 = x1")
        report = exact_report(spec)
        assert report["monomial_ideal"]["error"] == "NotLocallyDominant"

    def test_every_numeric_field_carries_provenance(self):
        spec = parse_map_spec("map{n=2,m=1} f1 = x1^2*x2^2")
        report = exact_report(spec)
        for key in ("lct_jacobian", "lct_fiber", "delta"):
            assert "provenance" in report[key]
        for entry in report["eps"].values():
            assert "provenance" in entry
        for entry in report["k_bounds"].values():
            assert "provenance" in entry

    def test_every_provenance_names_a_function_that_ran(self, monkeypatch):
        # Every alias of each public function is patched, as perfbench's tracer
        # does, so calls are seen whichever name the caller uses.
        called: set[str] = set()
        holders = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "esl" or name.startswith("esl."))]
        for module in (exponents, lct):
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                def spy(*args, _real=fn, _name=name, **kwargs):
                    called.add(_name)
                    return _real(*args, **kwargs)
                for holder in holders:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            monkeypatch.setattr(holder, alias, spy)

        def provenances(node) -> list[str]:
            if not isinstance(node, dict):
                return []
            own = [node["provenance"]] if "provenance" in node else []
            return own + [p for value in node.values() for p in provenances(value)]

        specs = [argv[1] for name, argv in GOLDEN_CASES.items() if name.startswith("exact-")]
        specs += ["map{n=3,m=1} f1=x1^2*x2^2*x3^2", "map{n=2,m=2} f1=x1 f2=x2",
                  "map{n=2,m=2} f1 = x1^2 + x2^3 f2 = x1*x2"]
        seen: set[str] = set()
        for text in specs:
            called.clear()
            named = provenances(exact_report(parse_map_spec(text)))
            assert set(named) <= called, (text, set(named) - called)
            seen.update(named)
        assert {"eps_equidimensional", "eps_lower_bound", "eps_from_lct"} <= seen

    @pytest.mark.parametrize("text", ["map{n=1,m=1} f1=x1^3", "map{n=2,m=1} f1=x1^2*x2^3"])
    def test_real_reads_the_exact_exponent_of_the_record(self, text):
        spec = parse_map_spec(text)
        shifted = polys.shift_to_origin(spec.poly_map(), [0] * spec.n)
        payload, _ = real_report(spec, samples=20_000, seed=1, bins=100)
        assert payload["comparison"]["exact_eps"] == str(ExactInvariants(shifted).eps_exact)


class TestRealReport:
    def test_square_smoke(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1^2")
        payload, hist = real_report(spec, samples=150_000, seed=7, bins=150)
        assert payload["comparison"]["verdict"] == "PASS"
        assert payload["tail_fit"]["provenance"] == "fit_tail_exponent"
        assert abs(sum(hist.masses) + out_of_range(hist) - 1.0) < 1e-12
        assert_valid_report(payload)

    def test_identity_classified_infinite(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1")
        payload, _ = real_report(spec, samples=150_000, seed=7, bins=150)
        assert payload["eps_estimate"]["infinite"] is True
        assert payload["comparison"]["verdict"] == "PASS"

    def test_weighted_monomial_compared_with_weighted_exponent(self, capsys):
        # Density |x|^1 under x^4: threshold (1+1)/4, so eps = 1 (not the
        # unweighted 1/3).
        code, out, _ = run_cli(capsys, "real", "map{n=1,m=1} f1=x1^4",
                               "--weights", "1", "--seed", "7")
        comparison = json.loads(out)["comparison"]
        assert comparison["exact_eps"] == "1"
        assert comparison["verdict"] == "PASS"
        assert code == 0

    def test_one_draw_serves_tail_fit_and_decay(self, monkeypatch):
        drawn, evaluated = [], []

        def draw_spy(rng, cfg, rows, _real=realnum._draw):
            drawn.append(len(rows))  # from the worker threads; list.append is atomic
            _real(rng, cfg, rows)

        def evaluate_spy(*args, _real=realnum.evaluate_array, **kwargs):
            out = _real(*args, **kwargs)
            evaluated.append(out.shape[0])
            return out

        monkeypatch.setattr(realnum, "_draw", draw_spy)
        monkeypatch.setattr(realnum, "evaluate_array", evaluate_spy)
        spec = parse_map_spec("map{n=2,m=1} f1 = x1^2 + x2^3")
        real_report(spec, samples=100_000, seed=5, bins=150)
        assert sum(drawn) == 100_000 and max(drawn) <= realnum.CHUNK
        assert evaluated == [150_000]  # the draw and the mirror of its first half

    def test_decay_reads_the_first_half_and_its_mirror(self, monkeypatch):
        outputs, images, given = [], [], []

        def evaluate_spy(*args, _real=realnum.evaluate_array, **kwargs):
            out = _real(*args, **kwargs)
            outputs.append(out)
            images.append(out[:, 0].copy())
            return out

        def decay_spy(values, t_grid, _real=realnum.estimate_delta_star_1d):
            assert np.shares_memory(values, outputs[0])  # a view, not a copy
            given.append(values.copy())
            return _real(values, t_grid)

        monkeypatch.setattr(realnum, "evaluate_array", evaluate_spy)
        monkeypatch.setattr(realnum, "estimate_delta_star_1d", decay_spy)
        spec = parse_map_spec("map{n=2,m=1} f1 = x1^2 + x2^3")
        samples, half = 100_001, 50_000
        real_report(spec, samples=samples, seed=5, bins=150)
        [drawn], [values] = images, given
        assert len(drawn) == samples + half and len(values) == 2 * half
        # Draw i sits in row (i - half) mod samples; the mirror of draw i in row samples + i.
        first_half = drawn[(np.arange(half) - half) % samples]
        assert np.array_equal(values, np.concatenate((first_half, drawn[samples:])))
        # The first half by draw index, from a draw without a mirror.
        shifted = polys.shift_to_origin(spec.poly_map(), (0, 0))
        cfg = realnum.SampleConfig.unit_box(seed=5, count=samples, n=2)
        plain = realnum.evaluate_array(shifted, cfg)[:, 0]
        assert np.array_equal(first_half, plain[:half])
        assert np.array_equal(np.sort(drawn[:samples]), np.sort(plain))

    def test_report_holds_one_full_length_array(self):
        # x1*x2*x3 at (3/4, 1/2, 1/2) recenters to seven terms.
        spec = parse_map_spec("map{n=3,m=1} f1=x1*x2*x3 at (3/4, 1/2, 1/2)")
        samples = 1_000_000
        tracemalloc.start()
        try:
            real_report(spec, samples=samples, seed=3, bins=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The images (the draw and the mirror of its first half) and small buffers.
        assert peak < (samples + samples // 2) * 8 + (6 << 20)

    def test_overflow_refused_before_the_fourier_kernel(self, capsys, monkeypatch):
        def kernel_spy(*args):
            raise AssertionError("the Fourier kernel ran on overflowing images")

        monkeypatch.setattr(realnum, "_char_function_magnitudes", kernel_spy)
        # f1 is x1 where x2^1000 underflows, so the Fourier estimate would run
        # its kernel, and overflows where x2 is near 1.
        big = "17" + "0" * 307
        spec = f"map{{n=2,m=1}} f1=x1+{big}*x2^1000+{big}*x2^1001"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "real", spec, "--seed", "1", "--samples", "100000")
        assert (code, out) == (2, "")
        assert err.startswith("error: the pushforward values overflow double precision")
        assert err.count("\n") == 1

    def test_wide_target_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "real", "map{n=2,m=2} f1=x1^2 f2=x2^2", "--seed", "1",
                                 "--samples", "1000")
        assert (code, out, err) == (
            2, "", "error: real-field estimation requires a one-dimensional target\n")

    def test_one_recentering_per_run(self, capsys, monkeypatch):
        # For n > m = 1 the fiber threshold alone gives the exact exponent.
        calls = {"shift_to_origin": 0, "jacobian_minors": 0, "solve_min": 0}
        for module, name in [(polys, "shift_to_origin"), (polys, "jacobian_minors"),
                             (simplex, "solve_min")]:
            def spy(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
        _, out, _ = run_cli(capsys, "real", "map{n=2,m=1} f1=x1^2*x2^3",
                            "--samples", "20000", "--seed", "1")
        assert calls == {"shift_to_origin": 1, "jacobian_minors": 0, "solve_min": 0}
        assert json.loads(out)["comparison"]["exact_eps"] == "1/2"

    def test_weighted_multi_term_has_no_exact_value(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1^2 + x1^3")
        payload, _ = real_report(spec, samples=150_000, seed=7, bins=150,
                                 density_weights=[1])
        assert payload["comparison"] == {"verdict": "NO-EXACT-VALUE"}


class TestPadicReport:
    def test_xy_log_explosion(self):
        spec = parse_map_spec("map{n=2,m=1} f1 = x1*x2")
        payload, table = padic_report(spec, p=3, k_max=4)
        ratios = [Fraction(row["ratio"]) for row in payload["mass_table"]["rows"]]
        assert ratios[1] == Fraction(5, 3)
        assert payload["eps_estimate"]["infinite"] is True
        assert any("log-explosion" in note for note in payload["notes"])
        assert_valid_report(payload)

    def test_square_eps_one(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1^2")
        payload, _ = padic_report(spec, p=3, k_max=12)
        assert payload["eps_estimate"]["value"] == pytest.approx(1.0, abs=0.05)

    def test_identity_constant_ratio(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1")
        payload, table = padic_report(spec, p=3, k_max=6)
        assert len(set(table.ratios)) == 1
        assert payload["eps_estimate"]["detail"] == "constant ratio"


class TestCommandLine:
    def test_exact_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "exact", "map{n=2,m=2} f1=x1^2 f2=x1^2*x2",
                             "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "esl-report/1"
        assert data["eps"]["exact"]["value"] == "1/3"

    def test_exact_from_file(self, tmp_path, capsys):
        spec_file = tmp_path / "map.esl"
        spec_file.write_text("map{n=1,m=1}\nf1 = x1^3\n")
        code, out, _ = run_cli(capsys, "exact", str(spec_file))
        assert code == 0
        assert json.loads(out)["eps"]["exact"]["value"] == "1/2"

    def test_real_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "hist.csv"
        out_path = tmp_path / "real.json"
        code, _, _ = run_cli(capsys, "real", "map{n=1,m=1} f1 = x1^2",
                             "--samples", "120000", "--seed", "11",
                             "--bins", "150", "--csv", str(csv_path),
                             "--out", str(out_path))
        assert code == 0
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["bin_left", "bin_right", "mass"]
        assert len(rows) == 151
        payload = json.loads(out_path.read_text())
        assert payload["comparison"]["verdict"] == "PASS"

    def test_real_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["real", "map{n=1,m=1} f1 = x1^2", "--samples", "1000"])

    @pytest.mark.parametrize("bins", ["-5", "0"])
    def test_invalid_bins_is_rejected(self, capsys, bins):
        code, out, err = run_cli(capsys, "real", "map{n=1,m=1} f1=x1^2", "--bins", bins,
                                 "--seed", "1")
        assert (code, out, err) == (2, "", f"error: --bins must be an integer >= 1, got {bins}\n")

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_rejected(self, capsys, seed):
        code, out, err = run_cli(capsys, "real", "map{n=1,m=1} f1=x1^2", "--seed", seed)
        assert (code, out, err) == (2, "", f"error: --seed must be an integer >= 0, got {seed}\n")

    @pytest.mark.parametrize("weights", ["a", "1,,2", "-1", "1,2.5", " 1"])
    def test_invalid_weights_are_rejected_before_sampling(self, capsys, monkeypatch, weights):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating --weights")

        monkeypatch.setattr(realnum, "_draw", no_sampling)
        code, out, err = run_cli(capsys, "real", "map{n=2,m=1} f1=x1^2*x2", "--seed", "1",
                                 "--weights", weights)
        assert (code, out, err) == (
            2, "", f"error: --weights must be comma-separated integers >= 0, got {weights!r}\n")

    def test_real_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["real", "map{n=1,m=1} f1 = x1^2", "--seed", "1", "--workers", "2"])

    def test_padic_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "mass.csv"
        code, _, _ = run_cli(capsys, "padic", "map{n=2,m=1} f1 = x1*x2",
                             "-p", "3", "-k", "3", "--csv", str(csv_path))
        assert code == 0
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["k", "mass_num", "mass_den", "ratio_num", "ratio_den"]
        assert rows[2][0] == "1" and rows[2][1:3] == ["5", "9"]

    def test_verify_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "young-algebra")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_verify_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert "FAIL" not in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exact", "map{n=1,m=1} f1 = x1^-1")
        assert code == 2
        assert "line" in err

    def test_exponent_overflow_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "exact", "map{n=1,m=1} f1=x1^2147483648")
        assert (code, out, err) == (2, "", "error: exponent 2147483648 exceeds 2147483647\n")

    @pytest.mark.parametrize("expr, message", [
        ("x1^2147483647*x1", "exponent overflow in product at (2147483648,)"),
        ("(x1+1)*x1^2147483647", "exponent overflow in product at (2147483648,)"),
        ("0*x1^2147483648", "exponent 2147483648 exceeds 2147483647"),
        ("x1^2147483648*0", "exponent 2147483648 exceeds 2147483647"),
    ])
    def test_exponent_cap_in_a_product_is_one_error_line(self, capsys, expr, message):
        code, out, err = run_cli(capsys, "exact", f"map{{n=1,m=1}} f1={expr}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_recentering_budget_is_one_error_line(self, tmp_path):
        # Unbudgeted, recentering at x2 = 1/2 would expand 2^31 terms.
        spec = "map{n=2,m=1} f1=x1^2147483647*x2^2147483647 at (0, 1/2)"
        child = run_python(tmp_path, "-m", "esl.cli", "exact", spec, timeout=5)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == ("error: recentering would expand 2147483648 terms, "
                                "over the shift term budget 100000\n")

    def test_recentering_bit_budget_is_one_error_line(self, tmp_path):
        # 20,001 terms, inside the term budget, whose expansion took 47 s.
        spec = "map{n=1,m=1} f1=x1^20000 at (1/3)"
        child = run_python(tmp_path, "-m", "esl.cli", "exact", spec, timeout=5)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == ("error: recentering would expand coefficients of 1200060000 "
                                "bits, over the shift bit budget 100000000\n")

    def test_digit_limit_is_one_error_line(self, tmp_path):
        # The recentered minor has coefficients of about 6,000 digits, inside
        # both shift budgets but past what int-to-str conversion prints.
        spec = "map{n=1,m=1} f1=x1^1000 at (1/1000003)"
        child = run_python(tmp_path, "-m", "esl.cli", "exact", spec, timeout=5)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == (f"error: a recentered Jacobian minor has a coefficient of more "
                                f"than {sys.get_int_max_str_digits()} digits, over the int-to-str "
                                f"digit limit {sys.get_int_max_str_digits()}\n")

    @pytest.mark.parametrize("command", [["exact"], ["padic", "-p", "2", "-k", "4"],
                                         ["real", "--seed", "1"]], ids=["exact", "padic", "real"])
    def test_long_echoed_coefficient_is_one_error_line(self, tmp_path, command):
        # Each literal is under the digit limit; their product is not.
        nines = "9" * 4000
        spec = f"map{{n=1,m=1}} f1={nines}*{nines}*x1"
        child = run_python(tmp_path, "-m", "esl.cli", *command, spec, timeout=5)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == (f"error: a map component has a coefficient of more than "
                                f"{sys.get_int_max_str_digits()} digits, over the int-to-str "
                                f"digit limit {sys.get_int_max_str_digits()}\n")

    def test_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        run_cli(capsys, "exact", "map{n=1,m=1} f1=x1^2")
        run_cli(capsys, "exact", "map{n=1,m=1} f1=x1^3")
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_shared_parser_gives_each_call_its_own_defaults(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(report, "padic_report",
                            lambda spec, **kwargs: calls.append(kwargs) or ({}, None))
        monkeypatch.setattr(report, "real_report", lambda spec, **kwargs: calls.append(kwargs)
                            or ({"comparison": {"verdict": "PASS"}}, None))
        code, out, _ = run_cli(capsys, "padic", "map{n=1,m=1} f1=x1", "-p", "3", "-k", "2",
                               "--cell-budget", "5", "--out", str(tmp_path / "padic.json"))
        assert (code, out) == (0, "")
        code, out, _ = run_cli(capsys, "real", "map{n=1,m=1} f1=x1", "--seed", "4")
        assert (code, json.loads(out)) == (0, {"comparison": {"verdict": "PASS"}})
        assert calls == [{"p": 3, "k_max": 2, "cell_budget": 5},
                         {"samples": 1_000_000, "seed": 4, "bins": 200, "density_weights": None}]

    def test_superscript_digit_is_an_unrecognized_token(self, capsys):
        # str.isdigit accepts '²'; int() does not.
        code, out, err = run_cli(capsys, "exact", "map{n=1,m=1} f1=x1^²")
        assert (code, out) == (2, "")
        assert err == "error: unrecognized token '²' (line 1, column 20)\n"

    def test_parse_error_at_end_of_input_points_past_it(self, capsys):
        code, _, err = run_cli(capsys, "exact", "map{n=1,m=1} f1=x1 +")
        assert code == 2
        assert "(line 1, column 21)" in err

    @pytest.mark.parametrize("spec, error", [
        # Tail window down to |y| = 2.6e-165: the products of bin edges
        # underflow, the edges themselves are normal doubles.
        ("map{n=1,m=1} f1=x1^56", None),
        # Bin edges near 1e300: their products overflow.
        ("map{n=1,m=1} f1=1" + "0" * 300 + "*x1^2", None),
        # Values near 1e307: t*y overflows in the characteristic function.
        ("map{n=1,m=1} f1=1" + "0" * 307 + "*x1^2", None),
        # Tail window below the smallest normal double.
        ("map{n=1,m=1} f1=x1^400", "error: the pushforward values underflow double precision"),
        # A coefficient of 1e310 has no double.
        ("map{n=1,m=1} f1=1" + "0" * 310 + "*x1^2",
         "error: a coefficient of f1 overflows double precision"),
        # Each coefficient is a double; the sum of the two terms is not.
        ("map{n=2,m=1} f1=1" + "0" * 308 + "*x1+1" + "0" * 308 + "*x2",
         "error: the pushforward values overflow double precision"),
    ], ids=["x1^56", "301-digit-coefficient", "308-digit-coefficient", "x1^400",
            "311-digit-coefficient", "overflowing-sum"])
    def test_tail_window_at_the_ends_of_double_precision(self, capfd, spec, error):
        # capfd also sees what LAPACK prints straight to the stderr descriptor.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capfd, "real", spec, "--seed", "1", "--samples", "100000")
        assert caught == []
        if error:
            assert code == 2
            assert err.startswith(error)
            assert err.count("\n") == 1
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["comparison"]["verdict"] == "PASS"

    def test_phases_past_double_resolution_are_unresolvable(self, capfd):
        # |y| >= 2e296 everywhere, so every phase t*y lies past 2^53.
        code, out, err = run_cli(capfd, "real", "map{n=1,m=1} f1=1" + "0" * 307 + "*x1^2",
                                 "--seed", "1", "--samples", "100000")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert_valid_report(payload)
        assert payload["delta_estimate"]["flag"] == "unresolvable"
        assert payload["delta_estimate"]["delta_hat"] == 0.0
        assert payload["comparison"]["verdict"] == "PASS"

    def test_too_few_samples_suggests_more(self, capfd):
        code, _, err = run_cli(capfd, "real", "map{n=1,m=1} f1=x1^2",
                               "--seed", "1", "--samples", "10")
        assert code == 2
        assert "only 0 occupied bins" in err and "--samples" in err

    def test_budget_error_surfaces(self, capsys, monkeypatch):
        # A two-dimensional target forces raw enumeration, which the tiny
        # budget cannot cover.
        monkeypatch.setenv("ESL_CELL_BUDGET", "10")
        code, _, err = run_cli(capsys, "padic", "map{n=2,m=2} f1 = x1 f2 = x1*x2",
                               "-p", "5", "-k", "4")
        assert code == 2
        assert "budget" in err

    def test_budget_error_names_every_budget_that_fired(self, capsys, monkeypatch):
        monkeypatch.setattr(padic, "zero_fiber_mass_recursive",
                            partial(padic.zero_fiber_mass_recursive, node_budget=0))
        code, out, err = run_cli(capsys, "padic", "map{n=2,m=1} f1=x1^2+x2^3",
                                 "-p", "5", "-k", "4", "--cell-budget", "1000")
        assert (code, out) == (2, "")
        assert err == ("error: the recursion's node budget 0 ran out at depth 1; "
                       "enumeration: 15625 cells exceed the cell budget 1000\n")

    @pytest.mark.parametrize("env, flag, error", [
        ("abc", None, "error: ESL_CELL_BUDGET must be an integer >= 1, got 'abc'\n"),
        ("0", None, "error: ESL_CELL_BUDGET must be an integer >= 1, got '0'\n"),
        ("10", "-3", "error: --cell-budget must be an integer >= 1, got -3\n"),
    ], ids=["env-not-an-integer", "env-zero", "flag-negative"])
    def test_invalid_cell_budget_is_rejected(self, capsys, monkeypatch, env, flag, error):
        monkeypatch.setenv("ESL_CELL_BUDGET", env)
        budget = ["--cell-budget", flag] if flag else []
        code, out, err = run_cli(capsys, "padic", "map{n=2,m=2} f1 = x1 f2 = x1*x2",
                                 "-p", "2", "-k", "2", *budget)
        assert (code, out, err) == (2, "", error)

    @pytest.mark.parametrize("argv, error", [
        (["real", "--samples", "10000000000000"],
         "sample count 10000000000000 is over the sample limit 100000000"),
        (["real", "--samples", "100000000000000000000"],
         "sample count 100000000000000000000 is over the sample limit 100000000"),
        (["real", "--samples", "1000", "--bins", "100000000000000000000"],
         "--bins 100000000000000000000 is over the bin limit 1000000"),
        (["padic", "-p", "3", "-k", "100000000000"],
         "depth 100000000000 is over the depth limit 10000"),
        (["padic", "-p", "3", "-k", "10000000000000000000"],
         "depth 10000000000000000000 is over the depth limit 10000"),
    ], ids=["samples-1e13", "samples-1e20", "bins-1e20", "depth-1e11", "depth-1e19"])
    def test_too_large_input_is_refused_before_allocating(self, capsys, argv, error):
        command, *flags = argv
        seed = ["--seed", "1"] if command == "real" else []
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, command, "map{n=1,m=1} f1=x1^2", *flags, *seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert peak < 1 << 20

    def test_wide_map_is_refused_by_the_minor_budget(self, capsys):
        # 705,432 maximal minors, refused before any is expanded.
        components = " ".join(f"f{j}=x{j}^2*x{j + 11}" for j in range(1, 12))
        code, out, err = run_cli(capsys, "exact", f"map{{n=22,m=11}} {components}")
        assert (code, out, err) == (2, "", "error: expanding the Jacobian minors takes more "
                                    "than 300000 minors and term products, over the minor "
                                    "budget 300000\n")

    def test_negative_depth_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "padic", "map{n=1,m=1} f1=x1^2", "-p", "3", "-k", "-1")
        assert (code, out, err) == (2, "", "error: depth must be >= 0\n")

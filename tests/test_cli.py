import csv
import json
from fractions import Fraction

import jsonschema
import pytest

from esl.cli import main
from esl.mapspec import parse_map_spec
from esl.report import exact_report, padic_report, real_report, report_schema


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


class TestRealReport:
    def test_square_smoke(self):
        spec = parse_map_spec("map{n=1,m=1} f1 = x1^2")
        payload, hist = real_report(spec, samples=150_000, seed=7, bins=150)
        assert payload["comparison"]["verdict"] == "PASS"
        assert payload["tail_fit"]["provenance"] == "fit_tail_exponent"
        assert abs(sum(hist.masses) + hist.out_of_range - 1.0) < 1e-12
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
        assert len(set(table.ratios())) == 1
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

    def test_budget_error_surfaces(self, capsys, monkeypatch):
        # A two-dimensional target forces raw enumeration, which the tiny
        # budget cannot cover.
        monkeypatch.setenv("ESL_CELL_BUDGET", "10")
        code, _, err = run_cli(capsys, "padic", "map{n=2,m=2} f1 = x1 f2 = x1*x2",
                               "-p", "5", "-k", "4")
        assert code == 2
        assert "budget" in err

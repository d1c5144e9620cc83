"""Self-tests of the benchmark's checker and output checks.

    python3 perfbench/test_perfbench.py        # or: python3 -m pytest perfbench

The counting code must agree with brute force, and every check must accept
the program's real output and reject a deliberately wrong one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker as C  # noqa: E402
import workloads as W  # noqa: E402


def _brute_mass(components, n, p, k) -> Fraction:
    return Fraction(C.brute_force_zero_count(components, n, p, k), p ** (n * k))


def test_two_squares_closed_forms_match_brute_force():
    f = [[((2, 0), 1), ((0, 2), 1)]]
    for p, depth in ((2, 6), (3, 4), (5, 3)):
        for k in range(depth + 1):
            assert C.two_squares_mass(p, k) == _brute_mass(f, 2, p, k), (p, k)


def test_xy_ratio_matches_brute_force():
    for p, depth in ((2, 6), (3, 4), (5, 3)):
        for k in range(depth + 1):
            mass = _brute_mass([[((1, 1), 1)]], 2, p, k)
            assert mass * p**k == C.xy_ratio(p, k), (p, k)


def test_valuation_sums_match_brute_force():
    cases = (
        [[3]], [[2, 3]], [[1, 1]], [[1, 2, 1]],
        [[2, 0], [2, 1]], [[2, 0, 0], [0, 1, 1]], [[1, 0, 2], [0, 1, 0]],
    )
    for rows in cases:
        n = len(rows[0])
        for p in (2, 3, 5):
            for k in range(4):
                if p ** (n * k) > 2_000_000:
                    continue
                want = _brute_mass([[(tuple(r), 1)] for r in rows], n, p, k)
                got = Fraction(C.monomial_zero_count(rows, p, k), p ** (n * k))
                assert got == want, (rows, p, k)


def test_separable_counts_match_brute_force():
    cases = (((1, 2), (-1, 3)), ((2, 2), (2, 2)), ((1, 2), (1, 3), (1, 5)), ((3, 1), (1, 4)))
    for terms in cases:
        n = len(terms)
        poly = [[(tuple(e if j == i else 0 for j in range(n)), c) for i, (c, e) in enumerate(terms)]]
        for p in (2, 3, 5):
            for k in range(4):
                if p ** (n * k) > 2_000_000:
                    continue
                want = C.brute_force_zero_count(poly, n, p, k)
                assert C.separable_zero_count(terms, p, k) == want, (terms, p, k)


def test_threshold_closed_forms_agree():
    for n in range(2, 11):
        for m in range(2, 6):
            assert C.waterfill_threshold((m,) * n) == C.howald_threshold(n, m)
    for d in range(2, 6):
        for m in range(2, 4):
            gens = C.minimal_generators(C.monomial_map_minors(W.stretch_rows(d, m), [1] * m))
            assert gens == {(d * m - 1,) + (0,) * (m - 1)}
            assert Fraction(1, d * m - 1) == C.stretch_threshold(d, m)
    for d in range(2, 30):
        assert C.waterfill_threshold((d,)) == Fraction(1, d - 1)
        assert C.eps_from_lct(Fraction(1, d)) == Fraction(1, d - 1)
    assert C.waterfill_threshold((1,)) is C.INF
    assert C.waterfill_threshold((1, 1)) == 2


def test_block_thresholds_within_monomial_ideal_bounds():
    for blocks in W.BLOCKS:
        rows = W.block_rows(blocks)
        gens = C.minimal_generators(C.monomial_map_minors(rows, [1] * len(rows)))
        lower, upper = C.ideal_threshold_bounds(gens)
        assert lower <= C.block_threshold(blocks) <= upper


def test_model_exponent():
    assert C.model_eps((2,), (0,)) == 1
    assert C.model_eps((4,), (1,)) == 1
    assert C.model_eps((1, 3), (0, 0)) == Fraction(1, 2)
    assert C.model_eps((1, 1), (0, 0)) is C.INF


# ---------------------------------------------------------------------------
# checks against real output, and against perturbed output
# ---------------------------------------------------------------------------


def _run(argv):
    import esl.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = esl.cli.main(argv)
    return rc, out.getvalue()


def _ops(workload):
    return W.build(workload, 3)


def _perturbed(out: str, edit) -> str:
    rep = json.loads(out)
    edit(rep)
    return json.dumps(rep)


def test_exact_checks_reject_wrong_outputs():
    ops = [op for op in _ops("exact-corpus")
           if op.label.startswith(("howald n=3 m=3", "stretch d=2 m=2", "blocks ((2, 3), (1, 2, 2))",
                                   "recentered (12, 9)", "regular x1^60"))]
    assert len(ops) == 5
    for op in ops:
        rc, out = _run(op.argv)
        assert op.check(rc, out).problems == [], op.label
        edits = [
            lambda r: r["lct_jacobian"].update(value="1/7"),
            lambda r: r["monomial_ideal"]["generators"].append([9] * r["map"]["n"]),
            lambda r: r["eps"].setdefault("exact", {"value": "2"}).update(value="2"),
            lambda r: r["k_bounds"].update(upper={"value": 99}),
        ]
        for edit in edits:
            assert op.check(rc, _perturbed(out, edit)).problems, op.label
        assert op.check(2, out).problems


def test_verify_check_rejects_wrong_outputs():
    [op] = [op for op in _ops("exact-corpus") if op.argv[0] == "verify"]
    rc, out = _run(op.argv)
    assert op.check(rc, out).problems == []
    assert op.check(rc, out.replace("PASS", "FAIL", 1)).problems
    assert op.check(rc, out.replace("got 2/3,", "got 3/4,", 1)).problems
    assert op.check(1, out).problems


def test_padic_checks_reject_wrong_outputs():
    ops = _ops("padic-tables")
    chosen = [ops[1], ops[3], ops[6], ops[9]]
    for op in chosen:
        rc, out = _run(op.argv)
        assert op.check(rc, out).problems == [], op.label
        rows = json.loads(out)["mass_table"]["rows"]
        assert op.check(rc, out).rows == len(rows)

        def bump_mass(r):
            row = r["mass_table"]["rows"][-1]
            row["mass"] = str(Fraction(row["mass"]) * Fraction(9, 10))

        assert op.check(rc, _perturbed(out, bump_mass)).problems, op.label
        if "eps_estimate" in json.loads(out):
            def flip(r):
                est = r["eps_estimate"]
                est["infinite"] = not est["infinite"]
            assert op.check(rc, _perturbed(out, flip)).problems, op.label


def test_real_checks_reject_wrong_outputs_and_flag_the_known_fault():
    ops = _ops("real-mc")
    plain, weighted = ops[0], ops[-1]
    rc, out = _run(plain.argv)
    assert plain.check(rc, out) == W.Outcome()

    def wrong_verdict(r):
        r["comparison"]["verdict"] = "FAIL"

    assert plain.check(1, _perturbed(out, wrong_verdict)).problems

    def far(r):
        r["tail_fit"]["lambda_hat"] = 0.1
        r["eps_estimate"]["value"] = 0.1 / 0.9

    assert plain.check(rc, _perturbed(out, far)).problems

    rc, out = _run(weighted.argv)
    outcome = weighted.check(rc, out)
    assert outcome.fault and outcome.problems == []

    def fixed(r):  # the weighted model's exponent, as a mended program reports it
        r["comparison"].update(verdict="PASS", exact_eps="1")

    assert weighted.check(0, _perturbed(out, fixed)) == W.Outcome()

    def wrong_exact(r):
        r["comparison"].update(verdict="PASS", exact_eps="1/2")

    assert weighted.check(0, _perturbed(out, wrong_exact)).problems


def test_seed_changes_values_not_sizes():
    for workload in W.WORKLOADS:
        a, b = W.build(workload, 1), W.build(workload, 2)
        assert [op.label for op in a] == [op.label for op in b]
        assert [op.argv for op in a] != [op.argv for op in b]
        assert W.build(workload, 1)[0].argv == a[0].argv


def test_run_emits_the_metrics_benchmark_json_names():
    import esl.cli
    import run
    from tracer import Tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ops = _ops("exact-corpus")[6:8]
    bench = run.Run(esl.cli, ops, Tracer(run.COUNTERS))
    bench.round(traced=False)
    bench.round(traced=True)
    assert bench.correct and bench.failed == 0 and bench.attempted == 4
    e2e = run.end_to_end(bench, 0.5)
    layers = run.per_layer(bench)
    assert {(k, u) for k, (_, u) in e2e.items()} == {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    assert {(k, u) for k, (_, u) in layers.items()} == {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert all(value > 0 for value, _ in e2e.values())
    assert layers["lct.lct_monomial.self_s"][0] > 0 and layers["simplex.solve_min.calls"][0] > 0


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS  {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    sys.exit(1 if failures else 0)

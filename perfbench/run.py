#!/usr/bin/env python3
"""Benchmark of the `esl` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36

Run from the repository root.  One process imports `esl` from `src/` and
calls `esl.cli.main` on each operation of the workload, one after another
(a closed loop with one client), round after round for about `--seconds`:
it stops after the round past which one more would overrun the deadline by
more than half a round.  Every round is the same list of operations.
Each operation's time is its median over the rounds; `wall_s` is their sum
and `op_p50_s` their median.  Every output is checked against values
computed apart from the program (`checker.py`).

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates plain
rounds with rounds in which every public function of the package's modules
is wrapped in a span, and reports the per-layer metrics and the tracing
overhead; the spans are kept in memory.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import esl.cli; print(time.perf_counter() - t)")

# Per-layer metrics: self time per round of these spans.
SELF_TIMED = (
    "cli.main", "mapspec.parse_map_spec", "report.exact_report", "report.real_report",
    "report.padic_report", "suites.run_suite", "polys.shift_to_origin",
    "polys.jacobian_minors", "lct.lct_monomial", "simplex.solve_min",
    "realnum.sample_source", "realnum.evaluate_array", "realnum.estimate_delta_star_1d",
    "realnum.histogram_log_abs", "realnum.auto_tail_window", "realnum.fit_tail_exponent",
    "padic.zero_fiber_mass_recursive", "padic.monomial_zero_mass", "padic.solution_counts",
    "padic.fit_padic_lct", "padic.estimate_eps_padic",
)
# Work counts taken from a call's bound arguments and result.
COUNTERS = {
    "polys.jacobian_minors": lambda args, out: len(out),
    "realnum.sample_source": lambda args, out: int(out.shape[0]),
    "realnum.evaluate_array": lambda args, out: int(out.shape[0]),
    "padic.solution_counts": lambda args, out: args["p"] ** (args["k"] * args["pmap"].n),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-corpus", "real-mc", "padic-tables", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """Import `esl.cli` from this checkout's `src/`, or stop with exit code 2."""
    if not (SRC / "esl" / "__init__.py").is_file():
        print(f"error: no esl package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import esl.cli
    if Path(esl.cli.__file__).resolve().parent != (SRC / "esl").resolve():
        print(f"error: esl imported from {esl.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return esl.cli


def import_seconds() -> float:
    """Time `import esl.cli` (numpy included) in a fresh interpreter."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.strip().splitlines()[-1])


def set_up(workload: str, seed: int):
    """Import and generation of the command lines, repeated; returns the ops
    and the median time.  The checker's expected values are computed after."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        start = time.perf_counter()
        ops = workloads.build(workload, seed)
        times.append(seconds + time.perf_counter() - start)
    for op in ops:
        op.check  # noqa: B018  (computes the expected values, untimed)
    return ops, statistics.median(times)


def call(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Run one command in-process; exit code None means it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if rc not in (0, 1):
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue(), seconds


class Run:
    def __init__(self, cli, ops, tracer=None):
        self.cli, self.ops, self.tracer = cli, ops, tracer
        self.attempted = self.failed = 0
        self.correct = True
        self.plain: list[list[float]] = []   # op times of untraced rounds
        self.traced: list[list[float]] = []  # op times of traced rounds
        self.traced_spans: list[tuple[int, int]] = []
        self.rows_per_round = 0

    def round(self, traced: bool) -> None:
        if traced:
            self.tracer.install()
            lo = self.tracer.mark()
        times, rows = [], 0
        try:
            for op in self.ops:
                rc, out, seconds = call(self.cli, op.argv)
                times.append(seconds)
                rows += self.judge(op, rc, out)
        finally:
            if traced:
                self.tracer.uninstall()
        self.rows_per_round = rows
        if traced:
            self.traced.append(times)
            self.traced_spans.append((lo, self.tracer.mark()))
        else:
            self.plain.append(times)

    def judge(self, op, rc, out) -> int:
        """Check one output; returns the mass-table rows it delivered."""
        self.attempted += 1
        if rc is None or rc == 2:
            self.failed += 1
            print(f"failed: {op.label}: exit {rc}", file=sys.stderr)
            return 0
        try:
            outcome = op.check(rc, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.correct = False
            print(f"wrong: {op.label}: unreadable output ({exc!r})", file=sys.stderr)
            return 0
        if outcome.fault:
            self.failed += 1
        elif outcome.problems:
            self.correct = False
            for problem in outcome.problems[:3]:
                print(f"wrong: {op.label}: {problem}", file=sys.stderr)
        return outcome.rows


def end_to_end(run: Run, setup_s: float) -> dict:
    op_s = [statistics.median(op_times) for op_times in zip(*run.plain)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(op_s), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    from tracer import LAYERS

    tracer = run.tracer
    n = len(run.traced_spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    fallbacks = mass_calls = spans = 0
    for lo, hi in run.traced_spans:
        spans += hi - lo
        for name, seconds in tracer.self_times(lo, hi).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, (c, w) in tracer.totals(lo, hi).items():
            calls[name] = calls.get(name, 0) + c
            work[name] = work.get(name, 0) + w
        for i in range(lo, hi):
            name = tracer.names[i]
            up = tracer.names[tracer.parent[i]] if tracer.parent[i] >= 0 else None
            if name == "padic.zero_fiber_mass_recursive" and tracer.error[i] == "BudgetExceededError":
                fallbacks += 1
            if name == "padic.zero_fiber_mass" or (
                    name == "padic.cylinder_mass" and up != "padic.zero_fiber_mass"):
                mass_calls += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    samples = sum(op.samples for op in run.ops)
    rows = run.rows_per_round
    layer_s = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / n
               for layer in LAYERS}
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0) / n, "s") for name in SELF_TIMED}
    metrics.update({f"layer.{layer}.self_s": (layer_s[layer], "s") for layer in LAYERS})
    metrics.update({
        "polys.jacobian_minors.minors": (work.get("polys.jacobian_minors", 0) / n, "count"),
        "simplex.solve_min.calls": (calls.get("simplex.solve_min", 0) / n, "count"),
        "realnum.sample_source.rows": (work.get("realnum.sample_source", 0) / n, "count"),
        "realnum.evaluate_array.rows": (work.get("realnum.evaluate_array", 0) / n, "count"),
        "realnum.rows_per_sample": (ratio(work.get("realnum.evaluate_array", 0) / n, samples), "ratio"),
        "realnum.samples_per_s": (ratio(samples, layer_s["realnum"]), "samples/s"),
        "padic.solution_counts.cells": (work.get("padic.solution_counts", 0) / n, "count"),
        "padic.mass_calls_per_row": (ratio(mass_calls / n, rows), "ratio"),
        "padic.recursion_fallbacks": (fallbacks / n, "count"),
        "padic.mass_rows_per_s": (ratio(rows, layer_s["padic"]), "rows/s"),
        "trace.spans": (spans / n, "count"),
        "trace.overhead_pct": (100 * (statistics.median(sum(t) for t in run.traced)
                                      / statistics.median(sum(t) for t in run.plain) - 1), "%"),
    })
    return metrics


def run_workload(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(HERE))
    cli = load_cli()
    ops, setup_s = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(COUNTERS)
    run = Run(cli, ops, tracer)
    start = time.perf_counter()
    traced = False
    while True:
        round_start = time.perf_counter()
        run.round(traced)
        traced = bool(args.trace) and not traced
        # Whole rounds only: stop when one more round would end past the
        # deadline by more than half a round, so a run lasts about --seconds.
        now = time.perf_counter()
        if (run.plain and (run.traced or not args.trace)
                and now - start + (now - round_start) / 2 >= args.seconds):
            break
    metrics = per_layer(run) if args.trace else end_to_end(run, setup_s)
    rounds = len(run.plain) + len(run.traced)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{rounds} rounds of {len(ops)} operations")
    print(f"  attempted {run.attempted}  failed {run.failed}  correct {run.correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("exact-corpus", "real-mc", "padic-tables"):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise SystemExit(child.returncode or 1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

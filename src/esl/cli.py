"""Command-line interface.

Subcommands:

    esl exact <spec>                      exact invariants report (JSON)
    esl real  <spec> --samples N --seed S --bins B
                                          Monte Carlo estimates over the reals
    esl padic <spec> -p P -k K            exact p-adic mass table and fits
    esl verify <suite>                    built-in verification suites

<spec> is either a path to a map-spec file or the spec text itself.
Randomized commands require an explicit --seed so runs are reproducible.
The environment variable ESL_CELL_BUDGET overrides the p-adic cell budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import report, suites
from .mapspec import parse_map_spec
from .polys import ExponentOverflowError
from .realnum import MAX_BINS


def _load_spec_text(argument: str) -> str:
    if os.path.exists(argument):
        with open(argument, "r", encoding="utf-8") as handle:
            return handle.read()
    return argument


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_exact(args) -> int:
    spec = parse_map_spec(_load_spec_text(args.spec))
    _emit_json(report.exact_report(spec), args.out)
    return 0


def cmd_real(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
    if args.bins < 1:
        raise ValueError(f"--bins must be an integer >= 1, got {args.bins}")
    if args.bins > MAX_BINS:
        raise ValueError(f"--bins {args.bins} is over the bin limit {MAX_BINS}")
    weights = args.weights.split(",") if args.weights else None
    if weights is not None:
        if not all(w.isdecimal() for w in weights):
            raise ValueError(f"--weights must be comma-separated integers >= 0, "
                             f"got {args.weights!r}")
        weights = [int(w) for w in weights]
    spec = parse_map_spec(_load_spec_text(args.spec))
    payload, hist = report.real_report(spec, samples=args.samples, seed=args.seed,
                                       bins=args.bins, density_weights=weights)
    _emit_json(payload, args.out)
    if args.csv:
        _write_csv(args.csv, ["bin_left", "bin_right", "mass"], hist.to_csv_rows())
    return 0 if payload["comparison"]["verdict"] != "FAIL" else 1


def cmd_padic(args) -> int:
    if args.cell_budget is not None and args.cell_budget < 1:
        raise ValueError(f"--cell-budget must be an integer >= 1, got {args.cell_budget}")
    spec = parse_map_spec(_load_spec_text(args.spec))
    payload, table = report.padic_report(spec, p=args.p, k_max=args.k,
                                         cell_budget=args.cell_budget)
    _emit_json(payload, args.out)
    if args.csv:
        _write_csv(args.csv, ["k", "mass_num", "mass_den", "ratio_num", "ratio_den"],
                   table.to_csv_rows())
    return 0


def cmd_verify(args) -> int:
    results = suites.run_suite(args.suite)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        label = f"{r.suite}: {r.name}"
        print(f"{status}  {label:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if args.out:
        _emit_json({
            "schema": report.SCHEMA,
            "command": "verify",
            "suite": args.suite,
            "results": [r.__dict__ for r in results],
        }, args.out)
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `esl` parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="esl",
        description="Exact and empirical integrability exponents of pushforward "
                    "measures by polynomial maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact invariants at the base point")
    p_exact.add_argument("spec", help="map-spec file path or literal text")
    p_exact.add_argument("--out", help="write the JSON report to this path")
    p_exact.set_defaults(func=cmd_exact)

    p_real = sub.add_parser("real", help="Monte Carlo estimates over the reals")
    p_real.add_argument("spec", help="map-spec file path or literal text")
    p_real.add_argument("--samples", type=int, default=1_000_000)
    p_real.add_argument("--seed", type=int, required=True,
                        help="sampling seed (required for reproducibility)")
    p_real.add_argument("--bins", type=int, default=200)
    p_real.add_argument("--weights", help="comma-separated monomial density exponents")
    p_real.add_argument("--out", help="write the JSON report to this path")
    p_real.add_argument("--csv", help="write the histogram CSV to this path")
    p_real.set_defaults(func=cmd_real)

    p_padic = sub.add_parser("padic", help="exact p-adic ball masses and fits")
    p_padic.add_argument("spec", help="map-spec file path or literal text")
    p_padic.add_argument("-p", type=int, required=True, help="prime")
    p_padic.add_argument("-k", type=int, required=True, help="maximum depth")
    p_padic.add_argument("--cell-budget", type=int, default=None,
                         help="override the enumeration budget (default from "
                              "ESL_CELL_BUDGET or 10^7)")
    p_padic.add_argument("--out", help="write the JSON report to this path")
    p_padic.add_argument("--csv", help="write the mass-table CSV to this path")
    p_padic.set_defaults(func=cmd_padic)

    p_verify = sub.add_parser("verify", help="run a built-in verification suite")
    p_verify.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    p_verify.add_argument("--out", help="write the JSON results to this path")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, ExponentOverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Byte-for-byte guard on the command line's output.

Each case runs `esl.cli.main` in-process and compares its standard output,
and the file written by `--out` where the case has one, with the files in
`tests/golden/`.  After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named cases only, or every case when no name is given.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from esl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "{out}"

CASES = {
    "exact-equidim-at-point": ["exact", "map{n=2,m=2} f1=x1^2 f2=x1^2*x2 at (0, 1/2)"],
    "exact-cubic-at-critical-point": ["exact", "map{n=1,m=1} f1=x1^3-3*x1 at (1)"],
    "exact-high-powers-at-point": ["exact", "map{n=2,m=1} f1=x1^60+x2^40 at (1, -1/2)"],
    "exact-wide-at-point": ["exact", "map{n=3,m=2} f1=x1*x2 f2=x2*x3+x1^2 at (2/3, 0, -1)"],
    "padic-recursion": ["padic", "map{n=2,m=1} f1=x1^2+x2^2", "-p", "2", "-k", "40"],
    "padic-recursion-at-point": ["padic", "map{n=2,m=1} f1=x1^2+x2^3 at (1, 2)",
                                 "-p", "3", "-k", "8"],
    "padic-valuation": ["padic", "map{n=2,m=1} f1=3*x1^2*x2^3", "-p", "3", "-k", "12"],
    "padic-enumeration": ["padic", "map{n=2,m=2} f1=x1*x2 f2=x1^2", "-p", "2", "-k", "4"],
    "padic-enumeration-p7": ["padic", "map{n=2,m=2} f1=x1^2 f2=x1^2*x2", "-p", "7", "-k", "4"],
    "padic-enumeration-free-axis": ["padic", "map{n=3,m=2} f1=x1^2 f2=x1*x2",
                                    "-p", "3", "-k", "4"],
    "padic-single-depth": ["padic", "map{n=2,m=1} f1=x1*x2", "-p", "3", "-k", "1"],
    "padic-valuation-deep": ["padic", "map{n=2,m=1} f1=x1*x2", "-p", "3", "-k", "100"],
    "padic-recursion-deep": ["padic", "map{n=2,m=1} f1=x1^2+x2^2", "-p", "2", "-k", "200"],
    "verify-all": ["verify", "all", "--out", OUT],
    "real-sum-of-squares": ["real", "map{n=2,m=1} f1=x1^2+x2^2",
                            "--samples", "200000", "--seed", "7"],
    "real-cubic-at-point": ["real", "map{n=1,m=1} f1=x1^3-x1 at (1/2)",
                            "--samples", "200000", "--seed", "11"],
    "real-weighted": ["real", "map{n=1,m=1} f1=x1^4", "--weights", "1",
                      "--samples", "200000", "--seed", "7"],
}


def capture(argv: list[str]) -> dict[str, str]:
    """Golden file name -> text produced by one command."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.json"
        argv = [str(out_path) if a == OUT else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            main(argv)
        files = {"stdout": stdout.getvalue()}
        if out_path.exists():
            files["out.json"] = out_path.read_text(encoding="utf-8")
    return files


def assert_matches_golden(name: str) -> None:
    for suffix, text in capture(CASES[name]).items():
        path = GOLDEN / f"{name}.{suffix}"
        expected = path.read_text(encoding="utf-8")
        if text != expected:
            diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                        text.splitlines(keepends=True),
                                        fromfile=f"golden/{path.name}", tofile="output")
            pytest.fail(f"{name}.{suffix} differs from the golden file:\n" + "".join(diff),
                        pytrace=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert_matches_golden(name)


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("name", sorted(name for name in CASES if CASES[name][0] == "real"))
def test_real_output_matches_golden_on_any_core_count(name, cores, monkeypatch):
    from .conftest import use_cores  # here, so the file also runs as a script

    use_cores(monkeypatch, cores)
    assert_matches_golden(name)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        for suffix, text in capture(CASES[name]).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8")
    sys.exit(0)

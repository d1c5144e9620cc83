"""Byte-for-byte guard on the command line's output.

Each case runs `esl.cli.main` in-process and compares its standard output,
and the file written by `--out` where the case has one, with the files in
`tests/golden/`.  Runs with `--weights` are not covered.  After an intended
output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
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
    "verify-all": ["verify", "all", "--out", OUT],
    "real-sum-of-squares": ["real", "map{n=2,m=1} f1=x1^2+x2^2",
                            "--samples", "200000", "--seed", "7"],
    "real-cubic-at-point": ["real", "map{n=1,m=1} f1=x1^3-x1 at (1/2)",
                            "--samples", "200000", "--seed", "11"],
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    for suffix, text in capture(CASES[name]).items():
        expected = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
        assert text == expected, f"{name}.{suffix} differs from the golden file"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for suffix, text in capture(argv).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8")
    sys.exit(0)

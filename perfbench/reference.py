#!/usr/bin/env python3
"""Reference timings of single `esl` commands, each under a timeout.

    python3 perfbench/reference.py

Each case runs in a fresh interpreter that imports `esl` from `src/` and
times one call of `esl.cli.main` (import excluded).  A case that outlives
TIMEOUT seconds is killed and reported as a timeout.  The list ends with the
slow commands the workloads leave out; perfbench/README.md records the
figures.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60
PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import esl.cli
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = esl.cli.main(sys.argv[2:])
print(rc, time.perf_counter() - start)
"""
CASES = (
    ["exact", "map{n=2,m=2} f1=x1^2 f2=x1^2*x2"],
    ["verify", "all"],
    ["real", "map{n=1,m=1} f1=x1^2", "--seed", "7"],
    ["padic", "map{n=3,m=1} f1=x1^2+x2^3+x3^5", "-p", "3", "-k", "10"],
    ["exact", "map{n=1,m=1} f1=x1^400 at (1)"],
    ["padic", "map{n=2,m=1} f1=x1^2+x2^2", "-p", "2", "-k", "80"],
    ["exact", "map{n=1,m=1} f1=x1^3000 at (1)"],
    ["padic", "map{n=1,m=1} f1=x1^2", "-p", "2", "-k", "3000"],
    ["padic", "map{n=2,m=1} f1=x1^2+x2^2", "-p", "2", "-k", "400"],
)


def main() -> int:
    for argv in CASES:
        start = time.perf_counter()
        try:
            child = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "src"), *argv],
                                   capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"timeout > {TIMEOUT} s  {' '.join(argv)}", flush=True)
            continue
        if child.returncode != 0:
            print(f"error {child.returncode}  {' '.join(argv)}: {child.stderr.strip()[-200:]}")
            continue
        rc, seconds = child.stdout.split()
        print(f"{float(seconds):9.3f} s  exit {rc}  {' '.join(argv)}"
              f"  (wall {time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

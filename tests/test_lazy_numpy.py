"""numpy loads on first use.

The test modules import numpy themselves, so an in-process test cannot see
whether `esl` loaded it; the import checks here run a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esl.report import DEFAULT_T_GRID

from .test_golden import CASES, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("cli", "mapspec", "report", "suites", "polys", "lct", "simplex",
          "exponents", "realnum", "padic")


def run_python(tmp_path, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def test_exact_and_verify_never_load_numpy(tmp_path):
    script = (
        "import contextlib, io, sys\n"
        "import esl.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert esl.cli.main(['exact', 'map{n=2,m=1} f1=x1^2*x2^3']) == 0\n"
        "    assert esl.cli.main(['verify', 'one-dim']) == 0\n"
        "print('numpy._core' in sys.modules)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('esl.'))))\n"
    )
    child = run_python(tmp_path, "-c", script)
    assert child.returncode == 0, child.stderr
    loaded, modules = child.stdout.splitlines()
    assert loaded == "False"
    assert set(f"esl.{layer}" for layer in LAYERS) <= set(modules.split())


def test_import_loads_neither_numpy_nor_the_thread_pool(tmp_path):
    script = ("import sys, esl.cli\n"
              "print([m for m in ('numpy._core', 'concurrent.futures') if m in sys.modules])\n")
    child = run_python(tmp_path, "-c", script)
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


@pytest.mark.parametrize("name", ["real-sum-of-squares", "padic-valuation"])
def test_fresh_process_prints_the_golden_output(tmp_path, name):
    child = run_python(tmp_path, "-m", "esl.cli", *CASES[name])
    assert child.returncode == 0, child.stderr
    assert child.stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


def test_numpy_imported_after_esl_works(tmp_path):
    child = run_python(tmp_path, "-c", "import esl; import numpy; print(numpy.zeros(3).sum())")
    assert (child.returncode, child.stdout) == (0, "0.0\n"), child.stderr


def test_default_t_grid_is_numpy_geomspace():
    expected = tuple(float(t) for t in np.geomspace(10.0, 3000.0, 16))
    assert len(DEFAULT_T_GRID) == len(expected)
    for got, want in zip(DEFAULT_T_GRID, expected):
        assert type(got) is float and got.hex() == want.hex()

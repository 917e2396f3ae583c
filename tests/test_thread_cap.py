"""RELATTN_THREADS: applied before numpy loads, reported once when too late."""

import os
import subprocess
import sys
from pathlib import Path

import relattn

SRC = str(Path(relattn.__file__).resolve().parent.parent)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
REIMPORT = (
    "import sys, importlib\n"
    "for m in [m for m in sys.modules if m.split('.')[0] == 'relattn']:\n"
    "    del sys.modules[m]\n"
    "importlib.import_module('relattn')\n"
)


def _python(code, cap):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS and k != "RELATTN_THREADS"}
    env["PYTHONPATH"] = SRC
    if cap is not None:
        env["RELATTN_THREADS"] = cap
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


def test_cap_after_numpy_warns_once_on_stderr():
    run = _python("import numpy\nimport relattn\n" + REIMPORT, "1")
    assert run.stdout == ""
    assert run.stderr.count("RELATTN_THREADS=1 has no effect") == 1


def test_cap_before_numpy_is_applied_silently():
    run = _python("import relattn, os, numpy\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n" + REIMPORT, "1")
    assert run.stdout == "1\n"
    assert run.stderr == ""


def test_no_cap_is_silent():
    run = _python("import numpy, relattn\n", None)
    assert run.stdout == run.stderr == ""

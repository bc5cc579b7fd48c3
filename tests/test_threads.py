"""The COOPFORGE_THREADS cap, and the warning when it comes too late."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import(statement: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS") and k != "COOPFORGE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["COOPFORGE_THREADS"] = "1"
    code = f"{statement}; import os; print([os.environ[v] for v in {BLAS_VARS!r}])"
    return subprocess.run(
        [sys.executable, "-W", "always", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("statement, warns", [("import coopforge", False), ("import numpy, coopforge", True)])
def test_late_thread_cap_warns(statement, warns):
    run = _import(statement)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['1', '1', '1']"
    assert ("RuntimeWarning" in run.stderr and "COOPFORGE_THREADS=1" in run.stderr) == warns, run.stderr

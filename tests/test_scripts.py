"""Smoke runs of the experiment drivers in scripts/ at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["rate_sweep.py", "-d", "2", "-N", "5:12", "--schemes", "product,uniform"],
         "fit on N=9..12"),
        (["optimal_gap.py", "-d", "2", "-N", "3:6", "--extrapolate", "20:40:10"],
         "optimal-rate fit on N=30..40"),
        (["constant_table.py", "--max-d", "2", "--riemann", "50,100"],
         "C(2) = 10"),
        # the defaults: lattice levels 200, 800 and 3200 up to d=4
        (["constant_table.py", "--max-d", "4"], "C(4) = 275"),
    ],
)
def test_script_runs(argv, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout

"""Smoke runs of the demo scripts, which build on the mockgen and pipeline API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_demo_cycle.py", "--n", "30"],
        ["scripts/calibration_sweep.py", "--n", "200"],
    ],
)
def test_script_runs_cleanly(argv):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_compare_outputs_finds_a_tree_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, "scripts/compare_outputs.py", "src", "src", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 of 708 files differ"), proc.stdout

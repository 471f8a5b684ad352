"""Smoke runs of the user scripts under scripts/: each exits 0 and prints
the line that its assertions stand behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopftrees.checks import MAX_WEIGHTS

ROOT = Path(__file__).parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env)


def test_dimension_table_through_weight_6():
    proc = run_script("dimension_table.py", "--max-weight", "6")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[-1] == ["6", "20", "48", "224", "32", "9", "32"]


def test_frame_report_through_weight_4():
    proc = run_script("frame_report.py", "--max-weight", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exp(sum) reproduces the series word-by-word: True"


def test_frame_report_refuses_a_weight_above_the_prop53_ceiling():
    n = MAX_WEIGHTS["prop53"] + 1
    proc = run_script("frame_report.py", "--max-weight", str(n))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: frame_report.py runs up to --max-weight {n - 1}, got {n}"]


@pytest.mark.parametrize("name", ["dimension_table.py", "frame_report.py"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_scripts_refuse_a_max_weight_below_one(name, value):
    proc = run_script(name, "--max-weight", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        f"{name}: error: argument --max-weight: must be >= 1, got {value}")

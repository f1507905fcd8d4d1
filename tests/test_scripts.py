"""Smoke runs of the experiment scripts, which drive run_experiment and run_sweep."""

import subprocess
import sys
from pathlib import Path

from venue2vec.harness import ALL_METHODS
from venue2vec.metrics import read_report_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_methods_prints_one_row_per_method():
    done = _run(
        "benchmark_methods.py",
        "--communities", "2", "--users-per-community", "8",
        "--venues-per-community", "16", "--train-checkins", "8",
        "--test-checkins", "3", "--features", "8", "--epochs", "2",
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[2:]  # header and rule first
    assert [row.split()[0] for row in rows] == list(ALL_METHODS)


def test_sweep_axes_writes_one_row_per_axis_value(tmp_path):
    done = _run("sweep_axes.py", "--axes", "E", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert "axis E: 5 runs (0 failed)" in done.stdout
    rows = read_report_csv(tmp_path / "sweep_E" / "sweep_E.csv")
    assert [row["E"] for row in rows] == [5, 10, 15, 20, 25]
    assert (tmp_path / "plots" / "kni_E.csv").exists()

"""Margin of test_criterion_1_gradient_correctness against its 10 s bound.

A diagnostic, not a benchmark metric: the test's time is spent in the
pure-Python finite-difference oracle in tests/oracles.py, not in the
library. Runs the test unchanged (read-only) through pytest and reads the
call duration pytest reports. Run from the root of a checkout:

    python3 perfbench/criterion1_margin.py
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

TEST = "tests/test_acceptance.py::test_criterion_1_gradient_correctness"
BOUND_S = 10.0  # the test's own `assert elapsed < 10.0`
REPEATS = 3
CALL = re.compile(r"^([0-9.]+)s call\s+" + re.escape(TEST), re.MULTILINE)


def measure() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=0", TEST],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    found = CALL.search(done.stdout)
    if done.returncode != 0 or found is None:
        sys.exit(f"criterion 1 did not pass:\n{done.stdout}\n{done.stderr}")
    return float(found.group(1))


def main() -> int:
    seconds = [measure() for _ in range(REPEATS)]
    print(json.dumps({
        "test": TEST,
        "bound_s": BOUND_S,
        "call_s": seconds,
        "median_s": statistics.median(seconds),
        "min_margin_s": BOUND_S - max(seconds),
        "median_margin_s": BOUND_S - statistics.median(seconds),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

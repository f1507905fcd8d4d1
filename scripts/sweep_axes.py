#!/usr/bin/env python3
"""Sweep F, C and E on a synthetic fixture and emit plot-ready CSVs.

Usage:
    python scripts/sweep_axes.py --out-dir out/sweeps [--method kni] ...

One sweep per axis with the other parameters held at their defaults; each
sweep writes a combined report CSV plus a tidy (axis_value, metric, value)
file for plotting.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from venue2vec.fixtures import FixtureSpec
from venue2vec.harness import ExperimentConfig, SweepSpec, emit_plot_data, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--method", default="kni", choices=["kni", "nn", "kiu"])
    parser.add_argument("--arch", default="skip-gram", choices=["skip-gram", "cbow"])
    parser.add_argument("--axes", default="F,C,E", help="comma-separated axes to sweep")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    fixture = FixtureSpec(
        seed=args.seed,
        communities=2,
        users_per_community=30,
        venues_per_community=60,
        train_checkins_per_user=20,
        test_checkins_per_user=5,
    )
    out_root = Path(args.out_dir)
    for axis in [a.strip() for a in args.axes.split(",") if a.strip()]:
        base = ExperimentConfig(
            fixture=fixture,
            method=args.method,
            architecture=args.arch,
            feature_count=32,
            context_count=10,
            epoch_count=15,
            neighbors=10,
            k=10,
            seed=args.seed,
            out_dir=str(out_root / f"sweep_{axis}"),
        )
        reports, rows = run_sweep(SweepSpec(axis=axis), base)
        failed = len(reports) - len(rows)
        written = emit_plot_data(rows, out_root / "plots", axis=axis)
        print(f"axis {axis}: {len(rows)} runs ({failed} failed)")
        for key, path in sorted(written.items()):
            print(f"  plot data {key} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

For each workload, runs the benchmark once per seed (one process at a time,
`--sets` times over) and reports, per end-to-end metric and set, the median
and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json; and how far each later set's median
moved from the first set's. Correctness, operation counts and per-method
accuracy must repeat exactly between sets. Run from the root of a checkout:

    python3 perfbench/steadiness.py --workloads planted-embed --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ACCURACY_PREFIX = "perfbench accuracy "


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["accuracy"] = next(
        json.loads(line[len(ACCURACY_PREFIX):])
        for line in done.stderr.splitlines()
        if line.startswith(ACCURACY_PREFIX)
    )
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        sets = []
        for number in range(args.sets):
            runs = []
            for seed in args.seeds:
                result = run_once(workload, seed, spec["run_seconds"])
                runs.append(result)
                print(f"{workload} set {number + 1} seed {seed}: {result['wall_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        metrics = {}
        for name, bound in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(values) for values in per_set]
            sign = 1.0 if better[name] == "lower" else -1.0
            metrics[name] = {
                "bound": bound,
                "values": per_set,
                "medians": medians,
                "spreads": [spread(values) for values in per_set],
                "worse_than_first_set": [sign * (m - medians[0]) / medians[0] for m in medians[1:]],
            }
        signature = [
            [(r["correct"], r["attempted"], r["failed"], r["accuracy"]) for r in runs]
            for runs in sets
        ]
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for runs in sets for r in runs),
            "attempted": [r["attempted"] for r in sets[0]],
            "failed": [r["failed"] for r in sets[0]],
            "counts_and_accuracy_repeat": all(s == signature[0] for s in signature),
            "max_wall_s": max(r["wall_s"] for runs in sets for r in runs),
            "metrics": metrics,
        }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

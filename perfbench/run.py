"""Layered end-to-end benchmark of the venue2vec command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-embed --seed 1 --seconds 30 --trace 0

The benchmark writes seeded inputs (set-up), then times the workload's CLI
stages in-process through venue2vec.cli.main(argv), checks every output and
prints one JSON object as its last line of standard output:

* --trace 0: the end-to-end metrics: per stage, the median over the run's
  rounds of its wall time scaled to the reference host speed.
* --trace 1: one untraced round, then one round with every public function
  of the layer modules wrapped by tracer.Tracer; prints the per-layer
  metrics and the tracing overhead, and requires both rounds to write
  byte-identical outputs.

`--describe` prints the workloads' inputs and argv and the machine facts.
Scratch files go to .perfbench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import TOPK, WORKLOADS, Stage, Workload

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".perfbench_run")
# set-up repeats until it has taken SETUP_SECONDS, within these counts
SETUP_REPEATS = (5, 50)
SETUP_SECONDS = 2.0
ALL_METHODS = ("kni", "nn", "kiu", "cf", "random", "svd", "ccdpp")
ACCURACY = ("precision", "ndcg", "hitrate", "coverage")

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "model_s": "s",
    "recommend_s": "s",
    "peak_rss_mb": "MB",
    "coverage": "ratio",
}


def import_program():
    """Import venue2vec from this checkout's src/, never from anywhere else."""
    if not (SRC / "venue2vec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/venue2vec under {ROOT}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import venue2vec.cli  # noqa: F401 - loads every layer module

    origin = Path(sys.modules["venue2vec"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: venue2vec imported from {origin}, not {SRC}")
    return sys.modules["venue2vec"]


# ---------------------------------------------------------------- inputs


class Inputs:
    """The seeded input files plus the facts the checks need from them."""

    def __init__(self, workload: Workload, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.checkins = directory / "checkins.tsv"
        self.users_file = directory / "users.txt"

    def write(self, program) -> None:
        """Generate and write every input file."""
        rc = cli_quiet(program, self.workload.fixture_argv(self.seed, self.checkins))
        if rc != 0:
            raise SystemExit(f"perfbench: generate-fixture exited with {rc}")
        if self.workload.sample_users:
            eval_users = self._read()[2]
            sample = random.Random(self.seed).sample(eval_users, self.workload.sample_users)
            self.users_file.write_text("".join(u + "\n" for u in sample), encoding="utf-8")

    def digest(self) -> str:
        sha = hashlib.sha256(self.checkins.read_bytes())
        if self.workload.sample_users:
            sha.update(self.users_file.read_bytes())
        return sha.hexdigest()

    def _read(self):
        from venue2vec.fixtures import FEB_2011  # the CLI's default split boundary

        catalog: set[str] = set()
        train_users: set[str] = set()
        truth: dict[str, set[str]] = {}
        with open(self.checkins, encoding="utf-8") as handle:
            for line in handle:
                user, venue, stamp = line.rstrip("\n").split("\t")
                if int(stamp) < FEB_2011:
                    catalog.add(venue)
                    train_users.add(user)
                else:
                    truth.setdefault(user, set()).add(venue)
        truth = {u: v for u, v in truth.items() if u in train_users}
        return catalog, truth, sorted(truth)

    def load(self) -> None:
        self.catalog, self.truth, eval_users = self._read()
        if self.workload.sample_users:
            self.targets = self.users_file.read_text(encoding="utf-8").split()
        else:
            self.targets = eval_users


def cli_quiet(program, argv: list[str]) -> int:
    """cli.main(argv) with its stdout moved to stderr after the call."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = program.cli.main(argv)
    sys.stderr.write(captured.getvalue())
    return rc


# ---------------------------------------------------------------- host speed

# On a shared host each vCPU switches between a fast and a slow state from
# one second to the next (about 2x for small-array numpy work), the two vCPUs
# switch independently, and slow periods can last minutes. So every timed
# stage runs on the vCPU that is fast at that moment, and its wall time is
# scaled by the host's speed around it: by PROBE_REFERENCE_S over the mean of
# a speed probe taken just before and just after the stage on that vCPU. The
# result is in seconds at the reference machine's fast speed.
CPUS = sorted(os.sched_getaffinity(0))
PROBE_REFERENCE_S = 0.00075  # speed_probe() on a fast vCPU of the reference machine


def speed_probe() -> float:
    """Fastest of three runs of a small-array loop like SGNS's inner loop."""
    import numpy

    rows = numpy.ones((64, 32))
    vector = numpy.full(32, 1e-9)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        for i in range(300):
            rows[i % 64] += (rows[i % 64] @ vector) * vector
        best = min(best, time.perf_counter() - started)
    return best


def timed(call):
    """Run call() on the fastest vCPU; returns its result, wall seconds and speed scale."""
    probes = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = speed_probe()
    cpu = min(probes, key=probes.get)
    os.sched_setaffinity(0, {cpu})
    started = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - started
    scale = PROBE_REFERENCE_S / ((probes[cpu] + speed_probe()) / 2)
    return result, seconds, scale


# ---------------------------------------------------------------- one round


def run_stages(program, stages: list[Stage], out: Path) -> dict:
    """Run each stage once, in order, into a fresh `out`."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    codes = []
    timings = []  # wall seconds
    scales = []  # host speed scale around each stage
    reports = []  # read as the stage ends: the next round overwrites `out`
    for stage in stages:
        rc, seconds, scale = timed(lambda: cli_quiet(program, stage.argv))
        codes.append(rc)
        timings.append(seconds)
        scales.append(scale)
        reports.append(read_report(stage.report) or {})
    return {"out": out, "stages": stages, "codes": codes, "timings": timings,
            "scales": scales, "reports": reports}


def read_report(path: Path | None) -> dict | None:
    if path is None or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def figures(rounds: list[dict]) -> dict:
    """total_s, model_s and recommend_s, in reference-speed seconds.

    Each stage counts with the median over the rounds of its wall time times
    the host speed scale measured around it. For `run` stages the program's
    own train_s and rec_s_total take the same scale.
    """

    def median(index: int, seconds) -> float:
        return statistics.median(seconds(r) * r["scales"][index] for r in rounds)

    total = model = recommend = 0.0
    for index, stage in enumerate(rounds[0]["stages"]):
        seconds = median(index, lambda r: r["timings"][index])
        total += seconds
        if stage.kind == "run":
            model += median(index, lambda r: r["reports"][index].get("train_s", 0.0))
            recommend += median(index, lambda r: r["reports"][index].get("rec_s_total", 0.0))
        elif stage.kind == "train":
            model += seconds
        elif stage.kind == "recommend":
            recommend += seconds
    return {"total_s": total, "model_s": model, "recommend_s": recommend}


# ---------------------------------------------------------------- checks


class Checker:
    def __init__(self, program, workload: Workload, inputs: Inputs):
        self.program = program
        self.workload = workload
        self.inputs = inputs
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.accuracy: dict[str, dict] = {}
        self.digests: dict[str, str] | None = None

    def mean_accuracy(self, name: str) -> float:
        """Mean over the workload's methods; a method with no report counts 0."""
        methods = self.workload.methods
        return sum(self.accuracy.get(m, {}).get(name, 0.0) for m in methods) / len(methods)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench: check failed: {text}", file=sys.stderr)

    def check_round(self, label: str, result: dict) -> None:
        accuracy: dict[str, dict] = {}
        for stage, rc in zip(result["stages"], result["codes"]):
            where = f"{label} {stage.kind} {stage.method or ''}".rstrip()
            if rc != 0:
                self.problem(f"{where}: exit code {rc}")
                if stage.kind in ("recommend", "run"):
                    self.attempted += len(self.inputs.targets) * stage.runs
                    self.failed += len(self.inputs.targets) * stage.runs
                continue
            if stage.kind in ("recommend", "run") and stage.runs == 1:
                self._check_lists(where, stage)
            if stage.report is None:
                continue
            report = read_report(stage.report)
            if report is None:
                self.problem(f"{where}: no report.json")
                continue
            accuracy[stage.method] = {m: report[m] for m in ACCURACY}
            if stage.runs > 1:
                self._check_averaged(where, stage, report)
            else:
                self._check_rescore(where, stage, report)
        self._check_floors(label, accuracy)
        if not self.accuracy:
            self.accuracy = accuracy
        elif accuracy != self.accuracy:
            self.problem(f"{label}: accuracy differs from the first round")
        digests = {
            str(path.relative_to(result["out"])): file_digest(path)
            for stage in result["stages"]
            for path in stage.artifacts
        }
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests if digests[k] != self.digests.get(k))
            self.problem(f"{label}: outputs differ from the first round: {changed}")

    def _check_lists(self, where: str, stage: Stage) -> None:
        """<= k distinct venues per line, all from the train catalog."""
        path = stage.recommendations
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        users = [line.split("\t", 1)[0] for line in lines]
        targets = self.inputs.targets
        self.attempted += len(targets)
        if users != targets:
            self.problem(f"{where}: {len(users)} lines for {len(targets)} target users")
            self.failed += len(set(targets) - set(users))
        catalog = self.inputs.catalog
        for line in lines:
            user, method, *items = line.split("\t")
            if method != stage.method:
                self.problem(f"{where}: line for {user} names method {method}")
            if items == ["no-prediction"]:
                self.failed += 1
                continue
            venues = [item.rpartition(":")[0] for item in items]
            if not 1 <= len(venues) <= TOPK or len(set(venues)) != len(venues):
                self.problem(f"{where}: {user} got {len(venues)} venues, not <= {TOPK} distinct")
            unknown = [v for v in venues if v not in catalog]
            if unknown:
                self.problem(f"{where}: {user} got venues outside the catalog: {unknown[:3]}")

    def _check_rescore(self, where: str, stage: Stage, report: dict) -> None:
        """metrics.score_user over the written file must reproduce report.json."""
        score_user = self.program.metrics.score_user
        truth = self.inputs.truth
        rows = []
        for line in stage.recommendations.read_text(encoding="utf-8").splitlines():
            user, _, *items = line.split("\t")
            if user not in truth:
                continue
            venues = [] if items == ["no-prediction"] else [i.rpartition(":")[0] for i in items]
            rows.append(score_user(user, venues, truth[user], TOPK))
        self._compare(where, report, rows)

    def _check_averaged(self, where: str, stage: Stage, report: dict) -> None:
        """The mean over the per-run per-user rows must reproduce report.json."""
        means = {m: 0.0 for m in ACCURACY}
        targets = len(self.inputs.targets)
        paths = [stage.report.parent / f"per_user_run{i}.csv" for i in range(stage.runs)]
        for path in paths:
            if not path.is_file():
                self.problem(f"{where}: no {path.name}")
                self.attempted += targets
                self.failed += targets
                continue
            rows = self.program.metrics.read_per_user_csv(path)
            self.attempted += targets
            self.failed += targets - sum(r.predicted for r in rows)
            if len(rows) != targets:
                self.problem(f"{where}: {path.name} has {len(rows)} rows for {targets} users")
            for metric, value in self._means(rows).items():
                means[metric] += value / len(paths)
        for metric in ACCURACY:
            if not math.isclose(means[metric], report[metric], rel_tol=1e-9, abs_tol=1e-12):
                self.problem(f"{where}: {metric} {report[metric]} != re-averaged {means[metric]}")

    @staticmethod
    def _means(rows) -> dict:
        count = max(len(rows), 1)
        return {
            "precision": sum(r.precision for r in rows) / count,
            "ndcg": sum(r.ndcg for r in rows) / count,
            "hitrate": sum(r.hit for r in rows) / count,
            "coverage": sum(r.predicted for r in rows) / count,
        }

    def _compare(self, where: str, report: dict, rows) -> None:
        if not rows:
            self.problem(f"{where}: nothing to re-score")
            return
        for metric, value in self._means(rows).items():
            if not math.isclose(value, report[metric], rel_tol=1e-9, abs_tol=1e-12):
                self.problem(f"{where}: {metric} {report[metric]} != re-scored {value}")

    def _check_floors(self, label: str, accuracy: dict) -> None:
        w = self.workload
        for method, floor in w.precision_floor.items():
            if accuracy.get(method, {}).get("precision", 0.0) < floor:
                self.problem(f"{label}: {method} precision below {floor}")
        for method, floor in w.hitrate_floor.items():
            if accuracy.get(method, {}).get("hitrate", 0.0) < floor:
                self.problem(f"{label}: {method} hitrate below {floor}")
        order = [accuracy.get(m, {}).get("precision", -1.0) for m in w.precision_order]
        if order != sorted(order, reverse=True):
            self.problem(f"{label}: precision order {w.precision_order} broken: {order}")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


# ---------------------------------------------------------------- metrics


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setups: list[float], rounds: list[dict], checker: Checker) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        **figures(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "coverage": checker.mean_accuracy("coverage"),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def tail_stats(samples: list[float]) -> tuple[float, float, int, int]:
    """p50 and the highest whole percentile with >= 10 samples beyond it (ms)."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0, 0
    pct = max(0, math.floor(100 - 1000 / n))
    import numpy

    return 1000 * statistics.median(samples), 1000 * float(numpy.percentile(samples, pct)), pct, n


def per_layer(tracer, untraced: dict, traced: dict, checker: Checker) -> dict:
    durations = tracer.durations()
    selfs = tracer.self_seconds()
    counts = tracer.counts
    out: dict[str, dict] = {}

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def put(name: str, value: float, unit: str) -> None:
        out[name] = metric(value, unit)

    def latency(prefix: str, span: str) -> None:
        p50, tail, pct, n = tail_stats(durations.get(span, []))
        put(f"{prefix}.p50_ms", p50, "ms")
        put(f"{prefix}.ptail_ms", tail, "ms")
        put(f"{prefix}.ptail_pct", pct, "pct")
        put(f"{prefix}.calls", n, "count")

    for layer in ("corpus", "embedding", "recommend", "baselines", "metrics", "modelio", "harness", "cli"):
        put(f"{layer}.self_s", sum(v for k, v in selfs.items() if k.startswith(layer + ".")), "s")

    read_s = total("corpus.read_checkins")
    put("corpus.read_checkins.s", read_s, "s")
    put("corpus.read_checkins.calls", len(durations.get("corpus.read_checkins", [])), "count")
    put("corpus.read_checkins.lines_per_s", counts["corpus.lines"] / read_s if read_s else 0.0, "1/s")
    put("corpus.malformed_lines", counts["corpus.malformed_lines"], "count")
    for name in ("split_train_test", "build_vocabulary", "build_sentences", "build_interactions"):
        put(f"corpus.{name}.s", total(f"corpus.{name}"), "s")

    train_s = total("embedding.train")
    put("embedding.train.s", train_s, "s")
    put("embedding.epoch_s.p50", statistics.median(tracer.epoch_seconds) if tracer.epoch_seconds else 0.0, "s")
    put("embedding.tokens_per_s", counts["embedding.tokens"] / train_s if train_s else 0.0, "1/s")
    made = counts["embedding.negatives.made"]
    put("embedding.negatives.useful_ratio", counts["embedding.negatives.requested"] / made if made else 0.0, "ratio")
    put("embedding.top_k_similar.s", total("embedding.top_k_similar"), "s")
    latency("embedding.top_k_similar", "embedding.top_k_similar")

    for method in ("kni", "nn", "kiu"):
        latency(f"recommend.{method}", f"recommend.recommend_{method}")
        put(f"recommend.{method}.self_s", selfs.get(f"recommend.recommend_{method}", 0.0), "s")
    for name in ("nearest_users", "vote_by_visit_counts", "rank_votes"):
        put(f"recommend.{name}.s", total(f"recommend.{name}"), "s")

    for name in ("build_interaction_matrix", "svd_factorize", "ccdpp_factorize"):
        put(f"baselines.{name}.s", total(f"baselines.{name}"), "s")
    for name in ("cf", "latent_neighbors", "random"):
        latency(f"baselines.recommend_{name}", f"baselines.recommend_{name}")

    put("modelio.save_embedding_model.s", total("modelio.save_embedding_model"), "s")
    put("modelio.load_embedding_model.s", total("modelio.load_embedding_model"), "s")
    put("modelio.load_embedding_model.calls", len(durations.get("modelio.load_embedding_model", [])), "count")
    put("modelio.model_bytes", counts["modelio.model_bytes"], "bytes")

    put("metrics.build_ground_truth.s", total("metrics.build_ground_truth"), "s")
    put("metrics.score_user.s", total("metrics.score_user"), "s")
    put("metrics.score_user.calls", len(durations.get("metrics.score_user", [])), "count")

    put("harness.run_experiment.self_s", selfs.get("harness.run_experiment", 0.0), "s")
    for command in ("train", "recommend", "evaluate", "run"):
        put(f"cli.{command}.self_s", selfs.get(f"cli.{command}", 0.0), "s")

    for method in ALL_METHODS:
        for name in ACCURACY:
            put(f"{method}.{name}", checker.accuracy.get(method, {}).get(name, 0.0), "ratio")
    for name in ("precision", "ndcg", "hitrate"):
        put(f"mean.{name}", checker.mean_accuracy(name), "ratio")

    before = figures([untraced])["total_s"]
    after = figures([traced])["total_s"]
    put("trace.overhead_s", after - before, "s")
    put("trace.overhead_ratio", (after - before) / before, "ratio")
    put("trace.spans", len(tracer.spans), "count")
    return out


# ---------------------------------------------------------------- main


def run(args) -> dict:
    program = import_program()
    import tracer as tracing

    workload = WORKLOADS[args.workload]
    base = WORK / workload.name
    shutil.rmtree(base, ignore_errors=True)
    inputs = Inputs(workload, args.seed, base / "inputs")
    inputs.directory.mkdir(parents=True)

    setups = []
    digests = set()
    least, most = SETUP_REPEATS
    spent = 0.0
    while len(setups) < least or (len(setups) < most and spent < SETUP_SECONDS):
        _, seconds, scale = timed(lambda: inputs.write(program))
        spent += seconds
        setups.append(seconds * scale)
        digests.add(inputs.digest())
    inputs.load()
    checker = Checker(program, workload, inputs)
    if len(digests) != 1:
        checker.problem("set-up wrote different inputs from the same seed")

    prepared = run_stages(program, workload.prepare(inputs.directory, base / "prep"), base / "prep")
    for stage, rc in zip(prepared["stages"], prepared["codes"]):
        if rc != 0:
            checker.problem(f"{stage.kind}: exit code {rc}")
    stages = workload.stages(inputs.directory, base / "prep", base / "round")
    if args.trace:
        untraced = run_stages(program, stages, base / "round")
        checker.check_round("untraced round", untraced)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_stages(program, stages, base / "round")
        finally:
            tracer.uninstall()
        checker.check_round("traced round", traced)
        tracer.write(base / "spans.jsonl")
        metrics = per_layer(tracer, untraced, traced, checker)
    else:
        rounds = []
        for index in range(max(1, int(args.seconds // workload.seconds_per_round))):
            result = run_stages(program, stages, base / "round")
            checker.check_round(f"round {index + 1}", result)
            rounds.append(result)
        metrics = end_to_end(setups, rounds, checker)
    print("perfbench accuracy " + json.dumps(checker.accuracy, sort_keys=True), file=sys.stderr)
    for path in (base / "prep", base / "round"):
        shutil.rmtree(path, ignore_errors=True)
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def describe() -> dict:
    """Workload inputs and argv, plus the machine the figures come from."""
    import numpy
    import scipy

    program = import_program()
    workloads = {}
    for name, w in WORKLOADS.items():
        inputs = WORK / name / "inputs"
        prep = WORK / name / "prep"
        out = WORK / name / "round"
        workloads[name] = {
            "setup": shlex.join(["venue2vec", *w.fixture_argv("<seed>", inputs / "checkins.tsv")]),
            "sample_users": w.sample_users,
            "prepare": [shlex.join(["venue2vec", *s.argv]) for s in w.prepare(inputs, prep)],
            "stages": [shlex.join(["venue2vec", *s.argv]) for s in w.stages(inputs, prep, out)],
            "seconds_per_round": w.seconds_per_round,
        }
    return {
        "workloads": workloads,
        "machine": machine_facts(numpy, scipy, program),
    }


def machine_facts(numpy, scipy, program) -> dict:
    import ctypes
    import glob

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "venue2vec": program.__version__,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    # numpy wheels bundle OpenBLAS with 64-bit-integer symbol names
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    if lib is not None and hasattr(lib, "scipy_openblas_get_config64_"):
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        facts["openblas"] = lib.scipy_openblas_get_config64_().decode()
        facts["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

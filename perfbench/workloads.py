"""The benchmark's workloads: seeded inputs and the CLI stages each one times.

Every workload drives the documented command line in-process through
venue2vec.cli.main(argv). Inputs come from `generate-fixture` with the
workload seed, so the program only ever sees the written TSV (and, for
cbow-serve, a users file).

A run repeats the workload's timed stages in rounds. Every timed stage is
short (at most about 2 s), so that the host's speed, which changes from
second to second, can be measured around it (see run.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

TOPK = 10
PROGRAM_SEED = 1  # model seed: fixed, so only the inputs vary with --seed
RANDOM_RUNS = 10  # seeded runs the random baseline averages over (the CLI default)


@dataclass(frozen=True)
class Stage:
    kind: str  # prepare | train | recommend | evaluate | run
    method: str | None
    argv: list[str]
    recommendations: Path | None = None  # recommendation file the stage writes or reads
    report: Path | None = None  # report.json the stage writes
    artifacts: tuple[Path, ...] = ()  # outputs that must repeat byte for byte
    runs: int = 1  # recommendation requests per target user; > 1 for averaged random


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: dict
    methods: tuple[str, ...]
    # A run makes max(1, seconds // seconds_per_round) rounds: the same count
    # on every commit, so a faster program does not change the work measured.
    seconds_per_round: float
    train_flags: tuple[str, ...] = ()  # the timed train stage; empty: baselines through `run`
    # Flags of an untimed training, run once before the rounds, whose model
    # the serving stages read. Empty: they read the timed train stage's model.
    serve_model_flags: tuple[str, ...] = ()
    run_flags: tuple[str, ...] = ()
    sample_users: int = 0  # 0: every evaluation user
    # accuracy floors (criterion 4a on the planted fixture): a faster kernel
    # that loses accuracy fails the correctness check here
    precision_floor: dict = field(default_factory=dict)
    hitrate_floor: dict = field(default_factory=dict)
    precision_order: tuple[str, ...] = ()

    def fixture_argv(self, seed: int | str, out: Path) -> list[str]:
        argv = ["generate-fixture", "--out", str(out), "--seed", str(seed)]
        for flag, value in self.fixture.items():
            argv += [f"--{flag}", str(value)]
        return argv

    def prepare(self, inputs: Path, prep: Path) -> list[Stage]:
        """The untimed stages that run once, before the rounds, into `prep`."""
        if not self.serve_model_flags:
            return []
        model = prep / "model.bin"
        argv = ["train", "--input", str(inputs / "checkins.tsv"), *self.serve_model_flags,
                "--seed", str(PROGRAM_SEED), "--model-out", str(model)]
        return [Stage("prepare", None, argv, artifacts=(model,))]

    def stages(self, inputs: Path, prep: Path, out: Path) -> list[Stage]:
        """The timed stages of one round, writing into `out`."""
        checkins = str(inputs / "checkins.tsv")
        topk = ["--topk", str(TOPK)]
        if not self.train_flags:
            stages = []
            for method in self.methods:
                run_dir = out / f"run_{method}"
                argv = ["run", "--input", checkins, "--method", method, *self.run_flags,
                        *topk, "--seed", str(PROGRAM_SEED), "--out-dir", str(run_dir)]
                if method == "random":
                    # averaged over seeded runs: one per-user file per run, no list file
                    argv += ["--random-runs", str(RANDOM_RUNS)]
                    recs, runs = None, RANDOM_RUNS
                    outputs = tuple(run_dir / f"per_user_run{i}.csv" for i in range(runs))
                else:
                    recs, runs = run_dir / "recommendations.tsv", 1
                    outputs = (recs,)
                stages.append(
                    Stage(
                        "run",
                        method,
                        argv,
                        recommendations=recs,
                        report=run_dir / "report.json",
                        artifacts=(run_dir / "per_user.csv", *outputs),
                        runs=runs,
                    )
                )
            return stages
        trained = out / "model.bin"
        model = prep / "model.bin" if self.serve_model_flags else trained
        users = ["--users", str(inputs / "users.txt")] if self.sample_users else []
        stages = [
            Stage(
                "train",
                None,
                ["train", "--input", checkins, *self.train_flags,
                 "--seed", str(PROGRAM_SEED), "--model-out", str(trained)],
                artifacts=(trained,),
            )
        ]
        for method in self.methods:
            recs = out / f"recommendations_{method}.tsv"
            eval_dir = out / f"eval_{method}"
            stages.append(
                Stage(
                    "recommend",
                    method,
                    ["recommend", "--model", str(model), "--input", checkins,
                     "--method", method, *topk, *users, "--out", str(recs)],
                    recommendations=recs,
                    artifacts=(recs,),
                )
            )
            stages.append(
                Stage(
                    "evaluate",
                    method,
                    ["evaluate", "--recommendations", str(recs), "--input", checkins,
                     *topk, "--out-dir", str(eval_dir)],
                    recommendations=recs,
                    report=eval_dir / "report.json",
                    artifacts=(eval_dir / "per_user.csv",),
                )
            )
        return stages


# Paper-shaped communities from the ROADMAP: 208 users and 1238 venues each,
# with 10 train + 3 test check-ins per user (the paper's data is 40 of them).
PAPER_SHAPE = {
    "users-per-community": 208,
    "venues-per-community": 1238,
    "train-checkins": 10,
    "test-checkins": 3,
    "noise": 0.0,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-embed",
            fixture={
                "communities": 4,
                "users-per-community": 50,
                "venues-per-community": 100,
                "train-checkins": 20,
                "test-checkins": 5,
                "noise": 0.0,
            },
            methods=("kni", "nn", "kiu"),
            seconds_per_round=2.0,
            # two epochs of the criterion 4a training: per-epoch cost plus the
            # fixed read/vocabulary/save cost, short enough to repeat
            train_flags=("--arch", "skip-gram", "--features", "32", "--window", "10",
                         "--epochs", "2"),
            # the full criterion 4a training, whose model is served and scored
            serve_model_flags=("--arch", "skip-gram", "--features", "32", "--window", "10",
                               "--epochs", "25"),
            precision_floor={"kni": 0.35},
            hitrate_floor={"kni": 0.9},
            precision_order=("kni", "kiu", "nn"),
        ),
        Workload(
            name="cbow-serve",
            fixture={"communities": 8, **PAPER_SHAPE},
            methods=("kni", "nn", "kiu"),
            seconds_per_round=3.0,
            train_flags=("--arch", "cbow", "--features", "100", "--window", "max",
                         "--epochs", "1"),
            sample_users=200,
        ),
        Workload(
            name="baselines-run",
            fixture={"communities": 2, **PAPER_SHAPE},
            methods=("cf", "random", "svd", "ccdpp"),
            seconds_per_round=3.3,
            run_flags=("--rank", "100"),
            # about 25% below the lowest of seeds 1-12 (cf 0.0137 / 0.127, svd
            # 0.0103 / 0.101); ccdpp is unfloored, it sits at chance
            precision_floor={"cf": 0.010, "svd": 0.0077},
            hitrate_floor={"cf": 0.095, "svd": 0.075},
        ),
    )
}

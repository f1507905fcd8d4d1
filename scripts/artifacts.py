#!/usr/bin/env python3
"""Write the artifact protocol: what every method writes on three seeded
fixtures, with the timing fields zeroed.

Usage:
    python scripts/artifacts.py OUT

Every command goes through venue2vec.cli.main in this one process:
generate-fixture for each fixture (acceptance: seed 11, 4 x 50 x 100;
noisy: seed 3, 3 x 30 x 60, noise 0.3; sparse: seed 5, 3 x 30 x 120, 30
favourites, noise 0.3), then at F=16, C=10, E=5, seed 1 (TRAINING) and
N=30, k=10 (SERVING):

- run for all seven methods x --filter-seen x --binary-votes;
- run for kni, nn and kiu at --min-count 2 x --filter-seen;
- train (model, --text-out vectors, --loss-csv) at --min-count 1 and 2,
  then recommend + evaluate for kni, nn and kiu x both flags;
- the same for one CBOW model (train --arch cbow), with recommend +
  evaluate for kni, nn and kiu, plain and --filter-seen;
- recommend --users for kni, nn and kiu from the --min-count 1 model, for
  the users in USERS (one of them unknown): kni and kiu read only the
  model, nn also the check-ins;
- sweep for kni over E = 2, 3, then plot-data over its sweep_E.csv.

run and sweep take both groups of settings. Each staged command takes only
the flags it reads: train the input, TRAINING and --min-count or --arch;
recommend the input, SERVING, the method and the two flags; evaluate the
input and SERVING.

The timing fields (report and sweep train_s, rec_s_total and
rec_s_per_user, loss trace seconds) are then set to 0.0, so everything left
is a function of the code and the seeds: two runs of one commit must write
identical trees (diff -r, 1,032 files), and two commits can be compared the
same way.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from venue2vec.cli import main as cli_main

METHODS = ("kni", "nn", "kiu", "cf", "random", "svd", "ccdpp")
EMBEDDING_METHODS = METHODS[:3]
FIXTURES = {
    "acceptance": ["--seed", "11", "--communities", "4", "--users-per-community", "50",
                   "--venues-per-community", "100"],
    "noisy": ["--seed", "3", "--communities", "3", "--users-per-community", "30",
              "--venues-per-community", "60", "--noise", "0.3"],
    "sparse": ["--seed", "5", "--communities", "3", "--users-per-community", "30",
               "--venues-per-community", "120", "--favorites", "30", "--noise", "0.3"],
}
TRAINING = ["--features", "16", "--window", "10", "--epochs", "5", "--seed", "1"]
SERVING = ["--neighbors", "30", "--topk", "10"]
FLAGS = {
    "plain": [],
    "seen": ["--filter-seen"],
    "binary": ["--binary-votes"],
    "seen-binary": ["--filter-seen", "--binary-votes"],
}
TIMINGS = ("train_s", "rec_s_total", "rec_s_per_user", "seconds")
# the --users subset, in this order: users of every fixture, and a stranger
USERS = ("c1u2", "nobody", "c0u0", "c0u5")


def commands(out: Path, fixtures: dict) -> list[list[str]]:
    """Every CLI command of the protocol, in order, writing under out."""
    argvs = []
    for name, spec in fixtures.items():
        base = out / name
        checkins = base / "checkins.tsv"
        argvs.append(["generate-fixture", "--out", str(checkins), *spec])
        given = ["--input", str(checkins)]
        data = [*given, *TRAINING, *SERVING]
        for method in METHODS:
            for label, flags in FLAGS.items():
                argvs.append(["run", *data, "--method", method, *flags,
                              "--out-dir", str(base / "run" / method / label)])
        for method in EMBEDDING_METHODS:
            for label in ("plain", "seen"):
                argvs.append(["run", *data, "--min-count", "2", "--method", method,
                              *FLAGS[label], "--out-dir", str(base / "run-min2" / method / label)])
        for min_count in ("1", "2"):
            staged = base / f"staged-min{min_count}"
            model = staged / "model.bin"
            argvs.append(["train", *given, *TRAINING, "--min-count", min_count,
                          "--model-out", str(model),
                          "--text-out", str(staged / "vectors.txt"),
                          "--loss-csv", str(staged / "loss.csv")])
            for method in EMBEDDING_METHODS:
                for label, flags in FLAGS.items():
                    recs = staged / f"{method}-{label}.tsv"
                    argvs.append(["recommend", "--model", str(model), *given, *SERVING,
                                  "--method", method, *flags, "--out", str(recs)])
                    argvs.append(["evaluate", "--recommendations", str(recs), *given, *SERVING,
                                  "--out-dir", str(staged / method / label)])
        staged = base / "staged-cbow"
        argvs.append(["train", *given, *TRAINING, "--arch", "cbow",
                      "--model-out", str(staged / "model.bin"),
                      "--text-out", str(staged / "vectors.txt"),
                      "--loss-csv", str(staged / "loss.csv")])
        for method in EMBEDDING_METHODS:
            for label in ("plain", "seen"):
                recs = staged / f"{method}-{label}.tsv"
                argvs.append(["recommend", "--model", str(staged / "model.bin"), *given,
                              *SERVING, "--method", method, *FLAGS[label], "--out", str(recs)])
                argvs.append(["evaluate", "--recommendations", str(recs), *given, *SERVING,
                              "--out-dir", str(staged / method / label)])
        staged = base / "staged-min1"
        for method in EMBEDDING_METHODS:
            argvs.append(["recommend", "--model", str(staged / "model.bin"), *given,
                          *SERVING, "--method", method, "--users", str(base / "users.txt"),
                          "--out", str(staged / f"{method}-users.tsv")])
        sweep = base / "sweep"
        argvs.append(["sweep", *data, "--method", "kni", "--axis", "E", "--values", "2,3",
                      "--out-dir", str(sweep)])
        argvs.append(["plot-data", "--reports", str(sweep / "sweep_E.csv"),
                      "--out-dir", str(base / "plot")])
    return argvs


def _zero_csv(path: Path) -> None:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    timed = [i for i, column in enumerate(columns) if column in TIMINGS]
    lines = [header]
    for row in rows:
        values = row.split(",")
        for i in timed:
            values[i] = "0.0"
        lines.append(",".join(values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _zero_json(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.update({key: 0.0 for key in TIMINGS if key in report})
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def write_protocol(out: Path, fixtures: dict = FIXTURES) -> int:
    """Run the protocol into out and zero its timings; the number of files."""
    for name in fixtures:
        (out / name).mkdir(parents=True, exist_ok=True)
        (out / name / "users.txt").write_text("".join(f"{user}\n" for user in USERS))
    for argv in commands(out, fixtures):
        for path in argv:
            if path.startswith(str(out)):
                Path(path).parent.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"venue2vec {' '.join(argv)} exited {code}")
    files = sorted(path for path in out.rglob("*") if path.is_file())
    for path in files:
        if path.name in ("report.csv", "sweep_E.csv", "loss_trace.csv", "loss.csv"):
            _zero_csv(path)
        elif path.name == "report.json":
            _zero_json(path)
    return len(files)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(sys.argv[1])
    print(f"wrote {write_protocol(out)} files under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

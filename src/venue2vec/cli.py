"""Command-line interface.

Subcommands: generate-fixture, train, recommend, evaluate, run, sweep,
plot-data. Exit codes: 0 success, 1 configuration error, 2 runtime failure.
Flags override values from an optional key=value --config file. The file may
hold any experiment key; train, recommend and evaluate take flags only for
the keys they read, run and sweep for every key.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import traceback
from pathlib import Path

import numpy as np

from . import harness, modelio, recommend
from .corpus import FieldLayout, write_checkins
from .embedding import CBOW, MAX_WINDOW, SKIP_GRAM
from .errors import ConfigError
from .fixtures import FEB_2011, FixtureSpec, generate_fixture
from .harness import ExperimentConfig, SweepSpec
from .metrics import METRICS, evaluation_users, read_report_csv, write_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _window(text: str) -> int | str:
    return text if text == MAX_WINDOW else int(text)


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# Every experiment option, once: key -> (field, parser of its text, help).
# The flag is the key with "_" written "-" (--min-count is min_count), a
# config file line is "key = text", and both texts go through the parser.
# The field is a FieldLayout field for the four layout keys, an
# ExperimentConfig field for the rest.
_OPTIONS = {
    "input": ("input_path", str, "check-in file (.gz accepted)"),
    "boundary": ("boundary", int, "train/test split timestamp"),
    "method": ("method", str, None),
    "arch": ("architecture", str, None),
    "features": ("feature_count", int, "embedding dimension F"),
    "window": (
        "context_count",
        _window,
        'context window C (int or "max"; default 20 for skip-gram, max for cbow)',
    ),
    "epochs": ("epoch_count", int, "training epochs E"),
    "min_count": ("min_word_count", int, "vocabulary frequency floor"),
    "neighbors": ("neighbors", int, "neighbor count N"),
    "topk": ("k", int, "recommendation list size k"),
    "filter_seen": ("filter_seen", _bool, None),
    "binary_votes": ("binary_votes", _bool, None),
    "seed": ("seed", int, None),
    "rank": ("rank", int, "factorization rank (default F)"),
    "regularization": ("regularization", float, None),
    "random_runs": ("random_runs", int, None),
    "out_dir": ("out_dir", str, None),
    "delimiter": ("delimiter", str, "field delimiter (default tab)"),
    "user_col": ("user_col", int, None),
    "venue_col": ("venue_col", int, None),
    "time_col": ("time_col", int, None),
}
_CHOICES = {"method": harness.ALL_METHODS, "arch": (SKIP_GRAM, CBOW)}

# The keys each staged command reads and so takes flags for; run and sweep
# take every key. A --config file may hold any key (see the module docstring).
_INPUT_KEYS = ("input", "boundary", "delimiter", "user_col", "venue_col", "time_col")
_STAGE_KEYS = {
    "train": _INPUT_KEYS + ("arch", "features", "window", "epochs", "min_count", "seed"),
    "recommend": _INPUT_KEYS + ("method", "neighbors", "topk", "filter_seen", "binary_votes"),
    "evaluate": _INPUT_KEYS + ("neighbors", "topk", "out_dir"),  # N is echoed in the report
}


def _add_experiment_flags(parser, keys=tuple(_OPTIONS)) -> None:
    parser.add_argument("--config", help="key=value file of any experiment keys; flags win")
    for key in keys:
        _, parse, text = _OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        if parse is _bool:
            # an absent flag stays None, leaving the config file's value
            parser.add_argument(flag, action="store_const", const="true", help=text)
        else:
            parser.add_argument(flag, choices=_CHOICES.get(key), help=text)


def _parse(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"cannot parse {key}={value!r}") from None


def build_experiment_config(args) -> ExperimentConfig:
    """Merge defaults, the --config file, and command-line flags (flags win)."""
    given = list(harness.parse_config_file(args.config).items()) if args.config else []
    given += [
        (key, getattr(args, key)) for key in _OPTIONS if getattr(args, key, None) is not None
    ]
    values = {}
    for key, text in given:
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse, _ = _OPTIONS[key]
        values[name] = _parse(key, text, parse)
    layout = {name: values.pop(name) for name in FieldLayout.__dataclass_fields__ if name in values}
    return ExperimentConfig(**values, layout=FieldLayout(**layout))


def _summary(report) -> str:
    return " ".join(f"{metric}={getattr(report, metric):.4f}" for metric in METRICS)


def _cmd_generate_fixture(args) -> int:
    given = {
        name: getattr(args, name)
        for name in FixtureSpec.__dataclass_fields__
        if getattr(args, name, None) is not None
    }
    log = generate_fixture(FixtureSpec(**given))
    write_checkins(log, args.out)
    train = int((log.times < FEB_2011).sum())
    print(
        f"wrote {args.out}: {len(log.user_ids)} users, {len(log.venue_ids)} venues, "
        f"{train} train + {len(log) - train} test check-ins (boundary {FEB_2011})"
    )
    return 0


def _cmd_train(args) -> int:
    config = build_experiment_config(args)
    config.validate()  # before reading anything
    model, corpus, trace = harness.fit_embedding(config, harness.load_dataset(config))
    modelio.save_embedding_model(model, args.model_out)
    if args.loss_csv:
        write_csv(args.loss_csv, *harness.loss_trace(trace))
    if args.text_out:
        modelio.export_text_vectors(model, args.text_out)
    print(
        f"trained {config.architecture} F={config.feature_count} on "
        f"{len(corpus)} sentences ({len(model.vocab)} tokens); model -> {args.model_out}"
    )
    return 0


def _read_users_file(path: str) -> list[str]:
    """The file's users in first-seen order, each once, so that every user
    gets one list and evaluate accepts the file."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(dict.fromkeys(line.strip() for line in handle if line.strip()))


def _cmd_recommend(args) -> int:
    config = build_experiment_config(args)
    config.validate()  # before reading anything
    harness.check_serves(harness.EMBEDDING_METHODS, config.method)  # what a model file serves
    fitted = harness.Fit.of_model(modelio.load_embedding_model(args.model))
    # the check-ins are parsed only where the lists read them
    dataset = None
    if not args.users or harness.reads_dataset(config, fitted):
        dataset = harness.load_dataset(config)
    if args.users:
        users = _read_users_file(args.users)
    else:
        users = evaluation_users(dataset)
    if not users:
        raise ConfigError("no target users: supply --users or test-period data")
    blocks = list(harness.recommender(config, fitted, dataset, users))
    recommend.write_batch_blocks(blocks, config.method, fitted.vocab.venues, args.out)
    misses = sum(int((np.diff(top.indptr) == 0).sum()) for _, top in blocks)
    print(f"wrote {len(users)} recommendation lines to {args.out} ({misses} no-prediction)")
    return 0


def _cmd_evaluate(args) -> int:
    config = build_experiment_config(args)
    config.validate()  # before reading anything
    out_dir = Path(config.out_dir or ".")
    report = harness.evaluate_recommendations(config, args.recommendations, out_dir)
    print(f"{report.method}: {_summary(report)} ({len(report.per_user)} users) -> {out_dir}")
    return 0


def _cmd_run(args) -> int:
    config = build_experiment_config(args)
    report = harness.run_experiment(config)
    print(
        f"{report.method}: {_summary(report)} "
        f"train={report.train_s:.2f}s rec={report.rec_s_total:.2f}s"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = build_experiment_config(args)
    values = None  # the axis's grid; a --values that lists no value is a config error
    if args.values is not None:
        values = [_parse("values", v.strip(), _window) for v in args.values.split(",") if v.strip()]
    spec = SweepSpec(axis=args.axis, values=values)
    reports, rows = harness.run_sweep(spec, config)
    failed = len(reports) - len(rows)
    for value, report in zip(spec.resolved_values(), reports):
        if isinstance(report, Exception):
            print(f"{args.axis}={value}: {report}", file=sys.stderr)
    print(f"sweep {args.axis}: {len(rows)} runs ok, {failed} failed")
    if config.out_dir:
        print(f"combined CSV -> {Path(config.out_dir) / f'sweep_{args.axis}.csv'}")
    return 0 if failed == 0 else 2


def _cmd_plot_data(args) -> int:
    rows: list[dict] = []
    for path in args.reports:
        rows.extend(read_report_csv(path))
    written = harness.emit_plot_data(rows, args.out_dir, axis=args.axis)
    for (method, axis), path in sorted(written.items()):
        print(f"{method} vs {axis} -> {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="venue2vec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-fixture", help="write a synthetic check-in file")
    p.add_argument("--out", required=True)
    # an absent flag stays None and FixtureSpec's default holds
    p.add_argument("--seed", type=int)
    p.add_argument("--communities", type=int)
    p.add_argument("--users-per-community", type=int)
    p.add_argument("--venues-per-community", type=int)
    p.add_argument("--train-checkins", type=int, dest="train_checkins_per_user")
    p.add_argument("--test-checkins", type=int, dest="test_checkins_per_user")
    p.add_argument("--noise", type=float, dest="noise_rate")
    p.add_argument("--favorites", type=int, dest="favorites_per_user")
    p.set_defaults(func=_cmd_generate_fixture)

    p = sub.add_parser("train", help="train an embedding model")
    _add_experiment_flags(p, _STAGE_KEYS["train"])
    p.add_argument("--model-out", required=True)
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--text-out", default=None, help="also export readable vectors")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("recommend", help="batch recommendations from a saved model")
    _add_experiment_flags(p, _STAGE_KEYS["recommend"])
    p.add_argument("--model", required=True)
    p.add_argument(
        "--users", default=None, help="file with one target user per line; repeats are listed once"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="score a batch recommendation file")
    _add_experiment_flags(p, _STAGE_KEYS["evaluate"])
    p.add_argument("--recommendations", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="end-to-end experiment")
    _add_experiment_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run one parameter axis sweep")
    _add_experiment_flags(p)
    p.add_argument("--axis", required=True, choices=list(harness.SWEEP_AXES))
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot-data", help="tidy metric-vs-parameter CSVs")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--axis", default=None, choices=list(harness.SWEEP_AXES))
    p.set_defaults(func=_cmd_plot_data)

    return parser


# glibc's mallopt parameters (malloc.h) and the values main gives them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 8 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES  # glibc's own pairing


def _fix_malloc_thresholds() -> bool:
    """Give glibc's malloc fixed thresholds for the rest of the process.

    Left adaptive, glibc raises its mmap threshold to the size of each
    mapped block it frees, so once a model's weights are freed, later blocks
    of that size come from the heap, and whether they land on pages already
    resident depends on what earlier commands in the process left there:
    one seed's cbow-serve benchmark run, every command in one process,
    peaked at 77 MB or at 89 MB from run to run. Fixed, every block of
    _MMAP_THRESHOLD_BYTES or more is mapped when allocated and unmapped when
    freed, so it counts towards resident memory exactly while it lives.
    Smaller blocks stay on the heap, which keeps at most
    _TRIM_THRESHOLD_BYTES free at its top. Returns whether glibc took both
    settings; elsewhere it changes nothing and returns False.
    """
    if not sys.platform.startswith("linux"):
        return False
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):  # musl and others
        return False
    return bool(
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        and libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    )


def main(argv: list[str] | None = None) -> int:
    _fix_malloc_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

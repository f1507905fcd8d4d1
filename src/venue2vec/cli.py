"""Command-line interface.

Subcommands: generate-fixture, train, recommend, evaluate, run, sweep,
plot-data. Exit codes: 0 success, 1 configuration error, 2 runtime failure.
Flags override values from an optional key=value --config file.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import harness, modelio, recommend
from .corpus import FieldLayout, write_checkins
from .embedding import write_loss_trace
from .errors import ConfigError
from .fixtures import FixtureSpec, generate_fixture, parse_fixture_spec
from .harness import ExperimentConfig, SweepSpec, default_context_count
from .metrics import build_ground_truth, read_report_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _add_layout_flags(parser) -> None:
    parser.add_argument("--delimiter", default=None, help="field delimiter (default tab)")
    parser.add_argument("--user-col", type=int, default=None)
    parser.add_argument("--venue-col", type=int, default=None)
    parser.add_argument("--time-col", type=int, default=None)


def _add_experiment_flags(parser, with_method=True) -> None:
    parser.add_argument("--config", default=None, help="key=value config file; flags win")
    parser.add_argument("--input", default=None, help="check-in file (.gz accepted)")
    parser.add_argument("--fixture", default=None, help="fixture spec, e.g. communities=2,users=20,venues=30,train=15,test=5,noise=0,seed=7")
    parser.add_argument("--boundary", type=int, default=None, help="train/test split timestamp")
    if with_method:
        parser.add_argument("--method", default=None, choices=harness.ALL_METHODS)
    parser.add_argument("--arch", default=None, choices=["skip-gram", "cbow"])
    parser.add_argument("--features", type=int, default=None, help="embedding dimension F")
    parser.add_argument("--window", default=None, help='context window C (int or "max")')
    parser.add_argument("--epochs", type=int, default=None, help="training epochs E")
    parser.add_argument("--negative", type=int, default=None, help="negative samples per pair")
    parser.add_argument("--min-count", type=int, default=None, help="vocabulary frequency floor")
    parser.add_argument("--neighbors", type=int, default=None, help="neighbor count N")
    parser.add_argument("--topk", type=int, default=None, help="recommendation list size k")
    parser.add_argument("--filter-seen", action="store_true", default=None)
    parser.add_argument("--binary-votes", action="store_true", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rank", type=int, default=None, help="factorization rank (default F)")
    parser.add_argument("--regularization", type=float, default=None)
    parser.add_argument("--mf-iterations", type=int, default=None)
    parser.add_argument("--random-runs", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    _add_layout_flags(parser)


_INT_KEYS = {
    "boundary", "features", "epochs", "negative", "min_count", "neighbors",
    "topk", "seed", "rank", "mf_iterations", "random_runs",
    "user_col", "venue_col", "time_col",
}
_FLOAT_KEYS = {"regularization"}
_BOOL_KEYS = {"filter_seen", "binary_votes"}

_CONFIG_FIELDS = {
    "input": "input_path",
    "boundary": "boundary",
    "method": "method",
    "arch": "architecture",
    "features": "feature_count",
    "window": "context_count",
    "epochs": "epoch_count",
    "negative": "negative_samples",
    "min_count": "min_word_count",
    "neighbors": "neighbors",
    "topk": "k",
    "filter_seen": "filter_seen",
    "binary_votes": "binary_votes",
    "seed": "seed",
    "rank": "rank",
    "regularization": "regularization",
    "mf_iterations": "mf_iterations",
    "random_runs": "random_runs",
    "out_dir": "out_dir",
}


_LAYOUT_KEYS = ("delimiter", "user_col", "venue_col", "time_col")


def _parse(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"cannot parse {key}={value!r}") from None


def _coerce(key: str, value):
    if isinstance(value, str):
        if key in _INT_KEYS or (key == "window" and value != "max"):
            return _parse(key, value, int)
        if key in _FLOAT_KEYS:
            return _parse(key, value, float)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ConfigError(f"cannot parse boolean {key}={value!r}")
    return value


def build_experiment_config(args) -> ExperimentConfig:
    """Merge defaults, the --config file, and command-line flags (flags win)."""
    merged: dict = {}
    if getattr(args, "config", None):
        for key, value in harness.parse_config_file(args.config).items():
            if key == "fixture":
                merged["fixture"] = parse_fixture_spec(value)
                continue
            if key not in _CONFIG_FIELDS and key not in _LAYOUT_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value)
    for key in (*_CONFIG_FIELDS, *_LAYOUT_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    if getattr(args, "fixture", None):
        merged["fixture"] = parse_fixture_spec(args.fixture)

    window_given = "window" in merged
    kwargs = {}
    layout_kwargs = {}
    for key, value in merged.items():
        if key == "fixture":
            kwargs["fixture"] = value
        elif key in _LAYOUT_KEYS:
            layout_kwargs[key] = value
        else:
            kwargs[_CONFIG_FIELDS[key]] = value
    if layout_kwargs:
        kwargs["layout"] = replace(FieldLayout(), **layout_kwargs)
    config = ExperimentConfig(**kwargs)
    if not window_given:
        config = replace(
            config, context_count=default_context_count(config.architecture)
        )
    return config


def _cmd_generate_fixture(args) -> int:
    spec_kwargs = dict(
        seed=args.seed,
        communities=args.communities,
        users_per_community=args.users_per_community,
        venues_per_community=args.venues_per_community,
        train_checkins_per_user=args.train_checkins,
        test_checkins_per_user=args.test_checkins,
        noise_rate=args.noise,
    )
    if args.favorites is not None:
        spec_kwargs["favorites_per_user"] = args.favorites
    spec = FixtureSpec(**spec_kwargs)
    records, summary = generate_fixture(spec)
    write_checkins(records, args.out)
    print(
        f"wrote {args.out}: {summary.user_count} users, "
        f"{summary.venue_count} venues, {summary.train_count} train + "
        f"{summary.test_count} test check-ins (boundary {summary.boundary})"
    )
    return 0


def _cmd_train(args) -> int:
    config = build_experiment_config(args)
    model, corpus, trace = harness.fit_embedding(config, harness.load_dataset(config))
    modelio.save_embedding_model(model, args.model_out)
    if args.loss_csv:
        write_loss_trace(trace, args.loss_csv)
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
    if config.method not in harness.EMBEDDING_METHODS:
        raise ConfigError("recommend supports the kni, nn and kiu methods")
    model = modelio.load_embedding_model(args.model)
    dataset = harness.load_dataset(config)
    if args.users:
        users = _read_users_file(args.users)
    else:
        users = sorted(build_ground_truth(dataset))
    if not users:
        raise ConfigError("no target users: supply --users or test-period data")
    recommend_one = harness.embedding_recommender(config, model, dataset)
    results = [recommend_one(user) for user in users]
    recommend.write_batch_recommendations(results, args.out)
    misses = sum(1 for r in results if not r.predicted)
    print(f"wrote {len(results)} recommendation lines to {args.out} ({misses} no-prediction)")
    return 0


def _cmd_evaluate(args) -> int:
    config = build_experiment_config(args)
    results = recommend.read_batch_recommendations(args.recommendations)
    out_dir = Path(config.out_dir or ".")
    report = harness.evaluate_recommendations(config, results, out_dir)
    print(
        f"{report.method}: precision={report.precision:.4f} ndcg={report.ndcg:.4f} "
        f"hitrate={report.hitrate:.4f} coverage={report.coverage:.4f} "
        f"({len(report.per_user)} users) -> {out_dir}"
    )
    return 0


def _cmd_run(args) -> int:
    config = build_experiment_config(args)
    report = harness.run_experiment(config)
    print(
        f"{report.method}: precision={report.precision:.4f} ndcg={report.ndcg:.4f} "
        f"hitrate={report.hitrate:.4f} coverage={report.coverage:.4f} "
        f"train={report.train_s:.2f}s rec={report.rec_s_total:.2f}s"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = build_experiment_config(args)
    values = (
        [v.strip() for v in args.values.split(",") if v.strip()] if args.values else ()
    )
    parsed = [v if v == "max" else _parse("values", v, int) for v in values]
    spec = SweepSpec(axis=args.axis, values=parsed)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--communities", type=int, default=2)
    p.add_argument("--users-per-community", type=int, default=20)
    p.add_argument("--venues-per-community", type=int, default=50)
    p.add_argument("--train-checkins", type=int, default=20)
    p.add_argument("--test-checkins", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--favorites", type=int, default=None)
    p.set_defaults(func=_cmd_generate_fixture)

    p = sub.add_parser("train", help="train an embedding model")
    _add_experiment_flags(p, with_method=False)
    p.add_argument("--model-out", required=True)
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--text-out", default=None, help="also export readable vectors")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("recommend", help="batch recommendations from a saved model")
    _add_experiment_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--users", default=None, help="file with one target user per line; repeats are listed once")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="score a batch recommendation file")
    _add_experiment_flags(p, with_method=False)
    p.add_argument("--recommendations", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="end-to-end experiment")
    _add_experiment_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run one parameter axis sweep")
    _add_experiment_flags(p)
    p.add_argument("--axis", required=True, choices=["F", "C", "E"])
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot-data", help="tidy metric-vs-parameter CSVs")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--axis", default=None, choices=["F", "C", "E"])
    p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
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

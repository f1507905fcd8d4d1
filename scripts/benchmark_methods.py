#!/usr/bin/env python3
"""Run every recommender on one synthetic fixture and print a comparison table.

Usage:
    python scripts/benchmark_methods.py [--communities 4] [--epochs 25] ...

Fits one skip-gram model that serves the embedding methods (kni / nn / kiu),
and runs the matrix-factorization baselines (svd / ccdpp), classic cf and
the seeded random baseline on the same planted-community fixture, then
prints precision / ndcg / hitrate / coverage plus the modeling and
recommendation timings per method. The three embedding rows share the one
fit's train_s.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from venue2vec.fixtures import FixtureSpec
from venue2vec.harness import (
    ALL_METHODS,
    EMBEDDING_METHODS,
    ExperimentConfig,
    fit,
    load_dataset,
    recommender,
    run_experiment,
    score_lists,
)
from venue2vec.metrics import TruthTable, aggregate, evaluation_users


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--communities", type=int, default=4)
    parser.add_argument("--users-per-community", type=int, default=50)
    parser.add_argument("--venues-per-community", type=int, default=100)
    parser.add_argument("--train-checkins", type=int, default=20)
    parser.add_argument("--test-checkins", type=int, default=5)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--features", type=int, default=32)
    parser.add_argument("--window", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--neighbors", type=int, default=30)
    parser.add_argument("--topk", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    fixture = FixtureSpec(
        seed=args.seed,
        communities=args.communities,
        users_per_community=args.users_per_community,
        venues_per_community=args.venues_per_community,
        train_checkins_per_user=args.train_checkins,
        test_checkins_per_user=args.test_checkins,
        noise_rate=args.noise,
    )
    base = ExperimentConfig(
        fixture=fixture,
        feature_count=args.features,
        context_count=args.window,
        epoch_count=args.epochs,
        neighbors=args.neighbors,
        k=args.topk,
        seed=args.seed,
    )
    dataset = load_dataset(base)
    started = time.perf_counter()
    fitted = fit(base, dataset)  # one skip-gram fit serves kni, nn and kiu
    train_s = time.perf_counter() - started
    users = evaluation_users(dataset)
    truth = TruthTable.of(dataset.test, users, fitted.vocab.venue_index)

    header = f"{'method':<8} {'precision':>9} {'ndcg':>7} {'hitrate':>8} {'coverage':>9} {'train_s':>8} {'rec_s':>7}"
    print(header)
    print("-" * len(header))
    for method in ALL_METHODS:
        config = replace(base, method=method)
        if method in EMBEDDING_METHODS:  # served and scored a block at a time, as run does
            rows, started = [], time.perf_counter()
            score_lists(recommender(config, fitted, dataset, users), truth, config.k, rows)
            seconds = time.perf_counter() - started
            report = aggregate(rows, train_s=train_s, rec_s=seconds, method=method, k=config.k)
        else:
            report = run_experiment(config)
        print(
            f"{method:<8} {report.precision:>9.4f} {report.ndcg:>7.4f} "
            f"{report.hitrate:>8.4f} {report.coverage:>9.4f} "
            f"{report.train_s:>8.2f} {report.rec_s_total:>7.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

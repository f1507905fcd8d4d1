#!/usr/bin/env python3
"""Time the input end and one SGNS training epoch on the paper-shaped fixture.

Usage:
    python scripts/time_epoch.py [--epochs 1]

The fixture is the ROADMAP's paper shape: 40 communities x 208 users x 1238
venues, 10 train check-ins per user (8320 users, 49520 venues, 91520
sentence tokens). It prints the best-of-3 seconds of the whole input end:
read_checkins over the fixture written as a 108,160-line TSV, the same
read with every venue id rewritten as a distinct 24-character hexadecimal
id (the length of Foursquare's venue ids; "read_checkins hex"), both with
their lines per second, split_train_test, build_vocabulary, build_sentences,
build_interactions and the ground truth (evaluation_users, then
TruthTable.of over the vocabulary's venues). It prints the seconds of one
svd_factorize and one ccdpp_factorize build (rank 100, seed 1, the
library's other defaults) over the training visit table, and the seconds of
two seeded Random servings (k=10, seed 1) of the evaluation users over the
49,520-venue catalog, each iterated to its last ranked block, one plain
and one under filter_seen, which draws each user k + |seen| deep, and the
rec_s_total and rec_s_per_user of one run_experiment of CF and of Random
(random_runs=1, seed 1, k=10) over the evaluation users: the serving,
ranking and scoring of every user. It then
trains skip-gram (F=100, C=20) and CBOW
(F=100, window "max") and prints, per architecture, the seconds per epoch
and the (center, context) pairs per second. The pair count is the
expectation over the reduced-window radius draw, the same for any
implementation, so pairs per second compares training kernels on equal
work.

Last it prints KNI's precision and hit rate after 25 epochs (F=100,
seed 1) for skip-gram (C=20) and CBOW (window "max") on the 8-community
fixture, the paper shape's sparsity at a fifth of its size, so a training
change that breaks learning, or fixes it, shows at the paper's sparsity.
"""

import argparse
import sys
import tempfile
import time
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from venue2vec.baselines import CF, RANDOM, ccdpp_factorize, svd_factorize
from venue2vec.corpus import (
    build_interactions,
    build_sentences,
    build_vocabulary,
    read_checkins,
    split_train_test,
    write_checkins,
)
from venue2vec.embedding import CBOW, SKIP_GRAM, TrainingConfig, init_model, resolve_window, train
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.harness import ExperimentConfig, fit, recommender, run_experiment
from venue2vec.metrics import TruthTable, evaluation_users
from venue2vec.recommend import KNI

PAPER_SHAPE = FixtureSpec(
    seed=1,
    communities=40,
    users_per_community=208,
    venues_per_community=1238,
    train_checkins_per_user=10,
    test_checkins_per_user=3,
)


def expected_pairs(lengths: np.ndarray, window: int) -> float:
    """Expected (center, context) pairs per epoch with radii uniform in [1, window]."""
    total = 0.0
    for length, count in zip(*np.unique(lengths, return_counts=True)):
        pos = np.arange(length)[:, None]
        radius = np.arange(1, window + 1)[None, :]
        per_radius = np.minimum(pos, radius) + np.minimum(length - 1 - pos, radius)
        total += count * per_radius.mean(axis=1).sum()
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=1)
    args = parser.parse_args()

    log = generate_fixture(PAPER_SHAPE)
    dataset = split_train_test(log, FEB_2011)
    vocab = build_vocabulary(dataset.train, 1)
    corpus = build_sentences(dataset.train, vocab)
    # an odd multiplier permutes [0, 2^96), so the hexadecimal ids are distinct
    hex_venues = [f"{j * 0x9E3779B97F4A7C15 % 2**96:024x}" for j in range(len(log.venue_ids))]
    with tempfile.TemporaryDirectory() as scratch:
        path, hex_path = Path(scratch) / "checkins.tsv", Path(scratch) / "hex_venues.tsv"
        write_checkins(log, path)
        write_checkins(replace(log, venue_ids=hex_venues), hex_path)
        stages = {
            "read_checkins": lambda: read_checkins(path),
            "read_checkins hex": lambda: read_checkins(hex_path),
            "split_train_test": lambda: split_train_test(log, FEB_2011),
            "build_vocabulary": lambda: build_vocabulary(dataset.train, 1),
            "build_sentences": lambda: build_sentences(dataset.train, vocab),
            "build_interactions": lambda: build_interactions(dataset.train, vocab),
            "ground truth": lambda: TruthTable.of(
                dataset.test, evaluation_users(dataset), vocab.venue_index
            ),
        }
        for name, stage in stages.items():
            best = min(timeit.repeat(stage, number=1, repeat=3))
            reads = name.startswith("read_checkins")
            rate = f", {len(log) / best:,.0f} lines/s" if reads else ""
            print(f"{name:<18} {best:7.3f} s (best of 3{rate})")
    visits = build_interactions(dataset.train, vocab)
    for name, build in (("svd_factorize", svd_factorize), ("ccdpp_factorize", ccdpp_factorize)):
        start = time.perf_counter()
        build(visits, 100, seed=1)
        print(f"{name:<18} {time.perf_counter() - start:7.3f} s (rank 100)")
    users = evaluation_users(dataset)
    for filter_seen in (False, True):
        config = ExperimentConfig(
            fixture=PAPER_SHAPE, method=RANDOM, seed=1, filter_seen=filter_seen
        )
        blocks = recommender(config, fit(config, dataset), dataset, users)
        start = time.perf_counter()
        for _ in blocks:
            pass
        print(
            f"{'random serving':<18} {time.perf_counter() - start:7.3f} s "
            f"({len(users)} users, {len(vocab.venues)} venues, k={config.k}"
            f"{', filter_seen' if filter_seen else ''})"
        )
    for method in (CF, RANDOM):
        report = run_experiment(
            ExperimentConfig(fixture=PAPER_SHAPE, method=method, seed=1, random_runs=1)
        )
        print(
            f"{method + ' run':<18} {report.rec_s_total:7.3f} s rec_s_total, "
            f"{1e6 * report.rec_s_per_user:.1f} us rec_s_per_user "
            f"({len(report.per_user)} users, k={report.k})"
        )
    lengths = np.diff(corpus.starts)
    print(f"{len(corpus)} sentences, {corpus.total_tokens} tokens, {len(vocab)} tokens in vocab")
    for architecture, context_count in ((SKIP_GRAM, 20), (CBOW, "max")):
        config = TrainingConfig(
            architecture=architecture,
            feature_count=100,
            context_count=context_count,
            epoch_count=args.epochs,
            seed=1,
        )
        _, trace = train(init_model(vocab, config), corpus)
        seconds = float(np.mean([row.seconds for row in trace]))
        pairs = expected_pairs(lengths, resolve_window(context_count, corpus.max_length))
        print(
            f"{architecture:<9} C={context_count!s:<4} {seconds:7.2f} s/epoch "
            f"{pairs / seconds:10.0f} pairs/s ({pairs:.0f} pairs/epoch)"
        )
    for architecture, context_count in ((SKIP_GRAM, 20), (CBOW, "max")):
        report = run_experiment(
            ExperimentConfig(
                fixture=replace(PAPER_SHAPE, communities=8),
                method=KNI,
                architecture=architecture,
                feature_count=100,
                context_count=context_count,
                epoch_count=25,
                seed=1,
            )
        )
        print(
            f"{architecture:<9} C={context_count!s:<4} KNI after 25 epochs, 8 communities: "
            f"precision {report.precision:.4f} hit rate {report.hitrate:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

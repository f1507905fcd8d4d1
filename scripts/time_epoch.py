#!/usr/bin/env python3
"""Time venue2vec layer by layer, score every method, and print one JSON document.

Usage:
    python scripts/time_epoch.py [--epochs 1]

machine            nproc, the CPU model where /proc/cpuinfo names one, and the
                   Python, numpy and scipy versions.
paper_shape        on PAPER_SHAPE, the ROADMAP's paper shape (8320 users,
                   49520 venues, 91520 sentence tokens):
  stage_s          the best-of-3 seconds of each input stage: generate_fixture
                   of PAPER_SHAPE, read_checkins of the fixture as a
                   108,160-line TSV, and of that TSV with 24-character
                   hexadecimal venue ids, as Foursquare's (read_checkins_hex),
                   split_train_test, build_vocabulary, build_sentences,
                   build_interactions and ground_truth.
  lines_per_s      the two reads' lines per second.
  build_s          svd_factorize and ccdpp_factorize (rank 100, seed 1),
                   best of 3.
  random_serving_s two seeded Random servings (k=10, seed 1), best of 3, from
                   the recommender call to the last ranked block: plain, and
                   filter_seen.
  model_io         save_s and load_s (best of 3) and bytes of the model file
                   of a stand-in model: init_model over the vocabulary
                   (57,840 tokens), F=100, seed 1, no training.
  serving_s        kni: s, one KNI serving (k=10) of the evaluation users
                   over the stand-in model, best of 3, from recommender's row
                   norms to its last ranked block, and us_per_user.
  run              rec_s_total and rec_s_per_user of one cf and one random
                   run_experiment (random_runs=1): serve, rank, score.
  corpus           evaluation users, venues, sentences, tokens, vocabulary.
  training         per architecture at its default window C (F=100, seed 1):
                   s_per_epoch over --epochs epochs, pairs_per_epoch (the
                   expectation over the reduced-window radius draw, the same
                   for any kernel) and pairs_per_s.
eight_communities  KNI's precision and hit rate after 25 epochs (F=100, seed 1)
                   of each architecture on PAPER_SHAPE with 8 communities:
                   the paper's sparsity at a fifth of its size.
planted            per method on PLANTED: precision, ndcg, hitrate, coverage,
                   train_s and rec_s (one serving's seconds) from one
                   run_experiments: one skip-gram fit serves kni, nn and kiu,
                   and random is the mean of its 10 runs.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import timeit
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from venue2vec.baselines import CF, RANDOM, ccdpp_factorize, svd_factorize
from venue2vec.corpus import (build_interactions, build_sentences, build_vocabulary,
                              read_checkins, split_train_test, write_checkins)
from venue2vec.embedding import CBOW, SKIP_GRAM, init_model, resolve_window, train
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.harness import (ALL_METHODS, ExperimentConfig, Fit, fit, recommender,
                               run_experiment, run_experiments)
from venue2vec.metrics import TruthTable, evaluation_users
from venue2vec.modelio import load_embedding_model, save_embedding_model
from venue2vec.recommend import KNI

PAPER_SHAPE = FixtureSpec(
    seed=1,
    communities=40,
    users_per_community=208,
    venues_per_community=1238,
    train_checkins_per_user=10,
    test_checkins_per_user=3,
)

# the planted-community acceptance fixture and the settings every method runs with
PLANTED = ExperimentConfig(
    fixture=FixtureSpec(seed=11, communities=4, users_per_community=50, venues_per_community=100,
                        train_checkins_per_user=20, test_checkins_per_user=5, noise_rate=0.0),
    feature_count=32, context_count=10, epoch_count=25, neighbors=30, k=10, seed=11,
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


def best_of_3(step) -> float:
    """The fewest seconds of three calls of step."""
    return min(timeit.repeat(step, number=1, repeat=3))


def serving_seconds(config: ExperimentConfig, fitted: Fit, dataset, users) -> float:
    """The best-of-3 seconds of one serving, from the recommender call (the
    row norms included) to its last ranked block."""
    return best_of_3(lambda: deque(recommender(config, fitted, dataset, users), maxlen=0))


def machine() -> dict:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on, as nproc counts
        info = dict(nproc=len(os.sched_getaffinity(0)))
    else:
        info = dict(nproc=os.cpu_count())
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    if models:
        info["cpu_model"] = models[0]
    info.update(python=platform.python_version(), numpy=np.__version__, scipy=scipy.__version__)
    return info


def paper_shape(spec: FixtureSpec, epochs: int) -> dict:
    log = generate_fixture(spec)
    dataset = split_train_test(log, FEB_2011)
    vocab = build_vocabulary(dataset.train, 1)
    corpus = build_sentences(dataset.train, vocab)
    users = evaluation_users(dataset)
    # an odd multiplier permutes [0, 2^96), so the hexadecimal ids are distinct
    hex_venues = [f"{j * 0x9E3779B97F4A7C15 % 2**96:024x}" for j in range(len(log.venue_ids))]
    with tempfile.TemporaryDirectory() as scratch:
        path, hex_path = Path(scratch) / "checkins.tsv", Path(scratch) / "hex_venues.tsv"
        write_checkins(log, path)
        write_checkins(replace(log, venue_ids=hex_venues), hex_path)
        stages = {
            "generate_fixture": lambda: generate_fixture(spec),
            "read_checkins": lambda: read_checkins(path),
            "read_checkins_hex": lambda: read_checkins(hex_path),
            "split_train_test": lambda: split_train_test(log, FEB_2011),
            "build_vocabulary": lambda: build_vocabulary(dataset.train, 1),
            "build_sentences": lambda: build_sentences(dataset.train, vocab),
            "build_interactions": lambda: build_interactions(dataset.train, vocab),
            "ground_truth": lambda: TruthTable.of(
                dataset.test, evaluation_users(dataset), vocab.venue_index
            ),
        }
        stage_s = {name: best_of_3(stage) for name, stage in stages.items()}
    visits = build_interactions(dataset.train, vocab)
    build_s = {name: best_of_3(lambda: build(visits, 100, seed=1))
               for name, build in (("svd_factorize", svd_factorize),
                                   ("ccdpp_factorize", ccdpp_factorize))}
    random_serving_s, runs, training = {}, {}, {}
    for serving, filter_seen in (("plain", False), ("filter_seen", True)):
        config = ExperimentConfig(fixture=spec, method=RANDOM, seed=1, filter_seen=filter_seen)
        random_serving_s[serving] = serving_seconds(config, fit(config, dataset), dataset, users)
    kni = ExperimentConfig(fixture=spec, method=KNI, feature_count=100, seed=1)
    model = init_model(vocab, kni.training_config())
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "model.bin"
        model_io = {
            name: best_of_3(step)
            for name, step in (("save_s", lambda: save_embedding_model(model, path)),
                               ("load_s", lambda: load_embedding_model(path)))
        }
        model_io["bytes"] = path.stat().st_size
    seconds = serving_seconds(kni, Fit.of_model(model), dataset, users)
    serving_s = dict(kni=dict(s=seconds, us_per_user=1e6 * seconds / len(users)))
    for method in (CF, RANDOM):
        config = ExperimentConfig(fixture=spec, method=method, seed=1, random_runs=1)
        report = run_experiment(config)
        runs[method] = dict(rec_s_total=report.rec_s_total, rec_s_per_user=report.rec_s_per_user)
    lengths = np.diff(corpus.starts)
    for architecture in (SKIP_GRAM, CBOW):
        config = ExperimentConfig(
            architecture=architecture, feature_count=100, epoch_count=epochs, seed=1
        ).training_config()
        _, trace = train(init_model(vocab, config), corpus)
        seconds = float(np.mean([row.seconds for row in trace]))
        pairs = expected_pairs(lengths, resolve_window(config.context_count, corpus.max_length))
        training[architecture] = dict(C=config.context_count, s_per_epoch=seconds,
                                      pairs_per_epoch=pairs, pairs_per_s=pairs / seconds)
    return dict(
        stage_s=stage_s,
        lines_per_s={
            name: len(log) / seconds
            for name, seconds in stage_s.items()
            if name.startswith("read_checkins")
        },
        build_s=build_s,
        random_serving_s=random_serving_s,
        model_io=model_io,
        serving_s=serving_s,
        run=runs,
        corpus=dict(users=len(users), venues=len(vocab.venues), sentences=len(corpus),
                    tokens=corpus.total_tokens, vocabulary=len(vocab)),
        training=training,
    )


def eight_communities(spec: FixtureSpec) -> dict:
    doc = {}
    for architecture in (SKIP_GRAM, CBOW):
        config = ExperimentConfig(
            fixture=spec, method=KNI, architecture=architecture, feature_count=100,
            epoch_count=25, seed=1,
        )
        report = run_experiment(config)
        doc[architecture] = dict(C=config.training_config().context_count,
                                 precision=report.precision, hitrate=report.hitrate)
    return doc


def planted(spec: FixtureSpec) -> dict:
    reports = run_experiments([replace(PLANTED, fixture=spec, method=m) for m in ALL_METHODS])
    doc = {}
    for method, report in zip(ALL_METHODS, reports):
        if isinstance(report, Exception):
            raise report
        servings = PLANTED.random_runs if method == RANDOM else 1
        doc[method] = dict(precision=report.precision, ndcg=report.ndcg, hitrate=report.hitrate,
                           coverage=report.coverage, train_s=report.train_s,
                           rec_s=report.rec_s_total / servings)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--epochs", type=int, default=1)
    args = parser.parse_args()
    doc = dict(
        machine=machine(),
        paper_shape=paper_shape(PAPER_SHAPE, args.epochs),
        eight_communities=eight_communities(replace(PAPER_SHAPE, communities=8)),
        planted=planted(PLANTED.fixture),
    )
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

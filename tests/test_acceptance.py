"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 4 is split: 4a covers the planted-structure recovery margins
and 4b checks Random against its chance level |relevant| / |catalog| at the
fixture's own catalog size; the paper-scale Random bound of 0.001 is checked
by criterion 9 when the real data set is supplied.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from venue2vec.baselines import ccdpp_factorize, svd_factorize
from venue2vec.corpus import (
    Checkins,
    Dataset,
    build_sentences,
    build_vocabulary,
    split_train_test,
)
from venue2vec.embedding import (
    TrainingConfig,
    init_model,
    negative_sampling_gradient,
    train,
)
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.harness import (
    ExperimentConfig,
    Fit,
    fit,
    load_dataset,
    recommender,
    run_experiment,
)
from venue2vec.metrics import (
    aggregate,
    build_ground_truth,
    ndcg_at_k,
    precision_at_k,
    prediction_coverage,
    score_user,
)
from venue2vec.recommend import ranked, row_norms, vote_scores

from oracles import (
    als_final_objective,
    brute_force_top_k,
    finite_difference_gradients,
    jacobi_singular_values,
    recompute_report_from_csv,
)
from conftest import visit_table
from test_baselines import random_decaying_matrix

README = Path(__file__).resolve().parent.parent / "README.md"

ACCEPTANCE_FIXTURE = FixtureSpec(
    seed=11,
    communities=4,
    users_per_community=50,
    venues_per_community=100,
    train_checkins_per_user=20,
    test_checkins_per_user=5,
    noise_rate=0.0,
)

ACCEPTANCE_TRAINING = TrainingConfig(
    architecture="skip-gram",
    feature_count=32,
    context_count=10,
    epoch_count=25,
    seed=5,
)


def _line(criterion, ok, detail):
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    """Analytic SGNS gradients vs central differences, 1000+ random configs."""
    rng = np.random.default_rng(99)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for dim in (2, 10, 50):
        scale = dim**-0.5
        for _ in range(334):
            n_neg = int(rng.integers(1, 6))
            center = rng.normal(size=dim) * scale
            context = rng.normal(size=dim) * scale
            negatives = [rng.normal(size=dim) * scale for _ in range(n_neg)]
            _, g_center, g_context, g_negatives = negative_sampling_gradient(
                center, context, negatives
            )
            fd_center, fd_context, fd_negatives = finite_difference_gradients(
                center, context, negatives, h=1e-6
            )
            for analytic, numeric in (
                (g_center, fd_center),
                (g_context, fd_context),
                (g_negatives, fd_negatives),
            ):
                denom = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
                worst = max(worst, np.max(np.abs(analytic - numeric)) / denom)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 1000
    assert worst <= 1e-5
    assert elapsed < 10.0
    _line(1, True, f"{checked} configs, worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def _random_model(rng, n_venues, features):
    users = [f"u{i}" for i in range(int(rng.integers(2, 20)))]
    venues = [f"v{j}" for j in range(n_venues)]
    records = Checkins.of([(u, venues[0], 1) for u in users] + [(users[0], v, 2) for v in venues])
    vocab = build_vocabulary(records, 1)
    config = TrainingConfig(feature_count=features, seed=int(rng.integers(2**31)))
    model = init_model(vocab, config, dtype=np.float64)
    model.input_vectors[:] = rng.normal(size=model.input_vectors.shape)
    return model, records


def test_criterion_2_top_k_oracle_equivalence():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    for trial in range(100):
        n_venues = 10_000 if trial < 2 else int(rng.integers(100, 10_001))
        features = int(rng.integers(4, 101))
        model, records = _random_model(rng, n_venues, features)
        config = ExperimentConfig(method="kni", k=10)
        dataset = Dataset(records, Checkins.of([]))
        ours = next(recommender(config, Fit.of_model(model), dataset)(["u0"]))
        count = model.vocab.user_count
        query = model.input_vectors[model.vocab.user_index["u0"]]
        reference = brute_force_top_k(
            model.input_vectors, query, np.arange(count, len(model.vocab)), 10
        )
        assert ours.venues() == [model.vocab.venues[i - count] for i, _ in reference]
        for (_, score), (_, ref_score) in zip(ours.items, reference):
            assert score == pytest.approx(ref_score, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _line(2, True, f"100 models identical to brute force, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_metric_correctness(tmp_path):
    assert precision_at_k(["a", "b"], {"a", "b"}, 2) == 1.0
    assert precision_at_k(["a", "b"], {"z"}, 2) == 0.0
    spread = ["r1", "x", "r2", "y", "z", "r3", "q", "w", "e", "t"]
    assert precision_at_k(spread, {"r1", "r2", "r3"}, 10) == pytest.approx(0.3)

    assert ndcg_at_k(["a"], {"a"}, 10) == 1.0
    rank2 = ndcg_at_k(["x", "a"], {"a"}, 10)
    assert rank2 == pytest.approx(1.0 / math.log2(3), abs=1e-12)
    assert rank2 == pytest.approx(0.6309, abs=1e-4)
    assert ndcg_at_k(["a", "b", "c"], {"a", "b", "c"}, 10) == pytest.approx(1.0)

    from venue2vec.metrics import hit_rate

    assert hit_rate([1, 1, 1]) == 1.0
    assert hit_rate([1, 0, 1, 0, 1]) == pytest.approx(0.6)
    assert prediction_coverage([1] * 19 + [0]) == pytest.approx(0.95)

    # Eq. 1 style recomputation from the emitted per-user CSV
    report = run_experiment(
        ExperimentConfig(
            fixture=FixtureSpec(seed=2, communities=2, users_per_community=8,
                                venues_per_community=16,
                                train_checkins_per_user=10,
                                test_checkins_per_user=3),
            method="kni", feature_count=8, context_count=4, epoch_count=5,
            neighbors=3, k=10, seed=1, out_dir=str(tmp_path),
        )
    )
    recomputed = recompute_report_from_csv(tmp_path / "per_user.csv")
    assert abs(report.precision - recomputed["precision"]) <= 1e-12
    assert abs(report.ndcg - recomputed["ndcg"]) <= 1e-12
    assert abs(report.hitrate - recomputed["hitrate"]) <= 1e-12
    assert abs(report.coverage - recomputed["coverage"]) <= 1e-12
    _line(3, True, "metric fixtures exact; aggregate matches recomputation to 1e-12")


# ---------------------------------------------------------------- criterion 4


def _evaluate(recommender, truth, method):
    """The run report of recommender's lists at k = 10 over truth's users."""
    users = sorted(truth)
    rows = [
        score_user(user, result.venues(), truth[user], 10)
        for user, result in zip(users, recommender(users))
    ]
    return aggregate(rows, method=method, k=10)


@pytest.fixture(scope="module")
def planted_run():
    dataset = split_train_test(generate_fixture(ACCEPTANCE_FIXTURE), FEB_2011)
    truth = build_ground_truth(dataset)
    started = time.perf_counter()
    vocab = build_vocabulary(dataset.train, 1)
    corpus = build_sentences(dataset.train, vocab)
    model, _ = train(init_model(vocab, ACCEPTANCE_TRAINING), corpus)
    fitted = Fit.of_model(model)
    reports = {
        method: _evaluate(
            recommender(
                ExperimentConfig(method=method, k=10, neighbors=30), fitted, dataset
            ),
            truth,
            method,
        )
        for method in ("kni", "nn", "kiu")
    }
    elapsed = time.perf_counter() - started
    return reports, dataset, truth, elapsed


def test_criterion_4a_planted_structure_recovery(planted_run):
    reports, _, _, elapsed = planted_run
    kni, nn, kiu = reports["kni"], reports["nn"], reports["kiu"]
    assert kni.precision >= 0.35
    assert kni.hitrate >= 0.9
    assert kiu.precision >= nn.precision
    assert kni.precision >= kiu.precision >= nn.precision  # paper's ordering
    assert elapsed < 60.0
    _line(
        "4a",
        True,
        f"KNI precision {kni.precision:.3f} (>=0.35), hitrate {kni.hitrate:.3f} "
        f"(>=0.9), KIU {kiu.precision:.3f} >= NN {nn.precision:.3f}, {elapsed:.0f}s",
    )


def _chance_precision(truth, catalog, k, runs):
    """Expectation and standard error of Random's mean precision@k.

    Each user's hits among k uniform draws without replacement from the
    catalog are hypergeometric, with r = |truth ∩ catalog| relevant venues,
    so the user's expected precision is r / |catalog|. Users and runs draw
    independently, so the variance of the mean over U users and R runs is
    the sum of the per-user variances divided by U^2 * R.
    """
    n = len(catalog)
    share = np.array([len(venues & catalog) for venues in truth.values()]) / n
    variances = share * (1 - share) * (n - k) / (n - 1) / k
    users = len(share)
    return float(share.mean()), float(np.sqrt(variances.sum() / (users**2 * runs)))


def test_criterion_4b_random_precision_bound(planted_run):
    """Random precision@10 sits at its chance level and far below KNI.

    The paper-scale bound (precision@10 <= 0.001, README: "Random ≈ 0.0001"
    on 49,521 venues) is the analytic expectation |relevant| / |catalog| at
    that catalog size; criterion 9 checks it when the real data set is
    supplied. On this 400-venue fixture the same expectation is about 0.01,
    so this test computes it from the data: the catalog is the training
    venues Random draws from, and each user's relevant set is the test
    venues in that catalog.

    The 10-run mean must lie within 4 standard errors of the expectation.
    That width is a choice, not a figure from the paper: a correct Random
    leaves it with probability about 6e-5 at any seed, while one that
    returns k/2 venues (half the expectation, about 7 standard errors
    below) or one that leaks test venues (well above) fails. Random must
    also stay at least 10x below KNI on the same fixture, the paper's
    claim that it is the floor of the comparison.
    """
    reports, dataset, truth, _ = planted_run
    runs, k = 10, 10
    config = ExperimentConfig(
        fixture=ACCEPTANCE_FIXTURE, method="random", random_runs=runs, k=k, seed=5
    )
    report = run_experiment(config)
    catalog = set(build_vocabulary(dataset.train).venues)
    expected, stderr = _chance_precision(truth, catalog, k, runs)
    z = (report.precision - expected) / stderr
    kni = reports["kni"].precision
    ok = abs(z) <= 4.0 and 10 * report.precision <= kni
    _line(
        "4b",
        ok,
        f"random precision {report.precision:.4f}, chance {expected:.4f} "
        f"± {stderr:.4f} (z = {z:+.1f}, |z| <= 4), KNI {kni:.3f} (>= 10x random)",
    )
    assert abs(z) <= 4.0, (
        f"random precision {report.precision:.4f} is {z:+.1f} standard errors "
        f"from its chance level {expected:.4f} (|relevant ∩ catalog| / "
        f"|catalog| over {len(catalog)} venues, standard error {stderr:.4f} "
        f"for {runs} runs of {len(truth)} users)"
    )
    assert 10 * report.precision <= kni, (
        f"random precision {report.precision:.4f} is not 10x below "
        f"KNI precision {kni:.3f}"
    )


def test_criterion_4c_novel_venues_beat_random():
    """Under filter_seen every embedding method beats Random at novel venues.

    Each user's favorite set holds 40 venues, more than the 20 training
    draws, so most test venues are new to the user. With the user's own
    venues dropped from every list (Random then draws from the catalog
    minus them), KNI, NN and KIU must each reach 5x Random's 10-run mean
    precision. One model serves all three.
    """
    config = ExperimentConfig(
        fixture=replace(ACCEPTANCE_FIXTURE, favorites_per_user=40),
        feature_count=32, context_count=10, epoch_count=25, neighbors=30,
        k=10, seed=1, filter_seen=True,
    )
    dataset = load_dataset(config)
    truth = build_ground_truth(dataset)
    fitted = fit(config, dataset)
    precision = {
        method: _evaluate(
            recommender(replace(config, method=method), fitted, dataset),
            truth,
            method,
        ).precision
        for method in ("kni", "nn", "kiu")
    }
    random = run_experiment(replace(config, method="random", random_runs=10)).precision
    ok = all(value >= 5 * random for value in precision.values())
    _line(
        "4c",
        ok,
        ", ".join(f"{m.upper()} {v:.4f}" for m, v in precision.items())
        + f" >= 5x random {random:.4f} on novel venues",
    )
    for method, value in precision.items():
        assert value >= 5 * random, (
            f"{method} novel-venue precision {value:.4f} is not 5x "
            f"random's {random:.4f}"
        )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_ccdpp_monotonic_and_matches_als():
    rng = np.random.default_rng(17)
    for trial in range(50):
        m, n = int(rng.integers(4, 14)), int(rng.integers(4, 14))
        dense = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.7)
        if not dense.any():
            dense[0, 0] = 1.0
        rank = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.005, 2.0))
        _, trace = ccdpp_factorize(
            sparse.csr_matrix(dense), rank, lam, iterations=10, seed=trial
        )
        assert (np.diff(trace) <= 1e-9).all(), f"objective rose on trial {trial}"

    matches = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed + 40)
        dense = np.round(rng.uniform(0, 5, size=(4, 4)), 1)
        dense[rng.random(size=(4, 4)) < 0.3] = 0.0
        if not dense.any():
            dense[0, 0] = 2.0
        observed = (dense != 0).astype(float)
        lam = 0.1
        _, trace = ccdpp_factorize(
            sparse.csr_matrix(dense), 1, lam, iterations=300, seed=seed
        )
        init = np.random.default_rng(seed)
        U0 = init.standard_normal((4, 1)) * 0.1
        V0 = init.standard_normal((4, 1)) * 0.1
        oracle = als_final_objective(dense, observed, 1, lam, U0, V0, iterations=300)
        assert trace[-1] == pytest.approx(oracle, abs=1e-6)
        matches.append(abs(trace[-1] - oracle))
    _line(5, True, f"50 monotone traces; ALS gap max {max(matches):.2e}")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_svd_correctness():
    rng = np.random.default_rng(23)
    for _ in range(3):
        dense = random_decaying_matrix(rng, 50, 40, ratio=0.75)
        factors = svd_factorize(sparse.csr_matrix(dense), 10, seed=int(rng.integers(2**31)))
        oracle = jacobi_singular_values(dense)[:10]
        np.testing.assert_allclose(factors.singular_values, oracle, rtol=1e-6)

    u = rng.normal(size=12)
    v = rng.normal(size=9)
    dense = np.outer(u, v)
    factors = svd_factorize(sparse.csr_matrix(dense), 1, seed=0)
    reconstructed = factors.user_factors @ factors.venue_factors.T
    rel = np.linalg.norm(dense - reconstructed) / np.linalg.norm(dense)
    assert rel < 1e-6
    _line(6, True, f"singular values within 1e-6 of Jacobi oracle; rank-1 error {rel:.1e}")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_coverage_contract(planted_run):
    reports, *_ = planted_run
    for method in ("kni", "nn", "kiu"):
        assert reports[method].coverage == 1.0

    # secondary fixture: the small community used across the unit suite
    small = FixtureSpec(seed=7, communities=2, users_per_community=12,
                        venues_per_community=24, train_checkins_per_user=12,
                        test_checkins_per_user=4)
    for method in ("kni", "nn", "kiu"):
        report = run_experiment(
            ExperimentConfig(fixture=small, method=method, feature_count=8,
                             context_count=4, epoch_count=4, neighbors=5,
                             k=10, seed=1)
        )
        assert report.coverage == 1.0

    # CF with exactly one isolated user among 20
    train = []
    test = []
    for i in range(19):
        user = f"u{i}"
        train.append((user, "hub", 100 + i))
        train.append((user, f"own{i}", 200 + i))
        test.append((user, "hub", FEB_2011 + i))
    train += [("loner", "hermitage1", 150), ("loner", "hermitage2", 151)]
    test.append(("loner", "hub", FEB_2011 + 50))
    train, test = Checkins.of(train), Checkins.of(test)
    vocab, counts = visit_table(train)
    truth = build_ground_truth(Dataset(train, test))
    assert len(truth) == 20
    predicted = [
        int(
            ranked(
                vote_scores(counts, row_norms(counts), counts, [vocab.user_index[user]], 5, True),
                10,
            ).nnz
            > 0
        )
        for user in sorted(truth)
    ]
    coverage = prediction_coverage(predicted)
    assert coverage == pytest.approx(0.95, abs=0)
    _line(7, True, "KNI/NN/KIU coverage 1.000 on both fixtures; CF isolated-user 0.95")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_kni_timing_budget():
    rng = np.random.default_rng(31)
    n_users, n_venues, features = 200, 50_000, 100
    users = [f"u{i}" for i in range(n_users)]
    venues = [f"v{j}" for j in range(n_venues)]
    records = Checkins.of([(u, venues[0], 1) for u in users] + [(users[0], v, 2) for v in venues])
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=features, seed=0))
    model.input_vectors[:] = rng.normal(size=model.input_vectors.shape).astype(np.float32)

    recommend_users = recommender(
        ExperimentConfig(method="kni", k=10), Fit.of_model(model), Dataset(records, Checkins.of([]))
    )
    samples = []
    for i in range(100):
        begin = time.perf_counter()
        result = next(recommend_users([users[i]]))
        samples.append(time.perf_counter() - begin)
        assert len(result.items) == 10
    median = float(np.median(samples))
    assert median < 0.2
    _line(8, True, f"median KNI latency {median * 1000:.1f} ms over 50k venues")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_paper_scale_gated_integration():
    """Desk-scale runs cannot reproduce the published numbers because the
    check-in dataset is an external input; the README documents the expected
    ranges and this test only asserts them when the dataset is supplied."""
    readme = README.read_text(encoding="utf-8")
    for anchor in ("0.119", "0.618", "VENUE2VEC_CHECKINS", "± 0.02", "± 0.05"):
        assert anchor in readme, f"README must document paper-scale range {anchor!r}"

    dataset_path = os.environ.get("VENUE2VEC_CHECKINS")
    if not dataset_path:
        _line(9, True, "expected ranges documented; dataset not supplied, gate honored")
        return
    config = ExperimentConfig(
        input_path=dataset_path, method="kni", architecture="skip-gram",
        feature_count=100, context_count=20, epoch_count=25, neighbors=30,
        k=10, seed=1,
    )
    report = run_experiment(config)
    assert abs(report.precision - 0.119) <= 0.02
    assert abs(report.hitrate - 0.618) <= 0.05
    random_report = run_experiment(
        ExperimentConfig(
            input_path=dataset_path, method="random", random_runs=10, k=10, seed=1
        )
    )
    assert random_report.precision <= 0.001
    _line(
        9,
        True,
        f"paper-scale precision {report.precision:.3f}, hitrate {report.hitrate:.3f}, "
        f"random precision {random_report.precision:.4f} (<= 0.001)",
    )


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_reproducibility(tmp_path):
    fixture = FixtureSpec(seed=7, communities=2, users_per_community=12,
                          venues_per_community=24, train_checkins_per_user=12,
                          test_checkins_per_user=4)

    def run(label):
        out = tmp_path / label
        run_experiment(
            ExperimentConfig(fixture=fixture, method="kni", feature_count=16,
                             context_count=5, epoch_count=8, neighbors=5,
                             k=10, seed=3, out_dir=str(out))
        )
        return out

    first, second = run("first"), run("second")
    assert (first / "per_user.csv").read_bytes() == (second / "per_user.csv").read_bytes()
    assert (first / "recommendations.tsv").read_bytes() == (
        second / "recommendations.tsv"
    ).read_bytes()
    _line(10, True, "two seeded runs byte-identical")

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import venue2vec.harness as harness
from venue2vec import recommend
from venue2vec.baselines import ccdpp_factorize, svd_factorize
from venue2vec.corpus import Checkins, Dataset
from venue2vec.errors import ConfigError, EmitError
from venue2vec.fixtures import FEB_2011, FixtureSpec
from venue2vec.harness import (
    ERROR_MARKER,
    ExperimentConfig,
    SweepSpec,
    emit_plot_data,
    infer_axis,
    parse_config_file,
    run_experiment,
    run_sweep,
)
from venue2vec.metrics import (
    evaluation_users,
    read_per_user_csv,
    read_report_csv,
    score_user,
)
from venue2vec.recommend import write_batch_blocks

from conftest import (
    batch_lists,
    count_loads_and_fits,
    named_lists,
    nearest_users,
    visit_table,
)

from oracles import (
    brute_force_top_k,
    ground_truth_reference,
    interactions_reference,
    rank_votes_reference,
    vote_reference,
)

SMALL_FIXTURE = FixtureSpec(
    seed=7,
    communities=2,
    users_per_community=12,
    venues_per_community=24,
    train_checkins_per_user=12,
    test_checkins_per_user=4,
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        fixture=SMALL_FIXTURE,
        boundary=FEB_2011,
        method="kni",
        feature_count=16,
        context_count=5,
        epoch_count=8,
        neighbors=5,
        k=10,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- validation


def test_config_requires_input_or_fixture():
    with pytest.raises(ConfigError):
        ExperimentConfig(method="kni").validate()


def test_config_rejects_both_sources(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(
            input_path="x.tsv", fixture=SMALL_FIXTURE, method="kni"
        ).validate()


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError):
        small_config(method="alchemy").validate()


@pytest.mark.parametrize("method", ["random", "kni", "svd"])
def test_config_rejects_a_negative_seed(method):
    """Every seeded draw takes a non-negative seed: Random's (seed, row),
    training's and the factorizations'."""
    with pytest.raises(ConfigError, match="seed >= 0"):
        small_config(method=method, seed=-1).validate()


@pytest.mark.parametrize("seed,runs", [(2**64, 1), (2**64 - 9, 10)])
def test_config_rejects_random_seeds_past_64_bits(seed, runs):
    """Random's run r is keyed by seed + r in 64 bits, so the last run's seed
    must be below 2^64; the other methods take any seed >= 0."""
    with pytest.raises(ConfigError, match="below 2\\^64"):
        small_config(method="random", seed=seed, random_runs=runs).validate()
    small_config(method="random", seed=seed - 1, random_runs=runs).validate()
    small_config(method="svd", seed=seed, random_runs=runs).validate()


def test_load_dataset_warns_with_the_skipped_count(tmp_path):
    path = tmp_path / "checkins.tsv"
    path.write_text("u\tv\t1\nnot a line\nw\tx\t2\nu\tx\t-3\ny\tv\t4\n")
    config = ExperimentConfig(input_path=str(path), boundary=3)
    with pytest.warns(UserWarning, match=f"{path}: skipped 2 malformed lines"):
        dataset = harness.load_dataset(config)
    assert (len(dataset.train), len(dataset.test)) == (2, 1)


def test_default_context_count_per_architecture():
    """An unset window is the architecture's default when the training
    config is built, so a config replaced onto CBOW trains at "max"."""

    def window(config):
        return config.training_config().context_count

    assert window(ExperimentConfig()) == 20
    assert window(ExperimentConfig(architecture="cbow")) == "max"
    assert window(replace(ExperimentConfig(), architecture="cbow")) == "max"
    assert window(ExperimentConfig(architecture="cbow", context_count=4)) == 4
    assert window(ExperimentConfig(context_count="max")) == "max"


def test_library_cbow_default_window_is_max():
    """The per-architecture window default holds without the CLI: the
    longest sentence is the user token plus 12 train check-ins."""
    fixture = FixtureSpec(
        seed=5,
        communities=2,
        users_per_community=10,
        venues_per_community=20,
        train_checkins_per_user=12,
        test_checkins_per_user=3,
    )
    report = run_experiment(
        ExperimentConfig(
            fixture=fixture, architecture="cbow", feature_count=8, epoch_count=2, seed=1
        )
    )
    assert report.C == 13


# ------------------------------------------------------------- runs


@pytest.mark.parametrize("method", ["kni", "nn", "kiu"])
def test_embedding_methods_cover_everyone(method, tmp_path):
    report = run_experiment(
        small_config(method=method, out_dir=str(tmp_path / method))
    )
    assert report.coverage == 1.0
    assert report.method == method
    assert (tmp_path / method / "per_user.csv").exists()
    assert (tmp_path / method / "report.json").exists()
    assert (tmp_path / method / "loss_trace.csv").exists()


def test_kni_beats_random_on_planted_fixture(tmp_path):
    # the rigorous margins live in the acceptance suite's bigger fixture;
    # this is a deterministic smoke check at toy scale
    kni = run_experiment(small_config(epoch_count=20))
    random_report = run_experiment(small_config(method="random", random_runs=3))
    assert kni.precision > 2 * random_report.precision
    assert random_report.coverage == 1.0


def test_random_run_has_coverage_one():
    report = run_experiment(small_config(method="random", random_runs=2))
    assert report.coverage == 1.0
    assert report.method == "random"


def _means(rows):
    count = len(rows)
    return {
        "precision": sum(r.precision for r in rows) / count,
        "ndcg": sum(r.ndcg for r in rows) / count,
        "hitrate": sum(r.hit for r in rows) / count,
        "coverage": sum(r.predicted for r in rows) / count,
    }


def test_random_runs_fold_into_one_report(tmp_path):
    """Averaged Random goes through the general runner: the report is the
    mean of the per-run files, per_user.csv and recommendations.tsv are run
    0's, and a single run is run 0 of a longer one."""
    out = tmp_path / "three"
    report = run_experiment(
        small_config(method="random", random_runs=3, out_dir=str(out))
    )
    runs = [read_per_user_csv(out / f"per_user_run{i}.csv") for i in range(3)]
    per_run = [_means(rows) for rows in runs]
    for metric in ("precision", "ndcg", "hitrate", "coverage"):
        assert getattr(report, metric) == sum(m[metric] for m in per_run) / 3
    assert (out / "per_user.csv").read_bytes() == (out / "per_user_run0.csv").read_bytes()

    truth = ground_truth_reference(harness.load_dataset(small_config()))
    rescored = [
        score_user(user, [venue for venue, _ in items], truth[user], 10)
        for user, items in batch_lists(out / "recommendations.tsv")
    ]
    assert rescored == read_per_user_csv(out / "per_user.csv")

    one = tmp_path / "one"
    single = run_experiment(
        small_config(method="random", random_runs=1, out_dir=str(one))
    )
    assert not (one / "per_user_run0.csv").exists()
    for name in ("per_user.csv", "recommendations.tsv"):
        assert (one / name).read_bytes() == (out / name).read_bytes()
    for metric in ("precision", "ndcg", "hitrate", "coverage"):
        assert getattr(single, metric) == per_run[0][metric]


def test_cf_and_factorization_methods_run(tmp_path):
    """The report's F is the rank used: the 24 x 48 table clamps rank 100 to 24."""
    cases = [("cf", 8, 0), ("svd", 8, 8), ("ccdpp", 8, 8), ("svd", 100, 24), ("ccdpp", 100, 24)]
    for method, rank, reported in cases:
        out = tmp_path / f"{method}{rank}"
        report = run_experiment(small_config(method=method, rank=rank, out_dir=str(out)))
        assert 0.0 <= report.precision <= 1.0
        assert report.method == method
        assert report.F == read_report_csv(out / "report.csv")[0]["F"] == reported
    assert (tmp_path / "ccdpp8" / "objective_trace.csv").exists()


def test_timings_recorded():
    report = run_experiment(small_config())
    assert report.train_s > 0
    assert report.rec_s_total > 0
    assert report.rec_s_per_user == pytest.approx(
        report.rec_s_total / len(report.per_user)
    )


def test_reproducible_per_user_csv(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_experiment(small_config(out_dir=str(first)))
    run_experiment(small_config(out_dir=str(second)))
    assert (first / "per_user.csv").read_bytes() == (
        second / "per_user.csv"
    ).read_bytes()


def test_error_marker_written_on_failure(tmp_path, monkeypatch):
    config = small_config(out_dir=str(tmp_path / "broken"))

    def explode(*args, **kwargs):
        raise RuntimeError("mid-run failure")

    monkeypatch.setattr(harness, "score_lists", explode)
    with pytest.raises(RuntimeError):
        run_experiment(config)
    assert (tmp_path / "broken" / ERROR_MARKER).exists()


def test_partial_per_user_csv_on_mid_run_failure(tmp_path, monkeypatch):
    """Users are served in blocks of 5, and the serving dies after its first
    block: the run fails, and the per-user CSV holds that block's 5 rows."""
    config = small_config(out_dir=str(tmp_path / "partial"))
    vocab, _ = visit_table(harness.load_dataset(config).train)
    monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * vocab.user_count * 5)
    real = harness.serve

    def flaky(*args):
        for count, block in enumerate(real(*args)):
            if count == 1:
                raise RuntimeError("recommender died")
            yield block

    monkeypatch.setattr(harness, "serve", flaky)
    with pytest.raises(RuntimeError):
        run_experiment(config)
    out = tmp_path / "partial"
    assert (out / ERROR_MARKER).exists()
    partial = read_per_user_csv(out / "per_user.csv")
    assert len(partial) == 5


def test_no_test_record_reaches_model_construction(monkeypatch):
    """Instrumented isolation assertion: every check-in passed to vocabulary,
    sentence or matrix construction predates the split boundary, and the
    log's tables hold no id that only a test check-in uses."""
    config = small_config()
    seen = []

    def spy(real):
        def wrapped(log, *args, **kwargs):
            seen.append(log)
            return real(log, *args, **kwargs)

        return wrapped

    for name in ("build_vocabulary", "build_sentences", "build_interactions"):
        monkeypatch.setattr(harness, name, spy(getattr(harness, name)))
    run_experiment(config)
    run_experiment(small_config(method="cf"))
    run_experiment(small_config(method="svd", rank=4))

    assert seen
    for log in seen:
        assert (log.times < config.boundary).all()
        assert set(log.user_ids) == {user for user, _, _ in log}
        assert set(log.venue_ids) == {venue for _, venue, _ in log}


def _presence_vote_lists(config: ExperimentConfig, dataset) -> dict:
    """Per evaluated user, the oracle's binary-vote list for config.method:
    neighbors picked by brute-force cosine (the embedding's nearest users
    for NN), then the Counter vote over visit presence, without the user's
    own venues under filter_seen."""
    visits = interactions_reference(dataset.train)
    users = list(dict.fromkeys(user for user, _, _ in dataset.train))
    venues = list(dict.fromkeys(venue for _, venue, _ in dataset.train))
    column = {venue: j for j, venue in enumerate(venues)}
    if config.method == "nn":
        model, _, _ = harness.fit_embedding(config, dataset)
        index_of = lambda v: model.vocab.user_count + model.vocab.venue_index[v]  # noqa: E731
    else:
        index_of = column.__getitem__
        presence = np.array([[float(v in visits[u]) for v in venues] for u in users])
        _, binary = visit_table(dataset.train, binary=True)
        if config.method == "cf":
            rows = presence
        elif config.method == "svd":
            rows = svd_factorize(binary, config.latent_rank(), seed=config.seed).user_factors
        else:
            rows = ccdpp_factorize(
                binary,
                config.latent_rank(),
                config.regularization,
                seed=config.seed,
            )[0].user_factors
    lists = {}
    for user in evaluation_users(dataset):
        weights, excluded = None, ()
        if config.method == "nn":
            neighbors = [n for n, _ in nearest_users(model, user, config.neighbors)]
        else:
            t = users.index(user)
            others = [i for i in range(len(users)) if i != t]
            top = brute_force_top_k(rows, rows[t], others, config.neighbors)
            if config.method == "cf":  # positive similarities, similarity-weighted
                top = [(i, sim) for i, sim in top if sim > 0.0]
                weights = [sim for _, sim in top]
            neighbors = [users[i] for i, _ in top]
        if config.filter_seen:
            excluded = set(visits[user])
        votes = vote_reference(
            neighbors, visits, weights=weights, binary=True, excluded=excluded
        )
        lists[user] = [
            (venue, float(f"{score:.6f}"))
            for venue, score in rank_votes_reference(votes, config.k, index_of)
        ]
    return lists


def _run_lists(config: ExperimentConfig) -> dict:
    """{user: items} of the recommendations.tsv a run writes to config.out_dir."""
    run_experiment(config)
    path = Path(config.out_dir) / "recommendations.tsv"
    return dict(batch_lists(path))


@pytest.mark.parametrize("method", ["nn", "cf", "svd", "ccdpp"])
def test_binary_votes_vote_visit_presence(tmp_path, method):
    """binary_votes reaches the vote of NN, CF, SVD and CCD++, with
    filter_seen off and on: each list equals the oracle vote over visit
    presence and, because the fixture has repeat visits, differs from the
    visit-count vote."""
    dataset = harness.load_dataset(small_config())
    assert visit_table(dataset.train)[1].data.max() > 1  # repeat visits
    for filter_seen in (False, True):
        lists = {}
        for binary in (False, True):
            config = small_config(
                method=method,
                binary_votes=binary,
                filter_seen=filter_seen,
                rank=4,
                out_dir=str(tmp_path / f"s{filter_seen}b{binary}"),
            )
            lists[binary] = _run_lists(config)
        assert lists[True] == _presence_vote_lists(config, dataset)
        assert lists[True] != lists[False]


def test_filter_seen_holds_for_every_method(tmp_path):
    """Under filter_seen no method lists a training venue of its user, and
    Random draws min(k, |catalog - seen|) venues from the rest of the catalog.
    k is catalog size minus 7 seen venues, so some users have fewer unseen
    venues than k and some more."""
    dataset = harness.load_dataset(small_config())
    vocab, matrix = visit_table(dataset.train)
    seen = {user: {vocab.venues[j] for j in matrix[i].indices} for i, user in enumerate(vocab.users)}
    k = len(vocab.venues) - 7
    assert {len(venues) > 7 for venues in seen.values()} == {False, True}
    for method in harness.ALL_METHODS:
        config = small_config(
            method=method, k=k, filter_seen=True, rank=4, random_runs=2,
            out_dir=str(tmp_path / method),
        )
        lists = _run_lists(config)
        assert set(lists) == set(evaluation_users(dataset))
        for user, items in lists.items():
            venues = [venue for venue, _ in items]
            assert seen[user].isdisjoint(venues)
            if method == "random":
                assert len(set(venues)) == len(venues) == min(k, len(vocab.venues) - len(seen[user]))
                assert set(venues) <= set(vocab.venues)


@pytest.mark.parametrize("method", ["kni", "nn", "kiu", "cf", "random", "svd", "ccdpp"])
def test_seen_mask_equals_full_depth_recut(method):
    """Masking the seen venues before the top-k lists what a full-depth
    re-rank would: the filter_seen list is the unfiltered list at k =
    catalog size, the user's training venues removed, cut to k."""
    dataset = harness.load_dataset(small_config())
    vocab, matrix = visit_table(dataset.train)

    def lists(**overrides):
        config = small_config(method=method, rank=4, **overrides)
        blocks = harness.recommender(config, harness.fit(config, dataset), dataset, vocab.users)
        return dict(named_lists(blocks, vocab.venues))

    full, masked = lists(k=len(vocab.venues)), lists(filter_seen=True)
    dropped = 0
    for i, user in enumerate(vocab.users):
        seen = {vocab.venues[j] for j in matrix[i].indices}
        unseen = [item for item in full[user] if item[0] not in seen]
        assert masked[user] == unseen[:10]
        dropped += len(full[user]) - len(unseen)
    assert dropped > 0  # the mask removed listed venues


def test_random_list_does_not_depend_on_its_block(monkeypatch):
    """Served a user at a time, three at a time or all in one block, every
    Random list under filter_seen is the same: rows of one block draw to
    different depths (k + |seen|), and one user's visits cover all but
    three venues of the catalog, so its draw runs to the catalog's end."""
    dataset = harness.load_dataset(small_config())
    heavy = dataset.train.user_ids[0]
    own = {venue for user, venue, _ in dataset.train if user == heavy}
    unseen = [venue for venue in dataset.train.venue_ids if venue not in own][:3]
    extra = [(heavy, venue, 1294000000) for venue in dataset.train.venue_ids if venue not in unseen]
    dataset = Dataset(Checkins.of([*dataset.train, *extra]), dataset.test)
    config = small_config(method="random", filter_seen=True)
    vocab, _ = visit_table(dataset.train)

    def lists():
        blocks = harness.recommender(config, harness.fit(config, dataset), dataset, vocab.users)
        return [items for _, items in named_lists(blocks, vocab.venues)]

    whole = lists()
    assert sorted(venue for venue, _ in whole[vocab.user_index[heavy]]) == sorted(unseen)
    # Random's blocks hold BLOCK_BYTES of float64 rows as deep as its deepest
    # draw, at most the catalog
    depth = min(config.k + len(vocab.venues) - len(unseen), len(vocab.venues))
    for block in (1, 3):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * depth * block)
        assert lists() == whole


def test_random_rows_are_at_most_the_catalog_deep(monkeypatch):
    """k far above the catalog: Random's rows are sized by the catalog, so
    one block holds the 40 users of FixtureSpec() and random_scores is
    called once, where rows k deep would take one block per user. The lists
    are those of one user per block."""
    config = ExperimentConfig(fixture=FixtureSpec(), method="random", k=10**6, seed=3)
    dataset = harness.load_dataset(config)
    fitted = harness.fit(config, dataset)
    calls, real = [], recommend.random_scores

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(recommend, "random_scores", counted)
    users, venues = fitted.vocab.users, fitted.vocab.venues

    def lists():
        return named_lists(harness.recommender(config, fitted, dataset, users), venues)

    whole = lists()
    assert len(users) == 40 and len(calls) == 1
    assert all(len(items) == len(venues) for _, items in whole)
    monkeypatch.setattr(harness, "BLOCK_BYTES", 1)  # one user per block
    assert lists() == whole and len(calls) == 41


def test_serving_reads_rows_changed_in_place():
    """A serving takes its row norms from the rows as they are when it is
    built: after a few user and venue rows are scaled in place, with no call
    in between, a new KNI serving lists the brute-force cosine scan of the
    changed rows and a new NN serving the vote of the brute-force
    neighbours. Cosines do not move when a row is scaled, and a scale by 8
    is exact, so both lists are also exactly what they were before."""
    dataset = harness.load_dataset(small_config())
    model, _, _ = harness.fit_embedding(small_config(), dataset)
    model.weights = model.weights.astype(np.float64)  # rounds like the oracle
    fitted = harness.Fit.of_model(model)
    vocab, count = model.vocab, model.vocab.user_count
    users = evaluation_users(dataset)
    visits = interactions_reference(dataset.train)
    index_of = lambda v: count + vocab.venue_index[v]  # noqa: E731

    def lists(method):
        config = small_config(method=method, k=5, neighbors=3)
        return dict(named_lists(harness.recommender(config, fitted, dataset, users), vocab.venues))

    before = lists("kni"), lists("nn")
    rows = model.input_vectors
    rows[[0, 2, 5]] *= 8.0
    rows[count + np.array([0, 1, 3, 7])] *= 8.0
    kni, nn = lists("kni"), lists("nn")
    assert (kni, nn) == before
    for user in users:
        target = vocab.user_index[user]
        expected = brute_force_top_k(rows, rows[target], range(count, len(vocab)), 5)
        assert [index_of(venue) for venue, _ in kni[user]] == [i for i, _ in expected]
        assert [score for _, score in kni[user]] == pytest.approx(
            [score for _, score in expected], abs=1e-12
        )
        others = [i for i in range(count) if i != target]
        near = brute_force_top_k(rows[:count], rows[target], others, 3)
        votes = vote_reference([vocab.users[i] for i, _ in near], visits)
        assert nn[user] == rank_votes_reference(votes, 5, index_of)


def test_only_a_neighbour_pick_takes_user_norms(monkeypatch):
    """KNI picks no neighbours, so its serving takes the norms of the venue
    rows (and of its query blocks) but not of the user rows; KIU takes the
    user rows' once."""
    dataset = harness.load_dataset(small_config())
    fitted = harness.fit(small_config(), dataset)
    users = evaluation_users(dataset)

    def lists(method):
        config = small_config(method=method, k=5, neighbors=3)
        blocks = harness.recommender(config, fitted, dataset, users)
        return list(named_lists(blocks, fitted.vocab.venues))

    normed = []
    real = harness.recommend.row_norms
    monkeypatch.setattr(
        harness.recommend, "row_norms", lambda rows: normed.append(rows) or real(rows)
    )
    lists("kni")
    assert sum(rows is fitted.venues for rows in normed) == 1
    assert not any(rows is fitted.users for rows in normed)
    normed.clear()
    lists("kiu")
    assert sum(rows is fitted.users for rows in normed) == 1


def test_one_embedding_fit_serves_kni_nn_and_kiu(tmp_path):
    """One skip-gram fit serves all three embedding methods, and each one's
    recommendations.tsv is, byte for byte, the file of the fit-once
    serving's blocks at the same seed."""
    dataset = harness.load_dataset(small_config())
    fitted = harness.fit(small_config(), dataset)
    users = evaluation_users(dataset)
    served = {}
    for method in harness.EMBEDDING_METHODS:
        config = small_config(method=method, out_dir=str(tmp_path / method))
        run_experiment(config)
        path = tmp_path / f"{method}-served.tsv"
        blocks = harness.recommender(config, fitted, dataset, users)
        write_batch_blocks(blocks, method, fitted.vocab.venues, path)
        served[method] = path.read_bytes()
        assert served[method] == (tmp_path / method / "recommendations.tsv").read_bytes()
    assert served["kni"] != served["nn"] != served["kiu"]


def test_fit_of_another_family_is_config_error():
    """An embedding fit serves KNI, NN and KIU, a baseline's fit only that
    baseline; any other pairing is a ConfigError, e.g. an SVD fit asked for
    CF or an embedding fit asked for SVD."""
    dataset = harness.load_dataset(small_config())
    fits = {
        method: harness.fit(small_config(method=method, rank=4, epoch_count=1), dataset)
        for method in ("kni", "cf", "random", "svd", "ccdpp")
    }
    served_by = {"nn": "kni", "kiu": "kni"}
    for method in harness.ALL_METHODS:
        for fit_method, fitted in fits.items():
            config = small_config(method=method)
            if served_by.get(method, method) == fit_method:
                harness.recommender(config, fitted, dataset, [])
            else:  # raised at the call, before the blocks are iterated
                with pytest.raises(ConfigError, match=f"cannot serve {method}"):
                    harness.recommender(config, fitted, dataset, [])


@pytest.mark.parametrize("filter_seen", [False, True])
def test_every_method_lists_nothing_for_an_unknown_user(filter_seen):
    """All seven methods give a user outside the vocabulary an empty list,
    beside a full list for a known user."""
    dataset = harness.load_dataset(small_config())
    known = evaluation_users(dataset)[0]
    embedding = harness.fit(small_config(epoch_count=2), dataset)
    for method in harness.ALL_METHODS:
        config = small_config(method=method, rank=4, filter_seen=filter_seen)
        fitted = embedding if method in harness.EMBEDDING_METHODS else harness.fit(config, dataset)
        blocks = harness.recommender(config, fitted, dataset, ["stranger", known])
        stranger, (user, items) = named_lists(blocks, fitted.vocab.venues)
        assert stranger == ("stranger", []) and user == known
        assert len(items) == config.k


# ------------------------------------------------------------- the run loop


def test_run_experiments_loads_once_and_fits_once_per_family(tmp_path, monkeypatch):
    """kni, nn, kiu, cf and random on one base: one load and three fits, and
    each report, per_user.csv and recommendations.tsv equal a run_experiment
    of that config alone."""
    methods = ("kni", "nn", "kiu", "cf", "random")
    configs = {
        run: [small_config(method=m, out_dir=str(tmp_path / run / m)) for m in methods]
        for run in ("alone", "loop")
    }
    alone = {method: run_experiment(config) for method, config in zip(methods, configs["alone"])}
    calls = count_loads_and_fits(monkeypatch)
    reports = harness.run_experiments(configs["loop"])
    assert calls == {"load_dataset": 1, "fit": 3}
    timings = ("train_s", "rec_s_total", "rec_s_per_user")
    for method, report in zip(methods, reports):
        row, expected = report.to_row(), alone[method].to_row()
        assert {k: v for k, v in row.items() if k not in timings} == {
            k: v for k, v in expected.items() if k not in timings
        }
        for name in ("per_user.csv", "recommendations.tsv"):
            loop = (tmp_path / "loop" / method / name).read_bytes()
            assert loop == (tmp_path / "alone" / method / name).read_bytes()


def test_run_experiments_refits_after_a_failed_fit(tmp_path, monkeypatch):
    """A config whose fit raises gets its exception and ERROR marker, and the
    next config of the same fit key fits again rather than reuse a missing fit."""
    calls = count_loads_and_fits(monkeypatch)
    counted_fit = harness.fit

    def flaky(config, dataset):
        if calls["fit"] == 0:
            calls["fit"] += 1
            raise RuntimeError("boom")
        return counted_fit(config, dataset)

    monkeypatch.setattr(harness, "fit", flaky)
    failed, report = harness.run_experiments(
        [small_config(method=method, out_dir=str(tmp_path / method)) for method in ("kni", "nn")]
    )
    assert isinstance(failed, RuntimeError) and str(failed) == "boom"
    assert (tmp_path / "kni" / ERROR_MARKER).exists()
    assert report.method == "nn" and not (tmp_path / "nn" / ERROR_MARKER).exists()
    assert calls == {"load_dataset": 1, "fit": 2}


def test_run_experiments_loads_again_for_another_fixture(monkeypatch):
    calls = count_loads_and_fits(monkeypatch)
    other = replace(SMALL_FIXTURE, seed=8)
    harness.run_experiments([small_config(method="cf"), small_config(method="cf", fixture=other)])
    assert calls == {"load_dataset": 2, "fit": 2}


# ------------------------------------------------------------- sweeps


def test_sweep_reads_its_input_once(monkeypatch):
    """Every E is a fit field, so each value fits, from one load."""
    calls = count_loads_and_fits(monkeypatch)
    _, rows = run_sweep(SweepSpec(axis="E", values=[2, 3, 4]), small_config())
    assert [row["E"] for row in rows] == [2, 3, 4]
    assert calls == {"load_dataset": 1, "fit": 3}


def test_sweep_runs_one_report_per_value(tmp_path):
    spec = SweepSpec(axis="E", values=[2, 4, 6])
    reports, rows = run_sweep(spec, small_config(out_dir=str(tmp_path)))
    assert len(reports) == 3
    assert len(rows) == 3
    assert [row["E"] for row in rows] == [2, 4, 6]
    combined = read_report_csv(tmp_path / "sweep_E.csv")
    assert len(combined) == 3


def test_sweep_identical_configs_identical_csvs(tmp_path):
    spec = SweepSpec(axis="E", values=[2, 3])
    _, first = run_sweep(spec, small_config(out_dir=str(tmp_path / "a")))
    _, second = run_sweep(spec, small_config(out_dir=str(tmp_path / "b")))
    timing_keys = {"train_s", "rec_s_total", "rec_s_per_user"}
    strip = lambda rows: [
        {k: v for k, v in row.items() if k not in timing_keys} for row in rows
    ]
    assert strip(first) == strip(second)
    a = (tmp_path / "a" / "E=2" / "per_user.csv").read_bytes()
    b = (tmp_path / "b" / "E=2" / "per_user.csv").read_bytes()
    assert a == b


def test_sweep_continues_after_failure(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = harness.fit

    def flaky(config, dataset):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("boom")
        return real(config, dataset)

    monkeypatch.setattr(harness, "fit", flaky)
    spec = SweepSpec(axis="E", values=[2, 3, 4])
    reports, rows = run_sweep(spec, small_config(out_dir=str(tmp_path)))
    assert [isinstance(r, Exception) for r in reports] == [False, True, False]
    assert str(reports[1]) == "boom"
    assert len(rows) == 2
    assert (tmp_path / "E=3" / ERROR_MARKER).exists()


def test_sweep_value_failing_validation_says_why(tmp_path):
    spec = SweepSpec(axis="F", values=[0, 8])
    reports, rows = run_sweep(spec, small_config(epoch_count=2, out_dir=str(tmp_path)))
    assert isinstance(reports[0], ConfigError) and not isinstance(reports[1], Exception)
    assert len(rows) == 1
    assert "ConfigError" in (tmp_path / "F=0" / ERROR_MARKER).read_text()


def test_sweep_default_grids():
    assert SweepSpec(axis="F").resolved_values() == list(range(10, 101, 10))
    assert SweepSpec(axis="C").resolved_values() == [5, 10, 15, 20]
    assert SweepSpec(axis="E").resolved_values() == [5, 10, 15, 20, 25]
    assert SweepSpec(axis="E", values=[]).resolved_values() == []  # no value is not the grid
    with pytest.raises(ConfigError):
        SweepSpec(axis="Z").resolved_values()


def test_cbow_whole_sentence_window_beats_small_window():
    """The max-window mode exists because CBOW degrades with narrow windows
    on check-in sentences; quantified here on the planted fixture."""
    whole = run_experiment(
        small_config(architecture="cbow", context_count="max", epoch_count=20)
    )
    narrow = run_experiment(
        small_config(architecture="cbow", context_count=2, epoch_count=20)
    )
    assert whole.precision > narrow.precision
    assert whole.hitrate > narrow.hitrate


def test_fixture_precision_trend_over_feature_count():
    """More embedding dimensions help until saturation (within noise)."""
    precisions = []
    for features in (2, 16, 48):
        report = run_experiment(small_config(feature_count=features, epoch_count=10))
        precisions.append(report.precision)
    assert precisions[1] >= precisions[0] - 0.02
    assert precisions[2] >= precisions[1] - 0.02
    assert max(precisions[1:]) > precisions[0]


# ------------------------------------------------------------- plot data


def _fake_rows():
    rows = []
    for value in (5, 10, 15):
        rows.append(
            {
                "method": "kni",
                "arch": "skip-gram",
                "F": 100,
                "C": 20,
                "E": value,
                "N": 30,
                "k": 10,
                "precision": value / 100,
                "ndcg": value / 90,
                "hitrate": value / 80,
                "coverage": 1.0,
                "train_s": 1.0,
                "rec_s_total": 1.0,
                "rec_s_per_user": 0.1,
            }
        )
    return rows


def test_emit_plot_data_rows(tmp_path):
    written = emit_plot_data(_fake_rows(), tmp_path)
    path = written[("kni", "E")]
    lines = path.read_text().splitlines()
    assert lines[0] == "axis_value,metric,value"
    assert len(lines) == 1 + 3 * 4  # three reports x four metrics


def test_emit_plot_data_empty_raises(tmp_path):
    with pytest.raises(EmitError):
        emit_plot_data([], tmp_path)


def test_emit_plot_data_mixed_axes_raises(tmp_path):
    rows = _fake_rows()
    rows[0]["F"] = 10  # now both F and E vary
    with pytest.raises(EmitError):
        emit_plot_data(rows, tmp_path)


def test_emit_plot_data_byte_identical(tmp_path):
    first = emit_plot_data(_fake_rows(), tmp_path / "a")[("kni", "E")]
    second = emit_plot_data(_fake_rows(), tmp_path / "b")[("kni", "E")]
    assert first.read_bytes() == second.read_bytes()


def test_infer_axis():
    assert infer_axis(_fake_rows()) == "E"


# ------------------------------------------------------------- config files


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "method = kni\n"
        "features = 64   # embedding size\n"
        "\n"
        "# a comment line\n"
        "filter_seen = true\n"
    )
    values = parse_config_file(path)
    assert values == {"method": "kni", "features": "64", "filter_seen": "true"}


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)

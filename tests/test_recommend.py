import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from venue2vec import harness, recommend
from venue2vec.baselines import svd_factorize
from venue2vec.corpus import (
    Checkins,
    Dataset,
    build_sentences,
    build_vocabulary,
    split_train_test,
)
from venue2vec.embedding import TrainingConfig, init_model, train
from venue2vec.errors import ConfigError, FormatError
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.harness import EMBEDDING_METHODS, ExperimentConfig, Fit, fit, recommender
from venue2vec.recommend import (
    LONG_ROW,
    NN,
    NO_PREDICTION,
    RecommendationList,
    ranked,
    read_batch_recommendations,
    row_norms,
    vote_scores,
    write_batch_blocks,
)

from conftest import (
    community_of,
    dense_scores,
    make_records,
    nearest_users,
    ranked_rows,
    row_of,
    token_of,
    visit_table,
)
from oracles import (
    brute_force_top_k,
    interactions_reference,
    rank_votes_reference,
    top_k_reference,
    vote_reference,
)


def _serve(model, records, method, **overrides):
    """One user's list from the callable a run builds for method, over these
    training records (the seen rule included when filter_seen is set)."""
    config = ExperimentConfig(method=method, **overrides)
    recommend_users = recommender(config, Fit.of_model(model), Dataset(train=records, test=[]))
    return lambda user: next(recommend_users([user]))


def kiu_list(model, records, user, k, neighbors):
    """KIU's list for user, KNI's at neighbors=0, as a run serves it."""
    method = recommend.KIU if neighbors else recommend.KNI
    return _serve(model, records, method, k=k, neighbors=neighbors)(user)


def _ranked(score_block, table, user, k, filter_seen=False):
    """The items a run lists for user from a score rule over the venues of
    table, a (vocab, visits) pair, the seen mask included under filter_seen."""
    config = ExperimentConfig(method=NN, k=k, filter_seen=filter_seen)
    return next(harness.serve(config, *table, score_block)([user])).items


# ------------------------------------------------------------- toy examples


def test_kni_toy_top2_are_the_users_own_cluster(toy_model, toy_records):
    result = kiu_list(toy_model, toy_records, "u0", 2, 0)
    assert result.method == "kni"
    venues = result.venues()
    assert venues[0] == "Loc1"  # visited twice by u0 and nobody else
    assert set(venues) < {"Loc0", "Loc1", "Loc2"}


def test_nearest_user_of_u0_is_u1(toy_model):
    assert nearest_users(toy_model, "u0", 1)[0][0] == "u1"


# ------------------------------------------------------------- neighbour pick


def _user_model(user_rows):
    """A float64 model whose user vectors are user_rows (users u0, u1, ...)."""
    records = make_records({f"u{i}": [f"v{i % 2}"] for i in range(len(user_rows))})
    vocab = build_vocabulary(records, 1)
    config = TrainingConfig(feature_count=user_rows.shape[1], seed=0)
    model = init_model(vocab, config, dtype=np.float64)
    model.input_vectors[: vocab.user_count] = user_rows
    return model


def _assert_pick_is_brute_force(pick, dense, neighbors):
    """pick(index) ranks every row but index exactly as the brute-force scan."""
    for index in range(len(dense)):
        others = [i for i in range(len(dense)) if i != index]
        expected = brute_force_top_k(dense, dense[index], others, neighbors)
        top, sims = pick(index)
        assert list(top) == [i for i, _ in expected]
        assert list(sims) == pytest.approx([s for _, s in expected], abs=1e-12)


def test_neighbor_pick_matches_brute_force_on_embedding_rows():
    users = np.random.default_rng(3).normal(size=(15, 5))
    model = _user_model(users)

    def pick(index):
        ranked = nearest_users(model, f"u{index}", 4)
        return [int(user[1:]) for user, _ in ranked], [sim for _, sim in ranked]

    _assert_pick_is_brute_force(pick, users, 4)


def test_neighbor_pick_matches_brute_force_on_count_and_latent_rows(
    community_interactions,
):
    _, counts = community_interactions
    dense = counts.toarray()
    _assert_pick_is_brute_force(
        lambda i: ranked_rows(recommend.nearest_users(counts, row_norms(counts), [i], 7))[0],
        dense,
        7,
    )
    latent = svd_factorize(counts, 6, seed=1)
    rows = latent.user_factors
    _assert_pick_is_brute_force(
        lambda i: ranked_rows(recommend.nearest_users(rows, row_norms(rows), [i], 7))[0], rows, 7
    )


def test_neighbor_pick_returns_n_when_lower_rows_tie_the_target():
    """Rows 0 and 1 point the target's way, so they tie its self-similarity
    and rank ahead of it: top N+1 then drop self still leaves N neighbours,
    in (-score, index) order."""
    users = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = _user_model(users)
    visits = {"a": ["x", "y"], "b": ["x", "y"], "c": ["x", "y"], "d": ["z"]}
    _, counts = visit_table(make_records(visits))
    for n in range(1, 5):
        expected = brute_force_top_k(users, users[2], [0, 1, 3, 4], n)
        ranked = nearest_users(model, "u2", n)
        assert [user for user, _ in ranked] == [f"u{i}" for i, _ in expected]
        near = recommend.nearest_users(counts, row_norms(counts), [2], min(n, 3))
        ((top, _),) = ranked_rows(near)
        assert list(top) == [0, 1][: min(n, 3)]


def test_nn_toy_recommends_from_neighbor_history(toy_model, toy_records):
    result = _serve(toy_model, toy_records, NN, k=2, neighbors=1)("u0")
    u1_venues = {"Loc0", "Loc4", "Loc2", "Loc3", "Loc5", "Loc6"}
    assert set(result.venues()) <= u1_venues
    # all votes tie at one visit, so ties order by token index
    assert result.venues() == ["Loc0", "Loc2"]


def test_kiu_toy_recommends_shared_pair(toy_model, toy_records):
    result = kiu_list(toy_model, toy_records, "u0", 2, 1)
    assert set(result.venues()) == {"Loc0", "Loc2"}


# ------------------------------------------------------------- vote rule


def _vote(visits, neighbors, binary=False):
    """The unit vote over a {user: [venues...]} table for a target "t" (who
    visits venue "t0") whose nearest users are exactly neighbors, as
    {venue: votes} plus the ranked top 2."""
    vocab, counts = visit_table(make_records({**visits, "t": ["t0"]}), binary)
    near = {*neighbors, "t"}
    rows = np.array([[1.0, 0.0] if user in near else [0.0, 1.0] for user in vocab.users])
    scores = vote_scores(
        rows, np.linalg.norm(rows, axis=1), counts, [vocab.user_index["t"]], len(neighbors), False
    )
    votes = dense_scores(scores)[0]
    voted = {vocab.venues[j]: float(votes[j]) for j in np.flatnonzero(votes > -np.inf)}
    ((top, top_votes),) = ranked_rows(ranked(scores, 2))
    return voted, [(vocab.venues[j], float(v)) for j, v in zip(top, top_votes)]


def test_vote_sums_visit_counts():
    votes, ranked = _vote(
        {"n1": ["v1", "v1", "v1"], "n2": ["v1", "v2", "v2"], "n3": ["v2"]},
        ["n1", "n2", "n3"],
    )
    assert votes == {"v1": 4.0, "v2": 3.0}
    assert ranked == [("v1", 4.0), ("v2", 3.0)]


def test_vote_binary_mode_counts_presence():
    votes, _ = _vote({"n1": ["v1"] * 9 + ["v2"]}, ["n1"], binary=True)
    assert votes == {"v1": 1.0, "v2": 1.0}


def test_vote_excluded_venues_removed():
    """The seen rule drops the target's own venues from a ranked vote."""
    table = visit_table(make_records({"u": ["v2"], "n1": ["v1", "v1"] + ["v2"] * 5}))
    rows = np.ones((2, 1))

    def score_block(block):
        return vote_scores(rows, np.ones(2), table[1], block, 1, False)

    assert dict(_ranked(score_block, table, "u", 2)) == {"v2": 5.0, "v1": 2.0}
    assert dict(_ranked(score_block, table, "u", 2, filter_seen=True)) == {"v1": 2.0}


def test_forced_outcome_neighbor_with_two_venues():
    _, ranked = _vote({"u1": ["a", "b"]}, ["u1"])
    assert {v for v, _ in ranked} == {"a", "b"}


def _brute_force_vote_list(
    rows, names, target, neighbors, weighted, visits, index_of, k,
    binary=False, allowed=None, excluded=(),
):
    """The per-user brute-force list of the neighbor vote: target's nearest
    rows by an exhaustive cosine scan, their visits summed by Counters in
    neighbor order (weighted by similarity, positive ones only, for CF), and
    nothing for a zero-norm target. Returns the list and its neighbor ties."""
    if not rows[target].any():
        return [], 0
    others = [i for i in range(len(rows)) if i != target]
    picked = brute_force_top_k(rows, rows[target], others, neighbors)
    if weighted:
        picked = [(i, s) for i, s in picked if s > 0.0]
    votes = vote_reference(
        [names[i] for i, _ in picked],
        visits,
        weights=[s for _, s in picked] if weighted else None,
        binary=binary,
        allowed=allowed,
        excluded=excluded,
    )
    ties = len(picked) - len({s for _, s in picked})
    return rank_votes_reference(votes, k, index_of), ties


@given(
    visits=st.dictionaries(
        st.sampled_from([f"u{i}" for i in range(6)]),
        st.lists(st.sampled_from([f"v{j}" for j in range(8)]), min_size=1, max_size=12),
        min_size=1,
    ),
    data=st.data(),
    binary=st.booleans(),
    weighted=st.booleans(),
    k=st.integers(1, 9),
)
@settings(max_examples=150, deadline=None)
def test_vote_matches_counter_oracle(visits, data, binary, weighted, k):
    """The sparse vote and its ranking equal the per-user Counter vote over
    brute-force neighbors, ties included, for count or presence tables,
    unit or similarity (CF) weights, disallowed (pruned) venues dropped from
    the vote table as NN's vocabulary drops them, and the target's own
    (seen) venues dropped by the seen rule. User rows are small integers, so
    every similarity is exact and equal ones tie."""
    records = make_records(visits)
    vocab, counts = visit_table(records, binary)
    users = vocab.users
    rows = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(-1, 2), min_size=3, max_size=3),
                min_size=len(users),
                max_size=len(users),
            )
        ),
        dtype=np.float64,
    )
    neighbors = data.draw(st.integers(1, len(users)))
    target = data.draw(st.sampled_from(users))
    filter_seen = data.draw(st.booleans())
    pruned = data.draw(st.sets(st.sampled_from(sorted(vocab.venues))))
    kept = np.array([venue not in pruned for venue in vocab.venues], dtype=np.float64)
    votes = (counts @ sparse.diags(kept)).tocsr()
    votes.eliminate_zeros()

    def score_block(block):
        return vote_scores(rows, np.linalg.norm(rows, axis=1), votes, block, neighbors, weighted)

    ours = _ranked(score_block, (vocab, counts), target, k, filter_seen)
    expected, _ = _brute_force_vote_list(
        rows, users, vocab.user_index[target], neighbors, weighted,
        interactions_reference(records), vocab.venue_index.__getitem__, k,
        binary=binary,
        allowed=lambda venue: venue not in pruned,
        excluded=set(visits[target]) if filter_seen else (),
    )
    assert ours == expected


@pytest.mark.parametrize("filter_seen", [False, True], ids=["all", "unseen"])
@pytest.mark.parametrize("block", [1, 2, 7, None], ids=["rows1", "rows2", "rows7", "all-rows"])
def test_vote_block_lists_match_brute_force(monkeypatch, block, filter_seen):
    """NN, weighted CF and the unit-vote latent rule list each user exactly
    the per-user brute-force list, ties included, whether users are served
    in blocks of 1, 2 or 7 users or of all of them. User rows are small
    integers, so every similarity and vote is exact in any summation order.
    The user whose embedding and latent row is all zero lists nothing, and
    so does a stranger."""
    rng = np.random.default_rng(41)
    n_users, n_venues, k, neighbors = 13, 10, 6, 4
    visits = {
        f"u{i}": [f"v{j}" for j in rng.integers(0, n_venues, int(rng.integers(1, 7)))]
        for i in range(n_users)
    }
    records = make_records(visits)
    reference = interactions_reference(records)
    vocab, counts = visit_table(records)
    served = vocab.users[:6] + ["stranger"] + vocab.users[6:]
    if block:
        monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * vocab.user_count * block)
    integer_rows = rng.integers(-1, 2, (n_users, 3)).astype(np.float64)
    integer_rows[5] = 0.0
    config = ExperimentConfig(k=k, neighbors=neighbors, filter_seen=filter_seen)

    model = init_model(vocab, TrainingConfig(feature_count=3, seed=0), dtype=np.float64)
    model.input_vectors[: vocab.user_count] = [integer_rows[int(u[1:])] for u in vocab.users]
    dataset = Dataset(records, Checkins.of([]))
    nn = recommender(replace(config, method=NN), Fit.of_model(model), dataset)
    cf_config = replace(config, method="cf")
    cf = recommender(cf_config, fit(cf_config, dataset), dataset)
    latent_rows = integer_rows[[int(u[1:]) for u in vocab.users]]
    calls = []

    def latent_block(rows):
        calls.append(len(rows))
        return vote_scores(
            latent_rows, np.linalg.norm(latent_rows, axis=1), counts, rows, neighbors, False
        )

    latent = harness.serve(replace(config, method="svd"), vocab, counts, latent_block)
    rules = {
        NN: (nn, model.input_vectors[: vocab.user_count], vocab.users, False,
             lambda venue: row_of(vocab, "V:" + venue)),
        "cf": (cf, counts.toarray(), vocab.users, True, vocab.venue_index.__getitem__),
        "svd": (latent, latent_rows, vocab.users, False, vocab.venue_index.__getitem__),
    }
    ties = 0
    for method, (recommend_users, rows, names, weighted, index_of) in rules.items():
        results = list(recommend_users(served))
        assert [result.user for result in results] == served
        for result in results:
            assert result.method == method
            if result.user not in names:
                assert not result.predicted
                continue
            excluded = set(visits[result.user]) if filter_seen else ()
            expected, tied = _brute_force_vote_list(
                rows, names, names.index(result.user), neighbors, weighted,
                reference, index_of, k, excluded=excluded,
            )
            assert result.items == expected, (method, result.user)
            ties += tied
    size = block or n_users  # a block holds at most every user
    chunks = [served[start : start + size] for start in range(0, len(served), size)]
    known = [sum(user != "stranger" for user in chunk) for chunk in chunks]
    assert calls == [count for count in known if count]  # no block is padded
    assert not next(latent(["u5"])).predicted  # the zero row
    assert ties > 0  # neighbor ties were exercised


# ------------------------------------------------------------- contracts


def test_unknown_user_is_no_prediction(toy_model, toy_records):
    for result in (
        kiu_list(toy_model, toy_records, "stranger", 3, 0),
        _serve(toy_model, toy_records, NN, k=3, neighbors=1)("stranger"),
        kiu_list(toy_model, toy_records, "stranger", 3, 1),
    ):
        assert not result.predicted
        assert result.items == []


def test_kni_saturation_returns_all_venues(toy_model, toy_records):
    result = kiu_list(toy_model, toy_records, "u0", 100, 0)
    assert len(result.items) == 8
    scores = [s for _, s in result.items]
    assert scores == sorted(scores, reverse=True)


def test_filter_seen_removes_training_venues(toy_model, toy_records):
    serve = _serve(toy_model, toy_records, "kni", k=8, neighbors=1, filter_seen=True)
    result = serve("u0")
    assert set(result.venues()).isdisjoint({"Loc0", "Loc1", "Loc2"})


def test_kiu_without_other_users_reduces_to_kni():
    records = make_records({"only": ["a", "b", "a"]})
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    config = TrainingConfig(feature_count=4, context_count=2, epoch_count=30, seed=0)
    model, _ = train(init_model(vocab, config), corpus)
    kiu = kiu_list(model, records, "only", 2, 5)
    kni = kiu_list(model, records, "only", 2, 0)
    assert kiu.venues() == kni.venues()


def test_kiu_all_users_uniform_vectors_degrades_gracefully():
    records = make_records({"a": ["x"], "b": ["y"], "c": ["z"]})
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=4, seed=0), dtype=np.float64)
    model.input_vectors[:] = 1.0  # every cosine ties
    first = kiu_list(model, records, "a", 2, 50)
    second = kiu_list(model, records, "a", 2, 50)
    assert first.predicted
    assert first.items == second.items  # deterministic under total ties
    assert first.venues() == ["x", "y"]  # ascending token index


def _integer_model(rng, n_users, n_venues, features):
    """A float64 model whose every mean, dot and norm is exact: user entries
    are multiples of n_users (so a mean over 1, 2, 6 or n_users rows is an
    integer when n_users is 12) and venue entries small integers, drawn from
    few values so that equal cosines, and so ties, are common. Returns the
    model and the records its vocabulary was built from."""
    visits = {f"u{i}": ["v0"] for i in range(n_users)}
    visits["u0"] = [f"v{j}" for j in range(n_venues)]
    records = make_records(visits)
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=features, seed=0), dtype=np.float64)
    model.input_vectors[:n_users] = n_users * rng.integers(-1, 2, (n_users, features))
    model.input_vectors[n_users:] = rng.integers(-2, 3, (n_venues, features))
    return model, records


def test_kiu_matches_brute_force_oracle():
    """KIU, and KNI at N = 0, equal brute force over the venue block, ties
    included: the query is the float64 mean of the target's row and its N
    nearest users' rows, also picked by brute force."""
    rng = np.random.default_rng(23)
    n_users = 12
    neighbor_ties = venue_ties = 0
    for _ in range(25):
        n_venues, features = int(rng.integers(5, 40)), int(rng.integers(2, 5))
        model, records = _integer_model(rng, n_users, n_venues, features)
        vectors = model.input_vectors
        for n in (0, 1, 5, n_users - 1):
            for target in range(n_users):
                k = int(rng.integers(1, n_venues + 3))
                result = kiu_list(model, records, f"u{target}", k, n)
                assert result.method == ("kni" if n == 0 else "kiu")
                if not vectors[target].any():
                    assert not result.predicted
                    continue
                others = [i for i in range(n_users) if i != target]
                neighbors = brute_force_top_k(vectors, vectors[target], others, n)
                query = vectors[[target, *(i for i, _ in neighbors)]].mean(axis=0)
                if not query.any():
                    assert not result.predicted
                    continue
                venues = np.arange(n_users, len(model.vocab))
                expected = brute_force_top_k(vectors, query, venues, k)
                assert result.items == [(token_of(model.vocab, i)[2:], s) for i, s in expected]
                neighbor_ties += len(neighbors) - len({s for _, s in neighbors})
                venue_ties += len(expected) - len({s for _, s in expected})
    assert neighbor_ties > 0 and venue_ties > 0  # ties were exercised


def _float32_top(rows, query, candidates, k):
    """The k candidates ranked highest by a float32 product of rows with
    query divided by float64 norms: a ranking with no float64 re-score."""
    candidates = np.asarray(candidates)
    dots = rows[candidates] @ np.asarray(query, dtype=np.float32)
    scores = dots / (row_norms(rows[candidates]) * np.linalg.norm(query))
    return candidates[top_k_reference(scores, k)].tolist()


def _near_tie_rows(rng, rows, query, near, copies):
    """Set rows[near] to one float32 row about 0.9 cosine to query plus
    noise at float32's last bits, so their float64 cosines to query differ
    by less than float32 rounding can tell apart; rows[copies[0]] and
    rows[copies[1]] are the same row, an exact tie."""
    features = rows.shape[1]
    base = 0.9 * query / np.linalg.norm(query) + 0.3 * rng.normal(size=features) / features**0.5
    rows[near] = base * np.linalg.norm(query) + 3e-7 * rng.normal(size=(len(near), features))
    rows[copies[1]] = rows[copies[0]]


@pytest.mark.parametrize("neighbors", [0, 3], ids=["kni", "kiu"])
def test_float32_rounding_does_not_reorder_the_kiu_list(neighbors):
    """Thirty of sixty venues have float64 cosines to the query within
    float32 rounding of each other, two of them equal, so a float32 product
    alone lists them in another order near the k-th. KNI's and KIU's lists,
    with and without filter_seen (three of the thirty seen), still equal
    the float64 brute force over the (unseen) venues, ties by position."""
    rng = np.random.default_rng(17)
    n_users, n_venues, features, k = 8, 60, 64, 10
    visits = {"u0": ["v0", "v1", "v2"]}
    for i in range(1, n_users):
        visits[f"u{i}"] = [f"v{j}" for j in range(2 + i, n_venues, n_users - 1)]
    records = make_records(visits)
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=features, seed=0))
    rows = model.input_vectors
    count = vocab.user_count
    rows[:count] = rng.normal(size=(count, features))
    target = vocab.user_index["u0"]
    others = [i for i in range(count) if i != target]
    near = [i for i, _ in brute_force_top_k(rows, rows[target], others, neighbors)]
    query = rows[[target, *near]].astype(np.float64).mean(axis=0)
    venue_rows = [count + vocab.venue_index[f"v{j}"] for j in range(n_venues)]
    _near_tie_rows(rng, rows, query, venue_rows[:30], (venue_rows[4], venue_rows[9]))
    seen = {count + vocab.venue_index[v] for v in visits["u0"]}
    venues = np.arange(count, len(vocab))
    assert _float32_top(rows, query, venues, k) != [
        i for i, _ in brute_force_top_k(rows, query, venues, k)
    ]  # the float32 product alone reorders them
    for filter_seen in (False, True):
        candidates = [i for i in venues if not (filter_seen and i in seen)]
        expected = brute_force_top_k(rows, query, candidates, k)
        result = _serve(
            model, records, recommend.KIU if neighbors else recommend.KNI,
            k=k, neighbors=neighbors or 1, filter_seen=filter_seen,
        )("u0")
        assert [row_of(vocab, "V:" + v) for v in result.venues()] == [i for i, _ in expected]
        assert [s for _, s in result.items] == pytest.approx([s for _, s in expected], abs=1e-12)
        if filter_seen:
            assert seen & {i for i, _ in brute_force_top_k(rows, query, venues, k)}


def test_float32_rounding_does_not_reorder_the_neighbor_pick():
    """Ten user rows have float64 cosines to user 0 within float32 rounding
    of each other, two of them equal: the neighbour pick over the float32
    rows is still the float64 brute force, ties by position, where a
    float32 product alone reorders user 0's. So is every other pick of the
    block but those of the ten, whose cosines to one another agree to
    float64 rounding, where two float64 formulas can disagree."""
    rng = np.random.default_rng(29)
    users = rng.normal(size=(24, 64)).astype(np.float32)
    _near_tie_rows(rng, users, users[0].astype(np.float64), list(range(5, 15)), (6, 11))
    everyone = list(range(len(users)))
    assert _float32_top(users, users[0], everyone[1:], 4) != [
        i for i, _ in brute_force_top_k(users, users[0], everyone[1:], 4)
    ]
    picks = ranked_rows(recommend.nearest_users(users, row_norms(users), everyone, 4))
    for index, (top, sims) in enumerate(picks):
        if 5 <= index < 15:
            continue
        others = [i for i in everyone if i != index]
        expected = brute_force_top_k(users, users[index], others, 4)
        assert top.tolist() == [i for i, _ in expected]
        assert sims.tolist() == pytest.approx([s for _, s in expected], abs=1e-12)


def test_kni_lists_do_not_depend_on_neighbors(community_model, community_dataset):
    """The neighbors setting reaches KIU but not KNI: KNI serves every user
    the N = 0 list whatever N the run is configured with."""
    model, _ = community_model
    dataset = community_dataset
    users = model.vocab.users

    def lists(method, neighbors):
        serve = _serve(model, dataset.train, method, k=10, neighbors=neighbors)
        return [serve(user) for user in users]

    kni = lists("kni", 1)
    assert kni == [kiu_list(model, dataset.train, u, 10, 0) for u in users]
    for neighbors in (5, len(users) - 1):
        assert lists("kni", neighbors) == kni
    assert lists("kiu", 1) != lists("kiu", len(users) - 1)


def test_nn_binary_votes_flag(toy_model, toy_records):
    # u2 visited Loc7 twice; binary votes flatten that to one
    counted = _serve(toy_model, toy_records, NN, k=8, neighbors=2)("u1")
    binary = _serve(toy_model, toy_records, NN, k=8, neighbors=2, binary_votes=True)("u1")
    assert set(binary.venues()) <= set(counted.venues()) | {"Loc7"}
    assert all(score == int(score) for _, score in binary.items)
    counted_scores = dict(counted.items)
    if "Loc7" in counted_scores:
        assert counted_scores["Loc7"] == 2.0
        assert dict(binary.items)["Loc7"] == 1.0


def test_kiu_zero_norm_query_is_no_prediction():
    records = make_records({"a": ["x"], "b": ["x"]})
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=4, seed=0), dtype=np.float64)
    # adversarial geometry: the two user vectors cancel exactly
    model.input_vectors[row_of(vocab, "U:a")] = np.array([1.0, 0.0, 0.0, 0.0])
    model.input_vectors[row_of(vocab, "U:b")] = np.array([-1.0, 0.0, 0.0, 0.0])
    model.input_vectors[row_of(vocab, "V:x")] = np.ones(4)
    assert not kiu_list(model, records, "a", 1, 1).predicted


def test_community_fixture_recommendations_stay_in_community(
    community_model, community_dataset
):
    model, _ = community_model
    dataset = community_dataset
    request_users = ["c0u0", "c1u3"]
    for user in request_users:
        result = kiu_list(model, dataset.train, user, 10, 0)
        assert len(result.items) == 10
        for venue, _ in result.items:
            assert community_of(venue) == community_of(user)


def test_pruned_venues_are_never_recommended():
    """With min_word_count=2 no method returns a venue the vocabulary pruned,
    and NN's list is the oracle vote over in-vocabulary venues only."""
    spec = FixtureSpec(
        seed=5, communities=3, users_per_community=20, venues_per_community=120,
        train_checkins_per_user=12, test_checkins_per_user=4, noise_rate=0.3,
        favorites_per_user=30,
    )
    records = generate_fixture(spec)
    train_records = split_train_test(records, FEB_2011).train
    vocab = build_vocabulary(train_records, 2)
    kept = set(vocab.venues)
    assert len(kept) < len(build_vocabulary(train_records, 1).venues)  # some venues were pruned
    config = TrainingConfig(feature_count=8, context_count=5, epoch_count=3, seed=1)
    model, _ = train(init_model(vocab, config), build_sentences(train_records, vocab))
    visits = interactions_reference(train_records)
    for filter_seen in (False, True):
        serve = {
            method: _serve(
                model, train_records, method, k=10, neighbors=5, filter_seen=filter_seen
            )
            for method in EMBEDDING_METHODS
        }
        for user in vocab.users:
            for recommend_one in serve.values():
                assert set(recommend_one(user).venues()) <= kept
            votes = vote_reference(
                [n for n, _ in nearest_users(model, user, 5)],
                visits,
                allowed=kept.__contains__,
                excluded=set(visits[user]) if filter_seen else (),
            )
            expected = rank_votes_reference(votes, 10, lambda v: row_of(vocab, "V:" + v))
            assert serve[NN](user).items == expected


def test_nn_and_kiu_serve_a_model_trained_on_other_records():
    """The recommend command's case: the model's vocabulary is not the
    dataset's. Model user u3 has no history in the dataset, dataset venue z
    and user u9 are not in the model, and the dataset meets the venues in
    another order than the vocabulary. NN is the oracle vote over venues in
    the vocabulary, ties by vocabulary index, and u3 votes nothing; KIU does
    not read the dataset."""
    model_visits = {"u0": ["a", "b"], "u1": ["b", "c"], "u2": ["c", "d"], "u3": ["d", "a"]}
    vocab = build_vocabulary(make_records(model_visits), 1)
    model = init_model(vocab, TrainingConfig(feature_count=3, seed=0), dtype=np.float64)
    model.input_vectors[:] = np.random.default_rng(5).normal(size=model.input_vectors.shape)
    records = make_records(
        {"u2": ["d", "b", "z"], "u1": ["z", "c", "c", "a"], "u0": ["b", "z"], "u9": ["a", "z"]}
    )
    visits = interactions_reference(records)
    nn = _serve(model, records, NN, k=10, neighbors=3)
    kiu = _serve(model, records, "kiu", k=10, neighbors=3)
    for user in ("u0", "u1", "u2", "u3"):
        neighbors = [n for n, _ in nearest_users(model, user, 3)]
        assert user == "u3" or "u3" in neighbors
        votes = vote_reference(neighbors, visits, allowed=vocab.venue_index.__contains__)
        expected = rank_votes_reference(votes, 10, lambda v: row_of(vocab, "V:" + v))
        assert nn(user).items == expected
        assert kiu(user).items == kiu_list(model, make_records(model_visits), user, 10, 3).items
    assert not nn("u9").predicted
    assert not kiu("u9").predicted


def test_requests_validate_bounds(toy_model, toy_interactions):
    """k and N below 1 are config errors for a run, and the library calls
    reject them too: ranked takes k >= 1 for a block with a row (an empty
    block is returned empty at any k), every score rule and nearest_users a
    user row, kiu_scores N >= 0 (N = 0 is KNI) and nearest_users N >= 1."""
    for overrides in ({"k": 0}, {"neighbors": 0}):
        config = ExperimentConfig(method="kiu", fixture=FixtureSpec(), **overrides)
        with pytest.raises(ConfigError):
            config.validate()
    vocab = toy_model.vocab
    index = vocab.user_index["u0"]
    count = vocab.user_count
    vectors, norms = toy_model.input_vectors, row_norms(toy_model.input_vectors)
    users, venues = (vectors[:count], norms[:count]), (vectors[count:], norms[count:])
    catalog = len(vocab.venues)
    scores = recommend.kiu_scores(*users, *venues, [index], 0, catalog)
    assert scores.shape == (1, len(vocab) - vocab.user_count)
    assert np.isfinite(dense_scores(scores)).all()
    for k in (0, -1):
        with pytest.raises(ValueError):
            ranked(scores, k)
    empty = ranked(sparse.csr_matrix((0, catalog)), 0)
    assert empty.shape == (0, catalog) and empty.nnz == 0
    for bad_index, neighbors in ((index, -1), (-1, 0), (vocab.user_count, 1)):
        with pytest.raises(ValueError):
            recommend.kiu_scores(*users, *venues, [index, bad_index], neighbors, catalog)
    with pytest.raises(ValueError):
        recommend.nearest_users(*users, [index], 0)
    _, visits = toy_interactions
    for bad_index in (-1, count):
        with pytest.raises(ValueError, match="is not a user row"):
            recommend.vote_scores(*users, visits, [index, bad_index], 1, False)
        with pytest.raises(ValueError, match="is not a user row"):
            recommend.nearest_users(*users, [bad_index], 1)
        with pytest.raises(ValueError, match="is not a user row"):
            recommend.random_scores(count, catalog, [index, bad_index], 1, seed=0)


# ------------------------------------------------------------- properties


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0, 1, 5, 30, LONG_ROW + 1, 300, 1064]),
            st.sampled_from([0.0, 0.3, 1.0]),  # the share of -inf entries
            st.sampled_from([3, 50, 0]),  # distinct scores; 0: continuous
        ),
        max_size=8,
    ),
    k=st.sampled_from([1, 2, 10, 30, 64, 2000]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=[(300, 0.0, 3), (0, 0.0, 3), (1064, 0.3, 50)], k=10, seed=0)
@example(rows=[(LONG_ROW + 1, 1.0, 0), (LONG_ROW + 1, 0.0, 0)], k=1, seed=1)
@settings(max_examples=150, deadline=None)
def test_ranked_block_equals_top_k_per_row(rows, k, seed):
    """ranked lists each row of a block exactly as the plain (-score,
    column) sort of the row on its own (top_k_reference): under ties at the
    cut (few distinct scores), -inf entries (the seen mask's, a neighbour
    pick's own row), empty rows, and rows past LONG_ROW, which ranked cuts
    before its sort, up to rows of about a thousand entries."""
    rng = np.random.default_rng(seed)
    columns, values, starts = [], [], [0]
    width = 1124
    for length, dropped, distinct in rows:
        columns.append(np.sort(rng.choice(width, length, replace=False)))
        scores = rng.integers(0, distinct, length) / 7 if distinct else rng.normal(size=length)
        scores[rng.random(length) < dropped] = -np.inf
        values.append(scores)
        starts.append(starts[-1] + length)
    scores = sparse.csr_matrix(
        (np.concatenate([[], *values]), np.concatenate([[], *columns]).astype(np.int64), starts),
        shape=(len(rows), width),
    )
    top = ranked(scores, k)
    assert top.shape == scores.shape
    for (listed, listed_scores), row_columns, row_values in zip(ranked_rows(top), columns, values):
        expected = top_k_reference(row_values, k)
        assert listed.tolist() == row_columns[expected].tolist()
        assert listed_scores.tobytes() == row_values[expected].tobytes()


@given(
    k=st.integers(1, 12),
    n=st.integers(1, 5),
    filter_seen=st.booleans(),
    user=st.sampled_from(["u0", "u1", "u2"]),
)
@settings(max_examples=40, deadline=None)
def test_recommendation_invariants(
    toy_model, toy_records, toy_interactions, k, n, filter_seen, user
):
    for method in EMBEDDING_METHODS:
        serve = _serve(toy_model, toy_records, method, k=k, neighbors=n, filter_seen=filter_seen)
        result = serve(user)
        venues = result.venues()
        assert len(venues) == len(set(venues))
        assert len(venues) <= k
        scores = [s for _, s in result.items]
        assert scores == sorted(scores, reverse=True)
        if filter_seen:
            vocab, visits = toy_interactions
            seen = {vocab.venues[j] for j in visits[vocab.user_index[user]].indices}
            assert set(venues).isdisjoint(seen)


def test_deterministic_across_calls(toy_model, toy_records):
    serve = _serve(toy_model, toy_records, NN, k=4, neighbors=2)
    first = serve("u0")
    second = serve("u0")
    assert first.items == second.items


def test_concurrent_readers_agree(toy_model, toy_records):
    """Recommendation queries are read-only: many threads sharing one
    served KIU callable, one answer."""
    import threading

    serve = _serve(toy_model, toy_records, "kiu", k=4, neighbors=2)
    expected = kiu_list(toy_model, toy_records, "u0", 4, 2).items
    outputs = []

    def worker():
        for _ in range(20):
            outputs.append(serve("u0").items)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(items == expected for items in outputs)


# ------------------------------------------------------------- batch format


def _write_lists(results, path):
    """Write lists of one method through write_batch_blocks: their venues
    numbered in order of first listing, the lists one ranked block."""
    index, columns, scores, starts = {}, [], [], [0]
    for result in results:
        for venue, score in result.items:
            columns.append(index.setdefault(venue, len(index)))
            scores.append(score)
        starts.append(len(columns))
    top = sparse.csr_matrix(
        (np.array(scores, dtype=np.float64), np.array(columns, dtype=np.int64), starts),
        shape=(len(results), len(index)),
    )
    (method,) = {result.method for result in results} or {NN}
    write_batch_blocks([([result.user for result in results], top)], method, list(index), path)


def test_batch_roundtrip(tmp_path, toy_model, toy_records):
    results = [
        kiu_list(toy_model, toy_records, "u0", 3, 0),
        RecommendationList("ghost", "kni"),
    ]
    path = tmp_path / "batch.tsv"
    _write_lists(results, path)
    back = read_batch_recommendations(path)
    assert back[0].user == "u0"
    assert back[0].venues() == results[0].venues()
    for (_, a), (_, b) in zip(back[0].items, results[0].items):
        assert a == pytest.approx(b, abs=1e-6)
    assert not back[1].predicted


@pytest.mark.parametrize(
    "line",
    ["u0", "u0\tkni\tLoc1:0.5\tLoc2:high", "u0\tkni\tLoc1", "u0\tkni\tLoc1:0.5\t"],
    ids=["one-field", "bad-score", "no-colon", "empty-pair"],
)
def test_malformed_batch_line_is_format_error(tmp_path, line):
    path = tmp_path / "batch.tsv"
    path.write_text(f"u1\tkni\t{NO_PREDICTION}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path} line 3")):
        read_batch_recommendations(path)


def test_batch_no_prediction_line(tmp_path):
    path = tmp_path / "batch.tsv"
    _write_lists([RecommendationList("u9", "nn")], path)
    assert path.read_text(encoding="utf-8") == f"u9\tnn\t{NO_PREDICTION}\n"


@pytest.mark.parametrize(
    "result, name",
    [
        (RecommendationList("c0\tu1", "kni"), "c0\tu1"),
        (RecommendationList("u", "kni", [("a", 0.5), ("loc\r4", 0.25)]), "loc\r4"),
        (RecommendationList("u", "kni", [("loc\n4", 0.5)]), "loc\n4"),
    ],
    ids=["tab-in-user", "return-in-venue", "newline-in-venue"],
)
def test_batch_id_with_a_separator_is_format_error(tmp_path, result, name):
    """An id holding a tab or a line break would split its line, so the
    writer names it and the file, and writes nothing."""
    path = tmp_path / "batch.tsv"
    fine = RecommendationList("u0", "kni", [("a", 0.5)])
    with pytest.raises(FormatError, match=re.escape(f"{path}: id {name!r}")):
        _write_lists([fine, result], path)
    assert not path.exists()


def test_batch_venue_ids_with_colons(tmp_path):
    results = [RecommendationList("u", "kni", [("loc:4:a", 0.5)])]
    path = tmp_path / "batch.tsv"
    _write_lists(results, path)
    back = read_batch_recommendations(path)
    assert back[0].items[0][0] == "loc:4:a"


# a batch line is tab-separated, so ids may hold anything but tabs and line breaks
batch_ids = st.text(
    alphabet=st.sampled_from(": é漢ü") | st.characters(
        exclude_categories=("Cs",), exclude_characters="\t\r\n"
    )
)


@given(
    method=st.sampled_from(["kni", "nn", "kiu", "cf", "random", "svd", "ccdpp"]),
    lists=st.lists(
        st.tuples(
            batch_ids,
            st.lists(
                st.tuples(batch_ids, st.floats(-1e6, 1e6, allow_nan=False)),
                max_size=5,
            ),
        ),
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_batch_roundtrip_any_ids(tmp_path_factory, method, lists):
    """Any ids without a separator, one method per file (a run or a
    recommend stage serves one)."""
    path = tmp_path_factory.mktemp("batch") / "batch.tsv"
    _write_lists([RecommendationList(user, method, items) for user, items in lists], path)
    expected = [
        RecommendationList(user, method, [(venue, float(f"{score:.6f}")) for venue, score in items])
        for user, items in lists
    ]
    assert read_batch_recommendations(path) == expected

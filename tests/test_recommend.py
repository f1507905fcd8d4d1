import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venue2vec import harness
from venue2vec.baselines import svd_factorize
from venue2vec.corpus import (
    Dataset,
    Vocabulary,
    build_interactions,
    build_sentences,
    build_vocabulary,
    split_train_test,
)
from venue2vec.embedding import TrainingConfig, init_model, train
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.harness import EMBEDDING_METHODS, ExperimentConfig, embedding_recommender
from venue2vec.recommend import (
    NN,
    NO_PREDICTION,
    RecommendationList,
    RecommendationRequest,
    _neighbor_rows,
    format_batch_line,
    nearest_users,
    rank_votes,
    read_batch_recommendations,
    recommend_kiu,
    recommend_kni,
    recommend_nn,
    vote_by_visit_counts,
    write_batch_recommendations,
)

from conftest import community_of, make_records
from oracles import (
    brute_force_top_k,
    interactions_reference,
    rank_votes_reference,
    vote_reference,
)


def _serve(model, records, method, **overrides):
    """The per-user callable a run builds for method, over these training
    records (the seen rule included when filter_seen is set)."""
    config = ExperimentConfig(method=method, **overrides)
    return embedding_recommender(config, model, Dataset(train=records, test=[]))


def _unseen(recommend_k, interactions, user, k):
    """The seen rule of every run, applied to recommend_k(user, depth)."""
    config = ExperimentConfig(k=k, filter_seen=True)
    return harness._per_user(config, interactions, recommend_k)(user)


# ------------------------------------------------------------- toy examples


def test_kni_toy_top2_are_the_users_own_cluster(toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=2, neighbors=1)
    result = recommend_kni(toy_model, toy_interactions, request)
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
    model.invalidate_caches()
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
    im = community_interactions
    dense = im.matrix.toarray()
    _assert_pick_is_brute_force(
        lambda i: _neighbor_rows(im.matrix, im.row_norms, dense[i], i, 7), dense, 7
    )
    latent = svd_factorize(im, 6, seed=1)
    rows = latent.user_factors
    _assert_pick_is_brute_force(
        lambda i: _neighbor_rows(rows, latent.user_norms, rows[i], i, 7), rows, 7
    )


def test_neighbor_pick_returns_n_when_lower_rows_tie_the_target():
    """Rows 0 and 1 point the target's way, so they tie its self-similarity
    and rank ahead of it: top N+1 then drop self still leaves N neighbours,
    in (-score, index) order."""
    users = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = _user_model(users)
    visits = {"a": ["x", "y"], "b": ["x", "y"], "c": ["x", "y"], "d": ["z"]}
    im = build_interactions(make_records(visits))
    dense = im.matrix.toarray()
    for n in range(1, 5):
        expected = brute_force_top_k(users, users[2], [0, 1, 3, 4], n)
        ranked = nearest_users(model, "u2", n)
        assert [user for user, _ in ranked] == [f"u{i}" for i, _ in expected]
        top, _ = _neighbor_rows(im.matrix, im.row_norms, dense[2], 2, min(n, 3))
        assert list(top) == [0, 1, 3][: min(n, 3)]


def test_nn_toy_recommends_from_neighbor_history(toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=2, neighbors=1)
    result = recommend_nn(toy_model, toy_interactions, request)
    u1_venues = {"Loc0", "Loc4", "Loc2", "Loc3", "Loc5", "Loc6"}
    assert set(result.venues()) <= u1_venues
    # all votes tie at one visit, so ties order by token index
    assert result.venues() == ["Loc0", "Loc2"]


def test_kiu_toy_recommends_shared_pair(toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=2, neighbors=1)
    result = recommend_kiu(toy_model, toy_interactions, request)
    assert set(result.venues()) == {"Loc0", "Loc2"}


# ------------------------------------------------------------- vote rule


def _vote(visits, neighbors, binary=False):
    """vote_by_visit_counts over the matrix of a {user: [venues...]} table,
    as {venue: votes} plus the ranked top 2."""
    im = build_interactions(make_records(visits), binary)
    rows = [im.user_index[n] for n in neighbors]
    votes = vote_by_visit_counts(im.matrix, rows, np.ones(len(rows)))
    voted = {im.venues[j]: float(votes[j]) for j in np.flatnonzero(votes)}
    return voted, rank_votes(votes, 2, im.venues)


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
    im = build_interactions(make_records({"u": ["v2"], "n1": ["v1", "v1"] + ["v2"] * 5}))
    votes = vote_by_visit_counts(im.matrix, [im.user_index["n1"]], np.ones(1))
    ranked = _unseen(
        lambda user, depth: RecommendationList(user, NN, rank_votes(votes, depth, im.venues)),
        im,
        "u",
        2,
    )
    assert dict(ranked.items) == {"v1": 2.0}


def test_forced_outcome_neighbor_with_two_venues():
    _, ranked = _vote({"u1": ["a", "b"]}, ["u1"])
    assert {v for v, _ in ranked} == {"a", "b"}


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
    """The sparse vote and its ranking equal the per-user Counter vote, ties
    included, for count or presence tables, unit or float (CF) weights,
    disallowed (pruned) venues zeroed as NN does, and the target's own
    (seen) venues dropped by the seen rule."""
    records = make_records(visits)
    im = build_interactions(records, binary)
    users, venues = sorted(visits), sorted(im.venues)
    neighbors = data.draw(st.lists(st.sampled_from(users), unique=True))
    # a few repeated weights, so float votes tie too
    weight = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 1.0)
    weights = [data.draw(weight) for _ in neighbors] if weighted else [1.0] * len(neighbors)
    target = data.draw(st.sampled_from(users))
    excluded = set(visits[target]) if data.draw(st.booleans()) else set()
    pruned = data.draw(st.sets(st.sampled_from(venues)))

    rows = [im.user_index[n] for n in neighbors]
    votes = vote_by_visit_counts(im.matrix, rows, np.array(weights))
    votes[[im.venue_index[v] for v in pruned]] = 0.0
    if excluded:
        ours = _unseen(
            lambda user, depth: RecommendationList(user, NN, rank_votes(votes, depth, im.venues)),
            im,
            target,
            k,
        ).items
    else:
        ours = rank_votes(votes, k, im.venues)

    expected_votes = vote_reference(
        neighbors,
        interactions_reference(records),
        weights=weights,
        binary=binary,
        allowed=lambda v: v not in pruned,
        excluded=excluded,
    )
    assert ours == rank_votes_reference(expected_votes, k, im.venue_index.__getitem__)


# ------------------------------------------------------------- contracts


def test_unknown_user_is_no_prediction(toy_model, toy_interactions):
    request = RecommendationRequest(user="stranger", k=3, neighbors=1)
    for result in (
        recommend_kni(toy_model, toy_interactions, request),
        recommend_nn(toy_model, toy_interactions, request),
        recommend_kiu(toy_model, toy_interactions, request),
    ):
        assert not result.predicted
        assert result.items == []


def test_kni_saturation_returns_all_venues(toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=100, neighbors=1)
    result = recommend_kni(toy_model, toy_interactions, request)
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
    interactions = build_interactions(records)
    request = RecommendationRequest(user="only", k=2, neighbors=5)
    kiu = recommend_kiu(model, interactions, request)
    kni = recommend_kni(model, interactions, request)
    assert kiu.venues() == kni.venues()


def test_kiu_all_users_uniform_vectors_degrades_gracefully():
    records = make_records({"a": ["x"], "b": ["y"], "c": ["z"]})
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=4, seed=0), dtype=np.float64)
    model.input_vectors = np.ones_like(model.input_vectors)  # every cosine ties
    model.invalidate_caches()
    interactions = build_interactions(records)
    request = RecommendationRequest(user="a", k=2, neighbors=50)
    first = recommend_kiu(model, interactions, request)
    second = recommend_kiu(model, interactions, request)
    assert first.predicted
    assert first.items == second.items  # deterministic under total ties
    assert first.venues() == ["x", "y"]  # ascending token index


def test_nn_binary_votes_flag(toy_model, toy_records, toy_interactions):
    # u2 visited Loc7 twice; binary votes flatten that to one
    request = RecommendationRequest(user="u1", k=8, neighbors=2)
    counted = recommend_nn(toy_model, toy_interactions, request)
    binary = recommend_nn(toy_model, build_interactions(toy_records, binary=True), request)
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
    model.input_vectors[vocab.index("U:a")] = np.array([1.0, 0.0, 0.0, 0.0])
    model.input_vectors[vocab.index("U:b")] = np.array([-1.0, 0.0, 0.0, 0.0])
    model.input_vectors[vocab.index("V:x")] = np.ones(4)
    model.invalidate_caches()
    interactions = build_interactions(records)
    request = RecommendationRequest(user="a", k=1, neighbors=1)
    result = recommend_kiu(model, interactions, request)
    assert not result.predicted


def test_community_fixture_recommendations_stay_in_community(
    community_model, community_interactions
):
    model, _ = community_model
    request_users = ["c0u0", "c1u3"]
    for user in request_users:
        request = RecommendationRequest(user=user, k=10, neighbors=5)
        result = recommend_kni(model, community_interactions, request)
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
    records, _ = generate_fixture(spec)
    train_records = split_train_test(records, FEB_2011).train
    vocab = build_vocabulary(train_records, 2)
    interactions = build_interactions(train_records)
    kept = {Vocabulary.strip_prefix(vocab.token(i)) for i in vocab.venue_indices()}
    assert len(kept) < len(interactions.venues)  # some venues were pruned
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
        for index in range(vocab.user_count):
            user = Vocabulary.strip_prefix(vocab.token(index))
            for recommend_one in serve.values():
                assert set(recommend_one(user).venues()) <= kept
            votes = vote_reference(
                [n for n, _ in nearest_users(model, user, 5)],
                visits,
                allowed=kept.__contains__,
                excluded=set(visits[user]) if filter_seen else (),
            )
            expected = rank_votes_reference(
                votes, 10, lambda v: vocab.index(Vocabulary.venue_token(v))
            )
            assert serve[NN](user).items == expected


def test_requests_validate_bounds():
    with pytest.raises(ValueError):
        RecommendationRequest(user="u", k=0)
    with pytest.raises(ValueError):
        RecommendationRequest(user="u", neighbors=0)


# ------------------------------------------------------------- properties


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
            seen = {toy_interactions.venues[j] for j in toy_interactions.venues_of(user)}
            assert set(venues).isdisjoint(seen)


def test_deterministic_across_calls(toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=4, neighbors=2)
    first = recommend_nn(toy_model, toy_interactions, request)
    second = recommend_nn(toy_model, toy_interactions, request)
    assert first.items == second.items


def test_concurrent_readers_agree(toy_model, toy_interactions):
    """Recommendation queries are read-only: many threads, one answer."""
    import threading

    toy_model.invalidate_caches()  # force the norm cache race too
    request = RecommendationRequest(user="u0", k=4, neighbors=2)
    expected = recommend_kiu(toy_model, toy_interactions, request).items
    outputs = []

    def worker():
        for _ in range(20):
            outputs.append(recommend_kiu(toy_model, toy_interactions, request).items)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(items == expected for items in outputs)


# ------------------------------------------------------------- batch format


def test_batch_roundtrip(tmp_path, toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=3, neighbors=1)
    results = [
        recommend_kni(toy_model, toy_interactions, request),
        RecommendationList("ghost", "kni"),
    ]
    path = tmp_path / "batch.tsv"
    write_batch_recommendations(results, path)
    back = read_batch_recommendations(path)
    assert back[0].user == "u0"
    assert back[0].venues() == results[0].venues()
    for (_, a), (_, b) in zip(back[0].items, results[0].items):
        assert a == pytest.approx(b, abs=1e-6)
    assert not back[1].predicted


def test_batch_no_prediction_line():
    line = format_batch_line(RecommendationList("u9", "nn"))
    assert line == f"u9\tnn\t{NO_PREDICTION}"


def test_batch_venue_ids_with_colons(tmp_path):
    results = [RecommendationList("u", "kni", [("loc:4:a", 0.5)])]
    path = tmp_path / "batch.tsv"
    write_batch_recommendations(results, path)
    back = read_batch_recommendations(path)
    assert back[0].items[0][0] == "loc:4:a"


# a batch line is tab-separated, so ids may hold anything but tabs and line breaks
batch_ids = st.text(
    alphabet=st.sampled_from(": é漢ü") | st.characters(
        exclude_categories=("Cs",), exclude_characters="\t\r\n"
    )
)


@given(
    results=st.lists(
        st.builds(
            RecommendationList,
            batch_ids,
            st.sampled_from(["kni", "nn", "kiu", "cf", "random", "svd", "ccdpp"]),
            st.lists(
                st.tuples(batch_ids, st.floats(-1e6, 1e6, allow_nan=False)),
                max_size=5,
            ),
        ),
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_batch_roundtrip_any_ids(tmp_path_factory, results):
    path = tmp_path_factory.mktemp("batch") / "batch.tsv"
    write_batch_recommendations(results, path)
    expected = [
        RecommendationList(
            r.user, r.method, [(venue, float(f"{score:.6f}")) for venue, score in r.items]
        )
        for r in results
    ]
    assert read_batch_recommendations(path) == expected

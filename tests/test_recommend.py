from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venue2vec.corpus import build_sentences, build_vocabulary
from venue2vec.embedding import TrainingConfig, init_model, train
from venue2vec.recommend import (
    NO_PREDICTION,
    RecommendationList,
    RecommendationRequest,
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


# ------------------------------------------------------------- toy examples


def test_kni_toy_top2_are_the_users_own_cluster(toy_model):
    request = RecommendationRequest(user="u0", k=2, neighbors=1)
    result = recommend_kni(toy_model, request)
    venues = result.venues()
    assert venues[0] == "Loc1"  # visited twice by u0 and nobody else
    assert set(venues) < {"Loc0", "Loc1", "Loc2"}


def test_nearest_user_of_u0_is_u1(toy_model):
    assert nearest_users(toy_model, "u0", 1)[0][0] == "u1"


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


def test_vote_sums_visit_counts():
    interactions = {
        "n1": Counter({"v1": 3}),
        "n2": Counter({"v1": 1, "v2": 2}),
        "n3": Counter({"v2": 1}),
    }
    votes = vote_by_visit_counts(["n1", "n2", "n3"], interactions)
    assert votes == Counter({"v1": 4.0, "v2": 3.0})
    ranked = rank_votes(votes, 2, {"v1": 0, "v2": 1}.__getitem__)
    assert ranked == [("v1", 4.0), ("v2", 3.0)]


def test_vote_binary_mode_counts_presence():
    interactions = {"n1": Counter({"v1": 9, "v2": 1})}
    votes = vote_by_visit_counts(["n1"], interactions, binary=True)
    assert votes == Counter({"v1": 1.0, "v2": 1.0})


def test_vote_excluded_venues_removed():
    interactions = {"n1": Counter({"v1": 2, "v2": 5})}
    votes = vote_by_visit_counts(["n1"], interactions, excluded={"v2"})
    assert votes == Counter({"v1": 2.0})


def test_forced_outcome_neighbor_with_two_venues(toy_model):
    interactions = {"u1": Counter({"a": 1, "b": 1})}
    # vocab lookups only happen through the allowed filter, disabled here
    votes = vote_by_visit_counts(["u1"], interactions)
    ranked = rank_votes(votes, 2, {"a": 0, "b": 1}.__getitem__)
    assert {v for v, _ in ranked} == {"a", "b"}


# ------------------------------------------------------------- contracts


def test_unknown_user_is_no_prediction(toy_model, toy_interactions):
    request = RecommendationRequest(user="stranger", k=3, neighbors=1)
    for result in (
        recommend_kni(toy_model, request),
        recommend_nn(toy_model, toy_interactions, request),
        recommend_kiu(toy_model, toy_interactions, request),
    ):
        assert not result.predicted
        assert result.items == []


def test_kni_saturation_returns_all_venues(toy_model):
    request = RecommendationRequest(user="u0", k=100, neighbors=1)
    result = recommend_kni(toy_model, request)
    assert len(result.items) == 8
    scores = [s for _, s in result.items]
    assert scores == sorted(scores, reverse=True)


def test_filter_seen_removes_training_venues(toy_model, toy_interactions):
    request = RecommendationRequest(user="u0", k=8, neighbors=1, filter_seen=True)
    result = recommend_kni(toy_model, request, toy_interactions)
    assert set(result.venues()).isdisjoint({"Loc0", "Loc1", "Loc2"})


def test_kiu_without_other_users_reduces_to_kni():
    records = make_records({"only": ["a", "b", "a"]})
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    config = TrainingConfig(feature_count=4, context_count=2, epoch_count=30, seed=0)
    model, _ = train(init_model(vocab, config), corpus)
    interactions = {"only": Counter({"a": 2, "b": 1})}
    request = RecommendationRequest(user="only", k=2, neighbors=5)
    kiu = recommend_kiu(model, interactions, request)
    kni = recommend_kni(model, request)
    assert kiu.venues() == kni.venues()


def test_kiu_all_users_uniform_vectors_degrades_gracefully():
    records = make_records({"a": ["x"], "b": ["y"], "c": ["z"]})
    vocab = build_vocabulary(records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=4, seed=0), dtype=np.float64)
    model.input_vectors = np.ones_like(model.input_vectors)  # every cosine ties
    model.invalidate_caches()
    interactions = {"a": Counter({"x": 1}), "b": Counter({"y": 1}), "c": Counter({"z": 1})}
    request = RecommendationRequest(user="a", k=2, neighbors=50)
    first = recommend_kiu(model, interactions, request)
    second = recommend_kiu(model, interactions, request)
    assert first.predicted
    assert first.items == second.items  # deterministic under total ties
    assert first.venues() == ["x", "y"]  # ascending token index


def test_nn_binary_votes_flag(toy_model, toy_interactions):
    # u2 visited Loc7 twice; binary votes flatten that to one
    request = RecommendationRequest(user="u1", k=8, neighbors=2)
    counted = recommend_nn(toy_model, toy_interactions, request)
    binary = recommend_nn(toy_model, toy_interactions, request, binary_votes=True)
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
    interactions = {"a": Counter({"x": 1}), "b": Counter({"x": 1})}
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
        result = recommend_kni(model, request)
        assert len(result.items) == 10
        for venue, _ in result.items:
            assert community_of(venue) == community_of(user)


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
def test_recommendation_invariants(toy_model, toy_interactions, k, n, filter_seen, user):
    request = RecommendationRequest(
        user=user, k=k, neighbors=n, filter_seen=filter_seen
    )
    for result in (
        recommend_kni(toy_model, request, toy_interactions),
        recommend_nn(toy_model, toy_interactions, request),
        recommend_kiu(toy_model, toy_interactions, request),
    ):
        venues = result.venues()
        assert len(venues) == len(set(venues))
        assert len(venues) <= k
        scores = [s for _, s in result.items]
        assert scores == sorted(scores, reverse=True)
        if filter_seen:
            assert set(venues).isdisjoint(toy_interactions[user])


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
        recommend_kni(toy_model, request),
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

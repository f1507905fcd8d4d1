import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venue2vec import embedding
from venue2vec.corpus import (
    Checkins,
    SentenceCorpus,
    build_sentences,
    build_vocabulary,
    split_train_test,
)
from venue2vec.embedding import (
    CBOW,
    SKIP_GRAM,
    NegativeSamplingTable,
    TrainingConfig,
    _sgns_step,
    _sgns_update,
    context_pairs,
    negative_sampling_gradient,
    init_model,
    resolve_window,
    train,
)
from venue2vec.errors import ConfigError, TrainingError
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.recommend import kiu_scores, ranked, row_norms

from conftest import make_records, ranked_rows, row_of, sentences_of, token_of
from oracles import (
    brute_force_top_k,
    context_pairs_reference,
    sgns_step_reference,
    two_token_scalar_reference,
)


def small_vocab(n_users=2, n_venues=3):
    visits = {f"u{i}": [f"v{j}" for j in range(n_venues)] for i in range(n_users)}
    records = make_records(visits)
    return build_vocabulary(records, 1), records


def row(model, token):
    return model.input_vectors[row_of(model.vocab, token)]


def venue_indices(vocab):
    return np.arange(vocab.user_count, len(vocab))


def nearest(model, query, candidates, k):
    """The k candidate tokens whose model rows are most cosine-similar to
    query, with their scores, through kiu_scores (the query as its one user
    row, no neighbors) ranked over those rows."""
    candidates = np.asarray(candidates)
    query = np.asarray(query, dtype=np.float64)[None, :]
    rows = model.input_vectors[candidates]
    scores = kiu_scores(query, row_norms(query), rows, row_norms(rows), [0], 0, len(rows))
    ((top, sims),) = ranked_rows(ranked(scores, k))
    return [(token_of(model.vocab, candidates[i]), float(s)) for i, s in zip(top, sims)]


# ---------------------------------------------------------------- config


def test_config_rejects_zero_features():
    with pytest.raises(ConfigError):
        TrainingConfig(feature_count=0)


def test_config_rejects_unknown_architecture():
    with pytest.raises(ConfigError):
        TrainingConfig(architecture="glove")


def test_config_accepts_max_window_sentinel():
    config = TrainingConfig(architecture=CBOW, context_count="max")
    assert resolve_window(config.context_count, 683) == 683
    assert resolve_window(5, 683) == 5


# ---------------------------------------------------------------- init


def test_init_shapes_and_zero_outputs():
    vocab, _ = small_vocab()
    model = init_model(vocab, TrainingConfig(feature_count=10, seed=0))
    assert model.input_vectors.shape == (5, 10)
    assert model.output_vectors.shape == (5, 10)
    assert not model.output_vectors.any()
    bound = 0.5 / 10
    assert np.all(np.abs(model.input_vectors) <= bound)


def test_init_same_seed_bit_identical():
    vocab, _ = small_vocab()
    a = init_model(vocab, TrainingConfig(feature_count=7, seed=42))
    b = init_model(vocab, TrainingConfig(feature_count=7, seed=42))
    assert np.array_equal(a.input_vectors, b.input_vectors)


def test_init_row_recomputable_from_seeded_stream():
    vocab, _ = small_vocab()
    config = TrainingConfig(feature_count=4, seed=9)
    model = init_model(vocab, config)
    stream = (np.random.default_rng(9).random((len(vocab), 4)) - 0.5) / 4
    np.testing.assert_array_equal(
        model.input_vectors, stream.astype(np.float32)
    )


def test_init_drawn_in_blocks_is_one_stream(monkeypatch):
    # two rows a block: five tokens take two whole blocks and a partial one
    monkeypatch.setattr(embedding, "INIT_BLOCK_BYTES", 2 * 8 * 4)
    vocab, _ = small_vocab()
    model = init_model(vocab, TrainingConfig(feature_count=4, seed=9))
    stream = (np.random.default_rng(9).random((len(vocab), 4)) - 0.5) / 4
    np.testing.assert_array_equal(model.input_vectors, stream.astype(np.float32))
    assert not model.output_vectors.any()


def test_init_two_dimensional_toy(toy_records):
    vocab = build_vocabulary(toy_records, 1)
    model = init_model(vocab, TrainingConfig(feature_count=2, seed=0))
    assert model.input_vectors.shape[1] == 2  # plottable in the plane


# ---------------------------------------------------------------- noise table


def _alias_distribution(table):
    """p_i = (accept_i + sum of 1 - accept_j over buckets j aliased to i) / n."""
    accept, alias = table.accept, table.alias
    n = accept.size
    assert ((accept >= 0) & (accept <= 1)).all()
    assert ((alias >= 0) & (alias < n)).all()
    return (accept + np.bincount(alias, weights=1.0 - accept, minlength=n)) / n


def test_table_probabilities_sum_to_one():
    table = NegativeSamplingTable(np.array([5, 1, 3, 10]))
    assert abs(table.probabilities.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(_alias_distribution(table), table.probabilities, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "frequencies",
    [
        # Zipf's law over a paper-sized vocabulary, ranks shuffled
        np.random.default_rng(3).permutation(np.ceil(1e6 / np.arange(1, 57_841))),
        np.array([16, 1]),
        np.array([1, 1]),
        np.array([7, 0]),
        # 49 * (1 / 49) rounds to just under 1, so no weight scales to 1 or more
        np.ones(49),
    ],
    ids=["zipf-57840", "two-skewed", "two-equal", "two-with-zero", "uniform-49"],
)
def test_alias_table_rebuilds_probabilities(frequencies):
    table = NegativeSamplingTable(frequencies)
    np.testing.assert_allclose(_alias_distribution(table), table.probabilities, rtol=0, atol=1e-12)


def test_table_power_weighting():
    table = NegativeSamplingTable(np.array([16, 1]), exponent=0.75)
    assert table.probabilities[0] == pytest.approx(8 / 9)


def test_table_sample_never_returns_positive(rng):
    table = NegativeSamplingTable(np.array([100, 1, 1]))
    draws = table.sample_excluding(rng, 0, 500)
    assert (draws != 0).all()
    assert set(np.unique(draws)) <= {1, 2}


def test_table_sample_excluding_elementwise(rng):
    table = NegativeSamplingTable(np.array([10, 10, 10, 10]))
    forbidden = np.array([0, 1, 2, 3] * 50)
    draws = table.sample_excluding(rng, forbidden, forbidden.size)
    assert (draws != forbidden).all()


def test_table_empirical_distribution(rng):
    freq = np.array([81, 16, 1])
    table = NegativeSamplingTable(freq, exponent=0.75)
    draws = table.sample(rng, 200_000)
    counts = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(counts, table.probabilities, atol=5e-3)


# ---------------------------------------------------------------- training


def test_train_empty_corpus_raises():
    vocab, records = small_vocab()
    corpus = build_sentences(Checkins.of([]), vocab)
    model = init_model(vocab, TrainingConfig(feature_count=4))
    with pytest.raises(TrainingError):
        train(model, corpus)


def test_two_token_corpus_matches_scalar_oracle():
    """Degenerate [user, venue] corpus: the only available negative is the
    center token itself, so the two input vectors are driven apart while each
    input aligns with the other token's output vector. The independent scalar
    reference shows the same limit; the input-output cosine approaches 1."""
    ref_in, ref_in_out = two_token_scalar_reference(epochs=1500, dim=16, seed=0)
    assert ref_in_out > 0.9
    assert ref_in < -0.5

    records = make_records({"solo": ["only"]})
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    config = TrainingConfig(
        architecture=SKIP_GRAM, feature_count=16, context_count=2,
        epoch_count=1500, seed=0,
    )
    model, _ = train(init_model(vocab, config), corpus)
    u = model.input_vectors[row_of(vocab, "U:solo")].astype(np.float64)
    v_in = model.input_vectors[row_of(vocab, "V:only")].astype(np.float64)
    v_out = model.output_vectors[row_of(vocab, "V:only")].astype(np.float64)

    def cos(a, b):
        return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

    assert cos(u, v_out) > 0.9
    assert cos(u, v_in) < -0.5


def test_toy_corpus_co_visited_venues_mutually_nearest(toy_model):
    """Loc0 and Loc2 are always visited together; after training each is the
    other's nearest venue."""
    model = toy_model
    vocab = model.vocab
    venue_idx = venue_indices(vocab)
    for venue, expected in (("Loc0", "Loc2"), ("Loc2", "Loc0")):
        query = row(model, "V:" + venue)
        candidates = venue_idx[venue_idx != row_of(vocab, "V:" + venue)]
        assert nearest(model, query, candidates, 1)[0][0] == "V:" + expected


def test_toy_corpus_exclusive_venue_sits_with_its_user(toy_model):
    model = toy_model
    query = row(model, "V:Loc7")
    assert nearest(model, query, np.arange(model.vocab.user_count), 1)[0][0] == "U:u2"


def test_loss_trace_smoothed_non_increasing(community_model):
    _, trace = community_model
    losses = np.array([row.average_loss for row in trace])
    smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert (np.diff(smoothed) <= 1e-6).all()
    assert trace[-1].average_loss < trace[0].average_loss


def test_learning_rate_decays_to_floor(community_model):
    _, trace = community_model
    rates = [row.learning_rate_end for row in trace]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(1e-4)


def test_single_worker_training_bit_reproducible(toy_records):
    vocab = build_vocabulary(toy_records, 1)
    corpus = build_sentences(toy_records, vocab)
    config = TrainingConfig(feature_count=8, context_count=3, epoch_count=5, seed=11)
    a, _ = train(init_model(vocab, config), corpus)
    b, _ = train(init_model(vocab, config), corpus)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.output_vectors, b.output_vectors)


def test_cbow_training_bit_reproducible(toy_records):
    vocab = build_vocabulary(toy_records, 1)
    corpus = build_sentences(toy_records, vocab)
    config = TrainingConfig(
        architecture=CBOW, feature_count=8, context_count="max", epoch_count=5, seed=11
    )
    a, trace_a = train(init_model(vocab, config), corpus)
    b, trace_b = train(init_model(vocab, config), corpus)
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.output_vectors, b.output_vectors)
    assert [row.average_loss for row in trace_a] == [row.average_loss for row in trace_b]


def _sentence_pairs(sentence, window, rng):
    """(center token, context tokens) per position, as training draws them."""
    radii = rng.integers(1, window + 1, size=len(sentence))
    centers, contexts = context_pairs([len(sentence)], radii)
    for center in np.unique(centers):
        yield int(sentence[center]), sentence[contexts[centers == center]]


def test_window_contract_skip_gram_distance_one(toy_records):
    """With C=1 no pair may span a distance greater than one position."""
    records = make_records({"u": [f"w{i}" for i in range(8)]})
    vocab = build_vocabulary(records, 1)
    sentence = sentences_of(build_sentences(records, vocab))[0]
    position = {int(token): i for i, token in enumerate(sentence)}
    rng = np.random.default_rng(0)
    pair_count = 0
    for _ in range(2):
        for center, context in _sentence_pairs(sentence, 1, rng):
            for token in context:
                pair_count += 1
                assert abs(position[int(token)] - position[center]) <= 1
    assert pair_count > 0


def test_window_radius_never_exceeds_configured():
    records = make_records({"u": [f"w{i}" for i in range(12)]})
    vocab = build_vocabulary(records, 1)
    sentence = sentences_of(build_sentences(records, vocab))[0]
    position = {int(token): i for i, token in enumerate(sentence)}
    rng = np.random.default_rng(0)
    for _ in range(2):
        for center, context in _sentence_pairs(sentence, 2, rng):
            for token in context:
                assert abs(position[int(token)] - position[center]) <= 2


@st.composite
def _block_radii(draw):
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    window = draw(st.integers(1, 10))
    radii = draw(
        st.lists(st.integers(1, window), min_size=sum(lengths), max_size=sum(lengths))
    )
    return lengths, np.array(radii, dtype=np.int64)


@given(_block_radii())
@settings(max_examples=200, deadline=None)
def test_context_pairs_match_reference_loop(block):
    lengths, radii = block
    centers, contexts = context_pairs(np.array(lengths), radii)
    assert list(zip(centers.tolist(), contexts.tolist())) == context_pairs_reference(
        lengths, radii
    )


def test_batched_step_rows_match_negative_sampling_gradient(rng):
    """Each row of the batched update is the checked single-pair gradient,
    scaled by its own rate."""
    batch, targets, dim = 7, 4, 5
    hidden = rng.normal(size=(batch, dim))
    rows = rng.normal(size=(batch, targets, dim))
    rows[0] *= 40.0  # dots beyond the clamp
    rates = rng.uniform(0.01, 2.0, size=batch)
    losses, coefficients, hidden_steps = _sgns_update(hidden, rows, rates)
    row_steps = coefficients[:, :, None] * hidden[:, None, :]
    for b in range(batch):
        loss, g_center, g_context, g_negatives = negative_sampling_gradient(
            hidden[b], rows[b, 0], rows[b, 1:]
        )
        assert losses[b] == pytest.approx(loss, abs=1e-12)
        np.testing.assert_allclose(hidden_steps[b], -rates[b] * g_center, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row_steps[b, 0], -rates[b] * g_context, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row_steps[b, 1:], -rates[b] * g_negatives, rtol=0, atol=1e-12)


def test_minibatch_step_matches_add_at_oracle(rng):
    """Repeated tokens, within a row and across rows, each get their step:
    the step equals per-row gradients scattered with np.add.at. Token 3 is a
    member and a target of the same step, and its input and output rows
    each get only their own half's steps."""
    vocab_size, dim = 6, 4
    weights = rng.normal(size=(2 * vocab_size, dim))
    inputs, outputs = weights[:vocab_size], weights[vocab_size:]
    # CBOW-shaped rows of 1 to 4 members, tokens 0, 4 and 2 twice in a row
    rows_of_members = [[2], [0, 0, 5], [1, 3], [4, 4, 1, 0], [5], [2, 5, 2]]
    sizes = np.array([len(row) for row in rows_of_members])
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    members = np.concatenate(rows_of_members)
    targets = rng.integers(0, vocab_size, size=(sizes.size, 4))
    targets[2, 0] = targets[4, 2] = 3
    rates = rng.uniform(0.1, 1.0, size=sizes.size)
    assert np.unique(targets).size < targets.size

    expected_in, expected_out = inputs.copy(), outputs.copy()
    expected_loss = 0.0
    for r, rate in enumerate(rates):
        row_members = members[indptr[r] : indptr[r + 1]]
        hidden = inputs[row_members].mean(axis=0)
        loss, g_hidden, g_context, g_negatives = negative_sampling_gradient(
            hidden, outputs[targets[r, 0]], outputs[targets[r, 1:]]
        )
        expected_loss += loss
        np.add.at(expected_out, targets[r], -rate * np.vstack((g_context, g_negatives)))
        np.add.at(expected_in, row_members, -rate * np.broadcast_to(g_hidden, (row_members.size, dim)))

    # the slot scratch's contents on entry do not matter
    slot = rng.integers(-5, 50, size=2 * vocab_size)
    loss = _sgns_step(weights, slot, members, indptr, targets, rates)
    assert loss == pytest.approx(expected_loss, abs=1e-12)
    np.testing.assert_allclose(outputs, expected_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(inputs, expected_in, rtol=0, atol=1e-12)


def _planted_corpus():
    """Vocabulary and sentences of criterion 4a's planted fixture."""
    spec = FixtureSpec(seed=11, communities=4, users_per_community=50,
                       venues_per_community=100, train_checkins_per_user=20,
                       test_checkins_per_user=5, noise_rate=0.0)
    train_records = split_train_test(generate_fixture(spec), FEB_2011).train
    vocab = build_vocabulary(train_records, 1)
    return vocab, build_sentences(train_records, vocab)


@pytest.mark.parametrize("architecture,window", [(SKIP_GRAM, 10), (CBOW, "max")])
def test_training_bit_identical_to_two_scatter_reference(monkeypatch, architecture, window):
    """Training through the one-scatter step over the weight block gives the
    two-scatter reference's weights and loss trace byte for byte."""
    vocab, corpus = _planted_corpus()
    config = TrainingConfig(architecture=architecture, feature_count=32,
                            context_count=window, epoch_count=3, seed=5)
    model, trace = train(init_model(vocab, config), corpus)

    def reference_step(weights, slot, members, indptr, targets, rates):
        inputs, outputs = np.split(weights, 2)
        return sgns_step_reference(inputs, outputs, members, indptr, targets, rates)

    monkeypatch.setattr(embedding, "_sgns_step", reference_step)
    expected, expected_trace = train(init_model(vocab, config), corpus)
    assert model.weights.tobytes() == expected.weights.tobytes()
    losses = [[row.average_loss for row in t] for t in (trace, expected_trace)]
    assert np.array(losses[0]).tobytes() == np.array(losses[1]).tobytes()


def test_diverging_training_raises_naming_the_epoch(toy_records, monkeypatch):
    monkeypatch.setattr(embedding, "INITIAL_LEARNING_RATE", 1e6)
    vocab = build_vocabulary(toy_records, 1)
    corpus = build_sentences(toy_records, vocab)
    config = TrainingConfig(feature_count=8, context_count=3, epoch_count=3, seed=1)
    with pytest.raises(TrainingError, match="epoch 0"):
        train(init_model(vocab, config), corpus)


@pytest.mark.parametrize("architecture,window", [(SKIP_GRAM, 10), (CBOW, "max")])
def test_training_memory_bounded_by_block_not_corpus(architecture, window):
    """Peak training allocations on the planted corpus repeated 4x stay
    near those on 1x: pairs and negatives are drawn a block at a time."""
    spec = FixtureSpec(seed=11, communities=4, users_per_community=50,
                       venues_per_community=100, train_checkins_per_user=20,
                       test_checkins_per_user=5, noise_rate=0.0)
    records = generate_fixture(spec)
    train_records = split_train_test(records, FEB_2011).train
    vocab = build_vocabulary(train_records, 1)
    corpus = build_sentences(train_records, vocab)
    config = TrainingConfig(architecture=architecture, feature_count=32,
                            context_count=window, epoch_count=1, seed=5)

    def peak(repeats):
        total = corpus.total_tokens
        starts = np.arange(repeats)[:, None] * total + corpus.starts[:-1]
        repeated = SentenceCorpus(np.tile(corpus.tokens, repeats), np.append(starts, repeats * total))
        model = init_model(vocab, config)
        tracemalloc.start()
        try:
            train(model, repeated)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) < 1.5 * peak(1)


def test_cbow_epoch_peak_below_half_a_weight_block():
    """One CBOW epoch on the 8-community paper-sparsity fixture (V = 11,568,
    F = 100, a 9.3 MB block) allocates at its peak less than half of the
    model's weight block: training steps the block in place and copies
    neither of its halves."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "time_epoch.py"
    spec = importlib.util.spec_from_file_location("time_epoch", script)
    time_epoch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(time_epoch)
    records = generate_fixture(replace(time_epoch.PAPER_SHAPE, communities=8))
    train_records = split_train_test(records, FEB_2011).train
    vocab = build_vocabulary(train_records, 1)
    corpus = build_sentences(train_records, vocab)
    config = TrainingConfig(architecture=CBOW, feature_count=100,
                            context_count="max", epoch_count=1, seed=1)
    model = init_model(vocab, config)
    assert model.weights.shape == (2 * 11_568, 100)
    tracemalloc.start()
    try:
        train(model, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.weights.nbytes / 2


def test_sentence_blocks_take_whole_sentences_greedily():
    """Blocks cover the sentences in order; each holds at most BLOCK_TOKENS
    tokens or one longer sentence, and could not also take the next one."""
    lengths = [100, 120, 300, 40, 200, 57, 10, 250, 6]
    visits = {f"u{i}": [f"v{j}" for j in range(n - 1)] for i, n in enumerate(lengths)}
    records = make_records(visits)
    corpus = build_sentences(records, build_vocabulary(records, 1))
    assert corpus.max_length > embedding.BLOCK_TOKENS
    starts = corpus.starts
    blocks = list(embedding._sentence_blocks(starts))
    assert [first for first, _ in blocks] == [0] + [last for _, last in blocks[:-1]]
    assert blocks[-1][1] == len(corpus)
    for first, last in blocks:
        assert first < last
        size = starts[last] - starts[first]
        assert size <= embedding.BLOCK_TOKENS or last - first == 1
        if last < len(corpus):
            assert starts[last + 1] - starts[first] > embedding.BLOCK_TOKENS


def test_cbow_training_brings_co_occurring_tokens_close(toy_records):
    vocab = build_vocabulary(toy_records, 1)
    corpus = build_sentences(toy_records, vocab)
    config = TrainingConfig(
        architecture=CBOW, feature_count=8, context_count="max",
        epoch_count=300, seed=2,
    )
    model, trace = train(init_model(vocab, config), corpus)
    assert np.isfinite(model.input_vectors).all()
    assert trace[-1].average_loss < trace[0].average_loss
    venue_idx = venue_indices(vocab)
    query = row(model, "V:Loc0")
    candidates = venue_idx[venue_idx != row_of(vocab, "V:Loc0")]
    top2 = {t for t, _ in nearest(model, query, candidates, 2)}
    assert "V:Loc2" in top2


def test_training_output_finite_and_nonzero(community_model):
    model, _ = community_model
    assert np.isfinite(model.input_vectors).all()
    assert np.isfinite(model.output_vectors).all()
    assert (row_norms(model.input_vectors) > 0).all()


# ---------------------------------------------------------------- lookup


def test_vocabulary_index_known_token(toy_model):
    vector = row(toy_model, "U:u0")
    assert vector.shape == (2,)
    assert np.isfinite(vector).all()


# ---------------------------------------------------------------- top-k


def test_self_similarity_is_one(toy_model):
    vocab = toy_model.vocab
    query = row(toy_model, "V:Loc3")
    top = nearest(toy_model, query, venue_indices(vocab), 1)
    assert top[0][0] == "V:Loc3"
    assert top[0][1] == pytest.approx(1.0)


def test_top_k_matches_brute_force(rng):
    vocab, _ = small_vocab(4, 96)
    config = TrainingConfig(feature_count=12, seed=0)
    model = init_model(vocab, config, dtype=np.float64)
    model.input_vectors[:] = rng.normal(size=model.input_vectors.shape)
    query = rng.normal(size=12)
    candidates = venue_indices(vocab)
    ours = nearest(model, query, candidates, 10)
    reference = brute_force_top_k(model.input_vectors, query, candidates, 10)
    assert [row_of(vocab, t) for t, _ in ours] == [i for i, _ in reference]
    for (_, a), (_, b) in zip(ours, reference):
        assert a == pytest.approx(b, abs=1e-12)


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40, deadline=None)
def test_top_k_invariant_under_positive_scaling(toy_model, scale):
    query = np.asarray(row(toy_model, "U:u0"), dtype=np.float64)
    base = nearest(toy_model, query, venue_indices(toy_model.vocab), 4)
    scaled = nearest(toy_model, query * scale, venue_indices(toy_model.vocab), 4)
    assert [t for t, _ in base] == [t for t, _ in scaled]


def test_top_k_tie_break_ascending_index():
    vocab, _ = small_vocab(1, 4)
    config = TrainingConfig(feature_count=2, seed=0)
    model = init_model(vocab, config, dtype=np.float64)
    model.input_vectors[:] = np.ones((5, 2))  # every cosine identical
    top = nearest(model, np.ones(2), venue_indices(vocab), 3)
    assert [t for t, _ in top] == ["V:v0", "V:v1", "V:v2"]


def test_top_k_saturation_returns_all_candidates(toy_model):
    venues = venue_indices(toy_model.vocab)
    top = nearest(toy_model, row(toy_model, "U:u0"), venues, 50)
    assert len(top) == len(venues)
    scores = [s for _, s in top]
    assert scores == sorted(scores, reverse=True)


def test_top_k_zero_norm_query_ranks_nothing(toy_model):
    assert nearest(toy_model, np.zeros(2), venue_indices(toy_model.vocab), 3) == []

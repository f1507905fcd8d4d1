import numpy as np
import pytest
from scipy import sparse

from venue2vec import harness, recommend
from venue2vec.baselines import (
    CF,
    SVD,
    FactorModel,
    ccdpp_factorize,
    svd_factorize,
)
from venue2vec.corpus import build_interactions, build_vocabulary
from venue2vec.harness import ExperimentConfig
from venue2vec.recommend import random_scores, ranked, row_norms, vote_scores

from conftest import community_of, make_records, named_lists, ranked_rows, venues_of, visit_table
from oracles import als_final_objective, ccdpp_reference, jacobi_singular_values


def matrix_from(visits):
    return visit_table(make_records(visits))


# ------------------------------------------------------------- interactions


def test_matrix_counts_and_shape():
    """The table has the vocabulary's shape; pruned at min_count 2, b (one
    check-in) is dropped and so is its record."""
    records = make_records({"a": ["x", "x", "y"], "b": ["y"]})
    for min_count, shape, nnz, total in ((1, (2, 2), 3, 4.0), (2, (1, 2), 2, 3.0)):
        vocab = build_vocabulary(records, min_count)
        matrix = build_interactions(records, vocab)
        assert matrix.shape == (vocab.user_count, len(vocab.venues)) == shape
        assert matrix[vocab.user_index["a"], vocab.venue_index["x"]] == 2.0
        assert matrix.nnz == nnz  # no explicit zeros
        assert matrix.sum() == total


def test_matrix_binary_mode():
    _, matrix = visit_table(make_records({"a": ["x", "x", "y"]}), binary=True)
    assert matrix.max() == 1.0


# ------------------------------------------------------------- CF


def recommend_cf(table, user, neighbors, k, filter_seen=False):
    """CF's list as a run serves it: the neighbor rule over visit-count rows,
    weighted by similarity, without the user's own venues under filter_seen."""
    vocab, visits = table
    config = ExperimentConfig(method=CF, k=k, neighbors=neighbors, filter_seen=filter_seen)
    blocks = harness.serve(
        config,
        vocab,
        visits,
        lambda block: vote_scores(visits, row_norms(visits), visits, block, neighbors, True),
        [user],
    )
    return named_lists(blocks, vocab.venues)[0][1]


def test_cf_twin_users_recommend_missing_venue():
    table = matrix_from({"a": ["x", "y"], "b": ["x", "y", "z"]})
    result = recommend_cf(table, "a", neighbors=1, k=1, filter_seen=True)
    assert venues_of(result) == ["z"]
    assert result[0][1] == pytest.approx(2 / (np.sqrt(2) * np.sqrt(3)))


def test_cf_isolated_user_gets_no_prediction():
    # the "visited venues nobody else ever visited" case
    table = matrix_from(
        {
            "a": ["x", "y"],
            "b": ["x", "z"],
            "loner": ["p1", "p2", "p3"],
        }
    )
    assert not recommend_cf(table, "loner", neighbors=5, k=3)
    assert recommend_cf(table, "a", neighbors=5, k=3)


def test_cf_hand_computed_scores():
    table = matrix_from({"A": ["x", "y"], "B": ["x", "z"], "C": ["y", "z", "w"]})
    result = recommend_cf(table, "A", neighbors=2, k=3, filter_seen=True)
    cos_ab = 0.5
    cos_ac = 1 / np.sqrt(6)
    assert venues_of(result) == ["z", "w"]
    assert result[0][1] == pytest.approx(cos_ab + cos_ac, abs=1e-12)
    assert result[1][1] == pytest.approx(cos_ac, abs=1e-12)


def test_cf_unknown_user_no_prediction():
    table = matrix_from({"a": ["x"]})
    assert not recommend_cf(table, "ghost", neighbors=1, k=1)


def test_cf_all_neighbors_binary_matches_brute_force(rng):
    users = {f"u{i}": [] for i in range(30)}
    venues = [f"v{j}" for j in range(15)]
    for user in users:
        picks = rng.choice(15, size=int(rng.integers(1, 6)), replace=False)
        users[user] = [venues[int(p)] for p in picks]
    vocab, visits = visit_table(make_records(users), binary=True)

    target = "u0"
    result = recommend_cf((vocab, visits), target, neighbors=len(users), k=5, filter_seen=True)

    dense = visits.toarray()
    t = vocab.user_index[target]
    norms = np.linalg.norm(dense, axis=1)
    scores = {}
    for j, venue in enumerate(vocab.venues):
        if dense[t, j]:
            continue
        total = 0.0
        for i in range(len(vocab.users)):
            if i == t or not dense[i, j]:
                continue
            sim = dense[t] @ dense[i] / (norms[t] * norms[i])
            total += sim
        if total > 0:
            scores[venue] = total
    expected = sorted(scores, key=lambda v: (-scores[v], vocab.venue_index[v]))[:5]
    assert venues_of(result) == expected
    for venue, score in result:
        assert score == pytest.approx(scores[venue], abs=1e-12)


# ------------------------------------------------------------- random


def draws(venues, depth, seed, rows=(0,)):
    """Each row's (venues in permutation order, their scores) from random_scores."""
    top = ranked(random_scores(max(rows) + 1, venues, rows, depth, seed), venues)
    return [(columns.tolist(), values.tolist()) for columns, values in ranked_rows(top)]


def test_random_full_catalog_is_permutation():
    [(venues, scores)] = draws(3, 3, seed=1)
    assert sorted(venues) == [0, 1, 2]
    assert scores == [1.0, 1 / 2, 1 / 3]


def test_random_k_above_catalog_returns_all():
    [(venues, _)] = draws(2, 10, seed=0)
    assert sorted(venues) == [0, 1]


def test_random_seeded_determinism():
    first, second = draws(8, 4, seed=7), draws(8, 4, seed=7)
    assert first == second
    assert first != draws(8, 4, seed=8)
    assert first != draws(8, 4, seed=7, rows=(1,))


def test_random_deeper_draw_extends_shallower():
    """A row's depth-d draw is the head of its deeper draws, each venue at
    the same place and score: the seen mask then leaves the unseen venues
    in the order of the full permutation."""
    [full] = draws(8, 8, seed=3, rows=(2,))
    for depth in range(1, 8):
        [head] = draws(8, depth, seed=3, rows=(2,))
        assert head == (full[0][:depth], full[1][:depth])


def test_random_ordered_pairs_are_uniform():
    """Every ordered pair of 4 venues heads a depth-2 draw about equally
    often: over 12,000 seeded rows each of the 12 counts lies within 5
    binomial standard deviations of 1,000. A draw that ordered a stream's
    venues by their last draw instead of their first fails it."""
    rows = 12_000
    counts = {}
    for venues, _ in draws(4, 2, seed=11, rows=range(rows)):
        counts[tuple(venues)] = counts.get(tuple(venues), 0) + 1
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    p = 1 / len(pairs)
    sd = np.sqrt(rows * p * (1 - p))
    assert set(counts) == set(pairs)
    for pair in pairs:
        assert abs(counts[pair] - rows * p) <= 5 * sd, pair


def test_random_places_are_uniform_to_the_end():
    """Each of 5 venues takes each of the 5 places of a full draw about
    equally often: over 10,000 seeded rows each of the 25 (place, venue)
    counts lies within 5 binomial standard deviations of 2,000, so the
    draw stays uniform where most of the catalog is taken."""
    rows, venues = 10_000, 5
    counts = np.zeros((venues, venues), dtype=np.int64)
    for order, _ in draws(venues, venues, seed=13, rows=range(rows)):
        assert sorted(order) == list(range(venues))
        counts[np.arange(venues), order] += 1
    p = 1 / venues
    assert np.all(np.abs(counts - rows * p) <= 5 * np.sqrt(rows * p * (1 - p))), counts


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_random_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        random_scores(1, 4, [0], 2, seed)


def test_random_draw_does_not_depend_on_its_passes(monkeypatch):
    """Drawn one row per pass (DRAW_BLOCK at 1), a block of rows at mixed
    depths, some the whole catalog, stores exactly what one pass stores,
    with sorted indices."""
    depth = np.random.default_rng(5).integers(1, 45, 30)
    whole = random_scores(30, 40, np.arange(30), depth, 9)
    monkeypatch.setattr(recommend, "DRAW_BLOCK", 1)
    passes = random_scores(30, 40, np.arange(30), depth, 9)
    assert whole.has_sorted_indices
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(passes, part), getattr(whole, part))
    assert np.array_equal(np.diff(whole.indptr), np.minimum(depth, 40))


def test_random_precision_matches_analytic_expectation():
    """Uniform draws: E[precision@k] = |relevant| / |catalog|."""
    relevant, k = set(range(5)), 10
    hits = [
        len(set(venues) & relevant) / k
        for seed in range(2000)
        for venues, _ in draws(500, k, seed=seed)
    ]
    expected = len(relevant) / 500
    assert np.mean(hits) == pytest.approx(expected, abs=3e-3)


# ------------------------------------------------------------- SVD


def test_svd_recovers_rank_one_matrix():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([2.0, -1.0, 0.5])
    dense = np.outer(u, v)
    factors = svd_factorize(sparse.csr_matrix(dense), 1, seed=0)
    reconstructed = factors.user_factors @ factors.venue_factors.T
    error = np.linalg.norm(dense - reconstructed) / np.linalg.norm(dense)
    assert error < 1e-6


def random_decaying_matrix(rng, m=50, n=40, ratio=0.75):
    """Random dense matrix with a geometrically decaying spectrum.

    Randomized subspace iteration with 2 power iterations targets spectra
    like this; on flat iid-Gaussian spectra no sketch of this size can reach
    1e-6, so the accuracy contract is stated for decaying inputs.
    """
    left = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :n]
    right = np.linalg.qr(rng.normal(size=(n, n)))[0]
    spectrum = ratio ** np.arange(n)
    return (left * spectrum) @ right


def rank_deficient_visits():
    """A 6 x 5 visit table of rank 4: a and b, d and e visit alike."""
    _, visits = matrix_from(
        {
            "a": ["x", "y"],
            "b": ["x", "y"],
            "c": ["y", "z", "w"],
            "d": ["z", "w"],
            "e": ["z", "w"],
            "f": ["v", "x"],
        }
    )
    return visits


def test_svd_singular_values_match_jacobi_oracle(rng):
    # tall, wide and rank-deficient inputs: each power iteration's one QR is
    # of a rows x sketch block, the long side of a tall matrix, the short of a wide one
    cases = [
        (random_decaying_matrix(rng), 10),
        (random_decaying_matrix(rng, m=120, n=30).T, 10),
        (random_decaying_matrix(rng, m=120, n=30), 10),
        (rank_deficient_visits().toarray(), 4),
    ]
    for dense, rank in cases:
        factors = svd_factorize(sparse.csr_matrix(dense), rank, seed=3)
        oracle = jacobi_singular_values(dense)[:rank]
        np.testing.assert_allclose(factors.singular_values, oracle, rtol=1e-6)


def test_svd_spanning_sketch_exact_on_flat_spectrum(rng):
    # once rank + oversampling covers min(m, n) the sketch spans everything
    # and even a flat spectrum is reproduced to machine precision
    dense = rng.normal(size=(50, 40))
    factors = svd_factorize(sparse.csr_matrix(dense), 30, seed=3)
    oracle = jacobi_singular_values(dense)[:30]
    np.testing.assert_allclose(factors.singular_values, oracle, rtol=1e-9)


def test_svd_left_basis_orthonormal(rng):
    cases = [
        (sparse.csr_matrix(rng.normal(size=(30, 20))), 6),
        (sparse.csr_matrix(rng.normal(size=(90, 12))), 6),
        (rank_deficient_visits(), 4),
    ]
    for matrix, rank in cases:
        factors = svd_factorize(matrix, rank, seed=1)
        basis = factors.user_factors / np.sqrt(factors.singular_values)
        np.testing.assert_allclose(basis.T @ basis, np.eye(rank), atol=1e-8)


def test_svd_rank_clamped_with_warning(rng):
    _, visits = matrix_from({"a": ["x", "y"], "b": ["x"]})
    with pytest.warns(UserWarning):
        factors = svd_factorize(visits, 10, seed=0)
    assert factors.rank <= 2
    # past the tall matrix's 5 columns; past the visit table's rank 4
    for matrix, requested, achieved in (
        (sparse.csr_matrix(rng.normal(size=(12, 5))), 10, 5),
        (rank_deficient_visits(), 10, 4),
        (rank_deficient_visits(), 5, 4),
    ):
        with pytest.warns(UserWarning):
            factors = svd_factorize(matrix, requested, seed=0)
        assert factors.rank == achieved
        assert factors.user_factors.shape == (matrix.shape[0], achieved)


def test_svd_eckart_young_not_beaten_by_als(rng):
    """The rank-r SVD truncation is at least as good (in Frobenius norm) as
    an alternating-least-squares factorization of the same rank."""
    dense = rng.normal(size=(12, 9))
    rank = 3
    factors = svd_factorize(sparse.csr_matrix(dense), rank, seed=0)
    svd_error = np.linalg.norm(dense - factors.user_factors @ factors.venue_factors.T)

    observed = np.ones_like(dense)
    U0 = np.random.default_rng(5).standard_normal((12, rank)) * 0.1
    V0 = np.random.default_rng(6).standard_normal((9, rank)) * 0.1
    tiny = 1e-9
    als_obj = als_final_objective(dense, observed, rank, tiny, U0, V0, iterations=200)
    als_error = np.sqrt(max(als_obj, 0.0))
    assert svd_error <= als_error + 1e-6


# ------------------------------------------------------------- CCD++


def test_ccdpp_objective_non_increasing(rng):
    for trial in range(5):
        m, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        density = 0.6
        dense = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < density)
        rank = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.01, 1.0))
        _, trace = ccdpp_factorize(sparse.csr_matrix(dense), rank, lam, iterations=12, seed=trial)
        diffs = np.diff(trace)
        assert (diffs <= 1e-9).all()


def test_ccdpp_matches_als_oracle_on_4x4():
    dense = np.array(
        [
            [5.0, 3.0, 0.0, 1.0],
            [4.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 5.0],
            [0.0, 1.0, 5.0, 4.0],
        ]
    )
    observed = (dense != 0).astype(float)
    lam = 0.1
    factors, trace = ccdpp_factorize(sparse.csr_matrix(dense), 1, lam, iterations=300, seed=2)

    rng = np.random.default_rng(2)
    U0 = rng.standard_normal((4, 1)) * 0.1
    V0 = rng.standard_normal((4, 1)) * 0.1
    oracle = als_final_objective(dense, observed, 1, lam, U0, V0, iterations=300)
    assert trace[-1] == pytest.approx(oracle, abs=1e-6)


def test_ccdpp_recovers_planted_rank_two(rng):
    U_true = rng.normal(size=(20, 2))
    V_true = rng.normal(size=(15, 2))
    dense = U_true @ V_true.T
    factors, _ = ccdpp_factorize(sparse.csr_matrix(dense), 2, 1e-8, iterations=60, seed=0)
    reconstructed = factors.user_factors @ factors.venue_factors.T
    rel = np.linalg.norm(dense - reconstructed) / np.linalg.norm(dense)
    assert rel < 1e-3


def test_ccdpp_bit_identical_to_column_reference(rng):
    """Factors held one latent index per row give the column loop's factors
    and objective trace byte for byte, at rank 1 and above, wide and tall,
    with a row and a column holding a single entry."""
    for m, n, rank in ((7, 19, 1), (7, 19, 4), (23, 6, 1), (23, 6, 5), (40, 300, 12)):
        dense = rng.integers(1, 5, size=(m, n)) * (rng.random((m, n)) < 0.4)
        dense[:, 1] = 0
        dense[4, 1] = 2
        dense[0] = 0
        dense[0, 2] = 3
        matrix = sparse.csr_matrix(dense.astype(np.float64))
        factors, trace = ccdpp_factorize(matrix, rank, 0.1, iterations=6, seed=m)
        U, V, expected = ccdpp_reference(matrix, rank, 0.1, iterations=6, seed=m)
        assert factors.user_factors.tobytes() == U.tobytes()
        assert factors.venue_factors.tobytes() == V.tobytes()
        assert np.array(trace).tobytes() == np.array(expected).tobytes()


def test_ccdpp_parameter_validation():
    _, visits = matrix_from({"a": ["x"]})
    with pytest.raises(ValueError):
        ccdpp_factorize(visits, 1, 0.0)
    with pytest.raises(ValueError):
        ccdpp_factorize(visits, 1, 0.1, iterations=0)


# ------------------------------------------------------------- latent neighbors


def recommend_latent_neighbors(factors, table, user, neighbors, k):
    """The latent rule: the neighbor rule over user-latent rows, unit votes."""
    vocab, visits = table
    config = ExperimentConfig(method=SVD, k=k, neighbors=neighbors)
    rows = factors.user_factors
    norms = row_norms(rows)
    blocks = harness.serve(
        config,
        vocab,
        visits,
        lambda block: vote_scores(rows, norms, visits, block, neighbors, False),
        [user],
    )
    return named_lists(blocks, vocab.venues)[0][1]


def test_latent_neighbor_takes_neighbors_venues():
    table = matrix_from({"a": ["x", "y"], "b": ["x", "z"], "c": ["w"]})
    latent = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]])
    factors = FactorModel(
        user_factors=latent,
        venue_factors=np.zeros((4, 2)),
        rank=2,
    )
    result = recommend_latent_neighbors(factors, table, "a", neighbors=1, k=2)
    assert set(venues_of(result)) == {"x", "z"}  # b's venues, vote weight 1 each


def test_latent_identical_rows_are_top_neighbors():
    table = matrix_from({"a": ["x"], "b": ["y"], "c": ["z"]})
    latent = np.array([[0.5, 0.5], [0.5, 0.5], [-0.9, 0.1]])
    factors = FactorModel(latent, np.zeros((3, 2)), 2)
    result = recommend_latent_neighbors(factors, table, "a", neighbors=1, k=1)
    assert venues_of(result) == ["y"]  # b is a's perfect cosine twin


def test_latent_neighbor_exact_k_forced():
    table = matrix_from({"a": ["x"], "b": ["p", "q"]})
    latent = np.array([[1.0, 0.0], [0.8, 0.2]])
    factors = FactorModel(latent, np.zeros((3, 2)), 2)
    result = recommend_latent_neighbors(factors, table, "a", neighbors=1, k=2)
    assert set(venues_of(result)) == {"p", "q"}


def test_latent_pipeline_stays_in_community(community_dataset):
    dataset = community_dataset
    table = visit_table(dataset.train)
    factors = svd_factorize(table[1], 8, seed=0)
    for user in ("c0u1", "c1u2"):
        result = recommend_latent_neighbors(factors, table, user, neighbors=5, k=10)
        assert result
        for venue, _ in result:
            assert community_of(venue) == community_of(user)

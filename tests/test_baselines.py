import numpy as np
import pytest

from venue2vec import harness
from venue2vec.baselines import (
    CF,
    SVD,
    FactorModel,
    ccdpp_factorize,
    recommend_random,
    svd_factorize,
)
from venue2vec.corpus import build_interactions
from venue2vec.harness import ExperimentConfig
from venue2vec.recommend import vote_scores

from conftest import community_of, make_records
from oracles import als_final_objective, jacobi_singular_values


def matrix_from(visits):
    return build_interactions(make_records(visits))


def wrap_dense(dense):
    """An InteractionMatrix carrying an arbitrary dense matrix, for the
    factorization tests that need full control over the entries."""
    from scipy import sparse

    m, n = dense.shape
    im = build_interactions(
        make_records({f"u{i}": [f"v{j}" for j in range(n)] for i in range(m)})
    )
    im.matrix = sparse.csr_matrix(dense)
    return im


# ------------------------------------------------------------- interactions


def test_matrix_counts_and_shape():
    im = matrix_from({"a": ["x", "x", "y"], "b": ["y"]})
    assert im.shape == (2, 2)
    assert im.matrix[im.user_index["a"], im.venue_index["x"]] == 2.0
    assert im.matrix.nnz == 3  # no explicit zeros


def test_matrix_binary_mode():
    im = build_interactions(
        make_records({"a": ["x", "x", "y"]}), binary=True
    )
    assert im.matrix.max() == 1.0


# ------------------------------------------------------------- CF


def recommend_cf(im, user, neighbors, k, filter_seen=False):
    """CF's list as a run serves it: the neighbor rule over visit-count rows,
    weighted by similarity, without the user's own venues under filter_seen."""
    config = ExperimentConfig(method=CF, k=k, neighbors=neighbors, filter_seen=filter_seen)
    recommend_users = harness.serve(
        config,
        im,
        lambda block: vote_scores(im.matrix, im.row_norms, im.matrix, block, neighbors, True),
    )
    return next(recommend_users([user]))


def test_cf_twin_users_recommend_missing_venue():
    im = matrix_from({"a": ["x", "y"], "b": ["x", "y", "z"]})
    result = recommend_cf(im, "a", neighbors=1, k=1, filter_seen=True)
    assert result.venues() == ["z"]
    assert result.items[0][1] == pytest.approx(2 / (np.sqrt(2) * np.sqrt(3)))


def test_cf_isolated_user_gets_no_prediction():
    # the "visited venues nobody else ever visited" case
    im = matrix_from(
        {
            "a": ["x", "y"],
            "b": ["x", "z"],
            "loner": ["p1", "p2", "p3"],
        }
    )
    assert not recommend_cf(im, "loner", neighbors=5, k=3).predicted
    assert recommend_cf(im, "a", neighbors=5, k=3).predicted


def test_cf_hand_computed_scores():
    im = matrix_from({"A": ["x", "y"], "B": ["x", "z"], "C": ["y", "z", "w"]})
    result = recommend_cf(im, "A", neighbors=2, k=3, filter_seen=True)
    cos_ab = 0.5
    cos_ac = 1 / np.sqrt(6)
    assert result.venues() == ["z", "w"]
    assert result.items[0][1] == pytest.approx(cos_ab + cos_ac, abs=1e-12)
    assert result.items[1][1] == pytest.approx(cos_ac, abs=1e-12)


def test_cf_unknown_user_no_prediction():
    im = matrix_from({"a": ["x"]})
    assert not recommend_cf(im, "ghost", neighbors=1, k=1).predicted


def test_cf_all_neighbors_binary_matches_brute_force(rng):
    users = {f"u{i}": [] for i in range(30)}
    venues = [f"v{j}" for j in range(15)]
    for user in users:
        picks = rng.choice(15, size=int(rng.integers(1, 6)), replace=False)
        users[user] = [venues[int(p)] for p in picks]
    im = build_interactions(make_records(users), binary=True)

    target = "u0"
    result = recommend_cf(im, target, neighbors=len(users), k=5, filter_seen=True)

    dense = im.matrix.toarray()
    t = im.user_index[target]
    norms = np.linalg.norm(dense, axis=1)
    scores = {}
    for j, venue in enumerate(im.venues):
        if dense[t, j]:
            continue
        total = 0.0
        for i in range(len(im.users)):
            if i == t or not dense[i, j]:
                continue
            sim = dense[t] @ dense[i] / (norms[t] * norms[i])
            total += sim
        if total > 0:
            scores[venue] = total
    expected = sorted(scores, key=lambda v: (-scores[v], im.venue_index[v]))[:5]
    assert result.venues() == expected
    for venue, score in result.items:
        assert score == pytest.approx(scores[venue], abs=1e-12)


# ------------------------------------------------------------- random


def test_random_full_catalog_is_permutation():
    result = recommend_random(["a", "b", "c"], "u", k=3, seed=1, seen=())
    assert sorted(result.venues()) == ["a", "b", "c"]


def test_random_k_above_catalog_returns_all():
    result = recommend_random(["a", "b"], "u", k=10, seed=0, seen=())
    assert sorted(result.venues()) == ["a", "b"]


def test_random_seeded_determinism():
    first = recommend_random(list("abcdefgh"), "u", k=4, seed=7, seen=())
    second = recommend_random(list("abcdefgh"), "u", k=4, seed=7, seen=())
    assert first.venues() == second.venues()
    third = recommend_random(list("abcdefgh"), "u", k=4, seed=8, seen=())
    assert first.venues() != third.venues()


def test_random_seen_venues_are_skipped_in_permutation_order():
    """With seen positions the list is the unfiltered permutation without
    them, each venue keeping its score 1 / (1 + place in the permutation)."""
    catalog = list("abcdefgh")
    full = recommend_random(catalog, "u", k=8, seed=3, seen=())
    seen = [catalog.index(v) for v in full.venues()[:5:2]]
    unseen = recommend_random(catalog, "u", k=3, seed=3, seen=seen)
    expected = [(v, s) for v, s in full.items if catalog.index(v) not in seen][:3]
    assert unseen.items == expected


def test_random_precision_matches_analytic_expectation(rng):
    """Uniform draws: E[precision@k] = |relevant| / |catalog|."""
    catalog = [f"v{i}" for i in range(500)]
    relevant = set(catalog[:5])
    k = 10
    hits = []
    for seed in range(2000):
        picks = recommend_random(catalog, "u", k=k, seed=seed, seen=()).venues()
        hits.append(len(set(picks) & relevant) / k)
    expected = len(relevant) / len(catalog)
    assert np.mean(hits) == pytest.approx(expected, abs=3e-3)


# ------------------------------------------------------------- SVD


def test_svd_recovers_rank_one_matrix():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([2.0, -1.0, 0.5])
    dense = np.outer(u, v)
    factors = svd_factorize(wrap_dense(dense), 1, seed=0)
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


def test_svd_singular_values_match_jacobi_oracle(rng):
    dense = random_decaying_matrix(rng)
    factors = svd_factorize(wrap_dense(dense), 10, seed=3)
    oracle = jacobi_singular_values(dense)[:10]
    np.testing.assert_allclose(factors.singular_values, oracle, rtol=1e-6)


def test_svd_spanning_sketch_exact_on_flat_spectrum(rng):
    # once rank + oversampling covers min(m, n) the sketch spans everything
    # and even a flat spectrum is reproduced to machine precision
    dense = rng.normal(size=(50, 40))
    factors = svd_factorize(wrap_dense(dense), 30, seed=3)
    oracle = jacobi_singular_values(dense)[:30]
    np.testing.assert_allclose(factors.singular_values, oracle, rtol=1e-9)


def test_svd_left_basis_orthonormal(rng):
    dense = rng.normal(size=(30, 20))
    factors = svd_factorize(wrap_dense(dense), 6, seed=1)
    basis = factors.user_factors / np.sqrt(factors.singular_values)
    np.testing.assert_allclose(basis.T @ basis, np.eye(6), atol=1e-8)


def test_svd_rank_clamped_with_warning():
    im = matrix_from({"a": ["x", "y"], "b": ["x"]})
    with pytest.warns(UserWarning):
        factors = svd_factorize(im, 10, seed=0)
    assert factors.rank <= 2


def test_svd_eckart_young_not_beaten_by_als(rng):
    """The rank-r SVD truncation is at least as good (in Frobenius norm) as
    an alternating-least-squares factorization of the same rank."""
    dense = rng.normal(size=(12, 9))
    rank = 3
    factors = svd_factorize(wrap_dense(dense), rank, seed=0)
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
        _, trace = ccdpp_factorize(wrap_dense(dense), rank, lam, iterations=12, seed=trial)
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
    factors, trace = ccdpp_factorize(wrap_dense(dense), 1, lam, iterations=300, seed=2)

    rng = np.random.default_rng(2)
    U0 = rng.standard_normal((4, 1)) * 0.1
    V0 = rng.standard_normal((4, 1)) * 0.1
    oracle = als_final_objective(dense, observed, 1, lam, U0, V0, iterations=300)
    assert trace[-1] == pytest.approx(oracle, abs=1e-6)


def test_ccdpp_recovers_planted_rank_two(rng):
    U_true = rng.normal(size=(20, 2))
    V_true = rng.normal(size=(15, 2))
    dense = U_true @ V_true.T
    factors, _ = ccdpp_factorize(wrap_dense(dense), 2, 1e-8, iterations=60, seed=0)
    reconstructed = factors.user_factors @ factors.venue_factors.T
    rel = np.linalg.norm(dense - reconstructed) / np.linalg.norm(dense)
    assert rel < 1e-3


def test_ccdpp_parameter_validation():
    im = matrix_from({"a": ["x"]})
    with pytest.raises(ValueError):
        ccdpp_factorize(im, 1, 0.0)
    with pytest.raises(ValueError):
        ccdpp_factorize(im, 1, 0.1, iterations=0)


# ------------------------------------------------------------- latent neighbors


def recommend_latent_neighbors(factors, im, user, neighbors, k):
    """The latent rule: the neighbor rule over user-latent rows, unit votes."""
    config = ExperimentConfig(method=SVD, k=k, neighbors=neighbors)
    rows, norms = factors.user_factors, factors.user_norms
    recommend_users = harness.serve(
        config,
        im,
        lambda block: vote_scores(rows, norms, im.matrix, block, neighbors, False),
    )
    return next(recommend_users([user]))


def test_latent_neighbor_takes_neighbors_venues():
    im = matrix_from({"a": ["x", "y"], "b": ["x", "z"], "c": ["w"]})
    latent = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]])
    factors = FactorModel(
        user_factors=latent,
        venue_factors=np.zeros((4, 2)),
        rank=2,
    )
    result = recommend_latent_neighbors(factors, im, "a", neighbors=1, k=2)
    assert set(result.venues()) == {"x", "z"}  # b's venues, vote weight 1 each


def test_latent_identical_rows_are_top_neighbors():
    im = matrix_from({"a": ["x"], "b": ["y"], "c": ["z"]})
    latent = np.array([[0.5, 0.5], [0.5, 0.5], [-0.9, 0.1]])
    factors = FactorModel(latent, np.zeros((3, 2)), 2)
    result = recommend_latent_neighbors(factors, im, "a", neighbors=1, k=1)
    assert result.venues() == ["y"]  # b is a's perfect cosine twin


def test_latent_neighbor_exact_k_forced():
    im = matrix_from({"a": ["x"], "b": ["p", "q"]})
    latent = np.array([[1.0, 0.0], [0.8, 0.2]])
    factors = FactorModel(latent, np.zeros((3, 2)), 2)
    result = recommend_latent_neighbors(factors, im, "a", neighbors=1, k=2)
    assert set(result.venues()) == {"p", "q"}


def test_latent_pipeline_stays_in_community(community_dataset):
    dataset, _ = community_dataset
    im = build_interactions(dataset.train)
    factors = svd_factorize(im, 8, seed=0)
    for user in ("c0u1", "c1u2"):
        result = recommend_latent_neighbors(factors, im, user, neighbors=5, k=10)
        assert result.predicted
        for venue, _ in result.items:
            assert community_of(venue) == community_of(user)

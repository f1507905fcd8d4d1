"""Classical comparison recommenders: user CF, Random, SVD and CCD++ factorization.

The two factorization baselines share the latent-neighbor recommendation rule:
find neighbors in the user-latent space, then vote venues by the neighbors'
visit counts exactly like the NN strategy does in embedding space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import InteractionMatrix
from .errors import SimilarityError
from .recommend import RecommendationList, _neighbor_rows, rank_votes, vote_by_visit_counts

CF = "cf"
RANDOM = "random"
SVD = "svd"
CCDPP = "ccdpp"

SVD_OVERSAMPLING = 10  # extra sketch columns beyond the rank
SVD_POWER_ITERATIONS = 2  # subspace iterations that sharpen the sketch
CCDPP_INNER_SWEEPS = 2  # alternating u/v updates per latent index


def recommend_cf(
    im: InteractionMatrix,
    user: str,
    neighbors: int,
    k: int,
) -> RecommendationList:
    """Classic user-based CF over raw visit-count rows.

    Neighbors are the top-N users by cosine with strictly positive
    similarity; venues are scored by the similarity-weighted sum of neighbor
    entries. A user sharing no venue with anyone gets no prediction, which
    is what drags CF coverage below 1. The user's own venues are never
    recommended.
    """
    index = im.user_index.get(user)
    if index is None:
        return RecommendationList(user, CF)
    try:
        rows, sims = _neighbor_rows(
            im.matrix, im.row_norms, im.matrix[index].toarray().ravel(), index, neighbors
        )
    except SimilarityError:
        return RecommendationList(user, CF)
    positive = sims > 0.0
    votes = vote_by_visit_counts(im.matrix, rows[positive], sims[positive])
    votes[im.venues_of(user)] = 0.0
    return RecommendationList(user, CF, rank_votes(votes, k, im.venues))


def recommend_random(
    catalog: Sequence[str], user: str, k: int, seed: int
) -> RecommendationList:
    """k distinct venues drawn uniformly without replacement from the catalog."""
    if not catalog:
        raise ValueError("random recommender needs a non-empty venue catalog")
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(catalog))[:k]
    items = [(catalog[int(i)], 1.0 / (rank + 1)) for rank, i in enumerate(picks)]
    return RecommendationList(user, RANDOM, items)


@dataclass
class FactorModel:
    """Low-rank factors of an interaction matrix."""

    user_factors: np.ndarray
    venue_factors: np.ndarray
    rank: int
    regularization: float
    users: list[str]
    venues: list[str]
    singular_values: np.ndarray | None = None

    @cached_property
    def user_norms(self) -> np.ndarray:
        return np.linalg.norm(self.user_factors, axis=1)


def svd_factorize(
    im: InteractionMatrix,
    rank: int,
    *,
    seed: int = 0,
) -> FactorModel:
    """Rank-r truncated SVD by randomized subspace iteration.

    The latent user matrix is U_r * diag(sqrt(s)) (and symmetrically for
    venues), i.e. the dimension-reduced factors used for latent-neighbor
    recommendation. Requesting more than the achievable rank returns the
    achieved rank with a warning.
    """
    m, n = im.shape
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > min(m, n):
        warnings.warn(
            f"rank {rank} exceeds matrix dimensions {im.shape}; clamping",
            stacklevel=2,
        )
        rank = min(m, n)
    rng = np.random.default_rng(seed)
    sketch = min(rank + SVD_OVERSAMPLING, min(m, n))
    matrix = im.matrix
    probe = rng.standard_normal((n, sketch))
    basis, _ = np.linalg.qr(matrix @ probe)
    for _ in range(SVD_POWER_ITERATIONS):
        basis, _ = np.linalg.qr(matrix.T @ basis)
        basis, _ = np.linalg.qr(matrix @ basis)
    projected = basis.T @ matrix  # (sketch, n) dense
    left_small, values, right = np.linalg.svd(projected, full_matrices=False)
    left = basis @ left_small

    achieved = int(np.sum(values > values[0] * 1e-12)) if values.size else 0
    if achieved < rank:
        warnings.warn(
            f"matrix rank {achieved} below requested rank {rank}; truncating",
            stacklevel=2,
        )
        rank = max(achieved, 1)
    values = values[:rank]
    scale = np.sqrt(values)
    return FactorModel(
        user_factors=left[:, :rank] * scale,
        venue_factors=right[:rank].T * scale,
        rank=rank,
        regularization=0.0,
        users=list(im.users),
        venues=list(im.venues),
        singular_values=values.copy(),
    )


def ccdpp_factorize(
    im: InteractionMatrix,
    rank: int,
    regularization: float = 0.1,
    iterations: int = 15,
    *,
    seed: int = 0,
) -> tuple[FactorModel, list[float]]:
    """CCD++ factorization of the observed entries.

    Minimizes sum over observed (a_uv - U_u . V_v)^2 + lam (|U|^2 + |V|^2) by
    rank-one sweeps: for each latent index the corresponding columns of U and
    V are updated in closed form over the residual matrix. Returns the model
    and the objective value after each outer iteration (non-increasing by
    construction of the coordinate updates).
    """
    if regularization <= 0:
        raise ValueError("regularization must be > 0")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m, n = im.shape
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, rank)) * 0.1
    V = rng.standard_normal((n, rank)) * 0.1

    csr = im.matrix.tocsr()
    rows = np.repeat(np.arange(m), np.diff(csr.indptr))
    cols = csr.indices.astype(np.int64)
    residual = csr.data.astype(np.float64).copy()
    for t in range(rank):
        residual -= U[rows, t] * V[cols, t]

    trace: list[float] = []
    for _ in range(iterations):
        for t in range(rank):
            u = U[:, t].copy()
            v = V[:, t].copy()
            local = residual + u[rows] * v[cols]
            for _ in range(CCDPP_INNER_SWEEPS):
                denom_u = regularization + np.bincount(
                    rows, weights=v[cols] ** 2, minlength=m
                )
                u = np.bincount(rows, weights=local * v[cols], minlength=m) / denom_u
                denom_v = regularization + np.bincount(
                    cols, weights=u[rows] ** 2, minlength=n
                )
                v = np.bincount(cols, weights=local * u[rows], minlength=n) / denom_v
            residual = local - u[rows] * v[cols]
            U[:, t] = u
            V[:, t] = v
        objective = float(
            residual @ residual
            + regularization * (np.sum(U * U) + np.sum(V * V))
        )
        trace.append(objective)

    model = FactorModel(
        user_factors=U,
        venue_factors=V,
        rank=rank,
        regularization=regularization,
        users=list(im.users),
        venues=list(im.venues),
    )
    return model, trace


def recommend_latent_neighbors(
    factors: FactorModel,
    im: InteractionMatrix,
    user: str,
    neighbors: int,
    k: int,
    *,
    method: str = SVD,
) -> RecommendationList:
    """Neighbors by cosine over user-latent rows, then the NN vote rule."""
    index = im.user_index.get(user)
    if index is None or index >= len(factors.user_factors):
        return RecommendationList(user, method)
    try:
        latent = factors.user_factors
        rows, _ = _neighbor_rows(latent, factors.user_norms, latent[index], index, neighbors)
    except SimilarityError:
        return RecommendationList(user, method)
    votes = vote_by_visit_counts(im.matrix, rows, np.ones(len(rows)))
    return RecommendationList(user, method, rank_votes(votes, k, im.venues))

"""Classical comparison recommenders: user CF, Random, SVD and CCD++ factorization.

CF and the two factorization baselines score through NN's neighbor rule
(recommend.vote_scores): CF picks neighbors among visit-count rows
and weights their votes by similarity, SVD and CCD++ pick them among
user-latent rows and vote like NN. Random needs no model: its score rule is
recommend.random_scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

CF = "cf"
RANDOM = "random"
SVD = "svd"
CCDPP = "ccdpp"

SVD_OVERSAMPLING = 10  # extra sketch columns beyond the rank
SVD_POWER_ITERATIONS = 2  # subspace iterations that sharpen the sketch
CCDPP_INNER_SWEEPS = 2  # alternating u/v updates per latent index


@dataclass
class FactorModel:
    """Low-rank factors of an interaction matrix."""

    user_factors: np.ndarray
    venue_factors: np.ndarray
    rank: int
    singular_values: np.ndarray | None = None


def svd_factorize(
    matrix: sparse.csr_matrix,
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
    m, n = matrix.shape
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > min(m, n):
        warnings.warn(
            f"rank {rank} exceeds matrix dimensions {matrix.shape}; clamping",
            stacklevel=2,
        )
        rank = min(m, n)
    rng = np.random.default_rng(seed)
    sketch = min(rank + SVD_OVERSAMPLING, min(m, n))
    probe = rng.standard_normal((n, sketch))
    basis, _ = np.linalg.qr(matrix @ probe)
    for _ in range(SVD_POWER_ITERATIONS):
        # one QR per application of A A^T: the subspace needs only the range
        # of A A^T Q (Halko, Martinsson & Tropp, SIAM Review 2011)
        basis, _ = np.linalg.qr(matrix @ (matrix.T @ basis))
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
        singular_values=values.copy(),
    )


def ccdpp_factorize(
    matrix: sparse.csr_matrix,
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

    Each half-step of an inner sweep is one sparse product over one (2m x 2n)
    block-diagonal CSR matrix both = [[L, 0], [0, P]], built once per call:
    L holds the observed pattern with the current rank-one target (the
    residual plus the latent index's own term) as its data, P the same
    pattern with every entry 1. both @ [v, v*v] gives each user's numerator
    sum(L_uv v_v) and denominator sum(v_v^2) at once, and both.T @ [u, u*u]
    (the CSC view of the same arrays) each venue's. CSR's product adds each
    row's terms in stored order from 0, and the CSC view's scatters into
    each column in that same order, which is the order bincount over the
    entries' rows or columns adds them in, with the same rounded products,
    so the factors and trace are those of the per-entry bincount form
    (tests/oracles.ccdpp_reference).
    """
    if regularization <= 0:
        raise ValueError("regularization must be > 0")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m, n = matrix.shape
    rng = np.random.default_rng(seed)
    # transposed: latent index t is row t of U and of V, one contiguous run
    U = np.ascontiguousarray((rng.standard_normal((m, rank)) * 0.1).T)
    V = np.ascontiguousarray((rng.standard_normal((n, rank)) * 0.1).T)

    csr = matrix.tocsr()
    nnz, indptr = len(csr.indices), csr.indptr.astype(np.int64)
    rows = np.repeat(np.arange(m), np.diff(indptr))
    cols = csr.indices.astype(np.int64)
    residual = csr.data.astype(np.float64)
    for u, v in zip(U, V):
        residual -= u[rows] * v[cols]

    # built from new arrays: local is written in place, never matrix's data
    both = sparse.csr_matrix(
        (
            np.concatenate((np.zeros(nnz), np.ones(nnz))),
            np.concatenate((cols, cols + n)),
            np.concatenate((indptr[:-1], indptr + nnz)),
        ),
        shape=(2 * m, 2 * n),
    )
    by_venue = both.T
    local = both.data[:nnz]
    # a factor column, then its squares: one product's operand
    us, vs = np.empty(2 * m), np.empty(2 * n)
    trace: list[float] = []
    for _ in range(iterations):
        for u, v in zip(U, V):
            np.add(residual, u[rows] * v[cols], out=local)
            for _ in range(CCDPP_INNER_SWEEPS):
                vs[:n] = v
                np.multiply(v, v, out=vs[n:])
                sums = both @ vs
                np.divide(sums[:m], regularization + sums[m:], out=u)
                us[:m] = u
                np.multiply(u, u, out=us[m:])
                sums = by_venue @ us
                np.divide(sums[:n], regularization + sums[n:], out=v)
            np.subtract(local, u[rows] * v[cols], out=residual)
        # squared in the returned (rows, rank) layout: each sum adds in that order
        squares = np.sum(np.square(U.T, order="C")) + np.sum(np.square(V.T, order="C"))
        trace.append(float(residual @ residual + regularization * squares))

    return FactorModel(np.ascontiguousarray(U.T), np.ascontiguousarray(V.T), rank), trace


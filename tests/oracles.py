"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: losses are
written from the formula, top-k selection is a plain scored sort, the SVD
oracle is one-sided Jacobi, the factorization oracle is full alternating
least squares, the CCD++ reference is the column-at-a-time loop the library
replaced, the SGNS step reference is the two-scatter step the library
replaced, the neighbor vote sums per-user Counters, the check-in parser is
the per-line loop the library replaced, training sentences sort each user's
records in Python, and report recomputation reads the raw CSV text.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
from scipy import sparse

from venue2vec.embedding import _sgns_update
from venue2vec.errors import FormatError

CLAMP = 30.0


def sgns_loss_reference(center, context, negatives) -> float:
    """Negative-sampling loss straight from its definition."""

    def sigmoid(x: float) -> float:
        return 1.0 / (1.0 + math.exp(-x))

    def clamped_dot(a, b) -> float:
        return min(max(float(np.dot(a, b)), -CLAMP), CLAMP)

    loss = -math.log(sigmoid(clamped_dot(center, context)))
    for negative in negatives:
        loss += -math.log(sigmoid(-clamped_dot(center, negative)))
    return loss


def finite_difference_gradients(center, context, negatives, h: float = 1e-6):
    """Central-difference gradients of sgns_loss_reference for every vector."""

    def grad_of(vector, rebuild):
        vector = np.array(vector, dtype=np.float64)
        grad = np.zeros_like(vector)
        for i in range(vector.size):
            bumped = vector.copy()
            bumped[i] += h
            hi = sgns_loss_reference(*rebuild(bumped))
            bumped[i] -= 2 * h
            lo = sgns_loss_reference(*rebuild(bumped))
            grad[i] = (hi - lo) / (2 * h)
        return grad

    negatives = [np.array(n, dtype=np.float64) for n in negatives]
    grad_center = grad_of(center, lambda v: (v, context, negatives))
    grad_context = grad_of(context, lambda v: (center, v, negatives))
    grad_negatives = []
    for index in range(len(negatives)):
        def rebuild(v, index=index):
            swapped = list(negatives)
            swapped[index] = v
            return (center, context, swapped)

        grad_negatives.append(grad_of(negatives[index], rebuild))
    return grad_center, grad_context, np.array(grad_negatives)


def brute_force_top_k(matrix, query, candidate_indices, k):
    """Exhaustive cosine scan with (-score, index) ordering; O(n * F)."""
    query = np.asarray(query, dtype=np.float64)
    query_norm = math.sqrt(float(query @ query))
    scored = []
    for index in candidate_indices:
        row = np.asarray(matrix[int(index)], dtype=np.float64)
        row_norm = math.sqrt(float(row @ row))
        if row_norm == 0.0:
            score = 0.0
        else:
            score = float(row @ query) / (row_norm * query_norm)
        scored.append((-score, int(index)))
    scored.sort()
    return [(index, -neg_score) for neg_score, index in scored[:k]]


def top_k_reference(scores, k) -> np.ndarray:
    """Positions of the k highest scores above -inf, by descending score,
    ties by ascending position: the plain (-score, position) lexsort of the
    entries above -inf, cut to k."""
    scores = np.asarray(scores, dtype=np.float64)
    live = np.flatnonzero(scores > -np.inf)
    return live[np.lexsort((live, -scores[live]))][:k]


def jacobi_singular_values(matrix, tol: float = 1e-13, max_sweeps: int = 60):
    """Singular values via one-sided Jacobi rotations on the columns."""
    work = np.array(matrix, dtype=np.float64, copy=True)
    if work.shape[0] < work.shape[1]:
        work = work.T
    n = work.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                col_i = work[:, i]
                col_j = work[:, j]
                aii = float(col_i @ col_i)
                ajj = float(col_j @ col_j)
                aij = float(col_i @ col_j)
                if aii * ajj > 0:
                    off = max(off, abs(aij) / math.sqrt(aii * ajj))
                if aij == 0.0:
                    continue
                tau = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                saved = col_i.copy()
                work[:, i] = c * saved - s * col_j
                work[:, j] = s * saved + c * col_j
        if off < tol:
            break
    values = np.sqrt(np.sum(work * work, axis=0))
    return np.sort(values)[::-1]


def als_final_objective(
    dense, observed, rank, regularization, U0, V0, iterations: int = 300
) -> float:
    """Full alternating least squares on the observed-entry objective.

    Row-wise ridge solves, run from the given init until (practical)
    convergence; returns the final objective value.
    """
    U = np.array(U0, dtype=np.float64, copy=True)
    V = np.array(V0, dtype=np.float64, copy=True)
    eye = np.eye(rank)
    m, n = dense.shape
    for _ in range(iterations):
        for i in range(m):
            cols = np.flatnonzero(observed[i])
            if cols.size:
                block = V[cols]
                U[i] = np.linalg.solve(
                    block.T @ block + regularization * eye,
                    block.T @ dense[i, cols],
                )
        for j in range(n):
            rows = np.flatnonzero(observed[:, j])
            if rows.size:
                block = U[rows]
                V[j] = np.linalg.solve(
                    block.T @ block + regularization * eye,
                    block.T @ dense[rows, j],
                )
    residual = (dense - U @ V.T) * observed
    return float(
        (residual**2).sum() + regularization * ((U**2).sum() + (V**2).sum())
    )


def ccdpp_reference(matrix, rank, regularization=0.1, iterations=15, *, seed=0):
    """CCD++ with U and V as (rows, rank) arrays, one latent column copied out
    per rank-one update; returns (U, V, objective after each outer iteration)."""
    m, n = matrix.shape
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, rank)) * 0.1
    V = rng.standard_normal((n, rank)) * 0.1

    csr = matrix.tocsr()
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
            for _ in range(2):  # baselines.CCDPP_INNER_SWEEPS
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

    return U, V, trace


def _by_token(tokens, indptr, weights):
    """The distinct tokens of a minibatch and a (distinct x rows) matrix that
    adds each row's vector, times its weight, to each of its tokens."""
    distinct, index = np.unique(tokens, return_inverse=True)
    matrix = sparse.csc_matrix(
        (weights, index, indptr), shape=(distinct.size, indptr.size - 1)
    )
    return distinct, matrix


def sgns_step_reference(inputs, outputs, members, indptr, targets, rates) -> float:
    """One minibatch SGNS step over separate input and output arrays, in
    place: the tested _sgns_update between two np.unique calls and two csc
    products, one per array; returns the summed loss."""
    dtype = inputs.dtype
    distinct_in, in_rows = _by_token(members, indptr, np.ones(members.size, dtype=dtype))
    if members.size == targets.shape[0]:
        hidden = inputs[members]
    else:
        sizes = np.diff(indptr).astype(dtype)
        hidden = (in_rows.T @ inputs[distinct_in]) / sizes[:, None]
    losses, coefficients, hidden_steps = _sgns_update(hidden, outputs[targets], rates)
    rows, width = targets.shape
    distinct_out, out_rows = _by_token(
        targets.ravel(), np.arange(0, rows * width + 1, width), coefficients.ravel()
    )
    outputs[distinct_out] += out_rows @ hidden
    inputs[distinct_in] += in_rows @ hidden_steps
    return float(losses.sum(dtype=np.float64))


def interactions_reference(records) -> dict[str, Counter]:
    """Per-user venue visit counts as a dict of Counters."""
    interactions: dict[str, Counter] = {}
    for user, venue, _ in records:
        interactions.setdefault(user, Counter())[venue] += 1
    return interactions


def vote_reference(
    neighbor_ids, interactions, *, weights=None, binary=False, allowed=None, excluded=()
) -> Counter:
    """Sum neighbor votes per venue, neighbor by neighbor: each visit count
    (1 per visited venue in binary mode) times the neighbor's weight."""
    votes: Counter = Counter()
    weights = [1.0] * len(neighbor_ids) if weights is None else weights
    for neighbor, weight in zip(neighbor_ids, weights):
        for venue, count in interactions.get(neighbor, {}).items():
            if venue in excluded:
                continue
            if allowed is not None and not allowed(venue):
                continue
            votes[venue] += weight * (1.0 if binary else float(count))
    return votes


def rank_votes_reference(votes: Counter, k: int, index_of) -> list[tuple[str, float]]:
    """Top-k venues by vote, ties by ascending index_of(venue)."""
    ranked = sorted(votes, key=lambda venue: (-votes[venue], index_of(venue)))[:k]
    return [(venue, float(votes[venue])) for venue in ranked]


def context_pairs_reference(lengths, radii):
    """(center, context) position pairs by a loop over positions.

    Sentences lie end to end; each position pairs with every other position
    of its own sentence at most its radius away, centers in order, then
    contexts in order.
    """
    pairs = []
    start = 0
    for length in lengths:
        for pos in range(start, start + length):
            radius = int(radii[pos])
            for ctx in range(max(start, pos - radius), min(start + length, pos + radius + 1)):
                if ctx != pos:
                    pairs.append((pos, ctx))
        start += length
    return pairs


def two_token_scalar_reference(
    epochs: int = 1500,
    dim: int = 16,
    negatives: int = 5,
    lr0: float = 0.025,
    lr_min: float = 1e-4,
    seed: int = 0,
):
    """Plain-float SGD on the degenerate corpus of one [user, venue] sentence.

    With only two tokens the sole legal negative for each positive pair is
    the center itself, so the input vectors are pushed apart while each
    input aligns with the other token's output vector. Returns
    (cos(in_u, in_v), cos(in_u, out_v)).
    """
    rng = random.Random(seed)
    vec_in = [[(rng.random() - 0.5) / dim for _ in range(dim)] for _ in range(2)]
    vec_out = [[0.0] * dim for _ in range(2)]

    def sigmoid(x: float) -> float:
        return 1.0 / (1.0 + math.exp(-max(-CLAMP, min(CLAMP, x))))

    def dot(a, b) -> float:
        return sum(x * y for x, y in zip(a, b))

    total = 2 * epochs
    done = 0
    for _ in range(epochs):
        for center, context in ((0, 1), (1, 0)):
            rate = max(lr_min, lr0 - (lr0 - lr_min) * done / total)
            targets = [context] + [center] * negatives
            labels = [1.0] + [0.0] * negatives
            grad_center = [0.0] * dim
            for target, label in zip(targets, labels):
                g = (label - sigmoid(dot(vec_in[center], vec_out[target]))) * rate
                for d in range(dim):
                    grad_center[d] += g * vec_out[target][d]
                    vec_out[target][d] += g * vec_in[center][d]
            for d in range(dim):
                vec_in[center][d] += grad_center[d]
            done += 1

    def cosine(a, b) -> float:
        return dot(a, b) / math.sqrt(dot(a, a) * dot(b, b))

    return cosine(vec_in[0], vec_in[1]), cosine(vec_in[0], vec_out[1])


def recompute_report_from_csv(path):
    """Spreadsheet-style recomputation of the aggregate metrics.

    Reads the per-user CSV as raw text and recomputes the four averages with
    math.fsum, independent of the library's aggregation code.
    """
    precisions, ndcgs, hits, predicted = [], [], [], []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        assert header == ["user", "precision", "ndcg", "hit", "predicted"]
        for line in handle:
            _, p, n, h, c = line.rstrip("\n").split(",")
            precisions.append(float(p))
            ndcgs.append(float(n))
            hits.append(float(h))
            predicted.append(float(c))
    count = len(precisions)
    return {
        "precision": math.fsum(precisions) / count,
        "ndcg": math.fsum(ndcgs) / count,
        "hitrate": math.fsum(hits) / count,
        "coverage": math.fsum(predicted) / count,
        "users": count,
    }


def sentences_reference(records, vocab) -> list[list[int]]:
    """Training sentences by brute force: for each user in vocabulary order,
    the user's index, then the indices of the user's venues the vocabulary
    holds, sorted stably by timestamp; a user with no such venue is left out."""
    sentences = []
    for row, user in enumerate(vocab.users):
        visits = [(t, v) for u, v, t in records if u == user and v in vocab.venue_index]
        visits.sort(key=lambda visit: visit[0])
        if visits:
            sentences.append([row] + [vocab.user_count + vocab.venue_index[v] for _, v in visits])
    return sentences


def parse_checkins_reference(source, layout) -> tuple[list[tuple[str, str, int]], int]:
    """The per-line check-in parser the library replaced: each item of
    source is one line (str, or bytes decoded as UTF-8); blank lines are
    ignored, and a line whose fields are missing, whose stripped ids are
    empty or whose timestamp is not an integer in [0, 2^63) is skipped.
    Returns (the valid lines' (user, venue, timestamp) rows, skipped count);
    raises FormatError when more than half of the non-blank lines are
    skipped."""
    rows, skipped = [], 0
    for raw in source:
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        if not line.strip():
            continue
        parts = line.rstrip("\r\n").split(layout.delimiter)
        if len(parts) >= layout.width:
            user = parts[layout.user_col].strip()
            venue = parts[layout.venue_col].strip()
            try:
                timestamp = int(parts[layout.time_col])
            except ValueError:
                timestamp = -1
            if user and venue and 0 <= timestamp < 2**63:
                rows.append((user, venue, timestamp))
                continue
        skipped += 1
    if skipped > len(rows):
        raise FormatError(f"{skipped} of {len(rows) + skipped} lines malformed")
    return rows, skipped

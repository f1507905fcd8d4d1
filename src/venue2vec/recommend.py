"""Top-k venue recommendation from a trained embedding model.

Three strategies:
  KNI  rank venues by cosine similarity to the target user's vector.
  NN   collect the venues of the N most similar users and sum their votes.
  KIU  rank venues by cosine to the mean of the target's and neighbors' vectors.

Every method is a score rule: given the target's row it returns a fresh
float64 score per catalog venue, -inf for a venue it cannot list, and
top_k picks the list. KNI is KIU with no neighbors, so kiu_scores serves
both. NN's rule is also CF's and the latent-factor baselines' (vote_scores):
only the user space the neighbors are picked in differs.

All venue ids in results are raw (unprefixed) ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .embedding import EmbeddingModel
from .errors import FormatError, SimilarityError

KNI = "kni"
NN = "nn"
KIU = "kiu"

NO_PREDICTION = "no-prediction"

# Below this many candidates top_k sorts them all at once; from it on, it
# partitions first. Measured on one Xeon vCPU (k = 10 and 30, random cosines):
# 256 candidates sort in 15 us against 16 us for partition and sort, 1,024 in
# 45-52 us against 23-24, 9,904 in 1,220-1,240 us against 82-89. In the
# perfbench workloads, cbow-serve's 9,904-venue rows and 1,664-user neighbour
# picks partition (its recommend_s fell 0.78 -> 0.46 s, 10 of 10 pairs), while
# planted-embed's 400-venue rows and baselines-run's 416-user picks and vote
# rows of at most a few hundred venues take the one sort.
PARTITION_MIN = 1024


@dataclass
class RecommendationList:
    user: str
    method: str
    items: list[tuple[str, float]] = field(default_factory=list)

    @property
    def predicted(self) -> bool:
        return bool(self.items)

    def venues(self) -> list[str]:
        return [venue for venue, _ in self.items]


def cosines(rows, norms: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine of each row to the query, as a fresh float64 array.

    rows is a dense array or a scipy sparse matrix and norms its precomputed
    row norms, so a matrix's norms are computed once, not per query. The
    query is cast to the rows' dtype for the product; a zero-norm row scores 0.

    Raises:
        SimilarityError: if the query has zero norm.
    """
    query = np.asarray(query, dtype=np.float64)
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0:
        raise SimilarityError("query vector has zero norm")
    dots = rows @ query.astype(rows.dtype, copy=False)
    return np.asarray(dots, dtype=np.float64) / (
        np.where(norms == 0.0, 1.0, norms) * query_norm
    )


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores above -inf, by descending score,
    ties by ascending position; fewer when fewer are above -inf.

    Past PARTITION_MIN entries above -inf, a partition of those entries finds
    the k-th highest score and only the entries at or above it are sorted,
    exactly, so ties at the cut are ordered like the rest. Partitioning only
    the entries above -inf keeps vote rows, mostly -inf, off numpy's slow
    path for many equal values.

    Raises:
        ValueError: if k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    survivors = np.flatnonzero(scores > -np.inf)
    if PARTITION_MIN < survivors.size and k < survivors.size:
        values = scores[survivors]
        floor = np.partition(values, values.size - k)[values.size - k]
        survivors = survivors[values >= floor]
    return survivors[np.lexsort((survivors, -scores[survivors]))][:k]


def nearest_users(
    rows, norms: np.ndarray, index: int, neighbors: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the at most neighbors rows most cosine-similar to row
    index, itself excluded, ties by ascending position, and their similarities.

    Raises:
        SimilarityError: if row index has zero norm.
        ValueError: if neighbors < 1 (top_k's k).
    """
    query = rows[index]
    if sparse.issparse(query):
        query = query.toarray().ravel()
    sims = cosines(rows, norms, query)
    sims[index] = -np.inf
    near = top_k(sims, neighbors)
    return near, sims[near]


def vote_by_visit_counts(
    matrix: sparse.csr_matrix, rows: Sequence[int], weights: np.ndarray
) -> np.ndarray:
    """Per-venue votes: the neighbor rows' entries summed, each row scaled by
    its weight (1 for a plain visit-count vote, the similarity for CF).

    A binary matrix makes every visited venue one vote.
    """
    return np.asarray(weights, dtype=np.float64) @ matrix[rows]


def vote_scores(
    rows,
    norms: np.ndarray,
    votes: sparse.csr_matrix,
    index: int,
    neighbors: int,
    weighted: bool,
) -> np.ndarray:
    """NN, CF, SVD and CCD++: each venue's vote from the neighbors users most
    cosine-similar to user index in some user space, -inf without a positive vote.

    rows are the users' vectors (embedding, visit-count or latent rows) with
    their norms, and the rows of the votes matrix line up with them. Each
    neighbor adds its vote row, scaled by its similarity when weighted (CF,
    which keeps only positive similarities) and by 1 otherwise.

    Raises:
        SimilarityError: if user index's row has zero norm.
        ValueError: if neighbors < 1 (top_k's k).
    """
    near, sims = nearest_users(rows, norms, index, neighbors)
    if weighted:
        near, weights = near[sims > 0.0], sims[sims > 0.0]
    else:
        weights = np.ones(len(near))
    tally = vote_by_visit_counts(votes, near, weights)
    return np.where(tally > 0.0, tally, -np.inf)


def kiu_scores(model: EmbeddingModel, index: int, neighbors: int) -> np.ndarray:
    """KIU and KNI: the cosine of each venue row of the model's venue block
    to the float64 mean of user row index and its neighbors nearest user rows.

    With no neighbors the query is the user's own row (the float64 mean of
    one row is that row), which is KNI.

    Raises:
        SimilarityError: if the user's row or the mean has zero norm.
        ValueError: if index is not a user row, or neighbors < 0 (top_k's k).
    """
    count = model.vocab.user_count
    if not 0 <= index < count:
        raise ValueError(f"{index} is not a user row in [0, {count})")
    vectors, norms = model.input_vectors, model.input_norms()
    rows = [index]
    if neighbors:
        near, _ = nearest_users(vectors[:count], norms[:count], index, neighbors)
        rows = np.r_[index, near]
    query = vectors[rows].astype(np.float64).mean(axis=0)
    return cosines(vectors[count:], norms[count:], query)


def format_batch_line(result: RecommendationList) -> str:
    if not result.predicted:
        return f"{result.user}\t{result.method}\t{NO_PREDICTION}"
    pairs = "\t".join(f"{venue}:{score:.6f}" for venue, score in result.items)
    return f"{result.user}\t{result.method}\t{pairs}"


def write_batch_recommendations(
    results: Iterable[RecommendationList], path: str | Path
) -> None:
    """One line per user: user, method, then venue:score pairs (tab-separated)."""
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(format_batch_line(result) + "\n")


def _venue_score(pair: str) -> tuple[str, float]:
    venue, colon, score = pair.rpartition(":")
    if not colon:
        raise ValueError(pair)
    return venue, float(score)


def read_batch_recommendations(path: str | Path) -> list[RecommendationList]:
    """Inverse of write_batch_recommendations.

    Raises:
        FormatError: naming the path and line of a line with fewer than two
            tab-separated fields or a pair that is not venue:score.
    """
    results = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                user, method, *rest = line.split("\t")
                if rest == [NO_PREDICTION]:
                    rest = []
                items = [_venue_score(pair) for pair in rest]
            except ValueError:
                raise FormatError(
                    f"{path} line {number}: expected user, method and venue:score "
                    f"fields separated by tabs, got {line!r}"
                ) from None
            results.append(RecommendationList(user, method, items))
    return results

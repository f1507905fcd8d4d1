"""Top-k venue recommendation from a trained embedding model.

Three strategies:
  KNI  rank venues by cosine similarity to the target user's vector.
  NN   collect the venues of the N most similar users and sum their votes.
  KIU  rank venues by cosine to the mean of the target's and neighbors' vectors.

Every method is a score rule: given a block of target rows it returns a
fresh float64 score per target and catalog venue, -inf for a venue it cannot
list, and top_k picks each target's list. KNI is KIU with no neighbors, so
kiu_scores serves both. NN's rule is also CF's and the latent-factor baselines' (vote_scores):
only the user space the neighbors are picked in differs.

All venue ids in results are raw (unprefixed) ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

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
    rows, norms: np.ndarray, block: np.ndarray, neighbors: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each row index in block, the positions of the at most neighbors
    rows most cosine-similar to it, itself excluded, ties by ascending
    position, and their similarities; none for a zero-norm row.

    rows is a dense array or a scipy sparse matrix and norms its precomputed
    row norms. One product gives the block's similarities to every row, a
    zero-norm row scoring 0.

    Raises:
        ValueError: if neighbors < 1 (top_k's k) and block is not empty.
    """
    block = np.asarray(block, dtype=np.int64)
    # rows times the block's rows, transposed: numpy and scipy multiply this
    # way round faster than rows[block] @ rows.T, whose operand is all rows
    sims = (rows @ rows[block].T).T
    if sparse.issparse(sims):
        sims = sims.toarray()
    sims = np.asarray(sims, dtype=np.float64, order="C")
    query_norms = norms[block]
    sims /= np.where(norms == 0.0, 1.0, norms) * np.where(
        query_norms == 0.0, 1.0, query_norms
    )[:, None]
    sims[query_norms == 0.0] = -np.inf
    sims[np.arange(len(block)), block] = -np.inf
    picks = []
    for row in sims:
        near = top_k(row, neighbors)
        picks.append((near, row[near]))
    return picks


def vote_scores(
    rows,
    norms: np.ndarray,
    votes: sparse.csr_matrix,
    block: np.ndarray,
    neighbors: int,
    weighted: bool,
) -> np.ndarray:
    """NN, CF, SVD and CCD++: for each user index in block, each venue's
    vote from the neighbors users most cosine-similar to it in some user
    space, -inf without a positive vote; one (len(block) x venues) array.

    rows are the users' vectors (embedding, visit-count or latent rows) with
    their norms, and the rows of the votes matrix line up with them. Each
    neighbor adds its vote row, scaled by its similarity when weighted (CF,
    which keeps only positive similarities) and by 1 otherwise. The block's
    tallies are one sparse (block x users) weight matrix times votes. Each
    row's weights are stored in neighbor order, not column order, and the
    product adds a venue's votes in stored order: one neighbor after another,
    by descending similarity. A user whose row has zero norm has no
    neighbors and gets no votes.

    Raises:
        ValueError: if neighbors < 1 (top_k's k) and block is not empty.
    """
    columns, weights = [], []
    for near, sims in nearest_users(rows, norms, block, neighbors):
        if weighted:
            near, sims = near[sims > 0.0], sims[sims > 0.0]
        columns.append(near)
        weights.append(sims if weighted else np.ones(len(near)))
    starts = np.cumsum([0, *map(len, columns)])
    matrix = sparse.csr_matrix(
        (np.concatenate(weights), np.concatenate(columns), starts),
        shape=(len(block), votes.shape[0]),
    )
    tally = (matrix @ votes).toarray()
    tally[~(tally > 0.0)] = -np.inf
    return tally


def kiu_scores(model: EmbeddingModel, block: np.ndarray, neighbors: int) -> np.ndarray:
    """KIU and KNI: for each user row index in block, the cosine of each
    venue row of the model's venue block to the float64 mean of that user
    row and its neighbors nearest user rows; one (len(block) x venues)
    array, -inf throughout where that mean has zero norm.

    With no neighbors the query is the user's own row (the float64 mean of
    one row is that row), which is KNI. The neighbors come from the block's
    one similarity product; the venue cosines are taken row by row.

    Raises:
        ValueError: if an index is not a user row, or neighbors < 0 (top_k's k).
    """
    block = np.asarray(block, dtype=np.int64)
    count = model.vocab.user_count
    outside = block[(block < 0) | (block >= count)]
    if outside.size:
        raise ValueError(f"{outside[0]} is not a user row in [0, {count})")
    vectors, norms = model.input_vectors, model.input_norms()
    picks = [np.empty(0, dtype=np.int64)] * len(block)
    if neighbors:
        picks = [near for near, _ in nearest_users(vectors[:count], norms[:count], block, neighbors)]
    scores = np.empty((len(block), len(vectors) - count))
    for row, (index, near) in enumerate(zip(block, picks)):
        query = vectors[np.concatenate(([index], near))].astype(np.float64).mean(axis=0)
        try:
            scores[row] = cosines(vectors[count:], norms[count:], query)
        except SimilarityError:
            scores[row] = -np.inf  # a zero-norm query ranks nothing
    return scores


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

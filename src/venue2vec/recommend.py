"""Top-k venue recommendation from a trained embedding model.

Three strategies:
  KNI  rank venues by cosine similarity to the target user's vector.
  NN   collect the venues of the N most similar users and sum their votes.
  KIU  rank venues by cosine to the mean of the target's and neighbors' vectors.

KNI is KIU with no neighbors, so one function (recommend_kiu) serves both.
NN's rule is also CF's and the latent-factor baselines' (recommend_neighbors):
only the user space the neighbors are picked in differs.

An unknown user or an undefined similarity query is never an error here: it
yields an empty list, which the evaluation layer books as a coverage miss.
All venue ids in results are raw (unprefixed) ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import InteractionMatrix, Vocabulary
from .embedding import EmbeddingModel, cosine_top_k
from .errors import FormatError, SimilarityError

KNI = "kni"
NN = "nn"
KIU = "kiu"

NO_PREDICTION = "no-prediction"


@dataclass(frozen=True)
class RecommendationRequest:
    """One recommendation query; ties break by ascending token index.

    neighbors=0 means the target alone: KIU with no neighbors is KNI.
    """

    user: str
    k: int = 10
    neighbors: int = 30

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.neighbors < 0:
            raise ValueError("neighbors must be >= 0")


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


def _neighbor_rows(
    rows, norms: np.ndarray, query: np.ndarray, index: int, neighbors: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the rows most cosine-similar to row index, whose values the
    query holds, and their similarities: at most neighbors, row index excluded,
    ties by ascending position.

    Raises:
        SimilarityError: if the query has zero norm.
    """
    top, sims = cosine_top_k(rows, norms, query, neighbors + 1)
    keep = top != index
    return top[keep][:neighbors], sims[keep][:neighbors]


def vote_by_visit_counts(
    matrix: sparse.csr_matrix, rows: Sequence[int], weights: np.ndarray
) -> np.ndarray:
    """Per-venue votes: the neighbor rows' entries summed, each row scaled by
    its weight (1 for a plain visit-count vote, the similarity for CF).

    A binary matrix makes every visited venue one vote.
    """
    return np.asarray(weights, dtype=np.float64) @ matrix[rows]


def rank_votes(
    votes: np.ndarray, k: int, venues: Sequence[str]
) -> list[tuple[str, float]]:
    """The k venues with the highest positive votes, ties by ascending column."""
    positive = np.flatnonzero(votes > 0.0)
    top = positive[np.lexsort((positive, -votes[positive]))][:k]
    return [(venues[j], float(votes[j])) for j in top]


def recommend_neighbors(
    rows,
    norms: np.ndarray,
    votes: InteractionMatrix,
    request: RecommendationRequest,
    method: str,
    weighted: bool,
) -> RecommendationList:
    """NN, CF, SVD and CCD++: venues voted by the request.neighbors users most
    cosine-similar to the target in some user space.

    rows are the users' vectors (embedding, visit-count or latent rows) with
    their norms, and votes' rows line up with them. Each neighbor adds its
    vote row, scaled by its similarity when weighted (CF, which keeps only
    positive similarities) and by 1 otherwise. A user without a row or with a
    zero-norm row gets an empty list.
    """
    index = votes.user_index.get(request.user)
    if index is None:
        return RecommendationList(request.user, method)
    query = rows[index]
    if sparse.issparse(query):
        query = query.toarray().ravel()
    try:
        top, sims = _neighbor_rows(rows, norms, query, index, request.neighbors)
    except SimilarityError:
        return RecommendationList(request.user, method)
    if weighted:
        top, weights = top[sims > 0.0], sims[sims > 0.0]
    else:
        weights = np.ones(len(top))
    items = rank_votes(vote_by_visit_counts(votes.matrix, top, weights), request.k, votes.venues)
    return RecommendationList(request.user, method, items)


def recommend_kiu(
    model: EmbeddingModel, request: RecommendationRequest
) -> RecommendationList:
    """KIU and KNI: venues ranked by cosine to the mean of the target's user
    vector and its request.neighbors nearest users' vectors.

    With no neighbors the query is the target's own vector (the float64 mean
    of one row is that row), which is KNI, and the list is labelled kni.
    """
    method = KIU if request.neighbors else KNI
    index = model.vocab.token_to_index.get(Vocabulary.user_token(request.user))
    if index is None:
        return RecommendationList(request.user, method)
    count = model.vocab.user_count
    vectors, norms = model.input_vectors, model.input_norms()
    rows = [index]
    try:
        if request.neighbors:
            near, _ = _neighbor_rows(
                vectors[:count], norms[:count], vectors[index], index, request.neighbors
            )
            rows = np.r_[index, near]
        query = vectors[rows].astype(np.float64).mean(axis=0)
        top, scores = cosine_top_k(vectors[count:], norms[count:], query, request.k)
    except SimilarityError:
        return RecommendationList(request.user, method)
    venues = model.vocab.index_to_token[count:]
    items = [(Vocabulary.strip_prefix(venues[j]), float(s)) for j, s in zip(top, scores)]
    return RecommendationList(request.user, method, items)


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

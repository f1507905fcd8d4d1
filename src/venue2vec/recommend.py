"""Top-k venue recommendation from a trained embedding model.

Three strategies:
  KNI  rank venues by cosine similarity to the target user's vector.
  NN   collect the venues of the N most similar users and sum their votes.
  KIU  rank venues by cosine to the mean of the target's and neighbors' vectors.

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
from .embedding import EmbeddingModel, cosine_top_k, get_vector, top_k_similar
from .errors import SimilarityError

KNI = "kni"
NN = "nn"
KIU = "kiu"

NO_PREDICTION = "no-prediction"


@dataclass(frozen=True)
class RecommendationRequest:
    """One recommendation query; ties break by ascending token index."""

    user: str
    k: int = 10
    neighbors: int = 30

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")


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


def _rank_venues_by_query(
    model: EmbeddingModel,
    query: np.ndarray,
    request: RecommendationRequest,
    method: str,
) -> RecommendationList:
    try:
        top = top_k_similar(model, query, model.vocab.venue_indices(), request.k)
    except SimilarityError:
        return RecommendationList(request.user, method)
    items = [(Vocabulary.strip_prefix(token), score) for token, score in top]
    return RecommendationList(request.user, method, items)


def recommend_kni(
    model: EmbeddingModel,
    interactions: InteractionMatrix,
    request: RecommendationRequest,
) -> RecommendationList:
    """k-nearest items: venues ranked by cosine to the user's own vector.

    interactions is not read; it keeps the signature every embedding
    recommender shares.
    """
    token = Vocabulary.user_token(request.user)
    if token not in model.vocab:
        return RecommendationList(request.user, KNI)
    return _rank_venues_by_query(model, get_vector(model, token), request, KNI)


def nearest_users(
    model: EmbeddingModel, user: str, count: int
) -> list[tuple[str, float]]:
    """The count most cosine-similar users to the target, target excluded."""
    index = model.vocab.index(Vocabulary.user_token(user))
    users = model.input_vectors[: model.vocab.user_count]
    top, sims = _neighbor_rows(
        users, model.input_norms()[: model.vocab.user_count], users[index], index, count
    )
    return [
        (Vocabulary.strip_prefix(model.vocab.token(int(i))), float(s))
        for i, s in zip(top, sims)
    ]


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


def recommend_nn(
    model: EmbeddingModel,
    interactions: InteractionMatrix,
    request: RecommendationRequest,
) -> RecommendationList:
    """N-nearest users: venues voted by the most similar users' histories.

    Venues pruned from the model's vocabulary get no vote; a binary
    interaction matrix votes 1 per visited venue.
    """
    token = Vocabulary.user_token(request.user)
    if token not in model.vocab:
        return RecommendationList(request.user, NN)
    try:
        neighbors = nearest_users(model, request.user, request.neighbors)
    except SimilarityError:
        return RecommendationList(request.user, NN)
    # a neighbor without visit history (a model trained on other records) votes nothing
    rows = [interactions.user_index[n] for n, _ in neighbors if n in interactions.user_index]
    votes = vote_by_visit_counts(interactions.matrix, rows, np.ones(len(rows)))
    pruned = [
        j
        for j in np.flatnonzero(votes)
        if Vocabulary.venue_token(interactions.venues[j]) not in model.vocab
    ]
    votes[pruned] = 0.0
    items = rank_votes(votes, request.k, interactions.venues)
    return RecommendationList(request.user, NN, items)


def recommend_kiu(
    model: EmbeddingModel,
    interactions: InteractionMatrix,
    request: RecommendationRequest,
) -> RecommendationList:
    """Combined query: venues ranked by cosine to the target+neighbors mean.

    interactions is not read; it keeps the signature every embedding
    recommender shares.
    """
    token = Vocabulary.user_token(request.user)
    if token not in model.vocab:
        return RecommendationList(request.user, KIU)
    try:
        neighbors = nearest_users(model, request.user, request.neighbors)
    except SimilarityError:
        return RecommendationList(request.user, KIU)
    vectors = [np.asarray(get_vector(model, token), dtype=np.float64)]
    for neighbor, _ in neighbors:
        vectors.append(
            np.asarray(get_vector(model, Vocabulary.user_token(neighbor)), dtype=np.float64)
        )
    query = np.stack(vectors).mean(axis=0)
    return _rank_venues_by_query(model, query, request, KIU)


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


def read_batch_recommendations(path: str | Path) -> list[RecommendationList]:
    results = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            user, method, *rest = line.split("\t")
            if rest == [NO_PREDICTION]:
                results.append(RecommendationList(user, method))
                continue
            items = []
            for pair in rest:
                venue, _, score = pair.rpartition(":")
                items.append((venue, float(score)))
            results.append(RecommendationList(user, method, items))
    return results

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

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .corpus import Vocabulary
from .embedding import EmbeddingModel, get_vector, top_k_similar
from .errors import SimilarityError

Interactions = Mapping[str, Counter]

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
    filter_seen: bool = False

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


def _seen_venues(interactions: Interactions | None, user: str) -> set[str]:
    if interactions is None:
        return set()
    return set(interactions.get(user, ()))


def _venue_candidates(
    model: EmbeddingModel, request: RecommendationRequest, interactions: Interactions | None
) -> np.ndarray:
    candidates = model.vocab.venue_indices()
    if request.filter_seen:
        seen = {
            model.vocab.index(Vocabulary.venue_token(v))
            for v in _seen_venues(interactions, request.user)
            if Vocabulary.venue_token(v) in model.vocab
        }
        if seen:
            candidates = candidates[~np.isin(candidates, np.fromiter(seen, dtype=np.int64))]
    return candidates


def _rank_venues_by_query(
    model: EmbeddingModel,
    query: np.ndarray,
    request: RecommendationRequest,
    interactions: Interactions | None,
    method: str,
) -> RecommendationList:
    candidates = _venue_candidates(model, request, interactions)
    try:
        top = top_k_similar(model, query, candidates, request.k)
    except SimilarityError:
        return RecommendationList(request.user, method)
    items = [(Vocabulary.strip_prefix(token), score) for token, score in top]
    return RecommendationList(request.user, method, items)


def recommend_kni(
    model: EmbeddingModel,
    request: RecommendationRequest,
    interactions: Interactions | None = None,
) -> RecommendationList:
    """k-nearest items: venues ranked by cosine to the user's own vector.

    interactions is only needed when request.filter_seen is set.
    """
    token = Vocabulary.user_token(request.user)
    if token not in model.vocab:
        return RecommendationList(request.user, KNI)
    return _rank_venues_by_query(
        model, get_vector(model, token), request, interactions, KNI
    )


def nearest_users(
    model: EmbeddingModel, user: str, count: int
) -> list[tuple[str, float]]:
    """The count most cosine-similar users to the target, target excluded."""
    token = Vocabulary.user_token(user)
    index = model.vocab.index(token)
    candidates = model.vocab.user_indices()
    candidates = candidates[candidates != index]
    if candidates.size == 0:
        return []
    top = top_k_similar(model, get_vector(model, token), candidates, count)
    return [(Vocabulary.strip_prefix(t), score) for t, score in top]


def vote_by_visit_counts(
    neighbor_ids: Iterable[str],
    interactions: Interactions,
    *,
    binary: bool = False,
    allowed: Callable[[str], bool] | None = None,
    excluded: set[str] | None = None,
) -> Counter:
    """Sum neighbor votes per venue: visit counts, or 1 per pair in binary mode."""
    votes: Counter = Counter()
    excluded = excluded or set()
    for neighbor in neighbor_ids:
        for venue, count in interactions.get(neighbor, {}).items():
            if venue in excluded:
                continue
            if allowed is not None and not allowed(venue):
                continue
            votes[venue] += 1.0 if binary else float(count)
    return votes


def rank_votes(
    votes: Counter, k: int, index_of: Callable[[str], int]
) -> list[tuple[str, float]]:
    """Top-k venues by vote, ties by ascending index."""
    if not votes:
        return []
    ranked = sorted(votes, key=lambda venue: (-votes[venue], index_of(venue)))[:k]
    return [(venue, float(votes[venue])) for venue in ranked]


def recommend_nn(
    model: EmbeddingModel,
    interactions: Interactions,
    request: RecommendationRequest,
    *,
    binary_votes: bool = False,
) -> RecommendationList:
    """N-nearest users: venues voted by the most similar users' histories."""
    token = Vocabulary.user_token(request.user)
    if token not in model.vocab:
        return RecommendationList(request.user, NN)
    try:
        neighbors = nearest_users(model, request.user, request.neighbors)
    except SimilarityError:
        return RecommendationList(request.user, NN)
    excluded = _seen_venues(interactions, request.user) if request.filter_seen else set()
    votes = vote_by_visit_counts(
        (n for n, _ in neighbors),
        interactions,
        binary=binary_votes,
        allowed=lambda v: Vocabulary.venue_token(v) in model.vocab,
        excluded=excluded,
    )
    items = rank_votes(
        votes, request.k, lambda v: model.vocab.index(Vocabulary.venue_token(v))
    )
    return RecommendationList(request.user, NN, items)


def recommend_kiu(
    model: EmbeddingModel,
    interactions: Interactions,
    request: RecommendationRequest,
) -> RecommendationList:
    """Combined query: venues ranked by cosine to the target+neighbors mean.

    interactions is only consulted for filter_seen.
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
    return _rank_venues_by_query(model, query, request, interactions, KIU)


def recommend_by_method(
    method: str,
    model: EmbeddingModel,
    interactions: Interactions,
    request: RecommendationRequest,
    *,
    binary_votes: bool = False,
) -> RecommendationList:
    """Run the KNI, NN or KIU recommender named by method for one request."""
    # looked up at call time, so wrappers installed on the module attributes apply
    if method == KNI:
        return recommend_kni(model, request, interactions)
    if method == NN:
        return recommend_nn(model, interactions, request, binary_votes=binary_votes)
    if method == KIU:
        return recommend_kiu(model, interactions, request)
    raise ValueError(f"unknown embedding method {method!r}")


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

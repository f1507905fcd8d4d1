"""Offline evaluation: Precision@k, NDCG@k, HitRate, Prediction Coverage.

Per-user scores are computed against the user's set of distinct test venues
and then averaged over the evaluation population (users with at least one
train and one test record). Users who received no recommendation stay in
every denominator with zero scores; only the coverage metric distinguishes
them, which keeps the accuracy/coverage trade-off visible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Dataset
from .errors import EvaluationError

REPORT_COLUMNS = [
    "method",
    "arch",
    "F",
    "C",
    "E",
    "N",
    "k",
    "precision",
    "ndcg",
    "hitrate",
    "coverage",
    "train_s",
    "rec_s_total",
    "rec_s_per_user",
]

PER_USER_COLUMNS = ["user", "precision", "ndcg", "hit", "predicted"]


def precision_at_k(recommended: Sequence[str], relevant: set[str], k: int) -> float:
    """|recommended ∩ relevant| / k; the denominator stays k for short lists."""
    if len(recommended) > k:
        raise ValueError("recommendation list longer than k")
    return len(set(recommended) & relevant) / k


def ndcg_at_k(recommended: Sequence[str], relevant: set[str], k: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discounts.

    The ideal DCG places min(k, |relevant|) hits at the top of the list.
    """
    if len(recommended) > k:
        raise ValueError("recommendation list longer than k")
    if not relevant:
        return 0.0
    dcg = sum(
        1.0 / math.log2(rank + 2)
        for rank, venue in enumerate(recommended)
        if venue in relevant
    )
    ideal = sum(1.0 / math.log2(rank + 2) for rank in range(min(k, len(relevant))))
    return dcg / ideal


def hit_rate(hits: Iterable[int]) -> float:
    """Mean of per-user hit indicators."""
    values = list(hits)
    if not values:
        raise EvaluationError("hit rate over an empty user population")
    return sum(values) / len(values)


def prediction_coverage(predicted: Iterable[int]) -> float:
    """Fraction of users who received any recommendation at all."""
    values = list(predicted)
    if not values:
        raise EvaluationError("coverage over an empty user population")
    return sum(values) / len(values)


@dataclass(frozen=True)
class UserResult:
    user: str
    precision: float
    ndcg: float
    hit: int
    predicted: int


def score_user(
    user: str, recommended: Sequence[str], relevant: set[str], k: int
) -> UserResult:
    """Score one user's recommendation list; empty list = coverage miss."""
    if not recommended:
        return UserResult(user, 0.0, 0.0, 0, 0)
    precision = precision_at_k(recommended, relevant, k)
    return UserResult(
        user=user,
        precision=precision,
        ndcg=ndcg_at_k(recommended, relevant, k),
        hit=1 if precision > 0 else 0,
        predicted=1,
    )


def build_ground_truth(dataset: Dataset) -> dict[str, set[str]]:
    """Distinct test venues per user, restricted to users seen in train."""
    train_users = dataset.train_users()
    truth: dict[str, set[str]] = {}
    for record in dataset.test:
        if record.user_id in train_users:
            truth.setdefault(record.user_id, set()).add(record.venue_id)
    return truth


@dataclass
class PhaseTimings:
    """Wall-clock seconds of the modeling and recommendation phases."""

    train_seconds: float = 0.0
    recommend_seconds: float = 0.0


@dataclass
class MetricsReport:
    method: str
    arch: str
    feature_count: int
    context_count: int
    epoch_count: int
    neighbors: int
    k: int
    precision: float
    ndcg: float
    hitrate: float
    coverage: float
    train_s: float
    rec_s_total: float
    rec_s_per_user: float
    per_user: list[UserResult]

    def to_row(self) -> dict:
        return {
            "method": self.method,
            "arch": self.arch,
            "F": self.feature_count,
            "C": self.context_count,
            "E": self.epoch_count,
            "N": self.neighbors,
            "k": self.k,
            "precision": self.precision,
            "ndcg": self.ndcg,
            "hitrate": self.hitrate,
            "coverage": self.coverage,
            "train_s": self.train_s,
            "rec_s_total": self.rec_s_total,
            "rec_s_per_user": self.rec_s_per_user,
        }


def aggregate(
    rows: Sequence[UserResult],
    timings: PhaseTimings,
    *,
    method: str,
    arch: str = "",
    feature_count: int = 0,
    context_count: int = 0,
    epoch_count: int = 0,
    neighbors: int = 0,
    k: int,
) -> MetricsReport:
    """Arithmetic means of the per-user rows plus config and timing echo."""
    if not rows:
        raise EvaluationError("cannot aggregate an empty result set")
    count = len(rows)
    return MetricsReport(
        method=method,
        arch=arch,
        feature_count=feature_count,
        context_count=context_count,
        epoch_count=epoch_count,
        neighbors=neighbors,
        k=k,
        precision=sum(r.precision for r in rows) / count,
        ndcg=sum(r.ndcg for r in rows) / count,
        hitrate=hit_rate([r.hit for r in rows]),
        coverage=prediction_coverage([r.predicted for r in rows]),
        train_s=timings.train_seconds,
        rec_s_total=timings.recommend_seconds,
        rec_s_per_user=timings.recommend_seconds / count,
        per_user=list(rows),
    )


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_per_user_csv(rows: Sequence[UserResult], path: str | Path) -> None:
    """Per-user rows; float fields use repr so they round-trip exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(PER_USER_COLUMNS) + "\n")
        for row in rows:
            handle.write(
                f"{row.user},{row.precision!r},{row.ndcg!r},{row.hit},{row.predicted}\n"
            )


def read_per_user_csv(path: str | Path) -> list[UserResult]:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if header != PER_USER_COLUMNS:
            raise EvaluationError(f"unexpected per-user CSV header {header}")
        for line in handle:
            # from the right: a user id may itself contain commas
            user, precision, ndcg, hit, predicted = line.rstrip("\n").rsplit(",", 4)
            rows.append(
                UserResult(user, float(precision), float(ndcg), int(hit), int(predicted))
            )
    return rows


def write_report_csv(rows: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            handle.write(
                ",".join(_format_value(row[column]) for column in REPORT_COLUMNS) + "\n"
            )


def read_report_csv(path: str | Path) -> list[dict]:
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if header != REPORT_COLUMNS:
            raise EvaluationError(f"unexpected report CSV header {header}")
        for line in handle:
            values = line.rstrip("\n").split(",")
            row: dict = dict(zip(header, values))
            for column in ("F", "E", "N", "k"):
                row[column] = int(row[column])
            row["C"] = int(row["C"])
            for column in (
                "precision",
                "ndcg",
                "hitrate",
                "coverage",
                "train_s",
                "rec_s_total",
                "rec_s_per_user",
            ):
                row[column] = float(row[column])
            rows.append(row)
    return rows


def write_report_json(row: dict, path: str | Path) -> None:
    """JSON mirror of one report row with the same field names as the CSV."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({column: row[column] for column in REPORT_COLUMNS}, handle, indent=2)
        handle.write("\n")

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
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

from .corpus import Dataset
from .errors import EvaluationError

# The four metrics a report holds, in column order.
METRICS = ["precision", "ndcg", "hitrate", "coverage"]


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
    """One user's scores; its fields are the per-user CSV's columns, in order."""

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
    train_users = set(dataset.train.user_ids)
    truth: dict[str, set[str]] = {}
    for user, venue, _ in dataset.test:
        if user in train_users:
            truth.setdefault(user, set()).add(venue)
    return truth


@dataclass(kw_only=True)
class MetricsReport:
    """One run's report. Its fields but per_user are the report columns, in
    order: the method and its echoed settings (arch, F, C, E from the fit; N
    and k from the serving), the means of the per-user rows, and timings.
    """

    method: str
    arch: str = ""
    F: int = 0
    C: int = 0
    E: int = 0
    N: int = 0
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
        return {column: getattr(self, column) for column in REPORT_COLUMNS}


def _columns(row_type) -> list[str]:
    """A row type's CSV columns: its fields but per_user, in order."""
    return [f.name for f in fields(row_type) if f.name != "per_user"]


REPORT_COLUMNS = _columns(MetricsReport)


def aggregate(
    rows: Sequence[UserResult], *, train_s: float = 0.0, rec_s: float = 0.0, **echo
) -> MetricsReport:
    """Arithmetic means of the per-user rows plus the echoed columns (method,
    k and any of arch, F, C, E, N) and the phase timings in seconds."""
    if not rows:
        raise EvaluationError("cannot aggregate an empty result set")
    count = len(rows)
    return MetricsReport(
        **echo,
        precision=sum(r.precision for r in rows) / count,
        ndcg=sum(r.ndcg for r in rows) / count,
        hitrate=hit_rate([r.hit for r in rows]),
        coverage=prediction_coverage([r.predicted for r in rows]),
        train_s=train_s,
        rec_s_total=rec_s,
        rec_s_per_user=rec_s / count,
        per_user=list(rows),
    )


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row; floats use repr so they
    round-trip exactly, everything else str."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(
                ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def write_per_user_csv(rows: Sequence[UserResult], path: str | Path) -> None:
    columns = _columns(UserResult)
    write_csv(path, columns, map(attrgetter(*columns), rows))


def _read_csv(path: str | Path, row_type) -> list[dict]:
    """The rows of a CSV of row_type's columns, each value parsed by its
    field's type. Lines split from the right, so only the first value may
    hold commas (a user id can). A header that is not the columns, or a row
    (a blank line too) without a value of its column's type per column,
    raises EvaluationError naming the path and line."""
    columns = _columns(row_type)
    types = get_type_hints(row_type)
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if header != columns:
            name = row_type.__name__
            raise EvaluationError(f"{path} line 1: unexpected {name} CSV header {header}")
        for number, line in enumerate(handle, 2):
            values = line.rstrip("\n").rsplit(",", len(columns) - 1)
            try:  # zip's strict raises ValueError on a short row, as a type does on its text
                rows.append({c: types[c](v) for c, v in zip(columns, values, strict=True)})
            except ValueError:
                raise EvaluationError(
                    f"{path} line {number}: expected {len(columns)} values, got {line!r}"
                ) from None
    return rows


def read_per_user_csv(path: str | Path) -> list[UserResult]:
    return [UserResult(**row) for row in _read_csv(path, UserResult)]


def read_report_csv(path: str | Path) -> list[dict]:
    """The rows of a report CSV, each value parsed by its column's type."""
    return _read_csv(path, MetricsReport)


def write_report_json(row: dict, path: str | Path) -> None:
    """JSON mirror of one report row with the same field names as the CSV."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({column: row[column] for column in REPORT_COLUMNS}, handle, indent=2)
        handle.write("\n")

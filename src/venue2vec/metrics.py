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

import numpy as np

from .corpus import Checkins, Dataset
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


@dataclass(frozen=True)
class TruthTable:
    """The ground truth of the users at rows 0, 1, ... over a numbering of
    width venue columns, as arrays: keys holds row * width + column for
    each relevant venue that has a column, sorted, and relevant each row's
    count of relevant venues, those without a column included (they can
    never be listed, but count in the ideal DCG). No array is users x venues.
    """

    keys: np.ndarray
    relevant: np.ndarray
    width: int

    @classmethod
    def of(cls, test: Checkins, users: Sequence[str], columns: dict[str, int]) -> TruthTable:
        """The table of users, in that order, over the venue numbering
        columns: each user's distinct venues in the test check-ins, with one
        lookup per distinct id and the check-ins in array operations."""
        row_of = {user: row for row, user in enumerate(users)}
        user_rows = np.array([row_of.get(user, -1) for user in test.user_ids], dtype=np.int64)
        column = np.array([columns.get(venue, -1) for venue in test.venue_ids], dtype=np.int64)
        kept = user_rows[test.users] >= 0
        # each (row, test venue) pair once
        pairs = np.unique(user_rows[test.users[kept]] * len(column) + test.venues[kept])
        rows, venues = np.divmod(pairs, len(column))
        keys = (rows * len(columns) + column[venues])[column[venues] >= 0]
        return cls(np.sort(keys), np.bincount(rows, minlength=len(users)), len(columns))

    def rows(self, start: int, stop: int) -> TruthTable:
        """The table of rows start..stop - 1, renumbered from 0."""
        low, high = np.searchsorted(self.keys, [start * self.width, stop * self.width])
        keys = self.keys[low:high] - start * self.width
        return TruthTable(keys, self.relevant[start:stop], self.width)


def score_block(
    users: Sequence[str], columns: np.ndarray, starts: np.ndarray, truth: TruthTable, k: int
) -> list[UserResult]:
    """Score a block of lists at once: user i's list is the venue columns
    columns[starts[i]:starts[i + 1]] in rank order, at most k of them, scored
    against truth's row i. Each row equals score_user's for the same list
    over the same names, bit for bit: a column listed twice counts once in
    precision and at each of its ranks in NDCG, the discounts come from
    math.log2, each DCG is summed rank by rank as score_user sums it, and
    the ideal DCG is the same sequential sum of the first min(k, relevant)
    discounts.
    """
    count = len(users)
    lengths = np.diff(starts)
    row_of = np.repeat(np.arange(count), lengths)
    keys = row_of * truth.width + columns
    found = np.searchsorted(truth.keys, keys)
    hits = found < len(truth.keys)
    hits[hits] = truth.keys[found[hits]] == keys[hits]
    distinct = np.unique(keys[hits]) // truth.width
    precision = np.bincount(distinct, minlength=count) / k
    longest = int(lengths.max(initial=0))
    discounts = np.array([1.0 / math.log2(rank + 2) for rank in range(longest)])
    gains = np.where(hits, discounts[np.arange(len(keys)) - starts[row_of]], 0.0)
    dcg = np.zeros(count)
    for rank in range(longest):  # rank by rank, the order score_user sums in
        longer = np.flatnonzero(lengths > rank)
        dcg[longer] += gains[starts[longer] + rank]
    ideal = [0.0]
    for rank in range(min(k, int(truth.relevant.max(initial=0)))):
        ideal.append(ideal[-1] + 1.0 / math.log2(rank + 2))
    ideal = np.array(ideal)[np.minimum(truth.relevant, k)]
    ndcg = np.divide(dcg, ideal, out=np.zeros(count), where=ideal > 0)
    hit = (precision > 0).astype(np.int64)
    predicted = (lengths > 0).astype(np.int64)
    scores = (precision.tolist(), ndcg.tolist(), hit.tolist(), predicted.tolist())
    return list(map(UserResult, users, *scores))


def evaluation_users(dataset: Dataset) -> list[str]:
    """The evaluation population, sorted: users with both a train and a
    test check-in."""
    return sorted(set(dataset.test.user_ids).intersection(dataset.train.user_ids))


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
    precision, ndcg, hits, predicted = zip(*map(attrgetter(*_columns(UserResult)[1:]), rows))
    return MetricsReport(
        **echo,
        precision=sum(precision) / count,
        ndcg=sum(ndcg) / count,
        hitrate=hit_rate(hits),
        coverage=prediction_coverage(predicted),
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

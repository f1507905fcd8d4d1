"""Check-in ingestion, train/test splitting, vocabulary and sentence construction.

A "sentence" here is one user token followed by that user's venue tokens in
ascending check-in order; it is the unit consumed by embedding training.
Users and venues are numbered by one index, the Vocabulary; a user and a
venue with the same raw id are different rows.
"""

from __future__ import annotations

import gzip
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import ConfigError, EmptyVocabularyError, FormatError


MAX_TIMESTAMP = np.iinfo(np.int64).max


@dataclass(frozen=True, slots=True)
class CheckinRecord:
    """One (user, venue, timestamp) interaction; timestamp is epoch seconds."""

    user_id: str
    venue_id: str
    timestamp: int


@dataclass(frozen=True)
class FieldLayout:
    """Column layout of a line-oriented check-in file.

    The defaults match a tab-separated ``user venue timestamp`` file; the
    column indices can be rearranged to ingest dumps with other orderings.
    """

    delimiter: str = "\t"
    user_col: int = 0
    venue_col: int = 1
    time_col: int = 2

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ConfigError("delimiter must not be empty")
        columns = dict(user_col=self.user_col, venue_col=self.venue_col, time_col=self.time_col)
        for name, column in columns.items():
            if column < 0:
                raise ConfigError(f"{name} must be >= 0, got {column}")
        if len(set(columns.values())) < len(columns):
            raise ConfigError(f"user_col, venue_col and time_col must differ, got {columns}")

    @property
    def width(self) -> int:
        return max(self.user_col, self.venue_col, self.time_col) + 1


@dataclass
class Dataset:
    """Chronological train/test partition of a check-in log."""

    train: list[CheckinRecord]
    test: list[CheckinRecord]

    def train_users(self) -> set[str]:
        return {r.user_id for r in self.train}


def parse_checkins(
    source: Iterable[str | bytes], layout: FieldLayout = FieldLayout()
) -> tuple[list[CheckinRecord], int]:
    """Parse a line-oriented check-in stream.

    Blank lines are ignored. Malformed lines (missing fields, empty ids,
    non-integer, negative or past-int64 timestamps, which the sentence
    builder could not sort) are skipped and counted.

    Returns:
        (records in input order, number of skipped malformed lines)

    Raises:
        FormatError: if more than half of the non-blank lines are malformed,
            which almost always means the field layout is wrong.
    """
    records: list[CheckinRecord] = []
    skipped = total = 0
    width, delimiter = layout.width, layout.delimiter
    user_col, venue_col, time_col = layout.user_col, layout.venue_col, layout.time_col
    for raw in source:
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        if not line.strip():
            continue
        total += 1
        parts = line.rstrip("\r\n").split(delimiter)
        if len(parts) >= width:
            user, venue = parts[user_col].strip(), parts[venue_col].strip()
            try:
                timestamp = int(parts[time_col])  # int() skips surrounding whitespace
            except ValueError:
                timestamp = -1
            if user and venue and 0 <= timestamp <= MAX_TIMESTAMP:
                records.append(CheckinRecord(user, venue, timestamp))
                continue
        skipped += 1
    if total and skipped * 2 > total:
        raise FormatError(
            f"{skipped} of {total} lines malformed; field layout {layout} "
            "probably does not match this file"
        )
    return records, skipped


def _open_text(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def read_checkins(
    path: str | Path, layout: FieldLayout = FieldLayout()
) -> tuple[list[CheckinRecord], int]:
    """parse_checkins over a file path; transparently handles .gz input."""
    with _open_text(path) as handle:
        return parse_checkins(handle, layout)


def write_checkins(
    records: Iterable[CheckinRecord],
    path: str | Path,
    layout: FieldLayout = FieldLayout(),
) -> None:
    """Serialize records under the given layout; .gz suffix enables gzip."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    width = layout.width
    with opener(path, "wt", encoding="utf-8") as handle:
        for record in records:
            fields = [""] * width
            fields[layout.user_col] = record.user_id
            fields[layout.venue_col] = record.venue_id
            fields[layout.time_col] = str(record.timestamp)
            handle.write(layout.delimiter.join(fields) + "\n")


def split_train_test(records: Iterable[CheckinRecord], boundary: int) -> Dataset:
    """Split by timestamp: train strictly before the boundary, test at or after.

    Degenerate splits are legal and only produce a warning.
    """
    train: list[CheckinRecord] = []
    test: list[CheckinRecord] = []
    for record in records:
        (train if record.timestamp < boundary else test).append(record)
    if not train:
        warnings.warn("train side of the split is empty", stacklevel=2)
    if not test:
        warnings.warn("test side of the split is empty", stacklevel=2)
    return Dataset(train=train, test=test)


class Vocabulary:
    """The one user and venue index of a training set.

    Users and venues are each numbered in order of first occurrence in the
    training records. User i is model row i and venue j model row
    user_count + j, so user rows form the contiguous range [0, user_count)
    and venue rows [user_count, len(vocab)); the visit table of
    build_interactions has row i for user i and column j for venue j.
    """

    def __init__(self, users: list[str], venues: list[str], frequency: np.ndarray):
        self.users = users
        self.venues = venues
        self.user_index = {user: i for i, user in enumerate(users)}
        self.venue_index = {venue: j for j, venue in enumerate(venues)}
        self.frequency = np.asarray(frequency, dtype=np.int64)
        if len(self.user_index) < len(users) or len(self.venue_index) < len(venues):
            raise ValueError("duplicate ids in vocabulary")
        if len(self.frequency) != len(self):
            raise ValueError("frequency array does not match token count")

    @property
    def user_count(self) -> int:
        return len(self.users)

    def __len__(self) -> int:
        return len(self.users) + len(self.venues)


def build_vocabulary(
    train: Iterable[CheckinRecord], min_word_count: int = 1
) -> Vocabulary:
    """Build the user and venue index from training records.

    A user's frequency is their number of check-ins; a venue's frequency is
    the number of times it was checked in. Ids below min_word_count are
    dropped (this applies to users as well as venues).
    """
    if min_word_count < 1:
        raise ValueError("min_word_count must be >= 1")
    user_index: dict[str, int] = {}
    venue_index: dict[str, int] = {}
    user_rows: list[int] = []
    venue_rows: list[int] = []
    for record in train:
        user_rows.append(user_index.setdefault(record.user_id, len(user_index)))
        venue_rows.append(venue_index.setdefault(record.venue_id, len(venue_index)))
    user_freq = np.bincount(user_rows, minlength=len(user_index))
    venue_freq = np.bincount(venue_rows, minlength=len(venue_index))
    user_kept = user_freq >= min_word_count
    venue_kept = venue_freq >= min_word_count
    users = [user for user, kept in zip(user_index, user_kept) if kept]
    venues = [venue for venue, kept in zip(venue_index, venue_kept) if kept]
    if not users and not venues:
        raise EmptyVocabularyError(
            "no token reached min_word_count "
            f"({min_word_count}) over {len(user_rows)} records"
        )
    return Vocabulary(
        users, venues, np.concatenate([user_freq[user_kept], venue_freq[venue_kept]])
    )


def _codes(
    records: Sequence[CheckinRecord], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user rows, venue columns and timestamps of the records whose user
    and venue the vocabulary holds, as int64 arrays in input order."""
    users, venues = vocab.user_index, vocab.venue_index
    rows = np.fromiter((users.get(r.user_id, -1) for r in records), np.int64, len(records))
    cols = np.fromiter((venues.get(r.venue_id, -1) for r in records), np.int64, len(records))
    times = np.fromiter((r.timestamp for r in records), np.int64, len(records))
    kept = (rows >= 0) & (cols >= 0)
    return rows[kept], cols[kept], times[kept]


@dataclass
class SentenceCorpus:
    """Training sentences of vocabulary indices, laid end to end.

    Sentence s is tokens[starts[s]:starts[s + 1]]: a user index followed by
    that user's venue indices in ascending check-in order. max_length feeds
    the whole-sentence window rule for bag-of-words training; total_tokens
    feeds the learning rate schedule.
    """

    tokens: np.ndarray
    starts: np.ndarray

    @property
    def max_length(self) -> int:
        return int(np.diff(self.starts).max(initial=0))

    @property
    def total_tokens(self) -> int:
        return self.tokens.size

    def __len__(self) -> int:
        return self.starts.size - 1


def build_sentences(train: Sequence[CheckinRecord], vocab: Vocabulary) -> SentenceCorpus:
    """Construct one sentence per in-vocabulary user, in user index order.

    Venue tokens are ordered by ascending timestamp with ties broken by
    input order; venues pruned from the vocabulary are omitted; users whose
    sentences would contain no venue token are omitted entirely.
    """
    rows, cols, times = _codes(train, vocab)
    order = np.lexsort((times, rows))  # stable: ties keep input order
    rows, venues = rows[order], cols[order] + vocab.user_count
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))  # each user's first venue
    tokens = np.insert(venues, firsts, rows[firsts])
    return SentenceCorpus(tokens, np.append(firsts + np.arange(firsts.size), tokens.size))


def build_interactions(
    records: Sequence[CheckinRecord], vocab: Vocabulary, binary: bool = False
) -> sparse.csr_matrix:
    """Visits per (user, venue) over the vocabulary: row i is user i, column
    j venue j, vocab.user_count x len(vocab.venues). Records whose user or
    venue the vocabulary lacks are dropped, and repeat visits are summed;
    binary mode stores 1.0 for any visit. The one visit-history table: every
    neighbor recommender votes from its rows."""
    rows, cols, _ = _codes(records, vocab)
    matrix = sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(vocab.user_count, len(vocab.venues))
    )
    if binary:
        matrix.data[:] = 1.0
    return matrix

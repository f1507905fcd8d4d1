"""Check-in ingestion, train/test splitting, vocabulary and sentence construction.

A "sentence" here is one user token followed by that user's venue tokens in
ascending check-in order; it is the unit consumed by embedding training.
Users and venues are numbered by one index, the Vocabulary; a user and a
venue with the same raw id are different rows.
"""

from __future__ import annotations

import gzip
import warnings
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import ConfigError, EmptyVocabularyError, FormatError


MAX_TIMESTAMP = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class Checkins:
    """A check-in log as columns. Row i is user user_ids[users[i]] at venue
    venue_ids[venues[i]] at epoch second times[i], in input order; each
    table holds exactly the ids the rows use, numbered by first occurrence.
    Iterating yields the (user, venue, timestamp) rows back."""

    user_ids: list[str]
    venue_ids: list[str]
    users: np.ndarray
    venues: np.ndarray
    times: np.ndarray

    @classmethod
    def of(cls, rows: Iterable[tuple[str, str, int]]) -> Checkins:
        """Encode (user, venue, timestamp) rows in one pass."""
        user_index: dict[str, int] = {}
        venue_index: dict[str, int] = {}
        users, venues, times = array("q"), array("q"), array("q")
        for user, venue, timestamp in rows:
            users.append(user_index.setdefault(user, len(user_index)))
            venues.append(venue_index.setdefault(venue, len(venue_index)))
            times.append(timestamp)
        columns = (np.frombuffer(column, np.int64) for column in (users, venues, times))
        return cls(list(user_index), list(venue_index), *columns)

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self) -> Iterator[tuple[str, str, int]]:
        return zip(
            map(self.user_ids.__getitem__, self.users.tolist()),
            map(self.venue_ids.__getitem__, self.venues.tolist()),
            self.times.tolist(),
        )

    def _select(self, mask: np.ndarray) -> Checkins:
        """The rows under mask, with tables of only the ids they use."""
        user_ids, users = _renumber(self.user_ids, self.users[mask])
        venue_ids, venues = _renumber(self.venue_ids, self.venues[mask])
        return Checkins(user_ids, venue_ids, users, venues, self.times[mask])


def _renumber(ids: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids that codes use and the codes into them, both renumbered by
    first occurrence in codes."""
    first = np.full(len(ids), codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    used = np.flatnonzero(first < codes.size)
    used = used[np.argsort(first[used])]  # the used ids in first-occurrence order
    renumbered = np.empty(len(ids), dtype=np.int64)
    renumbered[used] = np.arange(used.size)
    return [ids[i] for i in used.tolist()], renumbered[codes]


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

    train: Checkins
    test: Checkins


def parse_checkins(
    source: Iterable[str | bytes], layout: FieldLayout = FieldLayout()
) -> tuple[Checkins, int]:
    """Parse a line-oriented check-in stream.

    Blank lines are ignored. Malformed lines (missing fields, empty ids,
    non-integer, negative or past-int64 timestamps, which the sentence
    builder could not sort) are skipped and counted.

    Returns:
        (the valid lines' check-ins, number of skipped malformed lines)

    Raises:
        FormatError: if more than half of the non-blank lines are malformed,
            which almost always means the field layout is wrong.
    """
    skipped = 0
    width, delimiter = layout.width, layout.delimiter
    user_col, venue_col, time_col = layout.user_col, layout.venue_col, layout.time_col

    def rows() -> Iterator[tuple[str, str, int]]:
        nonlocal skipped
        for raw in source:
            line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
            if not line.strip():
                continue
            parts = line.rstrip("\r\n").split(delimiter)
            if len(parts) >= width:
                user, venue = parts[user_col].strip(), parts[venue_col].strip()
                try:
                    timestamp = int(parts[time_col])  # int() skips surrounding whitespace
                except ValueError:
                    timestamp = -1
                if user and venue and 0 <= timestamp <= MAX_TIMESTAMP:
                    yield user, venue, timestamp
                    continue
            skipped += 1

    log = Checkins.of(rows())
    if skipped > len(log):
        raise FormatError(
            f"{skipped} of {len(log) + skipped} lines malformed; field layout {layout} "
            "probably does not match this file"
        )
    return log, skipped


def _open_text(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def read_checkins(path: str | Path, layout: FieldLayout = FieldLayout()) -> tuple[Checkins, int]:
    """parse_checkins over a file path; transparently handles .gz input."""
    with _open_text(path) as handle:
        return parse_checkins(handle, layout)


def write_checkins(log: Checkins, path: str | Path) -> None:
    """Write the log as user, venue, timestamp TSV; .gz suffix enables gzip."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as handle:
        handle.writelines(f"{user}\t{venue}\t{timestamp}\n" for user, venue, timestamp in log)


def split_train_test(log: Checkins, boundary: int) -> Dataset:
    """Split by timestamp: train strictly before the boundary, test at or
    after. Each side's tables hold only its own ids.

    Degenerate splits are legal and only produce a warning.
    """
    before = log.times < boundary
    dataset = Dataset(train=log._select(before), test=log._select(~before))
    if not len(dataset.train):
        warnings.warn("train side of the split is empty", stacklevel=2)
    if not len(dataset.test):
        warnings.warn("test side of the split is empty", stacklevel=2)
    return dataset


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


def build_vocabulary(train: Checkins, min_word_count: int = 1) -> Vocabulary:
    """Build the user and venue index from the training log's own tables.

    A user's frequency is their number of check-ins; a venue's frequency is
    the number of times it was checked in. Ids below min_word_count are
    dropped (this applies to users as well as venues).
    """
    if min_word_count < 1:
        raise ValueError("min_word_count must be >= 1")
    user_freq = np.bincount(train.users, minlength=len(train.user_ids))
    venue_freq = np.bincount(train.venues, minlength=len(train.venue_ids))
    user_kept = user_freq >= min_word_count
    venue_kept = venue_freq >= min_word_count
    users = list(compress(train.user_ids, user_kept))
    venues = list(compress(train.venue_ids, venue_kept))
    if not users and not venues:
        raise EmptyVocabularyError(
            "no token reached min_word_count "
            f"({min_word_count}) over {len(train)} records"
        )
    return Vocabulary(
        users, venues, np.concatenate([user_freq[user_kept], venue_freq[venue_kept]])
    )


def _codes(log: Checkins, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user rows, venue columns and timestamps of the check-ins whose user
    and venue the vocabulary holds, as int64 arrays in input order."""
    users, venues = vocab.user_index, vocab.venue_index  # each distinct id looked up once
    rows = np.fromiter(map(users.get, log.user_ids, repeat(-1)), np.int64)[log.users]
    cols = np.fromiter(map(venues.get, log.venue_ids, repeat(-1)), np.int64)[log.venues]
    kept = (rows >= 0) & (cols >= 0)
    return rows[kept], cols[kept], log.times[kept]


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


def build_sentences(train: Checkins, vocab: Vocabulary) -> SentenceCorpus:
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


def build_interactions(log: Checkins, vocab: Vocabulary, binary: bool = False) -> sparse.csr_matrix:
    """Visits per (user, venue) over the vocabulary: row i is user i, column
    j venue j, vocab.user_count x len(vocab.venues). Check-ins whose user or
    venue the vocabulary lacks are dropped, and repeat visits are summed;
    binary mode stores 1.0 for any visit. The one visit-history table: every
    neighbor recommender votes from its rows."""
    rows, cols, _ = _codes(log, vocab)
    matrix = sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(vocab.user_count, len(vocab.venues))
    )
    if binary:
        matrix.data[:] = 1.0
    return matrix

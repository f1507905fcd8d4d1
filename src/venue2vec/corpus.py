"""Check-in ingestion, train/test splitting, vocabulary and sentence construction.

A "sentence" here is one user token followed by that user's venue tokens in
ascending check-in order; it is the unit consumed by embedding training.
User and venue tokens live in one vocabulary but are namespaced with the
prefixes below so that identical raw ids can never collide.
"""

from __future__ import annotations

import gzip
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import EmptyVocabularyError, FormatError, TokenNotFoundError

USER_PREFIX = "U:"
VENUE_PREFIX = "V:"


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

    def test_users(self) -> set[str]:
        return {r.user_id for r in self.test}

    def cold_start_users(self) -> set[str]:
        """Test-period users with no training history; excluded from evaluation."""
        return self.test_users() - self.train_users()


def _record_from_parts(
    parts: list[str], layout: FieldLayout, width: int
) -> CheckinRecord | None:
    if len(parts) < width:
        return None
    user = parts[layout.user_col].strip()
    venue = parts[layout.venue_col].strip()
    raw_time = parts[layout.time_col].strip()
    if not user or not venue:
        return None
    try:
        timestamp = int(raw_time)
    except ValueError:
        return None
    if timestamp < 0:
        return None
    return CheckinRecord(user, venue, timestamp)


def parse_checkins(
    source: Iterable[str | bytes], layout: FieldLayout = FieldLayout()
) -> tuple[list[CheckinRecord], int]:
    """Parse a line-oriented check-in stream.

    Blank lines are ignored. Malformed lines (missing fields, empty ids,
    non-integer or negative timestamps) are skipped and counted.

    Returns:
        (records in input order, number of skipped malformed lines)

    Raises:
        FormatError: if more than half of the non-blank lines are malformed,
            which almost always means the field layout is wrong.
    """
    records: list[CheckinRecord] = []
    skipped = 0
    total = 0
    width = layout.width
    for raw in source:
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        total += 1
        record = _record_from_parts(line.split(layout.delimiter), layout, width)
        if record is None:
            skipped += 1
        else:
            records.append(record)
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
    """Token <-> index map over prefixed user and venue tokens.

    Indices are assigned users first, then venues, each in order of first
    occurrence in the training records, so user indices form the contiguous
    range [0, user_count) and venue indices [user_count, len(vocab)).
    """

    def __init__(
        self,
        user_ids: list[str],
        venue_ids: list[str],
        frequency: np.ndarray,
        min_word_count: int,
    ):
        self.index_to_token = [USER_PREFIX + u for u in user_ids] + [
            VENUE_PREFIX + v for v in venue_ids
        ]
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        self.frequency = np.asarray(frequency, dtype=np.int64)
        self.min_word_count = min_word_count
        self.user_count = len(user_ids)
        if len(self.token_to_index) != len(self.index_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        if len(self.frequency) != len(self.index_to_token):
            raise ValueError("frequency array does not match token count")

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def index(self, token: str) -> int:
        try:
            return self.token_to_index[token]
        except KeyError:
            raise TokenNotFoundError(token) from None

    def token(self, index: int) -> str:
        return self.index_to_token[index]

    @staticmethod
    def user_token(user_id: str) -> str:
        return USER_PREFIX + user_id

    @staticmethod
    def venue_token(venue_id: str) -> str:
        return VENUE_PREFIX + venue_id

    @staticmethod
    def strip_prefix(token: str) -> str:
        return token[len(USER_PREFIX):]


def build_vocabulary(
    train: Iterable[CheckinRecord], min_word_count: int = 1
) -> Vocabulary:
    """Build the token vocabulary from training records.

    A user's frequency is their number of check-ins; a venue's frequency is
    the number of times it was checked in. Tokens below min_word_count are
    dropped (this applies to user tokens as well as venue tokens).
    """
    if min_word_count < 1:
        raise ValueError("min_word_count must be >= 1")
    user_freq: Counter[str] = Counter()
    venue_freq: Counter[str] = Counter()
    user_order: list[str] = []
    venue_order: list[str] = []
    for record in train:
        if record.user_id not in user_freq:
            user_order.append(record.user_id)
        if record.venue_id not in venue_freq:
            venue_order.append(record.venue_id)
        user_freq[record.user_id] += 1
        venue_freq[record.venue_id] += 1
    users = [u for u in user_order if user_freq[u] >= min_word_count]
    venues = [v for v in venue_order if venue_freq[v] >= min_word_count]
    if not users and not venues:
        raise EmptyVocabularyError(
            "no token reached min_word_count "
            f"({min_word_count}) over {sum(user_freq.values())} records"
        )
    frequency = np.array(
        [user_freq[u] for u in users] + [venue_freq[v] for v in venues],
        dtype=np.int64,
    )
    return Vocabulary(users, venues, frequency, min_word_count)


@dataclass
class SentenceCorpus:
    """Training sentences as arrays of vocabulary indices.

    Each sentence starts with a user index followed by that user's venue
    indices in ascending check-in order. max_length feeds the whole-sentence
    window rule for bag-of-words training; total_tokens feeds the learning
    rate schedule.
    """

    sentences: list[np.ndarray]
    max_length: int
    total_tokens: int

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)


def build_sentences(
    train: Iterable[CheckinRecord], vocab: Vocabulary
) -> SentenceCorpus:
    """Construct one sentence per in-vocabulary user.

    Venue tokens are ordered by ascending timestamp with ties broken by
    input order; venues pruned from the vocabulary are omitted; users whose
    sentences would contain no venue token are omitted entirely.
    """
    per_user: defaultdict[str, list[tuple[int, int]]] = defaultdict(list)
    for record in train:
        user_token = Vocabulary.user_token(record.user_id)
        venue_token = Vocabulary.venue_token(record.venue_id)
        if user_token not in vocab or venue_token not in vocab:
            continue
        per_user[record.user_id].append(
            (record.timestamp, vocab.index(venue_token))
        )
    sentences: list[np.ndarray] = []
    max_length = 0
    total_tokens = 0
    for user_index in range(vocab.user_count):
        user_id = Vocabulary.strip_prefix(vocab.token(user_index))
        visits = per_user.get(user_id)
        if not visits:
            continue
        visits.sort(key=lambda pair: pair[0])  # stable: ties keep input order
        sentence = np.fromiter(
            (user_index, *(venue for _, venue in visits)),
            dtype=np.int64,
            count=len(visits) + 1,
        )
        sentences.append(sentence)
        max_length = max(max_length, len(sentence))
        total_tokens += len(sentence)
    return SentenceCorpus(sentences, max_length, total_tokens)


@dataclass
class InteractionMatrix:
    """Sparse user x venue visit-count matrix with index maps.

    Rows and columns are numbered in order of first occurrence in the
    records, so a venue's column follows the same order as its vocabulary
    index. The one visit-history table: every neighbor recommender votes
    from its rows.
    """

    matrix: sparse.csr_matrix
    users: list[str]
    venues: list[str]
    user_index: dict[str, int]
    venue_index: dict[str, int]

    @cached_property
    def row_norms(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.matrix.multiply(self.matrix).sum(axis=1)).ravel())

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def venues_of(self, user: str) -> np.ndarray:
        """Column indices of the user's visited venues (empty when unknown)."""
        row = self.user_index.get(user)
        if row is None:
            return np.empty(0, dtype=np.int64)
        return self.matrix.indices[self.matrix.indptr[row] : self.matrix.indptr[row + 1]]

    @classmethod
    def of_vocabulary(cls, vocab: Vocabulary) -> InteractionMatrix:
        """The vocabulary's users and venues with no visits: row i is user
        token i and column j venue token user_count + j."""
        users = [Vocabulary.strip_prefix(t) for t in vocab.index_to_token[: vocab.user_count]]
        venues = [Vocabulary.strip_prefix(t) for t in vocab.index_to_token[vocab.user_count :]]
        return cls(
            sparse.csr_matrix((len(users), len(venues))),
            users,
            venues,
            {u: i for i, u in enumerate(users)},
            {v: j for j, v in enumerate(venues)},
        )

    def aligned_to(self, vocab: Vocabulary) -> InteractionMatrix:
        """This table re-indexed to the vocabulary, as of_vocabulary lays it
        out. Vocabulary users without visits here get empty rows; venues the
        vocabulary lacks are dropped."""
        aligned = InteractionMatrix.of_vocabulary(vocab)
        entries = self.matrix.tocoo()
        rows = np.array([aligned.user_index.get(u, -1) for u in self.users], dtype=np.int64)
        cols = np.array([aligned.venue_index.get(v, -1) for v in self.venues], dtype=np.int64)
        rows, cols = rows[entries.row], cols[entries.col]
        kept = (rows >= 0) & (cols >= 0)
        aligned.matrix = sparse.csr_matrix(
            (entries.data[kept], (rows[kept], cols[kept])), shape=aligned.shape
        )
        return aligned


def build_interactions(
    records: Iterable[CheckinRecord], binary: bool = False
) -> InteractionMatrix:
    """Count visits per (user, venue); binary mode stores 1.0 for any visit."""
    user_index: dict[str, int] = {}
    venue_index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    for record in records:
        rows.append(user_index.setdefault(record.user_id, len(user_index)))
        cols.append(venue_index.setdefault(record.venue_id, len(venue_index)))
    if not rows:
        raise ValueError("cannot build an interaction matrix from zero records")
    # duplicate (user, venue) pairs are summed into one visit count
    matrix = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(user_index), len(venue_index))
    )
    if binary:
        matrix.data[:] = 1.0
    return InteractionMatrix(matrix, list(user_index), list(venue_index), user_index, venue_index)

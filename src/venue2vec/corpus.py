"""Check-in ingestion, train/test splitting, vocabulary and sentence construction.

A "sentence" here is one user token followed by that user's venue tokens in
ascending check-in order; it is the unit consumed by embedding training.
Users and venues are numbered by one index, the Vocabulary; a user and a
venue with the same raw id are different rows.
"""

from __future__ import annotations

import gzip
import re
import warnings
from array import array
from dataclasses import dataclass
from itertools import compress, filterfalse, repeat
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

    @classmethod
    def numbered(cls, user_ids: list[str], venue_ids: list[str], users, venues, times) -> Checkins:
        """The log of rows (user_ids[users[i]], venue_ids[venues[i]], times[i])
        for int64 code columns, its tables cut to the ids the rows use and
        renumbered by first occurrence."""
        user_ids, users = _renumber(user_ids, users)
        venue_ids, venues = _renumber(venue_ids, venues)
        return cls(user_ids, venue_ids, users, venues, times)

    def _select(self, mask: np.ndarray) -> Checkins:
        """The rows under mask, with tables of only the ids they use."""
        return Checkins.numbered(
            self.user_ids, self.venue_ids, self.users[mask], self.venues[mask], self.times[mask]
        )


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


CHUNK_CHARS = 1 << 17  # characters of a check-in file parsed per array pass

# _HIGH_BYTES[k] keeps the first k bytes of a big-endian 64-bit word, _LOW_BYTES[k] the last k
_HIGH_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)
_LOW_BYTES = np.array([2 ** (8 * k) - 1 for k in range(9)], dtype=np.uint64)
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte


def _parse_line(line: str, layout: FieldLayout) -> tuple[str, str, int] | None:
    """The per-line rule: a non-blank line's (user, venue, timestamp), or None
    if it is malformed (missing fields, empty ids, a timestamp that is not an
    integer in [0, MAX_TIMESTAMP])."""
    parts = line.split(layout.delimiter)
    if len(parts) >= layout.width:
        user, venue = parts[layout.user_col].strip(), parts[layout.venue_col].strip()
        try:
            timestamp = int(parts[layout.time_col])  # int() skips surrounding whitespace
        except ValueError:
            return None
        if user and venue and 0 <= timestamp <= MAX_TIMESTAMP:
            return user, venue, timestamp
    return None


def _field_keys(raw: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each printable ASCII field raw[start:start + length] as a key: its
    bytes NUL-padded to whole 8-byte words, as a big-endian uint64 when every
    field fits in one word, as bytes otherwise."""
    words = max(1, -(-int(lengths.max(initial=1)) // 8))
    padded = raw + bytes(8 * words)
    at = np.ndarray((len(padded) - 7,), ">u8", padded, strides=(1,))  # the word at each byte
    columns = [
        np.bitwise_and(
            at[starts + 8 * q], _HIGH_BYTES[np.clip(lengths - 8 * q, 0, 8)], dtype=np.uint64
        )
        for q in range(words)
    ]
    if words == 1:
        return columns[0]
    return np.stack(columns, axis=1).astype(">u8").view(f"S{8 * words}").ravel()


def _key_names(keys: np.ndarray) -> list[str]:
    """The ids the keys stand for."""
    if keys.dtype == np.uint64:
        keys = keys.astype(">u8").view("S8")
    return b"\n".join(keys.tolist()).decode("ascii").split("\n") if keys.size else []


def _digits(
    raw: bytes, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The value of each field raw[start:start + length], and whether the
    field is 1 to 18 ASCII digits (so its value is an int64). Eight digits
    at a time: a big-endian word holds them with the last one lowest, and
    three multiply-adds of halves combine them."""
    ok = (lengths > 0) & (lengths <= 18)
    values = np.zeros(starts.size, np.int64)
    padded = bytes(16) + raw
    at = np.ndarray((len(padded) - 7,), ">u8", padded, strides=(1,))  # the word at each byte
    ends = starts + lengths + 16  # in padded
    for word in range(-(-int(lengths[ok].max(initial=0)) // 8)):  # the last 8 digits first
        kept = _LOW_BYTES[np.clip(lengths - 8 * word, 0, 8)]
        digits = np.bitwise_xor(at[ends - 8 * word - 8], _ZEROS, dtype=np.uint64) & kept
        ok &= (digits | (digits + 0x7676767676767676)) & 0x8080808080808080 == 0  # each <= 9
        digits = (digits >> 8 & 0x00FF00FF00FF00FF) * 10 + (digits & 0x00FF00FF00FF00FF)
        digits = (digits >> 16 & 0x0000FFFF0000FFFF) * 100 + (digits & 0x0000FFFF0000FFFF)
        digits = (digits >> 32) * 10000 + (digits & 0xFFFFFFFF)
        values += digits.astype(np.int64) * 10 ** (8 * word)
    return values, ok


def _number(
    index: dict[str, int],
    keys: np.ndarray,
    key_lines: np.ndarray,
    names: list[str],
    name_lines: np.ndarray,
    codes: np.ndarray,
) -> None:
    """Write into codes[line] the index code of the id on that line: keys[i]
    is the key of the id on key_lines[i], names[j] the id on name_lines[j],
    each in line order. Ids the index lacks get the next codes, in order of
    their first line."""
    distinct, first, group = np.unique(keys, return_index=True, return_inverse=True)
    named = _key_names(distinct) + names
    order = np.argsort(np.concatenate((key_lines[first], name_lines)))
    found = np.empty(len(named), np.int64)
    found[order] = [index.setdefault(named[i], len(index)) for i in order.tolist()]
    codes[key_lines] = found[group]
    codes[name_lines] = found[distinct.size :]


class _Parser:
    """Parses blocks of whole lines into one check-in log.

    A plain line is parsed in array operations over its block: it has
    exactly the layout's fields, split by a one-byte delimiter; every byte
    is printable ASCII or the delimiter; its ids are non-empty with no space
    at either end; and its timestamp is 1 to 18 ASCII digits. Its ids are
    packed into keys, and each distinct key of the block is decoded once;
    its timestamp is read by digit arithmetic. Every other non-blank line
    takes the per-line rule (_parse_line), and both kinds feed one dict per
    table that numbers ids by first occurrence in input order, so the result
    is the per-line rule's on every line.
    """

    def __init__(self, layout: FieldLayout):
        self.layout = layout
        delimiter = layout.delimiter
        self.byte = None  # the delimiter as one byte, when a line can be plain
        if len(delimiter) == 1 and delimiter.isascii() and delimiter not in "\r\n":
            self.byte = ord(delimiter)
            self.expected = bytes(range(0x20, 0x7F)) + bytes((self.byte, 10))
            self.odd = np.ones(256, bool)
            self.odd[np.frombuffer(self.expected, np.uint8)] = False
        self.users: dict[str, int] = {}
        self.venues: dict[str, int] = {}
        self.columns = [np.empty(0, np.int64) for _ in range(3)]
        self.skipped = 0

    def _plain(self, raw: bytes, buf: np.ndarray):
        """The block's line ends, its plain lines, and their user and venue
        fields (starts, lengths) and timestamps."""
        if self.byte is None:
            none = np.empty(0, np.int64)
            return np.flatnonzero(buf == 10), none, (none, none), (none, none), none
        width = self.layout.width
        marks = np.flatnonzero((buf == self.byte) | (buf == 10))
        bounds = np.concatenate(([-1], marks))
        closing = np.flatnonzero(buf[marks] == 10) + 1  # each line's newline, in bounds
        ends = bounds[closing]
        plain = np.diff(closing, prepend=0) == width  # width - 1 delimiters, then the newline
        if raw.translate(None, self.expected):
            plain[np.searchsorted(ends, np.flatnonzero(self.odd[buf]))] = False
        lines = np.flatnonzero(plain)
        before = closing[lines] - width  # the mark before each plain line, in bounds

        def field(column: int) -> tuple[np.ndarray, np.ndarray]:
            starts = bounds[before + column] + 1
            return starts, bounds[before + column + 1] - starts

        user, venue = field(self.layout.user_col), field(self.layout.venue_col)
        times, ok = _digits(raw, *field(self.layout.time_col))
        for starts, lengths in (user, venue):
            ok &= (lengths > 0) & (buf[starts] != 32) & (buf[starts + lengths - 1] != 32)
        return ends, lines[ok], (user[0][ok], user[1][ok]), (venue[0][ok], venue[1][ok]), times[ok]

    def feed(self, text: str) -> None:
        """Parse text, whole lines each ending in a newline."""
        raw = text.encode("utf-8")
        buf = np.frombuffer(raw, np.uint8)
        ends, lines, user, venue, times = self._plain(raw, buf)
        starts = np.concatenate(([0], ends[:-1] + 1))
        rest = ends > starts  # an empty line is blank
        rest[lines] = False
        rest = np.flatnonzero(rest)
        rows, row_lines = [], []
        for i, start, end in zip(rest.tolist(), starts[rest].tolist(), ends[rest].tolist()):
            line = raw[start:end].decode("utf-8")
            if not line.strip():
                continue
            row = _parse_line(line, self.layout)
            if row is None:
                self.skipped += 1
            else:
                rows.append(row)
                row_lines.append(i)
        row_lines = np.array(row_lines, np.int64)
        row_users, row_venues, row_times = zip(*rows) if rows else ((), (), ())
        users, venues, line_times = (np.empty(ends.size, np.int64) for _ in range(3))
        _number(self.users, _field_keys(raw, *user), lines, list(row_users), row_lines, users)
        _number(self.venues, _field_keys(raw, *venue), lines, list(row_venues), row_lines, venues)
        line_times[lines] = times
        line_times[row_lines] = row_times
        valid = np.union1d(lines, row_lines) if rows else lines
        size = self.columns[0].size
        for column, values in zip(self.columns, (users, venues, line_times)):
            column.resize(size + valid.size, refcheck=False)  # grows in place: no copy held
            column[size:] = values[valid]

    def result(self) -> tuple[Checkins, int]:
        log = Checkins(list(self.users), list(self.venues), *self.columns)
        if self.skipped > len(log):
            raise FormatError(
                f"{self.skipped} of {len(log) + self.skipped} lines malformed; field layout "
                f"{self.layout} probably does not match this file"
            )
        return log, self.skipped


def _open_text(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def read_checkins(path: str | Path, layout: FieldLayout = FieldLayout()) -> tuple[Checkins, int]:
    """Parse a line-oriented check-in file, UTF-8 with universal newlines;
    a .gz suffix enables transparent gzip.

    Blank and whitespace-only lines are ignored. Ids are stripped of
    surrounding whitespace. Malformed lines (missing fields, empty ids,
    timestamps that are not integers in [0, 2^63), which the sentence
    builder could not sort) are skipped and counted. The file is read
    CHUNK_CHARS characters at a time and parsed a chunk of whole lines at a
    time in array operations (see _Parser), so memory beyond the result is
    bounded by the chunk.

    Returns:
        (the valid lines' check-ins, number of skipped malformed lines)

    Raises:
        FormatError: if more than half of the non-blank lines are malformed,
            which almost always means the field layout is wrong.
        UnicodeDecodeError: on bytes that are not UTF-8.
    """
    parser = _Parser(layout)
    with _open_text(path) as handle:
        pieces: list[str] = []
        while text := handle.read(CHUNK_CHARS):
            cut = text.rfind("\n") + 1
            if cut:
                parser.feed("".join(pieces) + text[:cut])
                pieces = []
            pieces.append(text[cut:])
        if tail := "".join(pieces):
            parser.feed(tail + "\n")
    return parser.result()


def write_checkins(log: Checkins, path: str | Path) -> None:
    """Write the log as user, venue, timestamp TSV; .gz suffix enables gzip.

    Raises:
        FormatError: before anything is written, naming the first id or
            timestamp read_checkins would not read back as written: an
            empty id, one with whitespace at either end or holding a tab,
            newline or carriage return, or a negative timestamp.
    """
    readable = re.compile(r"\S(?:[^\t\n\r]*\S)?").fullmatch  # an id read_checkins reads back
    for kind, ids in (("user", log.user_ids), ("venue", log.venue_ids)):
        for name in filterfalse(readable, ids):
            raise FormatError(f"{path}: {kind} id {name!r} would not read back as written")
    if (negative := log.times < 0).any():
        raise FormatError(f"{path}: timestamp {log.times[negative.argmax()]} is negative")
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

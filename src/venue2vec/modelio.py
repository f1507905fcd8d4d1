"""Binary and text persistence for embedding models.

The binary format is a versioned header, a length-prefixed UTF-8 token
table with frequencies, then row-major little-endian float32 matrices. The
table's tokens are the vocabulary's users with the prefix U:, then its
venues with the prefix V:, so identical raw ids never collide in the file.
"""

from __future__ import annotations

import operator
import os
import struct
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .embedding import CBOW, SKIP_GRAM, EmbeddingModel, TrainingConfig
from .errors import FormatError

EMBEDDING_MAGIC = b"V2VM"
FORMAT_VERSION = 1

_ARCH_FLAGS = {SKIP_GRAM: 0, CBOW: 1}
_FLAG_ARCHS = {flag: arch for arch, flag in _ARCH_FLAGS.items()}

USER_PREFIX = "U:"
VENUE_PREFIX = "V:"
# both prefixes are two characters: a token splits into prefix and id by slicing
_PREFIX = operator.itemgetter(slice(None, len(USER_PREFIX)))
_ID = operator.itemgetter(slice(len(USER_PREFIX), None))
_TOKEN_LENGTH = struct.Struct("<I")


def _tokens(vocab: Vocabulary) -> list[str]:
    """The file's token for each model row: U: users, then V: venues."""
    return [USER_PREFIX + user for user in vocab.users] + [
        VENUE_PREFIX + venue for venue in vocab.venues
    ]


def _token_table(tokens: list[str], frequencies: np.ndarray) -> bytes:
    """Per token: its UTF-8 byte length as <u4, the bytes, its frequency as <u8."""
    encoded = [token.encode("utf-8") for token in tokens]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    ends = np.cumsum(lengths + 12)
    length_at = (ends - lengths - 12)[:, None] + np.arange(4)
    frequency_at = (ends - 8)[:, None] + np.arange(8)
    table = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    text = np.ones(table.size, dtype=bool)
    text[length_at] = text[frequency_at] = False
    table[length_at] = lengths.astype("<u4").view(np.uint8).reshape(-1, 4)
    table[frequency_at] = frequencies.astype("<u8").view(np.uint8).reshape(-1, 8)
    table[text] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return table.tobytes()


def _read_exact(handle, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise FormatError("model file truncated")
    return data


def _read_token_table(table: bytes, count: int) -> tuple[list[str], np.ndarray, int]:
    """Inverse of _token_table over the first count records of table.

    Returns (tokens, frequencies, bytes the records take). Each record's
    offset depends on the length before it, so the records are walked one
    at a time in memory; the frequencies are then read as one array.
    """
    tokens: list[str] = []
    frequency_at: list[int] = []
    unpack_length = _TOKEN_LENGTH.unpack_from
    offset = 0
    try:
        for _ in range(count):
            end = offset + 4 + unpack_length(table, offset)[0]
            tokens.append(table[offset + 4 : end].decode("utf-8"))
            frequency_at.append(end)
            offset = end + 8
    except UnicodeDecodeError as error:
        raise FormatError(f"token table holds invalid UTF-8: {error}") from None
    except struct.error:  # a length field past the table's end
        raise FormatError("model file truncated inside the token table") from None
    if offset > len(table):
        raise FormatError("model file truncated inside the token table")
    raw = np.frombuffer(table, dtype=np.uint8)
    frequencies = raw[np.array(frequency_at, dtype=np.int64)[:, None] + np.arange(8)]
    return tokens, frequencies.view("<u8")[:, 0].astype(np.int64), offset


def _vocabulary(tokens: list[str], frequencies: np.ndarray, path) -> Vocabulary:
    """The vocabulary of a token table: U: tokens, then V: tokens, none twice."""
    prefixes = list(map(_PREFIX, tokens))
    user_count = prefixes.count(USER_PREFIX)
    expected = [USER_PREFIX] * user_count + [VENUE_PREFIX] * (len(tokens) - user_count)
    if prefixes != expected:
        position = next(i for i, (got, want) in enumerate(zip(prefixes, expected)) if got != want)
        raise FormatError(
            f"{path}: token {position} ({tokens[position]!r}) must start with "
            f"{expected[position]}; the table holds U: tokens, then V: tokens"
        )
    ids = list(map(_ID, tokens))
    try:
        return Vocabulary(ids[:user_count], ids[user_count:], frequencies)
    except ValueError:  # one frequency per token, so the failed check is an id twice
        raise FormatError(f"{path}: the token table holds a token twice") from None


def save_embedding_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write magic, version, |vocab|, F, architecture flag, vocabulary, matrices."""
    vocab = model.vocab
    with open(path, "wb") as handle:
        handle.write(EMBEDDING_MAGIC)
        handle.write(
            struct.pack(
                "<IQIB",
                FORMAT_VERSION,
                len(vocab),
                model.config.feature_count,
                _ARCH_FLAGS[model.config.architecture],
            )
        )
        handle.write(_token_table(_tokens(vocab), vocab.frequency))
        # from the block's own buffer: a float32 block is written without a copy
        handle.write(np.ascontiguousarray(model.weights, dtype="<f4").data)


def load_embedding_model(path: str | Path) -> EmbeddingModel:
    """Inverse of save_embedding_model.

    Only architecture and feature count survive the round trip; the other
    training hyperparameters are not needed for querying and are restored
    as defaults.

    Raises:
        FormatError: if the file is not a well-formed model file, or a weight
            is NaN or infinite.
    """
    with open(path, "rb") as handle:
        if _read_exact(handle, 4) != EMBEDDING_MAGIC:
            raise FormatError(f"{path} is not an embedding model file")
        version, vocab_size, feature_count, arch_flag = struct.unpack(
            "<IQIB", _read_exact(handle, 17)
        )
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported model format version {version}")
        if arch_flag not in _FLAG_ARCHS:
            raise FormatError(f"unknown architecture flag {arch_flag}")
        if vocab_size == 0 or feature_count == 0:
            raise FormatError(
                f"header claims {vocab_size} tokens of {feature_count} features "
                f"in {path}; a model has at least one of each"
            )
        # each token takes at least its 4-byte length and 8-byte frequency;
        # checked before allocating so a corrupt header cannot ask for terabytes
        table_start = handle.tell()
        remaining = os.fstat(handle.fileno()).st_size - table_start
        matrix_bytes = 2 * vocab_size * feature_count * 4
        if vocab_size * 12 + matrix_bytes > remaining:
            raise FormatError(
                f"header claims {vocab_size} tokens of {feature_count} features, "
                f"more than the {remaining} bytes left in {path}"
            )
        # the table is what the matrices leave, unless the file has a tail
        tokens, frequencies, table_size = _read_token_table(
            handle.read(remaining - matrix_bytes), vocab_size
        )
        handle.seek(table_start + table_size)
        vocab = _vocabulary(tokens, frequencies, path)
        weights = np.fromfile(handle, dtype="<f4", count=matrix_bytes // 4)
    if weights.size != matrix_bytes // 4:
        raise FormatError("model file truncated")
    weights = weights.reshape(2 * vocab_size, feature_count)
    if not all(np.isfinite(half).all() for half in np.split(weights, 2)):
        raise FormatError(f"{path} holds a non-finite weight (NaN or inf)")
    config = TrainingConfig(
        architecture=_FLAG_ARCHS[arch_flag], feature_count=feature_count
    )
    return EmbeddingModel(weights, vocab, config)


def export_text_vectors(model: EmbeddingModel, path: str | Path) -> None:
    """Human-readable export: one line per token, the token then F decimals."""
    with open(path, "w", encoding="utf-8") as handle:
        for token, row in zip(_tokens(model.vocab), model.input_vectors):
            values = " ".join(f"{x:.6f}" for x in row)
            handle.write(f"{token} {values}\n")

"""Binary and text persistence for embedding models.

A binary model file (format 2) is the magic V2VM; a little-endian header of
the format version (<u4), token count V (<u8), feature count F (<u4) and
architecture flag (u1: 0 skip-gram, 1 CBOW); the token table: the V tokens'
UTF-8 byte lengths as <u4, then their V frequencies as <u8, then the tokens'
bytes end to end; then the input and output matrices, V x F each, row-major
little-endian float32. So a file is exactly 21 + 12 V + the summed lengths +
8 V F bytes long. The tokens are the vocabulary's users with the prefix U:,
then its venues with the prefix V:, so identical raw ids never collide.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .embedding import CBOW, SKIP_GRAM, EmbeddingModel, TrainingConfig
from .errors import FormatError

EMBEDDING_MAGIC = b"V2VM"
FORMAT_VERSION = 2

_ARCH_FLAGS = {SKIP_GRAM: 0, CBOW: 1}
_FLAG_ARCHS = {flag: arch for arch, flag in _ARCH_FLAGS.items()}
_HEADER = struct.Struct("<IQIB")
_TABLE_START = len(EMBEDDING_MAGIC) + _HEADER.size

USER_PREFIX = "U:"
VENUE_PREFIX = "V:"
# both prefixes are two ASCII characters, so a token's prefix is its first
# two bytes, read as one big-endian 16-bit code
_USER_CODE, _VENUE_CODE = (int.from_bytes(p.encode(), "big") for p in (USER_PREFIX, VENUE_PREFIX))


def _tokens(vocab: Vocabulary) -> list[str]:
    """The file's token for each model row: U: users, then V: venues."""
    return [USER_PREFIX + user for user in vocab.users] + [
        VENUE_PREFIX + venue for venue in vocab.venues
    ]


def _char_starts(data: bytes) -> np.ndarray:
    """Whether each byte of UTF-8 data starts a character (is not 10xxxxxx)."""
    return (np.frombuffer(data, dtype=np.uint8) & 0xC0) != 0x80


def _read_exact(handle, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise FormatError("model file truncated")
    return data


def _vocabulary(lengths: np.ndarray, frequencies: np.ndarray, data: bytes, path) -> Vocabulary:
    """The vocabulary of a token table: the tokens' byte lengths and
    frequencies and their bytes end to end, decoded once and sliced. The
    tokens must be valid UTF-8, U: tokens, then V: tokens, none twice.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FormatError(f"{path}: token table holds invalid UTF-8: {error}") from None
    ends = np.cumsum(lengths, dtype=np.int64)
    starts = ends - lengths
    padded = np.frombuffer(data + bytes(2), dtype=np.uint8)  # a second byte for every token
    codes = np.where(lengths < 2, -1, padded[starts].astype(np.int64) << 8 | padded[starts + 1])
    if len(text) != len(data):  # a character takes more than one byte
        first = np.append(_char_starts(data), True)
        inside = np.flatnonzero(~first[starts])
        if inside.size:
            raise FormatError(
                f"{path}: token {inside[0]} starts inside a character, so the token "
                f"table holds invalid UTF-8"
            )
        # each byte offset's character offset: the character starts before it
        chars = np.concatenate(([0], np.cumsum(first[:-1])))
        starts, ends = chars[starts], chars[ends]
    user_count = int(np.count_nonzero(codes == _USER_CODE))
    expected = np.where(np.arange(len(codes)) < user_count, _USER_CODE, _VENUE_CODE)
    wrong = np.flatnonzero(codes != expected)
    if wrong.size:
        position = int(wrong[0])
        raise FormatError(
            f"{path}: token {position} ({text[starts[position] : ends[position]]!r}) must start "
            f"with {USER_PREFIX if position < user_count else VENUE_PREFIX}; the table holds "
            f"U: tokens, then V: tokens"
        )
    ids = [text[a:b] for a, b in zip((starts + len(USER_PREFIX)).tolist(), ends.tolist())]
    try:
        return Vocabulary(ids[:user_count], ids[user_count:], frequencies)
    except ValueError:  # one frequency per token, so the failed check is an id twice
        raise FormatError(f"{path}: the token table holds a token twice") from None


def save_embedding_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write magic, header, token table and matrices (see the module docstring)."""
    vocab, config = model.vocab, model.config
    tokens = _tokens(vocab)
    text = "".join(tokens)
    data = text.encode("utf-8")
    ends = np.cumsum(np.fromiter(map(len, tokens), np.int64, len(tokens)))
    if len(data) != len(text):  # a character takes more than one byte
        # each character offset's byte offset: where the character starts
        ends = np.append(np.flatnonzero(_char_starts(data)), len(data))[ends]
    with open(path, "wb") as handle:
        handle.write(EMBEDDING_MAGIC + _HEADER.pack(
            FORMAT_VERSION, len(vocab), config.feature_count, _ARCH_FLAGS[config.architecture]
        ))
        handle.write(np.diff(ends, prepend=0).astype("<u4").data)
        handle.write(vocab.frequency.astype("<u8").data)
        handle.write(data)
        # from the block's own buffer: a float32 block is written without a copy
        handle.write(np.ascontiguousarray(model.weights, dtype="<f4").data)


def load_embedding_model(path: str | Path) -> EmbeddingModel:
    """Inverse of save_embedding_model.

    Only architecture and feature count survive the round trip; the other
    training hyperparameters are not needed for querying and are restored
    as defaults.

    Raises:
        FormatError: if the file is not a well-formed model file of this
            format version, is longer than its header and token lengths
            say, or a weight is NaN or infinite.
    """
    with open(path, "rb") as handle:
        if _read_exact(handle, 4) != EMBEDDING_MAGIC:
            raise FormatError(f"{path} is not an embedding model file")
        version, vocab_size, feature_count, arch_flag = _HEADER.unpack(
            _read_exact(handle, _HEADER.size)
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
        # each token takes its 4-byte length and 8-byte frequency; checked
        # before allocating so a corrupt header cannot ask for terabytes
        size = os.fstat(handle.fileno()).st_size
        matrix_bytes = 2 * vocab_size * feature_count * 4
        if _TABLE_START + vocab_size * 12 + matrix_bytes > size:
            raise FormatError(
                f"header claims {vocab_size} tokens of {feature_count} features, "
                f"more than the {size - _TABLE_START} bytes left in {path}"
            )
        table = _read_exact(handle, vocab_size * 12)
        lengths = np.frombuffer(table, dtype="<u4", count=vocab_size)
        frequencies = np.frombuffer(table, dtype="<u8", offset=vocab_size * 4)
        text_bytes = int(lengths.sum(dtype=np.int64))
        extra = size - handle.tell() - text_bytes - matrix_bytes
        if extra < 0:
            raise FormatError(
                f"{path} is truncated: {-extra} bytes short of what its header and token "
                f"table's lengths say"
            )
        if extra > 0:
            raise FormatError(f"{path} holds {extra} bytes after its weights")
        data = _read_exact(handle, text_bytes)
        vocab = _vocabulary(lengths, frequencies.astype(np.int64), data, path)
        weights = np.fromfile(handle, dtype="<f4", count=matrix_bytes // 4)
    if weights.size != matrix_bytes // 4:  # the file shrank while it was read
        raise FormatError("model file truncated")
    weights = weights.reshape(2 * vocab_size, feature_count)
    if not all(np.isfinite(half).all() for half in np.split(weights, 2)):
        raise FormatError(f"{path} holds a non-finite weight (NaN or inf)")
    config = TrainingConfig(architecture=_FLAG_ARCHS[arch_flag], feature_count=feature_count)
    return EmbeddingModel(weights, vocab, config)


def export_text_vectors(model: EmbeddingModel, path: str | Path) -> None:
    """Human-readable export: one line per token, the token then F decimals."""
    with open(path, "w", encoding="utf-8") as handle:
        for token, row in zip(_tokens(model.vocab), model.input_vectors):
            values = " ".join(f"{x:.6f}" for x in row)
            handle.write(f"{token} {values}\n")

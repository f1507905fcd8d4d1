"""Binary and text persistence for embedding models.

The binary format is a versioned header, a length-prefixed UTF-8 token
table with frequencies, then row-major little-endian float32 matrices.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .corpus import USER_PREFIX, Vocabulary
from .embedding import CBOW, SKIP_GRAM, EmbeddingModel, TrainingConfig
from .errors import FormatError

EMBEDDING_MAGIC = b"V2VM"
FORMAT_VERSION = 1

_ARCH_FLAGS = {SKIP_GRAM: 0, CBOW: 1}
_FLAG_ARCHS = {flag: arch for arch, flag in _ARCH_FLAGS.items()}


def _write_token(handle, token: str) -> None:
    data = token.encode("utf-8")
    handle.write(struct.pack("<I", len(data)))
    handle.write(data)


def _read_exact(handle, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise FormatError("model file truncated")
    return data


def _read_token(handle) -> str:
    (length,) = struct.unpack("<I", _read_exact(handle, 4))
    return _read_exact(handle, length).decode("utf-8")


def _write_matrix(handle, matrix: np.ndarray) -> None:
    handle.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _read_matrix(handle, rows: int, cols: int) -> np.ndarray:
    data = _read_exact(handle, rows * cols * 4)
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols).copy()


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
        for index in range(len(vocab)):
            _write_token(handle, vocab.token(index))
            handle.write(struct.pack("<Q", int(vocab.frequency[index])))
        _write_matrix(handle, model.input_vectors)
        _write_matrix(handle, model.output_vectors)


def load_embedding_model(path: str | Path) -> EmbeddingModel:
    """Inverse of save_embedding_model.

    Only architecture and feature count survive the round trip; the other
    training hyperparameters are not needed for querying and are restored
    as defaults.
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
        # each token takes at least its 4-byte length and 8-byte frequency;
        # checked before allocating so a corrupt header cannot ask for terabytes
        remaining = os.fstat(handle.fileno()).st_size - handle.tell()
        if vocab_size * (12 + 2 * feature_count * 4) > remaining:
            raise FormatError(
                f"header claims {vocab_size} tokens of {feature_count} features, "
                f"more than the {remaining} bytes left in {path}"
            )
        tokens: list[str] = []
        frequencies = np.empty(vocab_size, dtype=np.int64)
        for index in range(vocab_size):
            tokens.append(_read_token(handle))
            (frequencies[index],) = struct.unpack("<Q", _read_exact(handle, 8))
        user_count = sum(1 for t in tokens if t.startswith(USER_PREFIX))
        prefix_width = len(USER_PREFIX)
        vocab = Vocabulary(
            [t[prefix_width:] for t in tokens[:user_count]],
            [t[prefix_width:] for t in tokens[user_count:]],
            frequencies,
            min_word_count=1,
        )
        input_vectors = _read_matrix(handle, vocab_size, feature_count)
        output_vectors = _read_matrix(handle, vocab_size, feature_count)
    config = TrainingConfig(
        architecture=_FLAG_ARCHS[arch_flag], feature_count=feature_count
    )
    return EmbeddingModel(input_vectors, output_vectors, vocab, config)


def export_text_vectors(model: EmbeddingModel, path: str | Path) -> None:
    """Human-readable export: one line per token, the token then F decimals."""
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(len(model.vocab)):
            values = " ".join(f"{x:.6f}" for x in model.input_vectors[index])
            handle.write(f"{model.vocab.token(index)} {values}\n")

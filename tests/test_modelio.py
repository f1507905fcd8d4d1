import struct

import numpy as np
import pytest

from venue2vec.corpus import Vocabulary, build_vocabulary
from venue2vec.embedding import TrainingConfig, init_model
from venue2vec.errors import FormatError
from venue2vec.modelio import (
    EMBEDDING_MAGIC,
    export_text_vectors,
    load_embedding_model,
    save_embedding_model,
)

from conftest import make_records


def test_embedding_model_roundtrip(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    loaded = load_embedding_model(path)
    assert loaded.config.architecture == toy_model.config.architecture
    assert loaded.config.feature_count == toy_model.config.feature_count
    assert len(loaded.vocab) == len(toy_model.vocab)
    assert loaded.vocab.user_count == toy_model.vocab.user_count
    assert loaded.vocab.users == toy_model.vocab.users
    assert loaded.vocab.venues == toy_model.vocab.venues
    np.testing.assert_array_equal(loaded.vocab.frequency, toy_model.vocab.frequency)
    np.testing.assert_array_equal(loaded.input_vectors, toy_model.input_vectors)
    np.testing.assert_array_equal(loaded.output_vectors, toy_model.output_vectors)


def test_roundtrip_of_multibyte_ids_and_wide_frequencies(tmp_path):
    """Token lengths count UTF-8 bytes, not characters, and frequencies take
    all 64 bits: ids with multi-byte characters and frequencies of 2^32 and
    more come back as saved."""
    vocab = Vocabulary(["café", "u2"], ["東京", "v2"], np.array([2**32 + 5, 1, 2**40, 3]))
    model = init_model(vocab, TrainingConfig(feature_count=2, seed=0))
    path = tmp_path / "model.bin"
    save_embedding_model(model, path)
    first = "U:café".encode("utf-8")
    assert path.read_bytes()[21 : 21 + 4 + len(first) + 8] == (
        struct.pack("<I", 7) + first + struct.pack("<Q", 2**32 + 5)
    )
    loaded = load_embedding_model(path)
    assert (loaded.vocab.users, loaded.vocab.venues) == (vocab.users, vocab.venues)
    assert loaded.vocab.frequency.tolist() == [2**32 + 5, 1, 2**40, 3]
    np.testing.assert_array_equal(loaded.weights, model.weights)


def test_embedding_file_header_layout(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = path.read_bytes()
    assert blob[:4] == EMBEDDING_MAGIC
    version, vocab_size, features, arch = struct.unpack("<IQIB", blob[4:21])
    assert version == 1
    assert vocab_size == len(toy_model.vocab)
    assert features == 2
    assert arch == 0  # skip-gram
    # the token records after the header: <u4 length, UTF-8 bytes, <u8 count
    tokens, offset = [], 21
    for _ in range(vocab_size):
        (length,) = struct.unpack_from("<I", blob, offset)
        tokens.append(blob[offset + 4 : offset + 4 + length].decode("utf-8"))
        offset += 4 + length + 8
    assert tokens[0] == "U:" + toy_model.vocab.users[0]
    assert tokens[-1] == "V:" + toy_model.vocab.venues[-1]
    assert offset == len(blob) - 2 * toy_model.input_vectors.size * 4


def test_embedding_matrices_little_endian_f32(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = path.read_bytes()
    n, f = toy_model.input_vectors.shape
    tail = blob[-2 * n * f * 4 :]
    inputs = np.frombuffer(tail[: n * f * 4], dtype="<f4").reshape(n, f)
    np.testing.assert_array_equal(inputs, toy_model.input_vectors)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError):
        load_embedding_model(path)


def test_load_rejects_truncated_file(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError):
        load_embedding_model(clipped)


def test_text_export_one_line_per_token(tmp_path, toy_model):
    path = tmp_path / "vectors.txt"
    export_text_vectors(toy_model, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(toy_model.vocab)
    token, *values = lines[0].split(" ")
    assert token == "U:" + toy_model.vocab.users[0]
    assert len(values) == toy_model.config.feature_count
    float(values[0])  # parseable decimals


def test_load_rejects_header_claiming_more_than_the_file_holds(tmp_path, toy_model):
    """A header claiming 2^40 tokens must fail on the size check, not by
    trying to allocate terabytes."""
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = bytearray(path.read_bytes())
    blob[8:16] = struct.pack("<Q", 2**40)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="header claims"):
        load_embedding_model(corrupt)


def test_load_rejects_file_cut_inside_token_table(tmp_path, toy_model):
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[: 21 + 30])  # header plus part of the token table
    with pytest.raises(FormatError):
        load_embedding_model(clipped)


def test_load_rejects_token_length_past_the_table(tmp_path, toy_model):
    """A token length that runs past the table fails the table walk."""
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = bytearray(path.read_bytes())
    blob[21:25] = struct.pack("<I", 10_000)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="token table"):
        load_embedding_model(corrupt)


def _model_file_with_tokens(path, tokens, header=b""):
    """A two-token model file whose token table reads tokens; header's bytes,
    if any, overwrite the header's token and feature counts from byte 8 on."""
    vocab = build_vocabulary(make_records({"u1": ["v1"]}), 1)
    model = init_model(vocab, TrainingConfig(feature_count=2, seed=0))
    save_embedding_model(model, path)
    blob = path.read_bytes()
    table = b"".join(
        struct.pack("<I", len(token)) + token.encode("utf-8") + struct.pack("<Q", 1)
        for token in tokens
    )
    blob = bytearray(blob[:21] + table + blob[-2 * model.input_vectors.size * 4 :])
    blob[8 : 8 + len(header)] = header
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize(
    "tokens, header, reason",
    [
        (["U:u1", "v1"], b"", r"token 1 \('v1'\) must start with V:"),
        (["V:v1", "U:u1"], b"", r"token 0 \('V:v1'\) must start with U:"),
        (["U:u1", "U:u1"], b"", "holds a token twice"),
        (["U:u1", "V:v1"], struct.pack("<Q", 0), "header claims 0 tokens of 2 features"),
        (["U:u1", "V:v1"], struct.pack("<QI", 2, 0), "header claims 2 tokens of 0 features"),
    ],
    ids=["no-prefix", "user-after-venue", "duplicate", "no-tokens", "no-features"],
)
def test_load_rejects_bad_token_table(tmp_path, tokens, header, reason):
    """A token table or header no model could have written is a FormatError
    naming the file, before any vocabulary or matrix is built."""
    path = _model_file_with_tokens(tmp_path / "model.bin", tokens, header)
    with pytest.raises(FormatError, match=reason) as error:
        load_embedding_model(path)
    assert str(path) in str(error.value)

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
    table = path.read_bytes()[21 : 21 + 12 * 4 + 23]
    assert table == (
        struct.pack("<4I", 7, 4, 8, 4)
        + struct.pack("<4Q", 2**32 + 5, 1, 2**40, 3)
        + "U:caféU:u2V:東京V:v2".encode("utf-8")
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
    assert version == 2
    assert vocab_size == len(toy_model.vocab)
    assert features == 2
    assert arch == 0  # skip-gram
    # the token table after the header: every <u4 length, every <u8
    # frequency, then the tokens' UTF-8 bytes end to end
    lengths = np.frombuffer(blob, "<u4", vocab_size, offset=21)
    offset = 21 + 4 * vocab_size
    frequencies = np.frombuffer(blob, "<u8", vocab_size, offset=offset)
    np.testing.assert_array_equal(frequencies, toy_model.vocab.frequency)
    offset += 8 * vocab_size
    ends = offset + np.cumsum(lengths)
    tokens = [blob[a:b].decode("utf-8") for a, b in zip(ends - lengths, ends)]
    assert tokens[0] == "U:" + toy_model.vocab.users[0]
    assert tokens[-1] == "V:" + toy_model.vocab.venues[-1]
    assert ends[-1] == len(blob) - 2 * toy_model.input_vectors.size * 4


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
    """A token length that runs past the file fails the size check."""
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = bytearray(path.read_bytes())
    blob[21:25] = struct.pack("<I", 10_000)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="token table"):
        load_embedding_model(corrupt)


@pytest.mark.parametrize(
    "cut", [6, 4 * 11 + 4, 12 * 11 + 3], ids=["lengths", "frequencies", "token-bytes"]
)
def test_load_rejects_file_cut_inside_each_table_part(tmp_path, toy_model, cut):
    """A file that ends inside the 11 token lengths, the frequencies or the
    tokens' bytes fails the header's size bound, which counts 12 table
    bytes a token besides the weights."""
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    assert len(toy_model.vocab) == 11
    path.write_bytes(path.read_bytes()[: 21 + cut])
    with pytest.raises(FormatError, match="header claims"):
        load_embedding_model(path)


@pytest.mark.parametrize("second_file", [False, True], ids=["one-byte", "two-files-end-to-end"])
def test_load_rejects_bytes_after_the_weights(tmp_path, toy_model, second_file):
    """A model file ends with its weights: one stray byte, or a second model
    file after the first, is a FormatError, not ignored."""
    path = tmp_path / "model.bin"
    save_embedding_model(toy_model, path)
    blob = path.read_bytes()
    tail = blob if second_file else b"\0"
    path.write_bytes(blob + tail)
    with pytest.raises(FormatError, match=f"holds {len(tail)} bytes after its weights"):
        load_embedding_model(path)


def test_load_rejects_a_version_1_file(tmp_path):
    """A hand-built file of format 1 (per token: <u4 length, the bytes, <u8
    frequency) fails the version check and names its version."""
    table = b"".join(
        struct.pack("<I", len(token)) + token + struct.pack("<Q", 1)
        for token in (b"U:u1", b"V:v1")
    )
    path = tmp_path / "model.bin"
    path.write_bytes(
        EMBEDDING_MAGIC + struct.pack("<IQIB", 1, 2, 2, 0) + table + bytes(2 * 2 * 2 * 4)
    )
    with pytest.raises(FormatError, match="version 1"):
        load_embedding_model(path)


def test_save_load_save_writes_the_same_bytes(tmp_path):
    """A loaded model saves to the file it was loaded from, byte for byte,
    with multi-byte ids among ASCII ones."""
    vocab = Vocabulary(["ü", "u2", "日本"], ["v1", "ÿ€𝄞"], np.array([3, 1, 4, 1, 5]))
    model = init_model(vocab, TrainingConfig(architecture="cbow", feature_count=3, seed=2))
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_embedding_model(model, first)
    save_embedding_model(load_embedding_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def _model_file_with_tokens(path, tokens, header=b""):
    """A two-token model file whose token table reads tokens (str, or bytes
    as they stand); header's bytes, if any, overwrite the header's token
    and feature counts from byte 8 on."""
    vocab = build_vocabulary(make_records({"u1": ["v1"]}), 1)
    model = init_model(vocab, TrainingConfig(feature_count=2, seed=0))
    save_embedding_model(model, path)
    blob = path.read_bytes()
    data = [t if isinstance(t, bytes) else t.encode("utf-8") for t in tokens]
    table = (
        b"".join(struct.pack("<I", len(token)) for token in data)
        + struct.pack("<Q", 1) * len(data)
        + b"".join(data)
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
        (["U:u1", b"V:v\xff"], b"", "invalid UTF-8"),
        # valid UTF-8 end to end, but token 1 starts inside the é of token 0
        ([b"U:\xc3", b"\xa9V:v1"], b"", "token 1 starts inside a character.*invalid UTF-8"),
        # an empty token must not take the next token's prefix as its own
        (["", "U:u1"], b"", r"token 0 \(''\) must start with U:"),
    ],
    ids=["no-prefix", "user-after-venue", "duplicate", "no-tokens", "no-features",
         "invalid-utf8", "starts-on-continuation-byte", "empty-token"],
)
def test_load_rejects_bad_token_table(tmp_path, tokens, header, reason):
    """A token table or header no model could have written is a FormatError
    naming the file, before any vocabulary or matrix is built."""
    path = _model_file_with_tokens(tmp_path / "model.bin", tokens, header)
    with pytest.raises(FormatError, match=reason) as error:
        load_embedding_model(path)
    assert str(path) in str(error.value)

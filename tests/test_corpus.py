import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venue2vec.corpus import (
    CheckinRecord,
    FieldLayout,
    build_sentences,
    build_vocabulary,
    parse_checkins,
    read_checkins,
    split_train_test,
    write_checkins,
)
from venue2vec.errors import EmptyVocabularyError, FormatError
from venue2vec.fixtures import FixtureSpec, generate_fixture

from conftest import make_records, sentences_of, token_of
from oracles import sentences_reference


def test_parse_single_line():
    records, skipped = parse_checkins(["u1\tv9\t1296000000"])
    assert records == [CheckinRecord("u1", "v9", 1296000000)]
    assert skipped == 0


def test_parse_empty_stream():
    records, skipped = parse_checkins([])
    assert records == []
    assert skipped == 0


def test_parse_skips_malformed_line():
    lines = ["u1\tv1\t100", "u2\t\t200", "u3\tv3\t300"]
    records, skipped = parse_checkins(lines)
    assert [r.user_id for r in records] == ["u1", "u3"]
    assert skipped == 1


@pytest.mark.parametrize(
    "bad", ["u1\tv1", "u1\tv1\tnot-a-number", "u1\tv1\t-5", "\tv1\t100", f"u1\tv1\t{2**63}"]
)
def test_parse_malformed_variants(bad):
    records, skipped = parse_checkins([bad, "ok\tv\t1", "ok2\tv\t2"])
    assert len(records) == 2
    assert skipped == 1


def test_parse_majority_malformed_is_format_error():
    with pytest.raises(FormatError):
        parse_checkins(["a,b,100", "c,d,200", "u\tv\t300"])


def test_parse_exactly_half_malformed_is_tolerated():
    # the format-error threshold is strictly more than half
    records, skipped = parse_checkins(["bad", "u\tv\t1", "also bad", "w\tx\t2"])
    assert len(records) == 2
    assert skipped == 2


def test_parse_ignores_blank_lines():
    records, skipped = parse_checkins(["", "   ", "u\tv\t1", "\n"])
    assert len(records) == 1
    assert skipped == 0


def test_parse_custom_layout():
    layout = FieldLayout(delimiter=",", user_col=2, venue_col=0, time_col=1)
    records, _ = parse_checkins(["v7,123,alice"], layout)
    assert records == [CheckinRecord("alice", "v7", 123)]


def test_parse_accepts_bytes_lines():
    records, _ = parse_checkins([b"u1\tv1\t42"])
    assert records[0].timestamp == 42


def test_read_checkins_gzip_roundtrip(tmp_path):
    records = make_records({"a": ["x", "y"], "b": ["x"]})
    path = tmp_path / "checkins.tsv.gz"
    write_checkins(records, path)
    with gzip.open(path, "rt") as handle:
        assert len(handle.readlines()) == 3
    back, skipped = read_checkins(path)
    assert back == records
    assert skipped == 0


def test_split_strict_boundary():
    records = [CheckinRecord("u", "v", t) for t in (1, 2, 3)]
    dataset = split_train_test(records, 3)
    assert [r.timestamp for r in dataset.train] == [1, 2]
    assert [r.timestamp for r in dataset.test] == [3]


def test_split_degenerate_all_test():
    records = [CheckinRecord("u", "v", t) for t in (5, 6)]
    with pytest.warns(UserWarning):
        dataset = split_train_test(records, 0)
    assert dataset.train == []
    assert len(dataset.test) == 2


def test_split_fixture_counts_match_generator():
    spec = FixtureSpec(seed=5, communities=2, users_per_community=10,
                       venues_per_community=20, train_checkins_per_user=12,
                       test_checkins_per_user=4)
    records, summary = generate_fixture(spec)
    dataset = split_train_test(records, summary.boundary)
    assert len(dataset.train) == summary.train_count
    assert len(dataset.test) == summary.test_count


def test_vocabulary_counts_users_and_venues():
    records = make_records({"a": ["x", "y", "z"], "b": ["x"]})
    vocab = build_vocabulary(records, 1)
    assert len(vocab) == 5
    assert vocab.user_count == 2
    assert vocab.frequency[vocab.user_index["a"]] == 3
    assert vocab.frequency[vocab.user_count + vocab.venue_index["x"]] == 2


def test_vocabulary_min_count_prunes_rare_venue():
    records = make_records({"a": ["x", "x", "y"], "b": ["x"]})
    vocab = build_vocabulary(records, 2)
    assert "y" not in vocab.venue_index
    assert "x" in vocab.venue_index
    assert "b" not in vocab.user_index  # frequency floor applies to users too
    corpus = build_sentences(records, vocab)
    assert [len(s) for s in sentences_of(corpus)] == [3]  # a: [x, x]; y dropped


def test_vocabulary_empty_train_raises():
    with pytest.raises(EmptyVocabularyError):
        build_vocabulary([], 1)


def test_vocabulary_namespaces_never_collide():
    records = make_records({"same": ["same"]})
    vocab = build_vocabulary(records, 1)
    assert len(vocab) == 2
    assert vocab.user_index["same"] != vocab.user_count + vocab.venue_index["same"]


def test_vocabulary_checkinsjan_scale_counts():
    # one community sized to the real dataset's user/venue counts; the
    # coverage pass guarantees every venue appears, so vocabulary size is
    # exactly users + venues = 57829
    spec = FixtureSpec(
        seed=1,
        communities=1,
        users_per_community=8308,
        venues_per_community=49521,
        train_checkins_per_user=10,
        test_checkins_per_user=1,
    )
    records, summary = generate_fixture(spec)
    dataset = split_train_test(records, summary.boundary)
    vocab = build_vocabulary(dataset.train, 1)
    assert summary.user_count == 8308
    assert summary.venue_count == 49521
    assert len(vocab) == 57829


def test_sentence_orders_venues_by_timestamp():
    records = [
        CheckinRecord("u0", "v2", 200),
        CheckinRecord("u0", "v1", 100),
        CheckinRecord("u0", "v3", 300),
    ]
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    tokens = [token_of(vocab, i) for i in sentences_of(corpus)[0]]
    assert tokens == ["U:u0", "V:v1", "V:v2", "V:v3"]
    assert corpus.max_length == 4


def test_sentence_tie_break_is_input_order():
    records = [
        CheckinRecord("u0", "late", 100),
        CheckinRecord("u0", "early", 100),
    ]
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    tokens = [token_of(vocab, i) for i in sentences_of(corpus)[0]]
    assert tokens == ["U:u0", "V:late", "V:early"]


def test_user_with_only_pruned_venues_is_omitted():
    records = make_records({"a": ["x", "x"], "b": ["y"]})
    vocab = build_vocabulary(records, 2)
    corpus = build_sentences(records, vocab)
    users = {token_of(vocab, s[0]) for s in sentences_of(corpus)}
    assert users == {"U:a"}


def test_max_sentence_length_683():
    visits = {"big": [f"v{i % 300}" for i in range(682)], "small": ["v0"]}
    records = make_records(visits)
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    assert corpus.max_length == 683


@st.composite
def record_lists(draw, times=st.integers(0, 10**9)):
    users = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30))
    records = []
    for i, user in enumerate(users):
        venue = draw(st.sampled_from(["v1", "v2", "v3", "v4"]))
        records.append(CheckinRecord(user, venue, draw(times)))
    return records


@given(record_lists(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_token_conservation_property(records, min_count):
    """Sum of (sentence length - 1) equals the records surviving pruning."""
    try:
        vocab = build_vocabulary(records, min_count)
    except EmptyVocabularyError:
        return
    corpus = build_sentences(records, vocab)
    surviving = sum(
        1
        for r in records
        if r.user_id in vocab.user_index and r.venue_id in vocab.venue_index
    )
    assert sum(len(s) - 1 for s in sentences_of(corpus)) == surviving


@given(record_lists(times=st.integers(0, 3)), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_build_sentences_matches_oracle(records, min_count):
    """Interleaved users with tied timestamps: every sentence, token for
    token, as the brute-force oracle builds it."""
    try:
        vocab = build_vocabulary(records, min_count)
    except EmptyVocabularyError:
        return
    corpus = build_sentences(records, vocab)
    expected = sentences_reference(records, vocab)
    assert [s.tolist() for s in sentences_of(corpus)] == expected
    assert corpus.total_tokens == sum(map(len, expected))
    assert corpus.max_length == max(map(len, expected), default=0)


@given(record_lists())
@settings(max_examples=30, deadline=None)
def test_build_sentences_deterministic(records):
    vocab = build_vocabulary(records, 1)
    first = build_sentences(records, vocab)
    second = build_sentences(records, vocab)
    assert len(sentences_of(first)) == len(sentences_of(second))
    for a, b in zip(sentences_of(first), sentences_of(second)):
        assert np.array_equal(a, b)


@given(records=record_lists())
@settings(max_examples=30, deadline=None)
def test_dataset_roundtrip_exact(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "data.tsv"
    write_checkins(records, path)
    back, skipped = read_checkins(path)
    assert skipped == 0
    assert back == records


@st.composite
def layouts_with_records(draw):
    """A layout with a non-alphanumeric delimiter, plus records it can hold:
    ids without the delimiter or line breaks, and without surrounding
    whitespace, which the parser strips."""
    delimiter = draw(
        st.characters(exclude_categories=("L", "N", "Cs"), exclude_characters="\r\n")
    )
    width = draw(st.integers(3, 6))
    user_col, venue_col, time_col = draw(st.permutations(range(width)))[:3]
    ids = st.text(
        alphabet=st.characters(
            exclude_categories=("Cs",), exclude_characters="\r\n" + delimiter
        ),
        min_size=1,
    ).filter(lambda text: text == text.strip())
    records = draw(
        st.lists(st.builds(CheckinRecord, ids, ids, st.integers(0, 2**40)), max_size=8)
    )
    return FieldLayout(delimiter, user_col, venue_col, time_col), records


@given(layouts_with_records())
@settings(max_examples=60, deadline=None)
def test_checkins_roundtrip_under_any_layout(tmp_path_factory, case):
    layout, records = case
    path = tmp_path_factory.mktemp("layout") / "data.txt"
    write_checkins(records, path, layout)
    back, skipped = read_checkins(path, layout)
    assert skipped == 0
    assert back == records


def test_fixture_zero_noise_stays_in_community():
    spec = FixtureSpec(seed=3, communities=3, users_per_community=5,
                       venues_per_community=10, train_checkins_per_user=8,
                       test_checkins_per_user=2)
    records, _ = generate_fixture(spec)
    for record in records:
        assert record.user_id.split("u")[0] == record.venue_id.split("v")[0]


def test_fixture_full_noise_crosses_communities():
    spec = FixtureSpec(seed=3, communities=2, users_per_community=5,
                       venues_per_community=10, train_checkins_per_user=10,
                       test_checkins_per_user=2, noise_rate=1.0)
    records, _ = generate_fixture(spec)
    crossed = sum(
        1
        for r in records
        if r.user_id.split("u")[0] != r.venue_id.split("v")[0]
    )
    assert crossed > 0


def test_fixture_deterministic_per_seed():
    spec = FixtureSpec(seed=9, communities=2, users_per_community=4,
                       venues_per_community=8, train_checkins_per_user=6,
                       test_checkins_per_user=2)
    first, _ = generate_fixture(spec)
    second, _ = generate_fixture(spec)
    assert first == second

import gzip
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venue2vec import corpus
from venue2vec.corpus import (
    Checkins,
    FieldLayout,
    build_interactions,
    build_sentences,
    build_vocabulary,
    read_checkins,
    split_train_test,
    write_checkins,
)
from venue2vec.errors import EmptyVocabularyError, FormatError
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture

from conftest import make_records, sentences_of, token_of
from oracles import interactions_reference, parse_checkins_reference, sentences_reference


def read_lines(tmp_path, lines, layout=FieldLayout()):
    """read_checkins over a file of these lines, each ended by a newline."""
    path = tmp_path / "checkins.tsv"
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    return read_checkins(path, layout)


def test_parse_single_line(tmp_path):
    log, skipped = read_lines(tmp_path, ["u1\tv9\t1296000000"])
    assert list(log) == [("u1", "v9", 1296000000)]
    assert skipped == 0


def test_parse_empty_stream(tmp_path):
    log, skipped = read_lines(tmp_path, [])
    assert list(log) == []
    assert skipped == 0


def test_parse_skips_malformed_line(tmp_path):
    lines = ["u1\tv1\t100", "u2\t\t200", "u3\tv3\t300"]
    log, skipped = read_lines(tmp_path, lines)
    assert [user for user, _, _ in log] == ["u1", "u3"]
    assert skipped == 1


@pytest.mark.parametrize(
    "bad", ["u1\tv1", "u1\tv1\tnot-a-number", "u1\tv1\t-5", "\tv1\t100", f"u1\tv1\t{2**63}"]
)
def test_parse_malformed_variants(tmp_path, bad):
    records, skipped = read_lines(tmp_path, [bad, "ok\tv\t1", "ok2\tv\t2"])
    assert len(records) == 2
    assert skipped == 1


def test_parse_majority_malformed_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        read_lines(tmp_path, ["a,b,100", "c,d,200", "u\tv\t300"])


def test_parse_exactly_half_malformed_is_tolerated(tmp_path):
    # the format-error threshold is strictly more than half
    records, skipped = read_lines(tmp_path, ["bad", "u\tv\t1", "also bad", "w\tx\t2"])
    assert len(records) == 2
    assert skipped == 2


def test_parse_ignores_blank_lines(tmp_path):
    records, skipped = read_lines(tmp_path, ["", "   ", "u\tv\t1", "\n"])
    assert len(records) == 1
    assert skipped == 0


def test_parse_custom_layout(tmp_path):
    layout = FieldLayout(delimiter=",", user_col=2, venue_col=0, time_col=1)
    log, _ = read_lines(tmp_path, ["v7,123,alice"], layout)
    assert list(log) == [("alice", "v7", 123)]


def test_read_checkins_gzip_roundtrip(tmp_path):
    records = make_records({"a": ["x", "y"], "b": ["x"]})
    path = tmp_path / "checkins.tsv.gz"
    write_checkins(records, path)
    with gzip.open(path, "rt") as handle:
        assert len(handle.readlines()) == 3
    back, skipped = read_checkins(path)
    assert list(back) == list(records)
    assert skipped == 0


# Lines of every kind the parser must treat as the per-line rule does: plain
# lines (printable ASCII ids, 1-18 digit timestamps) and every other kind.
PLAIN_IDS = st.text("abcxyz0189-_.:", min_size=1, max_size=20)
ODD_IDS = st.sampled_from(
    [" a", "a ", "\xa0a", "a\u2003", "\u3000", "\xe9", "\u65e5\u672c", "a\x00", "a\x0bb",
     "a\tb", "a b", "a\nb", "a\rb", "a\x85b", "a\u2028b", "", " ", "0123456789abcdefghij",
     "a\x7fb"]
)
PLAIN_TIMES = st.integers(0, 10**18 - 1).map(str)
ODD_TIMES = st.sampled_from(
    ["+5", " 5", "5 ", "1_0", "-5", "-0", "", "x", "٣", "0" * 19 + "7", str(2**63 - 1),
     str(2**63), str(10**18), "1e3", "5\xa0"]
)


@st.composite
def checkin_layouts(draw):
    delimiter = draw(st.sampled_from(["\t", ",", " ", "::", "\t\t", "é"]))
    width = draw(st.integers(3, 5))
    user_col, venue_col, time_col = draw(st.permutations(range(width)))[:3]
    return FieldLayout(delimiter, user_col, venue_col, time_col)


@st.composite
def checkin_lines(draw, layout):
    """Lines without their endings: mostly plain, with blank, padded,
    non-ASCII, short, long and odd-timestamp lines mixed in."""
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["plain"] * 4 + ["odd", "blank", "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", " \x0c "])))
            continue
        odd = kind == "odd"
        fields = [draw(PLAIN_IDS) for _ in range(layout.width)]
        fields[layout.user_col] = draw(ODD_IDS if odd and draw(st.booleans()) else PLAIN_IDS)
        fields[layout.venue_col] = draw(ODD_IDS if odd and draw(st.booleans()) else PLAIN_IDS)
        fields[layout.time_col] = draw(ODD_TIMES if odd and draw(st.booleans()) else PLAIN_TIMES)
        if kind == "short":
            fields = fields[: draw(st.integers(0, layout.width - 1))]
        if kind == "long":
            fields += draw(st.lists(PLAIN_IDS, min_size=1, max_size=2))
        lines.append(layout.delimiter.join(fields))
    return lines


def assert_same_parse(parse, reference):
    """parse() and reference() give the same check-ins and skipped count, or
    raise the same exception type."""
    try:
        rows, skipped = reference()
    except (FormatError, UnicodeDecodeError) as error:
        with pytest.raises(type(error)):
            parse()
        return
    log, log_skipped = parse()
    assert log_skipped == skipped
    assert list(log) == rows
    users = first_occurrence(user for user, _, _ in rows)
    venues = first_occurrence(venue for _, venue, _ in rows)
    assert (log.user_ids, log.venue_ids) == (users, venues)
    assert log.users.tolist() == [users.index(user) for user, _, _ in rows]
    assert log.venues.tolist() == [venues.index(venue) for _, venue, _ in rows]
    assert log.times.tolist() == [timestamp for _, _, timestamp in rows]
    assert all(column.dtype == np.int64 for column in (log.users, log.venues, log.times))


@given(st.data(), checkin_layouts(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_parse_matches_per_line_reference(tmp_path_factory, data, layout, chunk):
    """Files (plain and gzip, with \\n, \\r\\n and lone \\r endings) parse
    as the per-line reference does, at any chunk size."""
    lines = data.draw(checkin_lines(layout))
    endings = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + ending for line, ending in zip(lines, endings))
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line break after the last line
    folder = tmp_path_factory.mktemp("parse")
    plain, packed = folder / "checkins.tsv", folder / "checkins.tsv.gz"
    plain.write_bytes(text.encode("utf-8"))
    packed.write_bytes(gzip.compress(text.encode("utf-8")))
    with mock.patch.object(corpus, "CHUNK_CHARS", chunk):
        for path in (plain, packed):
            with corpus._open_text(path) as handle:
                assert_same_parse(
                    lambda: read_checkins(path, layout),
                    lambda: parse_checkins_reference(handle, layout),
                )


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"u\tv\xe9\t1"])
def test_parse_invalid_utf8_raises_as_per_line_reference(tmp_path, bad):
    items = [b"u\tv\t1\n", bad + b"\n", b"w\tx\t2\n"]
    path = tmp_path / "checkins.tsv"
    path.write_bytes(b"".join(items))
    with pytest.raises(UnicodeDecodeError):
        read_checkins(path)


def test_parse_does_not_depend_on_chunk_size(tmp_path):
    """A file of plain and other lines parses the same whether it is read a
    few characters at a time or whole. Venue ids of 10 to 30 characters and
    of at most 8 recur across chunks, so one chunk's keys can be one word
    wide and the next chunk's wider."""
    lines = []
    for i in range(300):
        user, venue = f"user{i % 17}", f"venue-{i % 41:04d}" * (1 + i % 3)
        if i % 12 == 6:  # every other plain line
            venue = f"v{i % 5}"
        lines.append(
            [f"{user}\t{venue}\t{1296000000 + i}", f" {user}\t{venue}\t+{i}", "",
             f"ü{i % 5}\t{venue}\t{i}", f"{user}\t{venue}", f"{user}\t{venue}\t{2**63}"][i % 6]
        )
    path = tmp_path / "checkins.tsv"
    path.write_text("\r\n".join(lines), encoding="utf-8")
    whole, skipped = read_checkins(path)
    assert len(whole) == 150 and skipped == 100
    for chunk in (1, 2, 3, 7, 64):
        with mock.patch.object(corpus, "CHUNK_CHARS", chunk):
            log, chunk_skipped = read_checkins(path)
        assert chunk_skipped == skipped
        assert (log.user_ids, log.venue_ids) == (whole.user_ids, whole.venue_ids)
        for column in ("users", "venues", "times"):
            assert np.array_equal(getattr(log, column), getattr(whole, column))


def test_parse_memory_is_bounded_by_the_chunk(tmp_path):
    """With a small chunk, the parse's traced peak beyond its output columns
    is the same for a file four times as long over the same ids: nothing is
    held per line of the file but the result."""
    excess = []
    for lines in (8000, 32000):
        path = tmp_path / f"checkins{lines}.tsv"
        path.write_text(
            "".join(f"u{i % 50}\tv{i % 90}\t{1296000000 + i}\n" for i in range(lines))
        )
        with mock.patch.object(corpus, "CHUNK_CHARS", 16384):
            read_checkins(path)  # warm up caches that outlive a call
            tracemalloc.start()
            try:
                log, _ = read_checkins(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(log) == lines
        excess.append(peak - 3 * 8 * lines)
    # one more int64 per line of the file would add 192,000 bytes
    assert excess[1] - excess[0] < 24_000, excess


def test_split_strict_boundary():
    records = Checkins.of([("u", "v", t) for t in (1, 2, 3)])
    dataset = split_train_test(records, 3)
    assert dataset.train.times.tolist() == [1, 2]
    assert dataset.test.times.tolist() == [3]


def test_split_degenerate_all_test():
    records = Checkins.of([("u", "v", t) for t in (5, 6)])
    with pytest.warns(UserWarning):
        dataset = split_train_test(records, 0)
    assert list(dataset.train) == []
    assert len(dataset.test) == 2


def test_split_fixture_counts_match_generator():
    spec = FixtureSpec(seed=5, communities=2, users_per_community=10,
                       venues_per_community=20, train_checkins_per_user=12,
                       test_checkins_per_user=4)
    log = generate_fixture(spec)
    dataset = split_train_test(log, FEB_2011)
    assert len(dataset.train) == 2 * 10 * 12
    assert len(dataset.test) == 2 * 10 * 4
    # each side numbered by first occurrence among its own rows, checked
    # against a dict on the fixture's rows and on the same rows shuffled
    rows = list(log)
    random.Random(5).shuffle(rows)
    for log in (log, Checkins.of(rows)):
        dataset = split_train_test(log, FEB_2011)
        for side, side_rows in (
            (dataset.train, [r for r in log if r[2] < FEB_2011]),
            (dataset.test, [r for r in log if r[2] >= FEB_2011]),
        ):
            user_code = {u: i for i, u in enumerate(first_occurrence(r[0] for r in side_rows))}
            venue_code = {v: i for i, v in enumerate(first_occurrence(r[1] for r in side_rows))}
            assert (side.user_ids, side.venue_ids) == (list(user_code), list(venue_code))
            assert side.users.tolist() == [user_code[r[0]] for r in side_rows]
            assert side.venues.tolist() == [venue_code[r[1]] for r in side_rows]


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
        build_vocabulary(Checkins.of([]), 1)


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
    dataset = split_train_test(generate_fixture(spec), FEB_2011)
    vocab = build_vocabulary(dataset.train, 1)
    assert len(vocab) == 57829


def test_sentence_orders_venues_by_timestamp():
    records = Checkins.of([("u0", "v2", 200), ("u0", "v1", 100), ("u0", "v3", 300)])
    vocab = build_vocabulary(records, 1)
    corpus = build_sentences(records, vocab)
    tokens = [token_of(vocab, i) for i in sentences_of(corpus)[0]]
    assert tokens == ["U:u0", "V:v1", "V:v2", "V:v3"]
    assert corpus.max_length == 4


def test_sentence_tie_break_is_input_order():
    records = Checkins.of([("u0", "late", 100), ("u0", "early", 100)])
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
    venues = st.sampled_from(["v1", "v2", "v3", "v4"])
    return Checkins.of([(user, draw(venues), draw(times)) for user in users])


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
        for user, venue, _ in records
        if user in vocab.user_index and venue in vocab.venue_index
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


BOUNDARY = 3


def row_strategy(times, users="abcdef", venues=5):
    return st.tuples(
        st.sampled_from(users), st.sampled_from([f"v{i}" for i in range(venues)]), times
    )


@st.composite
def straddling_rows(draw):
    """Rows on both sides of BOUNDARY, with test rows first in input order,
    so a test row can be an id's first occurrence in the whole log."""
    test_first = draw(st.lists(row_strategy(st.integers(BOUNDARY, 5)), min_size=1, max_size=8))
    rest = draw(st.lists(row_strategy(st.integers(0, 5)), min_size=1, max_size=25))
    train_row = draw(row_strategy(st.integers(0, BOUNDARY - 1)))
    rest.insert(draw(st.integers(0, len(rest))), train_row)
    return test_first + rest


def first_occurrence(ids) -> list:
    return list(dict.fromkeys(ids))


@given(
    straddling_rows(),
    st.lists(row_strategy(st.integers(0, 5), "abcdefgh", 7), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_encoding_matches_first_occurrence_oracle(rows, other_rows):
    """One encoding, checked against brute force: the log decodes to its
    rows; each side of the split is numbered by first occurrence among its
    own rows alone; the vocabulary is a dict count of train; and the visit
    table over another log's vocabulary (ids missing and extra, as for a
    loaded model) is a plain count."""
    log = Checkins.of(rows)
    assert list(log) == rows
    assert (log.user_ids, log.venue_ids) == (
        first_occurrence(u for u, _, _ in rows), first_occurrence(v for _, v, _ in rows)
    )

    dataset = split_train_test(log, BOUNDARY)
    for side, side_rows in (
        (dataset.train, [r for r in rows if r[2] < BOUNDARY]),
        (dataset.test, [r for r in rows if r[2] >= BOUNDARY]),
    ):
        assert list(side) == side_rows
        user_ids = first_occurrence(u for u, _, _ in side_rows)
        venue_ids = first_occurrence(v for _, v, _ in side_rows)
        assert (side.user_ids, side.venue_ids) == (user_ids, venue_ids)
        assert side.users.tolist() == [user_ids.index(u) for u, _, _ in side_rows]
        assert side.venues.tolist() == [venue_ids.index(v) for _, v, _ in side_rows]

    train_rows = [r for r in rows if r[2] < BOUNDARY]
    user_counts = Counter(u for u, _, _ in train_rows)
    venue_counts = Counter(v for _, v, _ in train_rows)
    for min_count in (1, 2, 3):
        users = [u for u in user_counts if user_counts[u] >= min_count]
        venues = [v for v in venue_counts if venue_counts[v] >= min_count]
        if not users and not venues:
            with pytest.raises(EmptyVocabularyError):
                build_vocabulary(dataset.train, min_count)
            continue
        vocab = build_vocabulary(dataset.train, min_count)
        assert (vocab.users, vocab.venues) == (users, venues)
        frequency = [user_counts[u] for u in users] + [venue_counts[v] for v in venues]
        assert vocab.frequency.tolist() == frequency

    vocab = build_vocabulary(Checkins.of(other_rows), 1)
    expected = np.zeros((vocab.user_count, len(vocab.venues)))
    for user, visits in interactions_reference(train_rows).items():
        for venue, count in visits.items():
            if user in vocab.user_index and venue in vocab.venue_index:
                expected[vocab.user_index[user], vocab.venue_index[venue]] = count
    for binary in (False, True):
        counts = build_interactions(dataset.train, vocab, binary).toarray()
        assert np.array_equal(counts, (expected > 0) if binary else expected)


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
    assert list(back) == list(records)


@st.composite
def layouts_with_records(draw):
    """A layout with a non-alphanumeric delimiter, plus rows it can hold:
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
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(0, 2**40)), max_size=8))
    return FieldLayout(delimiter, user_col, venue_col, time_col), rows


@given(layouts_with_records())
@settings(max_examples=60, deadline=None)
def test_checkins_roundtrip_under_any_layout(tmp_path_factory, case):
    layout, rows = case
    path = tmp_path_factory.mktemp("layout") / "data.txt"
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            fields = [""] * layout.width
            for column, value in zip((layout.user_col, layout.venue_col, layout.time_col), row):
                fields[column] = str(value)
            handle.write(layout.delimiter.join(fields) + "\n")
    back, skipped = read_checkins(path, layout)
    assert skipped == 0
    assert list(back) == rows


def test_fixture_zero_noise_stays_in_community():
    spec = FixtureSpec(seed=3, communities=3, users_per_community=5,
                       venues_per_community=10, train_checkins_per_user=8,
                       test_checkins_per_user=2)
    for user, venue, _ in generate_fixture(spec):
        assert user.split("u")[0] == venue.split("v")[0]


def test_fixture_full_noise_crosses_communities():
    spec = FixtureSpec(seed=3, communities=2, users_per_community=5,
                       venues_per_community=10, train_checkins_per_user=10,
                       test_checkins_per_user=2, noise_rate=1.0)
    crossed = sum(
        1
        for user, venue, _ in generate_fixture(spec)
        if user.split("u")[0] != venue.split("v")[0]
    )
    assert crossed > 0


def test_fixture_deterministic_per_seed():
    spec = FixtureSpec(seed=9, communities=2, users_per_community=4,
                       venues_per_community=8, train_checkins_per_user=6,
                       test_checkins_per_user=2)
    assert list(generate_fixture(spec)) == list(generate_fixture(spec))

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venue2vec.corpus import Checkins, Dataset
from venue2vec.errors import EvaluationError
from venue2vec.metrics import (
    REPORT_COLUMNS,
    UserResult,
    aggregate,
    build_ground_truth,
    hit_rate,
    ndcg_at_k,
    precision_at_k,
    prediction_coverage,
    read_per_user_csv,
    read_report_csv,
    score_user,
    write_csv,
    write_per_user_csv,
    write_report_json,
)

from oracles import recompute_report_from_csv


# ------------------------------------------------------------- precision


def test_precision_all_relevant():
    assert precision_at_k(["a", "b"], {"a", "b"}, 2) == 1.0


def test_precision_no_overlap():
    assert precision_at_k(["a", "b"], {"c"}, 2) == 0.0


def test_precision_denominator_is_k():
    # 3 relevant venues anywhere in a k=10 list give exactly 0.3
    recommended = ["r1", "x", "r2", "y", "z", "r3", "q", "w", "e", "t"]
    assert precision_at_k(recommended, {"r1", "r2", "r3"}, 10) == pytest.approx(0.3)
    # short list: denominator stays k
    assert precision_at_k(["r1"], {"r1", "r2"}, 10) == pytest.approx(0.1)


def test_precision_rejects_overlong_list():
    with pytest.raises(ValueError):
        precision_at_k(["a", "b", "c"], {"a"}, 2)


# ------------------------------------------------------------- ndcg


def test_ndcg_hit_at_rank_one():
    assert ndcg_at_k(["a"], {"a"}, 10) == 1.0


def test_ndcg_hit_at_rank_two():
    value = ndcg_at_k(["x", "a"], {"a"}, 10)
    assert value == pytest.approx(1.0 / math.log2(3), abs=1e-12)
    assert value == pytest.approx(0.6309, abs=1e-4)


def test_ndcg_perfect_prefix_is_one():
    assert ndcg_at_k(["a", "b", "c", "x"], {"a", "b", "c"}, 10) == pytest.approx(1.0)


def test_ndcg_ideal_truncates_at_k():
    # more relevant items than slots: putting hits at every slot is ideal
    assert ndcg_at_k(["a", "b"], {"a", "b", "c", "d"}, 2) == pytest.approx(1.0)


def test_ndcg_empty_recommendation_is_zero():
    assert ndcg_at_k([], {"a"}, 5) == 0.0


# ------------------------------------------------------------- hitrate / coverage


def test_hit_rate_all_hit():
    assert hit_rate([1, 1, 1]) == 1.0


def test_hit_rate_three_of_five():
    assert hit_rate([1, 0, 1, 0, 1]) == pytest.approx(0.6)


def test_hit_rate_empty_population_raises():
    with pytest.raises(EvaluationError):
        hit_rate([])


def test_coverage_single_miss():
    assert prediction_coverage([0]) == 0.0


def test_coverage_19_of_20():
    assert prediction_coverage([1] * 19 + [0]) == pytest.approx(0.95)


# ------------------------------------------------------------- score_user


def test_score_user_no_prediction_all_zero():
    row = score_user("u", [], {"a"}, 5)
    assert (row.precision, row.ndcg, row.hit, row.predicted) == (0.0, 0.0, 0, 0)


def test_score_user_hit_iff_positive_precision():
    hit_row = score_user("u", ["a", "x"], {"a"}, 2)
    assert hit_row.hit == 1 and hit_row.precision > 0
    miss_row = score_user("u", ["x", "y"], {"a"}, 2)
    assert miss_row.hit == 0 and miss_row.precision == 0.0


# ------------------------------------------------------------- ground truth


def test_ground_truth_requires_train_and_test():
    train = Checkins.of([("a", "x", 1), ("b", "y", 2)])
    test = Checkins.of([
        ("a", "z", 10),
        ("a", "z", 11),  # duplicates collapse
        ("ghost", "q", 12),
    ])
    truth = build_ground_truth(Dataset(train, test))
    assert truth == {"a": {"z"}}


# ------------------------------------------------------------- aggregate


def _rows():
    return [
        UserResult("a", 0.2, 0.5, 1, 1),
        UserResult("b", 0.4, 0.25, 1, 1),
        UserResult("c", 0.0, 0.0, 0, 0),
    ]


def test_aggregate_single_user_equals_row():
    row = UserResult("a", 0.3, 0.7, 1, 1)
    report = aggregate([row], train_s=1.0, rec_s=2.0, method="kni", k=10)
    assert report.precision == 0.3
    assert report.ndcg == 0.7
    assert report.hitrate == 1.0
    assert report.coverage == 1.0
    assert report.rec_s_per_user == 2.0


def test_aggregate_two_user_mean():
    rows = [UserResult("a", 0.2, 0.1, 1, 1), UserResult("b", 0.4, 0.3, 1, 1)]
    report = aggregate(rows, method="kni", k=10)
    assert report.precision == pytest.approx(0.3)


def test_aggregate_means():
    report = aggregate(_rows(), rec_s=3.0, method="kni", k=10)
    assert report.precision == pytest.approx(0.2)
    assert report.ndcg == pytest.approx(0.25)
    assert report.hitrate == pytest.approx(2 / 3)
    assert report.coverage == pytest.approx(2 / 3)
    assert report.rec_s_per_user == pytest.approx(1.0)


def test_aggregate_empty_raises():
    with pytest.raises(EvaluationError):
        aggregate([], method="kni", k=10)


def test_aggregate_matches_recomputation_oracle(tmp_path):
    rows = _rows()
    path = tmp_path / "per_user.csv"
    write_per_user_csv(rows, path)
    report = aggregate(rows, method="kni", k=10)
    recomputed = recompute_report_from_csv(path)
    assert abs(report.precision - recomputed["precision"]) <= 1e-12
    assert abs(report.ndcg - recomputed["ndcg"]) <= 1e-12
    assert abs(report.hitrate - recomputed["hitrate"]) <= 1e-12
    assert abs(report.coverage - recomputed["coverage"]) <= 1e-12


@given(
    rows=st.lists(
        st.tuples(
            st.floats(0, 1), st.floats(0, 1), st.booleans(), st.booleans()
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_aggregate_permutation_invariant(rows):
    built = [
        UserResult(f"u{i}", p, n, int(h and c), int(c))
        for i, (p, n, h, c) in enumerate(rows)
    ]
    forward = aggregate(built, method="kni", k=10)
    backward = aggregate(built[::-1], method="kni", k=10)
    assert forward.precision == pytest.approx(backward.precision, abs=1e-12)
    assert forward.hitrate == pytest.approx(backward.hitrate, abs=1e-12)
    assert forward.coverage >= forward.hitrate  # a hit implies a prediction


@given(
    recommended=st.lists(
        st.sampled_from([f"v{i}" for i in range(30)]), max_size=10, unique=True
    ),
    relevant=st.sets(st.sampled_from([f"v{i}" for i in range(30)]), min_size=1),
)
@settings(max_examples=120, deadline=None)
def test_metric_bounds_property(recommended, relevant):
    k = 10
    precision = precision_at_k(recommended, relevant, k)
    ndcg = ndcg_at_k(recommended, relevant, k)
    assert 0.0 <= precision <= min(1.0, len(relevant) / k)
    assert 0.0 <= ndcg <= 1.0
    assert (precision > 0) == (ndcg > 0)


# ------------------------------------------------------------- serialization


def test_per_user_csv_roundtrip(tmp_path):
    rows = _rows()
    path = tmp_path / "per_user.csv"
    write_per_user_csv(rows, path)
    assert read_per_user_csv(path) == rows


# any id that fits on one line, commas included (legal in tab-delimited input)
single_line_ids = st.text(
    alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="\r\n")
)


@given(
    rows=st.lists(
        st.builds(
            UserResult,
            single_line_ids,
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.integers(0, 1),
            st.integers(0, 1),
        ),
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_per_user_csv_roundtrip_any_single_line_id(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("per_user") / "per_user.csv"
    write_per_user_csv(rows, path)
    assert read_per_user_csv(path) == rows


def test_per_user_csv_user_id_with_commas(tmp_path):
    rows = [UserResult("a,b,,c", 0.1, 0.2, 1, 1)]
    path = tmp_path / "per_user.csv"
    write_per_user_csv(rows, path)
    assert read_per_user_csv(path) == rows


def test_report_csv_and_json_mirror(tmp_path):
    """The whole row round-trips through report.csv and report.json, each
    value with its type."""
    report = aggregate(_rows(), train_s=1.5, rec_s=0.5, method="kni", arch="skip-gram",
                       F=100, C=20, E=25, N=30, k=10)
    row = report.to_row()
    assert list(row) == REPORT_COLUMNS == [
        "method", "arch", "F", "C", "E", "N", "k", "precision", "ndcg", "hitrate",
        "coverage", "train_s", "rec_s_total", "rec_s_per_user",
    ]
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_csv(csv_path, REPORT_COLUMNS, [row.values()])
    write_report_json(row, json_path)
    for back in (read_report_csv(csv_path)[0], json.loads(json_path.read_text())):
        assert back == row
        assert list(back) == REPORT_COLUMNS
        assert [type(value) for value in back.values()] == [type(value) for value in row.values()]


def test_csv_readers_reject_a_header_that_is_not_their_columns(tmp_path):
    """Each reader checks the header against its own row type's columns, so
    a per-user CSV does not read as a report or the other way round."""
    per_user, report = tmp_path / "per_user.csv", tmp_path / "report.csv"
    write_per_user_csv(_rows(), per_user)
    row = aggregate(_rows(), method="kni", k=10).to_row()
    write_csv(report, REPORT_COLUMNS, [row.values()])
    with pytest.raises(EvaluationError, match="CSV header"):
        read_report_csv(per_user)
    with pytest.raises(EvaluationError, match="CSV header"):
        read_per_user_csv(report)


@pytest.mark.parametrize("damage", ["short", "blank", "type"])
def test_csv_readers_reject_a_row_without_every_value(tmp_path, damage):
    """A row cut short, a blank line or a value of the wrong type raises
    EvaluationError naming the file and line, instead of a row dict that
    lacks columns (plot-data then died with KeyError)."""
    path = tmp_path / "report.csv"
    row = aggregate(_rows(), method="kni", k=10).to_row()
    write_csv(path, REPORT_COLUMNS, [row.values(), row.values()])
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = {
        "short": ",".join(lines[2].split(",")[:8]) + "\n",
        "blank": "\n",
        "type": lines[2].replace(",10,", ",ten,", 1),
    }[damage]
    path.write_text("".join(lines))
    with pytest.raises(EvaluationError, match=re.escape(f"{path} line 3: expected 14 values")):
        read_report_csv(path)

import json

import numpy as np
import pytest

from venue2vec import corpus, embedding, harness
from venue2vec.cli import build_experiment_config, build_parser, main
from venue2vec.corpus import read_checkins, split_train_test, write_checkins
from venue2vec.embedding import TrainingConfig, init_model
from venue2vec.fixtures import FEB_2011, FixtureSpec, generate_fixture
from venue2vec.harness import ExperimentConfig
from venue2vec.metrics import read_report_csv
from venue2vec.modelio import load_embedding_model, save_embedding_model
from venue2vec.recommend import read_batch_recommendations


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "checkins.tsv"
    rc = main(
        [
            "generate-fixture",
            "--out", str(path),
            "--seed", "5",
            "--communities", "2",
            "--users-per-community", "10",
            "--venues-per-community", "20",
            "--train-checkins", "12",
            "--test-checkins", "3",
        ]
    )
    assert rc == 0
    return path


def test_missing_subcommand_is_config_error():
    assert main([]) == 1


def test_unknown_flag_is_config_error():
    assert main(["run", "--definitely-not-a-flag"]) == 1


def test_run_requires_input_source():
    assert main(["run", "--method", "kni"]) == 1


def test_missing_input_file_is_runtime_error(tmp_path):
    rc = main(["run", "--method", "kni", "--input", str(tmp_path / "absent.tsv")])
    assert rc == 2


def test_generate_fixture_writes_parseable_file(fixture_file):
    lines = fixture_file.read_text().splitlines()
    assert len(lines) == 2 * 10 * (12 + 3)
    assert len(lines[0].split("\t")) == 3


def test_generate_fixture_prints_the_counts_of_its_file(tmp_path, capsys):
    path = tmp_path / "checkins.tsv"
    argv = ["generate-fixture", "--out", str(path), "--seed", "3", "--communities", "3",
            "--users-per-community", "7", "--venues-per-community", "12", "--noise", "0.3"]
    assert main(argv) == 0
    log, skipped = read_checkins(path)
    dataset = split_train_test(log, FEB_2011)
    assert skipped == 0
    assert capsys.readouterr().out == (
        f"wrote {path}: {len(log.user_ids)} users, {len(log.venue_ids)} venues, "
        f"{len(dataset.train)} train + {len(dataset.test)} test check-ins (boundary {FEB_2011})\n"
    )


@pytest.mark.parametrize("seed,runs", [(2**64, "1"), (2**64 - 9, "10")])
def test_random_seed_past_64_bits_is_config_error(fixture_file, tmp_path, capsys, seed, runs):
    """A Random run whose last seed reaches 2^64 stops at validation with
    exit 1, before any seeded draw."""
    rc = main(["run", "--input", str(fixture_file), "--method", "random", "--seed", str(seed),
               "--random-runs", runs, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "below 2^64" in capsys.readouterr().err


def test_run_end_to_end(fixture_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--input", str(fixture_file),
            "--method", "kni",
            "--features", "12",
            "--window", "4",
            "--epochs", "6",
            "--neighbors", "5",
            "--topk", "5",
            "--seed", "2",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "kni"
    assert report["k"] == 5
    assert report["coverage"] == 1.0
    assert "precision=" in capsys.readouterr().out


def test_train_recommend_evaluate_pipeline(fixture_file, tmp_path):
    model_path = tmp_path / "model.bin"
    rc = main(
        [
            "train",
            "--input", str(fixture_file),
            "--features", "12",
            "--window", "4",
            "--epochs", "6",
            "--seed", "2",
            "--model-out", str(model_path),
            "--loss-csv", str(tmp_path / "loss.csv"),
        ]
    )
    assert rc == 0
    assert model_path.exists()
    loss_lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,average_loss,learning_rate_end,seconds"
    assert len(loss_lines) == 7

    batch_path = tmp_path / "recs.tsv"
    rc = main(
        [
            "recommend",
            "--model", str(model_path),
            "--input", str(fixture_file),
            "--method", "kni",
            "--topk", "5",
            "--out", str(batch_path),
        ]
    )
    assert rc == 0
    results = read_batch_recommendations(batch_path)
    assert len(results) == 20
    assert all(len(r.items) == 5 for r in results)

    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--recommendations", str(batch_path),
            "--input", str(fixture_file),
            "--topk", "5",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    rows = read_report_csv(out / "report.csv")
    assert rows[0]["method"] == "kni"
    assert rows[0]["coverage"] == 1.0


def test_staged_pipeline_matches_single_run(fixture_file, tmp_path):
    """train + recommend + evaluate must reproduce run's metrics exactly:
    the same seed trains the same model either way."""
    common = ["--input", str(fixture_file), "--features", "12", "--window", "4",
              "--epochs", "6", "--seed", "9"]
    out_run = tmp_path / "single"
    assert main(["run", "--method", "kni", "--topk", "5", *common,
                 "--out-dir", str(out_run)]) == 0

    model_path = tmp_path / "model.bin"
    batch_path = tmp_path / "recs.tsv"
    out_staged = tmp_path / "staged"
    assert main(["train", *common, "--model-out", str(model_path)]) == 0
    assert main(["recommend", "--model", str(model_path), "--method", "kni",
                 "--topk", "5", *common, "--out", str(batch_path)]) == 0
    assert main(["evaluate", "--recommendations", str(batch_path), "--topk", "5",
                 *common, "--out-dir", str(out_staged)]) == 0

    single = json.loads((out_run / "report.json").read_text())
    staged = json.loads((out_staged / "report.json").read_text())
    for metric in ("precision", "ndcg", "hitrate", "coverage"):
        assert staged[metric] == pytest.approx(single[metric], abs=1e-12)


def test_report_n_is_the_n_served(fixture_file, tmp_path):
    """KNI is KIU with N = 0: its report says N = 0 from run and from
    evaluate, while KIU's says the N it served with."""
    common = ["--input", str(fixture_file), "--features", "8", "--window", "4",
              "--epochs", "2", "--neighbors", "5", "--topk", "5"]
    model = tmp_path / "model.bin"
    assert main(["train", *common, "--model-out", str(model)]) == 0
    for method, served in (("kni", 0), ("kiu", 5)):
        recs = tmp_path / f"{method}.tsv"
        assert main(["run", "--method", method, *common,
                     "--out-dir", str(tmp_path / f"run_{method}")]) == 0
        assert main(["recommend", "--model", str(model), "--method", method, *common,
                     "--out", str(recs)]) == 0
        assert main(["evaluate", "--recommendations", str(recs), *common,
                     "--out-dir", str(tmp_path / f"eval_{method}")]) == 0
        for stage in ("run", "eval"):
            out = tmp_path / f"{stage}_{method}"
            assert read_report_csv(out / "report.csv")[0]["N"] == served
            assert json.loads((out / "report.json").read_text())["N"] == served


def test_recommend_with_users_file(fixture_file, tmp_path):
    model_path = tmp_path / "model.bin"
    main(
        [
            "train", "--input", str(fixture_file), "--features", "8",
            "--window", "3", "--epochs", "3", "--seed", "1",
            "--model-out", str(model_path),
        ]
    )
    users_file = tmp_path / "users.txt"
    users_file.write_text("c0u0\nc1u1\nmissing-user\n")
    batch_path = tmp_path / "recs.tsv"
    rc = main(
        [
            "recommend", "--model", str(model_path), "--input", str(fixture_file),
            "--method", "nn", "--neighbors", "3", "--users", str(users_file),
            "--out", str(batch_path),
        ]
    )
    assert rc == 0
    results = read_batch_recommendations(batch_path)
    assert [r.user for r in results] == ["c0u0", "c1u1", "missing-user"]
    assert not results[2].predicted


def test_recommend_baseline_from_a_model_is_config_error(fixture_file, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    train = ["train", "--input", str(fixture_file), "--features", "4", "--epochs", "1"]
    assert main([*train, "--model-out", str(model_path)]) == 0
    for method in ("cf", "random", "svd", "ccdpp"):
        argv = ["recommend", "--model", str(model_path), "--input", str(fixture_file),
                "--method", method, "--out", str(tmp_path / "recs.tsv")]
        assert main(argv) == 1
        assert f"cannot serve {method}" in capsys.readouterr().err
    # rejected before the model or the check-ins are read
    absent = ["recommend", "--model", str(tmp_path / "absent.bin"), "--input",
              str(tmp_path / "absent.tsv"), "--method", "cf", "--out", str(tmp_path / "recs.tsv")]
    assert main(absent) == 1
    assert "cannot serve cf" in capsys.readouterr().err
    assert not (tmp_path / "recs.tsv").exists()


@pytest.mark.parametrize("method", ["kni", "kiu"])
def test_recommend_for_given_users_reads_only_the_model(
    fixture_file, tmp_path, monkeypatch, capsys, method
):
    """KNI and KIU given --users and no --filter-seen never parse the
    check-in file, and list each user as the run over every user does; NN
    and --filter-seen still parse it."""
    model = tmp_path / "model.bin"
    assert main(["train", "--input", str(fixture_file), "--features", "8", "--window", "3",
                 "--epochs", "2", "--seed", "1", "--model-out", str(model)]) == 0
    out = tmp_path / "recs.tsv"
    argv = ["recommend", "--model", str(model), "--input", str(fixture_file),
            "--neighbors", "3", "--topk", "5", "--out", str(out)]
    assert main([*argv, "--method", method]) == 0
    everyone = {line.split("\t")[0]: line for line in out.read_text().splitlines()}
    users_file = tmp_path / "users.txt"
    users_file.write_text("c1u2\nstranger\nc0u4\n")
    given = [*argv, "--users", str(users_file)]

    def unread(*args, **kwargs):
        raise AssertionError("the check-ins were read")

    monkeypatch.setattr(corpus, "read_checkins", unread)
    monkeypatch.setattr(harness, "read_checkins", unread)
    assert main([*given, "--method", method]) == 0
    assert out.read_text().splitlines() == [
        everyone["c1u2"], f"stranger\t{method}\tno-prediction", everyone["c0u4"]
    ]
    capsys.readouterr()
    for flags in (["--method", "nn"], ["--method", method, "--filter-seen"]):
        assert main([*given, *flags]) == 2
        assert "the check-ins were read" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["kni", "kiu"])
def test_recommend_from_a_model_without_users_lists_no_one(fixture_file, tmp_path, method):
    """A model file whose token table holds only V: tokens has no user rows:
    recommend --users lists every given user no-prediction and exits 0."""
    vocab = corpus.Vocabulary([], ["a", "b", "c"], np.ones(3))
    model_path = tmp_path / "venues.bin"
    save_embedding_model(init_model(vocab, TrainingConfig(feature_count=4, seed=1)), model_path)
    users_file = tmp_path / "users.txt"
    users_file.write_text("c0u1\nstranger\n")
    out = tmp_path / "recs.tsv"
    argv = ["recommend", "--model", str(model_path), "--input", str(fixture_file),
            "--method", method, "--users", str(users_file), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().splitlines() == [
        f"c0u1\t{method}\tno-prediction", f"stranger\t{method}\tno-prediction"
    ]


def test_sweep_and_plot_data(fixture_file, tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--input", str(fixture_file),
            "--method", "kni",
            "--features", "8",
            "--window", "3",
            "--axis", "E",
            "--values", "2,4",
            "--seed", "2",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    combined = out / "sweep_E.csv"
    assert combined.exists()

    plot_dir = tmp_path / "plots"
    rc = main(
        ["plot-data", "--reports", str(combined), "--out-dir", str(plot_dir)]
    )
    assert rc == 0
    tidy = (plot_dir / "kni_E.csv").read_text().splitlines()
    assert tidy[0] == "axis_value,metric,value"
    assert len(tidy) == 1 + 2 * 4


def test_config_file_with_flag_override(fixture_file, tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        f"input = {fixture_file}\n"
        "method = kni\n"
        "features = 8\n"
        "window = 3\n"
        "epochs = 2\n"
        "topk = 4\n"
        "seed = 2\n"
    )
    out = tmp_path / "out"
    rc = main(
        ["run", "--config", str(conf), "--topk", "6", "--out-dir", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["k"] == 6  # flag beat the file
    assert report["F"] == 8  # file value survived


def test_config_file_unknown_key(fixture_file, tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("definitely_unknown = 1\n")
    assert main(["run", "--config", str(conf)]) == 1


def _config_of(argv):
    return build_experiment_config(build_parser().parse_args(argv))


# (key, text) for every experiment option; a text of None is a flag without
# a value, written "true" in a config file
OPTION_CASES = [
    ("input", "checkins.tsv"),
    ("boundary", "1300000000"),
    ("method", "svd"),
    ("arch", "cbow"),
    ("features", "12"),
    ("window", "7"),
    ("window", "max"),
    ("epochs", "3"),
    ("min_count", "2"),
    ("neighbors", "4"),
    ("topk", "6"),
    ("filter_seen", None),
    ("binary_votes", None),
    ("seed", "9"),
    ("rank", "5"),
    ("regularization", "0.5"),
    ("random_runs", "2"),
    ("out_dir", "out"),
    ("delimiter", ","),
    ("user_col", "3"),
    ("venue_col", "4"),
    ("time_col", "5"),
]


def test_option_cases_cover_every_flag():
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    flags = {o for action in run._actions for o in action.option_strings}
    covered = {"--" + key.replace("_", "-") for key, _ in OPTION_CASES}
    assert flags - {"-h", "--help", "--config"} == covered


@pytest.mark.parametrize("key, text", OPTION_CASES)
def test_flag_and_config_line_build_the_same_config(tmp_path, key, text):
    flag = ["--" + key.replace("_", "-")] + ([] if text is None else [text])
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{key} = {'true' if text is None else text}\n")
    from_flag = _config_of(["run", *flag])
    assert from_flag == _config_of(["run", "--config", str(conf)])
    assert from_flag != ExperimentConfig()


def test_flag_beats_config_file(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("features = 8\nwindow = 3\nfilter_seen = false\nuser_col = 3\n")
    config = _config_of(
        ["run", "--config", str(conf), "--features", "12", "--window", "max",
         "--filter-seen", "--user-col", "4"]
    )
    assert (config.feature_count, config.context_count) == (12, "max")
    assert config.filter_seen is True
    assert config.layout.user_col == 4
    file_only = _config_of(["run", "--config", str(conf)])
    assert (file_only.feature_count, file_only.context_count) == (8, 3)
    assert file_only.filter_seen is False


def test_generate_fixture_defaults_are_fixture_spec_defaults(tmp_path):
    out = tmp_path / "cli.tsv"
    assert main(["generate-fixture", "--out", str(out)]) == 0
    expected = tmp_path / "spec.tsv"
    write_checkins(generate_fixture(FixtureSpec()), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "flags, conf_text, setting",
    [
        (["--delimiter", ""], None, "delimiter"),
        (["--user-col", "1"], None, "user_col"),
        (["--user-col", "-1"], None, "user_col"),
        ([], "delimiter =\n", "delimiter"),
    ],
    ids=["empty-delimiter", "shared-column", "negative-column", "config-empty-delimiter"],
)
def test_bad_field_layout_is_config_error(
    fixture_file, tmp_path, capsys, flags, conf_text, setting
):
    argv = ["run", "--input", str(fixture_file), "--method", "cf", *flags]
    if conf_text is not None:
        conf = tmp_path / "exp.conf"
        conf.write_text(conf_text)
        argv += ["--config", str(conf)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and setting in err


def test_cbow_default_window_is_max(fixture_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run", "--input", str(fixture_file), "--method", "kni",
            "--arch", "cbow", "--features", "8", "--epochs", "2",
            "--seed", "1", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["C"] == 13  # max sentence length: user + 12 train check-ins


def test_workers_flag_is_config_error(fixture_file, tmp_path, capsys):
    base = ["run", "--input", str(fixture_file), "--method", "kni"]
    assert main(base + ["--workers", "2"]) == 1
    assert "config error" in capsys.readouterr().err
    conf = tmp_path / "exp.conf"
    conf.write_text("workers = 2\n")
    assert main(base + ["--config", str(conf)]) == 1


def test_diverging_training_is_runtime_error(fixture_file, tmp_path, monkeypatch):
    """No flag sets the learning rate, so the test raises it behind the CLI."""
    monkeypatch.setattr(embedding, "INITIAL_LEARNING_RATE", 1e6)
    rc = main(
        [
            "train", "--input", str(fixture_file), "--features", "8",
            "--epochs", "2", "--model-out", str(tmp_path / "model.bin"),
        ]
    )
    assert rc == 2
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "svd", "--rank", "0"],
        ["--method", "ccdpp", "--rank", "0"],
        ["--method", "svd", "--features", "0"],
        ["--method", "ccdpp", "--regularization", "0"],
        ["--method", "ccdpp", "--regularization", "-1"],
    ],
)
def test_bad_factorization_setting_is_config_error(fixture_file, capsys, flags):
    assert main(["run", "--input", str(fixture_file), *flags]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.fixture()
def trained(fixture_file, tmp_path):
    """A small model of fixture_file and its KNI lists."""
    model, recs = tmp_path / "model.bin", tmp_path / "recs.tsv"
    data = ["--input", str(fixture_file)]
    train = ["train", *data, "--features", "4", "--epochs", "1", "--model-out", str(model)]
    assert main(train) == 0
    assert main(["recommend", "--model", str(model), *data, "--out", str(recs)]) == 0
    return model, recs


@pytest.mark.parametrize(
    "stage, flags",
    [
        ("train", ["--min-count", "0"]),
        ("recommend", ["--method", "kiu", "--neighbors", "0"]),
        ("recommend", ["--topk", "0"]),
        ("recommend", ["--method", "nn", "--neighbors", "-1"]),
        ("evaluate", ["--neighbors", "-5"]),
    ],
)
def test_every_stage_rejects_what_run_rejects(
    fixture_file, trained, tmp_path, capsys, stage, flags
):
    """train, recommend and evaluate check their config as run does, before
    they read or write anything."""
    model, recs = trained
    target = tmp_path / "target"
    outputs = {
        "train": ["--model-out", str(target)],
        "recommend": ["--model", str(model), "--out", str(target)],
        "evaluate": ["--recommendations", str(recs), "--out-dir", str(target)],
    }
    data = ["--input", str(fixture_file), *flags]
    capsys.readouterr()
    assert main(["run", *data]) == 1
    assert main([stage, *data, *outputs[stage]]) == 1
    assert capsys.readouterr().err.count("config error") == 2
    assert not target.exists()


def test_unparseable_value_is_config_error(fixture_file, tmp_path, capsys):
    base = ["--input", str(fixture_file), "--method", "kni", "--out-dir", str(tmp_path)]
    for key, value in (("features", "abc"), ("regularization", "x1"), ("window", "wide")):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"{key} = {value}\n")
        assert main(["run", "--config", str(conf), *base]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{key}={value!r}" in err
        assert main(["run", f"--{key}", value, *base]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{key}={value!r}" in err
    assert main(["sweep", "--axis", "F", "--values", "10,x", *base]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "values='x'" in err


@pytest.mark.parametrize("axis", ["F", "E"])
def test_sweep_max_on_integer_axis_is_config_error(fixture_file, tmp_path, capsys, axis):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--input", str(fixture_file), "--method", "kni", "--axis", axis,
            "--values", "4,max", "--out-dir", str(out_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"axis {axis}" in err
    assert not out_dir.exists()  # rejected before any run started


def test_evaluate_topk_below_list_length_is_config_error(fixture_file, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["--input", str(fixture_file), "--method", "cf", "--neighbors", "5"]
    assert main(["run", *argv, "--topk", "10", "--out-dir", str(out)]) == 0
    batch = out / "recommendations.tsv"
    first = next(r for r in read_batch_recommendations(batch) if len(r.items) > 5)
    capsys.readouterr()
    evaluate = ["evaluate", "--recommendations", str(batch), "--input", str(fixture_file)]
    assert main([*evaluate, "--topk", "5", "--out-dir", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"user {first.user!r} holds {len(first.items)} venues, more than k=5" in err
    assert not (tmp_path / "eval").exists()  # rejected before any output


def test_evaluate_mixed_methods_is_format_error(fixture_file, tmp_path, capsys):
    argv = ["--input", str(fixture_file), "--neighbors", "5", "--topk", "5"]
    for method in ("cf", "svd"):
        assert main(["run", *argv, "--method", method, "--out-dir", str(tmp_path / method)]) == 0
    batch = tmp_path / "mixed.tsv"
    batch.write_text(
        "".join((tmp_path / m / "recommendations.tsv").read_text() for m in ("cf", "svd"))
    )
    capsys.readouterr()
    evaluate = ["evaluate", "--recommendations", str(batch), *argv[:2], "--topk", "5"]
    assert main([*evaluate, "--out-dir", str(tmp_path / "eval")]) == 2
    assert "mix methods ['cf', 'svd']" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_evaluate_repeated_user_is_format_error(fixture_file, tmp_path, capsys):
    argv = ["--input", str(fixture_file), "--neighbors", "5", "--topk", "5"]
    assert main(["run", *argv, "--method", "cf", "--out-dir", str(tmp_path / "cf")]) == 0
    lines = (tmp_path / "cf" / "recommendations.tsv").read_text().splitlines(keepends=True)
    batch = tmp_path / "repeated.tsv"
    batch.write_text("".join(lines + lines[3:4]))
    capsys.readouterr()
    evaluate = ["evaluate", "--recommendations", str(batch), *argv[:2], "--topk", "5"]
    assert main([*evaluate, "--out-dir", str(tmp_path / "eval")]) == 2
    user = lines[3].split("\t")[0]
    assert f"user {user!r} has more than one list" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_recommend_lists_a_repeated_user_once_and_evaluate_accepts_it(
    fixture_file, tmp_path, capsys
):
    model_path = tmp_path / "model.bin"
    common = ["--input", str(fixture_file), "--features", "4", "--epochs", "1"]
    assert main(["train", *common, "--model-out", str(model_path)]) == 0
    users_file = tmp_path / "users.txt"
    users_file.write_text("c0u1\nc1u0\nc0u1\n")
    out = tmp_path / "recs.tsv"
    argv = ["recommend", *common, "--model", str(model_path), "--method", "kni"]
    assert main([*argv, "--users", str(users_file), "--out", str(out)]) == 0
    assert [r.user for r in read_batch_recommendations(out)] == ["c0u1", "c1u0"]
    evaluate = ["evaluate", "--recommendations", str(out), "--input", str(fixture_file)]
    assert main([*evaluate, "--out-dir", str(tmp_path / "eval")]) == 0
    assert "(2 users)" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["nn", "kiu"])
def test_recommend_line_does_not_depend_on_block_mates(
    fixture_file, tmp_path, monkeypatch, method
):
    """A user's line is the same whichever users share its serving block.
    Blocks are cut to 3 users, and recommend --users over a subset (one
    user; seven users, so the last block holds one; every third user) gives
    each of its users the line recommend gives over the whole population.
    BLAS picks its kernel by product shape, and kernels round differently,
    so the second model's user rows are rescaled copies of one row per
    community: all its similarities within a community tie up to rounding,
    and a kernel change would reorder the neighbors."""
    model_path = tmp_path / "model.bin"
    assert main(
        [
            "train", "--input", str(fixture_file), "--features", "32",
            "--window", "4", "--epochs", "3", "--seed", "1",
            "--model-out", str(model_path),
        ]
    ) == 0
    model = load_embedding_model(model_path)
    vocab = model.vocab
    monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * vocab.user_count * 3)
    tied_path = tmp_path / "tied.bin"
    for index in range(vocab.user_count):
        community = vocab.users[index].split("u")[0]
        base = model.input_vectors[vocab.user_index[f"{community}u0"]].copy()
        model.input_vectors[index] = base * np.float32(1 + index / 7)
    save_embedding_model(model, tied_path)

    def lines(model_file, users=None):
        out = tmp_path / "recs.tsv"
        argv = [
            "recommend", "--model", str(model_file), "--input", str(fixture_file),
            "--method", method, "--neighbors", "4", "--topk", "5", "--out", str(out),
        ]
        if users is not None:
            users_file = tmp_path / "users.txt"
            users_file.write_text("".join(f"{user}\n" for user in users))
            argv += ["--users", str(users_file)]
        assert main(argv) == 0
        return {line.split("\t")[0]: line for line in out.read_text().splitlines()}

    for model_file in (model_path, tied_path):
        everyone = lines(model_file)
        users = sorted(everyone)
        assert len(users) == 20
        for subset in ([users[4]], users[:7], users[::3]):
            assert lines(model_file, subset) == {user: everyone[user] for user in subset}


def test_recommend_with_nan_weight_is_format_error(fixture_file, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    common = ["--input", str(fixture_file), "--features", "4", "--epochs", "1"]
    assert main(["train", *common, "--model-out", str(model_path)]) == 0
    model = load_embedding_model(model_path)
    model.input_vectors[0, 1] = np.nan  # one user row
    save_embedding_model(model, model_path)
    capsys.readouterr()
    out = tmp_path / "recs.tsv"
    argv = ["recommend", *common, "--model", str(model_path), "--method", "kni"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{model_path} holds a non-finite weight" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_names_each_failed_value(fixture_file, tmp_path, capsys):
    argv = ["sweep", "--input", str(fixture_file), "--method", "kni", "--features", "4",
            "--epochs", "1", "--axis", "C", "--values", "5,0", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "sweep C: 1 runs ok, 1 failed" in captured.out
    assert 'C=0: context_count must be an int >= 1 or "max"' in captured.err.splitlines()

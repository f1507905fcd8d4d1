import json
from dataclasses import replace

import pytest

from venue2vec.cli import main
from venue2vec.harness import ExperimentConfig
from venue2vec.metrics import read_report_csv
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
    make_config = ExperimentConfig.training_config
    monkeypatch.setattr(
        ExperimentConfig,
        "training_config",
        lambda self: replace(make_config(self), initial_learning_rate=1e6),
    )
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
        ["--method", "ccdpp", "--mf-iterations", "0"],
    ],
)
def test_bad_factorization_setting_is_config_error(fixture_file, capsys, flags):
    assert main(["run", "--input", str(fixture_file), *flags]) == 1
    assert "config error" in capsys.readouterr().err


def test_unparseable_value_is_config_error(fixture_file, tmp_path, capsys):
    base = ["--input", str(fixture_file), "--method", "kni", "--out-dir", str(tmp_path)]
    for key, value in (("features", "abc"), ("regularization", "x1"), ("window", "wide")):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"{key} = {value}\n")
        assert main(["run", "--config", str(conf), *base]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{key}={value!r}" in err
    assert main(["run", "--window", "wide", *base]) == 1
    assert "window='wide'" in capsys.readouterr().err
    assert main(["sweep", "--axis", "F", "--values", "10,x", *base]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "values='x'" in err

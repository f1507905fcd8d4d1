"""Runs of the benchmark script, whose planted section must agree with
run_experiment and make one load and five fits, and of the artifact
protocol script, and checks that README's Library example imports what the
package exports and runs, and that its command lines parse."""

import ast
import contextlib
import importlib.util
import io
import json
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from venue2vec.cli import build_parser
from venue2vec.fixtures import FixtureSpec, generate_fixture
from venue2vec.harness import ALL_METHODS, run_experiment

from conftest import COMMUNITY_SPEC, count_loads_and_fits

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


# 104 users and 128 venues: the paper section's rank-100 builds need 100 of each
TINY = FixtureSpec(seed=5, communities=8, users_per_community=13, venues_per_community=16,
                   train_checkins_per_user=10, test_checkins_per_user=3)


def _load(script: str):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_script_prints_one_json_document(monkeypatch, capsys):
    """time_epoch.py with every fixture the tiny one: stdout is one JSON
    document of the four sections, and the planted section has one entry
    per method whose accuracy is run_experiment's for that method."""
    time_epoch = _load("time_epoch")
    planted = replace(time_epoch.PLANTED, fixture=TINY)
    monkeypatch.setattr(time_epoch, "PAPER_SHAPE", TINY)
    monkeypatch.setattr(time_epoch, "PLANTED", planted)
    monkeypatch.setattr(sys, "argv", ["time_epoch.py"])
    assert time_epoch.main() == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["machine", "paper_shape", "eight_communities", "planted"]
    assert {"nproc", "python", "numpy", "scipy"} <= set(doc["machine"])
    paper = doc["paper_shape"]
    assert list(paper) == ["stage_s", "lines_per_s", "build_s", "random_serving_s", "model_io",
                           "serving_s", "run", "corpus", "training"]
    assert len(paper["stage_s"]) == 8 and list(paper["run"]) == ["cf", "random"]
    assert next(iter(paper["stage_s"])) == "generate_fixture"
    assert list(paper["model_io"]) == ["save_s", "load_s", "bytes"]
    # per token: 12 table bytes, 2 x 100 float32 weights and its id's bytes
    assert paper["model_io"]["bytes"] > 21 + paper["corpus"]["vocabulary"] * (12 + 800)
    assert list(paper["serving_s"]) == ["kni"] and list(paper["serving_s"]["kni"]) == [
        "s", "us_per_user"]
    assert paper["corpus"]["users"] == 104
    windows = {"skip-gram": 20, "cbow": "max"}
    for section in (paper["training"], doc["eight_communities"]):
        assert {arch: entry["C"] for arch, entry in section.items()} == windows
    assert list(doc["planted"]) == list(ALL_METHODS)
    accuracy = ("precision", "ndcg", "hitrate", "coverage")
    for method, entry in doc["planted"].items():
        report = run_experiment(replace(planted, method=method))
        assert [entry[name] for name in accuracy] == [getattr(report, name) for name in accuracy]


def test_planted_table_loads_once_and_fits_once_per_family(monkeypatch):
    """The planted table is one run_experiments over the seven methods: one
    dataset load, and five fits, kni's serving nn and kiu too."""
    time_epoch = _load("time_epoch")
    calls = count_loads_and_fits(monkeypatch)
    assert list(time_epoch.planted(TINY)) == list(ALL_METHODS)
    assert calls == {"load_dataset": 1, "fit": 5}


def test_planted_rec_s_is_one_serving(monkeypatch):
    """Random's rec_s_total sums its 10 runs; the table's rec_s is one
    serving's seconds for every method, so Random's is a tenth of it."""
    time_epoch = _load("time_epoch")

    def reports(configs):
        return [SimpleNamespace(precision=0.0, ndcg=0.0, hitrate=0.0, coverage=1.0,
                                train_s=1.0, rec_s_total=2.0) for _ in configs]

    monkeypatch.setattr(time_epoch, "run_experiments", reports)
    doc = time_epoch.planted(TINY)
    assert time_epoch.PLANTED.random_runs == 10
    assert {method: entry["rec_s"] for method, entry in doc.items()} == {
        method: 0.2 if method == "random" else 2.0 for method in ALL_METHODS
    }


def test_artifact_protocol_zeroes_every_timing(tmp_path):
    """The protocol on one small fixture: every command succeeds, and only
    the timing fields are zeroed in reports, sweep CSVs and loss traces."""
    artifacts = _load("artifacts")
    small = {"small": ["--seed", "1", "--communities", "2", "--users-per-community", "6",
                       "--venues-per-community", "12", "--train-checkins", "8"]}
    assert artifacts.write_protocol(tmp_path, small) == 344  # a third of the 1,032
    report = json.loads((tmp_path / "small/run/kiu/plain/report.json").read_text())
    assert (report["N"], report["E"]) == (30, 5)
    assert (report["train_s"], report["rec_s_total"], report["rec_s_per_user"]) == (0.0,) * 3
    header, *rows = (tmp_path / "small/staged-min2/loss.csv").read_text().splitlines()
    assert header.endswith(",seconds") and len(rows) == 5
    assert all(row.endswith(",0.0") for row in rows)
    header, *rows = (tmp_path / "small/sweep/sweep_E.csv").read_text().splitlines()
    assert header.endswith(",train_s,rec_s_total,rec_s_per_user") and len(rows) == 2
    assert all(row.endswith(",0.0,0.0,0.0") for row in rows)
    assert (tmp_path / "small/plot/kni_E.csv").is_file()
    for method in artifacts.EMBEDDING_METHODS:
        lines = (tmp_path / f"small/staged-min1/{method}-users.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == list(artifacts.USERS)
        assert lines[1] == f"nobody\t{method}\tno-prediction"


def _library_example() -> str:
    """The code of README's Library example."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_imports_are_the_package_exports():
    """README's Library example imports resolve, and they are exactly the
    names the package root re-exports."""
    code = _library_example()
    imports = [node for node in ast.parse(code).body if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports] == ["venue2vec"]
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
    init = ast.parse((ROOT / "src" / "venue2vec" / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {alias.name for alias in imports[0].names} == exported


def test_readme_library_example_runs():
    """README's Library example runs as written, over a small fixture's rows
    and a few of its users plus one the fit never saw: it prints the
    seven-method table, one row of three metrics per method, then one line
    per (method, user), in order, the stranger's list empty."""
    rows = list(generate_fixture(COMMUNITY_SPEC))
    users = ["c0u0", "c1u3", "stranger", "c0u7"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_library_example(), "README.md", "exec"), {"rows": rows, "users": users})
    lines = printed.getvalue().splitlines()
    table, lines = lines[: len(ALL_METHODS)], lines[len(ALL_METHODS) :]
    assert [row.split()[0] for row in table] == list(ALL_METHODS)
    assert all(len(row.split()) == 4 for row in table)
    methods = ("kni", "nn", "kiu")
    assert [line.split()[:2] for line in lines] == [[m, u] for m in methods for u in users]
    assert all(line.endswith("stranger []") for line in lines[2::4])


def test_readme_command_lines_parse():
    """Every venue2vec command in README's bash blocks parses with the CLI's
    parser; nothing is run."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["venue2vec"]:
                commands.append(words[1:])
    assert {argv[0] for argv in commands} >= {"generate-fixture", "run", "sweep"}
    for argv in commands:
        build_parser().parse_args(argv)

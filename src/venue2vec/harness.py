"""Experiment orchestration: end-to-end runs, parameter sweeps, plot data.

A run executes corpus construction, model building (embedding training,
matrix factorization, or the interaction matrix for CF/Random), per-user
recommendation and evaluation, with the modeling and recommendation phases
timed separately. Random makes random_runs seeded runs and reports their
mean; every other method makes one. The CLI's train, recommend and evaluate
stages reuse the same steps (load_dataset, fit_embedding,
embedding_recommender, evaluate_recommendations).
Only training records ever reach vocabulary, sentence or matrix construction;
test records are consumed exclusively by ground-truth building.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse

from . import baselines, recommend
from .corpus import (
    Dataset,
    FieldLayout,
    SentenceCorpus,
    Vocabulary,
    build_interactions,
    build_sentences,
    build_vocabulary,
    read_checkins,
    split_train_test,
)
from .embedding import (
    CBOW,
    MAX_WINDOW,
    SKIP_GRAM,
    EmbeddingModel,
    EpochStats,
    TrainingConfig,
    init_model,
    resolve_window,
    train,
    write_loss_trace,
)
from .errors import ConfigError, EmitError, FormatError
from .fixtures import FEB_2011, FixtureSpec, generate_fixture
from .metrics import (
    MetricsReport,
    PhaseTimings,
    UserResult,
    aggregate,
    build_ground_truth,
    score_user,
    write_per_user_csv,
    write_report_csv,
    write_report_json,
)

EMBEDDING_METHODS = (recommend.KNI, recommend.NN, recommend.KIU)
BASELINE_METHODS = (baselines.CF, baselines.RANDOM, baselines.SVD, baselines.CCDPP)
ALL_METHODS = EMBEDDING_METHODS + BASELINE_METHODS

# Sweep grids used throughout the experiments: feature count 10..100 step 10,
# window 5..20 step 5, epochs 5..25 step 5.
SWEEP_GRIDS = {
    "F": list(range(10, 101, 10)),
    "C": [5, 10, 15, 20],
    "E": [5, 10, 15, 20, 25],
}

_AXIS_FIELDS = {"F": "feature_count", "C": "context_count", "E": "epoch_count"}

METRIC_COLUMNS = ["precision", "ndcg", "hitrate", "coverage"]

ERROR_MARKER = "ERROR"

# Users are served a block at a time, one score-rule call per block, and a
# block's float64 arrays (its similarities to every user, its scores over the
# catalog) hold about BLOCK_BYTES each, 2^17 entries: serving memory does not
# grow with the population, and per-call overhead is paid per block.
BLOCK_BYTES = 1 << 20


def _user_seed(seed: int, user: str) -> int:
    """Process-independent per-user sub-seed (hash() is salted, crc32 is not)."""
    return (seed * 0x9E3779B1 + zlib.crc32(user.encode("utf-8"))) & 0x7FFFFFFF


@dataclass
class ExperimentConfig:
    """Everything one run needs; flat on purpose so key=value files map 1:1."""

    input_path: str | None = None
    fixture: FixtureSpec | None = None
    boundary: int = FEB_2011
    method: str = recommend.KNI
    architecture: str = SKIP_GRAM
    feature_count: int = 100
    context_count: int | str | None = None  # None: 20 for skip-gram, "max" for CBOW
    epoch_count: int = 25
    negative_samples: int = 5
    min_word_count: int = 1
    neighbors: int = 30
    k: int = 10
    filter_seen: bool = False
    binary_votes: bool = False
    seed: int = 1
    rank: int | None = None
    regularization: float = 0.1
    mf_iterations: int = 15
    random_runs: int = 10
    out_dir: str | None = None
    layout: FieldLayout = field(default_factory=FieldLayout)

    def __post_init__(self) -> None:
        if self.context_count is None:
            self.context_count = MAX_WINDOW if self.architecture == CBOW else 20

    def validate(self) -> None:
        if self.method not in ALL_METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {ALL_METHODS}"
            )
        if self.input_path is None and self.fixture is None:
            raise ConfigError("either an input file or a fixture spec is required")
        if self.input_path is not None and self.fixture is not None:
            raise ConfigError("input file and fixture spec are mutually exclusive")
        if self.k < 1 or self.neighbors < 1:
            raise ConfigError("k and neighbors must be >= 1")
        if self.min_word_count < 1:
            raise ConfigError("min_word_count must be >= 1")
        if self.random_runs < 1:
            raise ConfigError("random_runs must be >= 1")
        if self.method in EMBEDDING_METHODS:
            self.training_config()  # raises ConfigError on bad values
        if self.method in (baselines.SVD, baselines.CCDPP) and self.latent_rank() < 1:
            raise ConfigError("rank must be >= 1")
        if self.method == baselines.CCDPP and not (
            self.regularization > 0 and self.mf_iterations >= 1
        ):
            raise ConfigError("ccdpp needs regularization > 0 and mf_iterations >= 1")

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            architecture=self.architecture,
            feature_count=self.feature_count,
            context_count=self.context_count,
            epoch_count=self.epoch_count,
            negative_samples=self.negative_samples,
            seed=self.seed,
        )

    def latent_rank(self) -> int:
        # default keeps factorization and embedding dimensions comparable
        return self.rank if self.rank is not None else self.feature_count


def load_dataset(config: ExperimentConfig) -> Dataset:
    """The configured check-ins (input file or fixture), split at the boundary."""
    if config.fixture is not None:
        records, _ = generate_fixture(config.fixture)
    elif config.input_path is not None:
        records, _ = read_checkins(config.input_path, config.layout)
    else:
        raise ConfigError("either an input file or a fixture spec is required")
    return split_train_test(records, config.boundary)


def fit_embedding(
    config: ExperimentConfig, dataset: Dataset
) -> tuple[EmbeddingModel, SentenceCorpus, list[EpochStats]]:
    """Train the configured embedding on the training records only."""
    vocab = build_vocabulary(dataset.train, config.min_word_count)
    corpus = build_sentences(dataset.train, vocab)
    model, trace = train(init_model(vocab, config.training_config()), corpus)
    return model, corpus, trace


def serve(
    config: ExperimentConfig,
    vocab: Vocabulary,
    visits: sparse.csr_matrix | None,
    score_block: Callable[[np.ndarray], np.ndarray],
) -> Callable[[Sequence[str]], Iterator[recommend.RecommendationList]]:
    """The recommend callable of a score rule: score_block(rows) is a fresh
    (len(rows) x venues) score array for the vocabulary's users at those
    rows, -inf where a venue cannot be listed.

    The callable lists the given users in order, a block at a time: one
    score_block call per block of users, as many as BLOCK_BYTES holds rows
    of the vocabulary's width (at most its user count). Every call gets
    exactly that many rows, a short block repeating its rows and the
    repeats' scores dropped: BLAS picks its kernel by product shape (numpy
    sends one row to gemv, OpenBLAS small products to another kernel), the
    kernels round differently, and a user's list must not depend on which
    users share its block.

    A user outside the vocabulary gets an empty list, as does one whose row
    is all -inf (an undefined similarity query); evaluation books both as
    coverage misses. Under filter_seen each user's venues in visits (the
    build_interactions table over vocab) are masked to -inf before the one
    top-k per row, so the list is exactly the top k of the unseen venues,
    ties included.
    """
    width = max(vocab.user_count, len(vocab.venues))
    size = max(1, min(BLOCK_BYTES // (8 * width), vocab.user_count))

    def recommend_users(users: Sequence[str]) -> Iterator[recommend.RecommendationList]:
        for start in range(0, len(users), size):
            block = users[start : start + size]
            known = [user for user in block if user in vocab.user_index]
            scores = {}
            if known:
                rows = np.array([vocab.user_index[user] for user in known], dtype=np.int64)
                block_scores = score_block(np.resize(rows, size))[: len(rows)]
                if config.filter_seen:
                    block_scores[visits[rows].nonzero()] = -np.inf
                scores = dict(zip(known, block_scores))
            for user in block:
                items = []
                if user in scores:
                    row = scores[user]
                    top = recommend.top_k(row, config.k)
                    items = [(vocab.venues[j], float(row[j])) for j in top]
                yield recommend.RecommendationList(user, config.method, items)

    return recommend_users


def embedding_recommender(
    config: ExperimentConfig, model: EmbeddingModel, dataset: Dataset
) -> Callable[[Sequence[str]], Iterator[recommend.RecommendationList]]:
    """The KNI/NN/KIU recommend callable over a trained model (see serve).

    Ties break by ascending vocabulary index. The training visits are read
    only where they are used, NN's votes and the seen mask: they are counted
    over the model's vocabulary, so pruned venues and users without history
    vote nothing. KNI is KIU with no neighbors. The input rows' norms are
    taken here, once per call, so a model changed in place between calls
    is served by its current rows.
    """
    vocab = model.vocab
    visits = None
    if config.method == recommend.NN or config.filter_seen:
        visits = build_interactions(dataset.train, vocab, config.binary_votes)
    count = vocab.user_count
    vectors, norms = model.input_vectors, recommend.row_norms(model.input_vectors)
    users, user_norms = vectors[:count], norms[:count]
    if config.method == recommend.NN:
        return serve(
            config,
            vocab,
            visits,
            lambda block: recommend.vote_scores(
                users, user_norms, visits, block, config.neighbors, weighted=False
            ),
        )
    neighbors = config.neighbors if config.method == recommend.KIU else 0
    return serve(
        config,
        vocab,
        visits,
        lambda block: recommend.kiu_scores(
            users, user_norms, vectors[count:], norms[count:], block, neighbors
        ),
    )


def _recommender_for(config: ExperimentConfig, dataset: Dataset):
    """Build the method's model.

    Returns (one recommend callable per seeded run, train_seconds, the
    report's echo fields, traces to write). Random has random_runs runs,
    seeded config.seed + run; every other method has one.
    """
    started = time.perf_counter()
    traces: dict = {}

    if config.method in EMBEDDING_METHODS:
        model, corpus, traces["loss_trace"] = fit_embedding(config, dataset)
        runs = [embedding_recommender(config, model, dataset)]
        echo = dict(
            arch=config.architecture,
            feature_count=config.feature_count,
            context_count=resolve_window(config.context_count, corpus.max_length),
            epoch_count=config.epoch_count,
            neighbors=config.neighbors,
        )
        return runs, time.perf_counter() - started, echo, traces

    vocab = build_vocabulary(dataset.train)
    visits = build_interactions(dataset.train, vocab, config.binary_votes)
    if config.method == baselines.RANDOM:

        def random_run(seed: int):
            # per-user sub-seed so one run's draws are independent across users
            return lambda users: (
                baselines.recommend_random(
                    vocab.venues,
                    user,
                    config.k,
                    _user_seed(seed, user),
                    set(visits[vocab.user_index[user]].indices.tolist())
                    if config.filter_seen
                    else (),
                )
                for user in users
            )

        runs = [random_run(config.seed + run) for run in range(config.random_runs)]
        return runs, time.perf_counter() - started, {}, traces

    if config.method == baselines.CF:
        rows, weighted = visits, True
        echo = dict(neighbors=config.neighbors)
    else:  # svd / ccdpp
        rank = min(config.latent_rank(), min(visits.shape))
        if config.method == baselines.SVD:
            factors = baselines.svd_factorize(visits, rank, seed=config.seed)
        else:
            factors, traces["objective_trace"] = baselines.ccdpp_factorize(
                visits,
                rank,
                config.regularization,
                config.mf_iterations,
                seed=config.seed,
            )
        rows, weighted = factors.user_factors, False
        echo = dict(feature_count=factors.rank, neighbors=config.neighbors)
    norms = recommend.row_norms(rows)
    runs = [
        serve(
            config,
            vocab,
            visits,
            lambda block: recommend.vote_scores(
                rows, norms, visits, block, config.neighbors, weighted
            ),
        )
    ]
    return runs, time.perf_counter() - started, echo, traces


def _evaluate_users(
    recommend_users,
    ground_truth: dict[str, set[str]],
    k: int,
    rows: list[UserResult],
) -> tuple[list[recommend.RecommendationList], float]:
    """Recommend and score every eligible user, in sorted user order.

    The scored rows are appended to rows as each list arrives, so the
    caller still holds the partial results if a recommender raises mid-run.
    """
    results: list[recommend.RecommendationList] = []
    started = time.perf_counter()
    users = sorted(ground_truth)
    for user, result in zip(users, recommend_users(users)):
        results.append(result)
        rows.append(score_user(user, result.venues(), ground_truth[user], k))
    return results, time.perf_counter() - started


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Execute one full run and write artifacts into config.out_dir if set.

    On a failure, invalid configuration included, an ERROR marker file (plus
    the partial per-user CSV of a run that died mid-way) is left in the
    output directory before the exception propagates.
    """
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        config.validate()
        return _run_experiment(config, out_dir)
    except Exception as exc:
        if out_dir is not None:
            (out_dir / ERROR_MARKER).write_text(
                f"{exc}\n\n{traceback.format_exc()}", encoding="utf-8"
            )
        raise


def _run_experiment(config: ExperimentConfig, out_dir: Path | None) -> MetricsReport:
    """Every run of the method, then their mean (a single run is its own mean).

    With more than one run each run's rows go to per_user_run{i}.csv;
    per_user.csv and recommendations.tsv are run 0's.
    """
    dataset = load_dataset(config)
    ground_truth = build_ground_truth(dataset)
    if not ground_truth:
        raise ConfigError("no user has both train and test records")

    runs, train_seconds, echo, traces = _recommender_for(config, dataset)
    many = len(runs) > 1
    reports: list[MetricsReport] = []
    for index, recommend_users in enumerate(runs):
        per_user = f"per_user_run{index}.csv" if many else "per_user.csv"
        rows: list[UserResult] = []
        try:
            results, seconds = _evaluate_users(
                recommend_users, ground_truth, config.k, rows
            )
        except Exception:
            # keep the partial per-user rows for post-mortem; the caller adds
            # the ERROR marker next to them
            if out_dir is not None and rows:
                write_per_user_csv(rows, out_dir / per_user)
            raise
        if out_dir is not None and many:
            write_per_user_csv(rows, out_dir / per_user)
        if out_dir is not None and index == 0:
            recommend.write_batch_recommendations(
                results, out_dir / "recommendations.tsv"
            )
        reports.append(
            aggregate(
                rows,
                PhaseTimings(train_seconds, seconds),
                method=config.method,
                k=config.k,
                **echo,
            )
        )
    count = len(reports)
    rec_seconds = sum(r.rec_s_total for r in reports)
    report = replace(
        reports[0],
        precision=sum(r.precision for r in reports) / count,
        ndcg=sum(r.ndcg for r in reports) / count,
        hitrate=sum(r.hitrate for r in reports) / count,
        coverage=sum(r.coverage for r in reports) / count,
        rec_s_total=rec_seconds,
        rec_s_per_user=rec_seconds / (len(ground_truth) * count),
    )
    if out_dir is not None:
        _write_artifacts(report, out_dir, traces)
    return report


def evaluate_recommendations(
    config: ExperimentConfig,
    results: Sequence[recommend.RecommendationList],
    out_dir: Path,
) -> MetricsReport:
    """Score saved recommendation lists of one method against the test
    split, in list order.

    Lists of users outside the evaluation population are skipped; the
    report is written into out_dir.

    Raises:
        FormatError: if the lists come from more than one method, naming
            them, or a user has more than one list, naming the user.
        ConfigError: if a scored list is longer than config.k.
    """
    methods = sorted({result.method for result in results})
    if len(methods) > 1:
        raise FormatError(f"the lists mix methods {methods}; evaluate one method at a time")
    users: set[str] = set()
    for result in results:
        if result.user in users:
            raise FormatError(f"user {result.user!r} has more than one list")
        users.add(result.user)
    truth = build_ground_truth(load_dataset(config))
    scored = [result for result in results if result.user in truth]
    for result in scored:
        if len(result.items) > config.k:
            raise ConfigError(
                f"the list of user {result.user!r} holds {len(result.items)} "
                f"venues, more than k={config.k}"
            )
    rows = [
        score_user(result.user, result.venues(), truth[result.user], config.k)
        for result in scored
    ]
    if not rows:
        raise ConfigError("no overlap between recommendations and evaluation users")
    report = aggregate(
        rows,
        PhaseTimings(),
        method=results[0].method,
        k=config.k,
        neighbors=config.neighbors,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_artifacts(report, out_dir, {})
    return report


def _write_artifacts(report: MetricsReport, out_dir: Path, traces: dict) -> None:
    """per_user.csv, report.csv and report.json, plus the traces given."""
    write_per_user_csv(report.per_user, out_dir / "per_user.csv")
    write_report_csv([report.to_row()], out_dir / "report.csv")
    write_report_json(report.to_row(), out_dir / "report.json")
    if "loss_trace" in traces:
        write_loss_trace(traces["loss_trace"], out_dir / "loss_trace.csv")
    if "objective_trace" in traces:
        with open(out_dir / "objective_trace.csv", "w", encoding="utf-8") as handle:
            handle.write("iteration,objective\n")
            for iteration, value in enumerate(traces["objective_trace"]):
                handle.write(f"{iteration},{value!r}\n")


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis; the other parameters stay fixed at the base config."""

    axis: str
    values: Sequence[int | str] = ()

    def resolved_values(self) -> list:
        if self.axis not in _AXIS_FIELDS:
            raise ConfigError(f"sweep axis must be one of {sorted(_AXIS_FIELDS)}")
        values = list(self.values) if self.values else list(SWEEP_GRIDS[self.axis])
        if self.axis != "C" and MAX_WINDOW in values:
            raise ConfigError(f"sweep axis {self.axis} takes integers; only C accepts 'max'")
        return values


def run_sweep(
    spec: SweepSpec, base: ExperimentConfig
) -> tuple[list[MetricsReport | Exception], list[dict]]:
    """One run per axis value; failures are recorded and the sweep continues.

    Returns the reports (the exception where a run failed) and the combined
    rows, and writes sweep_<axis>.csv under base.out_dir when set.
    """
    values = spec.resolved_values()
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name = _AXIS_FIELDS[spec.axis]
    out_dir = Path(base.out_dir) if base.out_dir else None
    reports: list[MetricsReport | Exception] = []
    rows: list[dict] = []
    for value in values:
        run_config = dataclasses.replace(
            base,
            **{field_name: value},
            out_dir=str(out_dir / f"{spec.axis}={value}") if out_dir else None,
        )
        try:
            report = run_experiment(run_config)
        except Exception as exc:
            reports.append(exc)
            continue
        reports.append(report)
        rows.append(report.to_row())
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report_csv(rows, out_dir / f"sweep_{spec.axis}.csv")
    return reports, rows


def infer_axis(rows: Sequence[dict]) -> str:
    """The single F/C/E column that varies across rows."""
    varying = [
        axis
        for axis, column in _AXIS_FIELDS.items()
        if len({row[axis] for row in rows}) > 1
    ]
    if len(varying) > 1:
        raise EmitError(f"reports vary along multiple axes: {varying}")
    if not varying:
        raise EmitError("reports do not vary along any of F, C, E")
    return varying[0]


def emit_plot_data(
    rows: Sequence[dict], out_dir: str | Path, axis: str | None = None
) -> dict[tuple[str, str], Path]:
    """Tidy (axis_value, metric, value) CSVs, one file per (method, axis)."""
    if not rows:
        raise EmitError("no reports to emit")
    if axis is None:
        axis = infer_axis(rows)
    if axis not in _AXIS_FIELDS:
        raise EmitError(f"unknown axis {axis!r}")
    for other in _AXIS_FIELDS:
        if other != axis and len({row[other] for row in rows}) > 1:
            raise EmitError(f"reports mix axes {axis} and {other}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[tuple[str, str], Path] = {}
    methods = sorted({row["method"] for row in rows})
    for method in methods:
        path = out_dir / f"{method}_{axis}.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("axis_value,metric,value\n")
            for row in sorted(
                (r for r in rows if r["method"] == method), key=lambda r: r[axis]
            ):
                for metric in METRIC_COLUMNS:
                    handle.write(f"{row[axis]},{metric},{row[metric]!r}\n")
        written[(method, axis)] = path
    return written


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{number}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values

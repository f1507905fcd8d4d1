"""Experiment orchestration: end-to-end runs, parameter sweeps, plot data.

run_experiments is the one run loop. A run loads its input and fits
(embedding training, matrix factorization, or the interaction matrix for
CF/Random), each reused from the previous config where it matches, then
serves, ranks and scores the users a block at a time in array operations,
with the modeling and recommendation phases timed separately. A serving is one
generator (recommender, then serve) that yields each block of users with
its ranked CSR matrix, and score_lists scores the blocks as they arrive.
One fit serves every method it holds the rows of; Random serves
random_runs seeded runs from it and reports their mean. The CLI's train,
recommend and evaluate stages reuse the same steps (load_dataset,
fit_embedding, Fit.of_model, recommender, evaluate_recommendations, which
reads a batch file as one ranked block and scores it with score_lists).
A report's arch, F, C and E come from the fit, which knows what it fitted;
its method, N and k from the serving, so one fit can be reported at any N.
Only training records ever reach vocabulary, sentence or matrix construction;
test records only the ground truth (evaluation_users, TruthTable.of).
"""

from __future__ import annotations

import time
import traceback
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
)
from .errors import ConfigError, EmitError, FormatError
from .fixtures import FEB_2011, FixtureSpec, generate_fixture
from .metrics import (
    METRICS,
    REPORT_COLUMNS,
    MetricsReport,
    TruthTable,
    UserResult,
    aggregate,
    evaluation_users,
    score_block,
    write_csv,
    write_per_user_csv,
    write_report_json,
)

EMBEDDING_METHODS = (recommend.KNI, recommend.NN, recommend.KIU)
BASELINE_METHODS = (baselines.CF, baselines.RANDOM, baselines.SVD, baselines.CCDPP)
ALL_METHODS = EMBEDDING_METHODS + BASELINE_METHODS

# The sweep axes, each a report column: the ExperimentConfig field it sets and
# its grid (feature count 10..100 step 10, window 5..20 step 5, epochs 5..25
# step 5).
SWEEP_AXES = {
    "F": ("feature_count", list(range(10, 101, 10))),
    "C": ("context_count", [5, 10, 15, 20]),
    "E": ("epoch_count", [5, 10, 15, 20, 25]),
}

ERROR_MARKER = "ERROR"

# Users are served a block at a time, one score-rule call and one ranking
# per block, and a block's float64 rows over the users (a neighbour pick's
# similarities; for Random, which builds none, its rows as deep as its
# deepest draw) hold about BLOCK_BYTES, 2^17 entries: serving memory does
# not grow with the population, and per-call overhead is paid per block.
BLOCK_BYTES = 1 << 20


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
    min_word_count: int = 1
    neighbors: int = 30
    k: int = 10
    filter_seen: bool = False
    binary_votes: bool = False
    seed: int = 1
    rank: int | None = None
    regularization: float = 0.1
    random_runs: int = 10
    out_dir: str | None = None
    layout: FieldLayout = field(default_factory=FieldLayout)

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
        if self.random_runs < 1 or self.seed < 0:
            raise ConfigError("random_runs must be >= 1 and seed >= 0")
        if self.method == baselines.RANDOM and self.seed + self.random_runs > 2**64:
            # run r draws with seed + r, and Random's streams are keyed by 64 bits
            raise ConfigError(
                f"random's seeds run from seed to seed + random_runs - 1 = "
                f"{self.seed + self.random_runs - 1}, which must be below 2^64"
            )
        if self.method in EMBEDDING_METHODS:
            self.training_config()  # raises ConfigError on bad values
        if self.method in (baselines.SVD, baselines.CCDPP) and self.latent_rank() < 1:
            raise ConfigError("rank must be >= 1")
        if self.method == baselines.CCDPP and not self.regularization > 0:
            raise ConfigError("ccdpp needs regularization > 0")

    def training_config(self) -> TrainingConfig:
        window = self.context_count
        if window is None:
            window = MAX_WINDOW if self.architecture == CBOW else 20
        return TrainingConfig(
            architecture=self.architecture,
            feature_count=self.feature_count,
            context_count=window,
            epoch_count=self.epoch_count,
            seed=self.seed,
        )

    def latent_rank(self) -> int:
        # default keeps factorization and embedding dimensions comparable
        return self.rank if self.rank is not None else self.feature_count


def load_dataset(config: ExperimentConfig) -> Dataset:
    """The configured check-ins (input file or fixture), split at the boundary."""
    if config.fixture is not None:
        log = generate_fixture(config.fixture)
    elif config.input_path is not None:
        log, skipped = read_checkins(config.input_path, config.layout)
        if skipped:
            warnings.warn(
                f"{config.input_path}: skipped {skipped} malformed lines", stacklevel=2
            )
    else:
        raise ConfigError("either an input file or a fixture spec is required")
    return split_train_test(log, config.boundary)


def served_neighbors(method: str, neighbors: int) -> int:
    """The N a method serves with: neighbors, but 0 for KNI (KIU with N = 0)
    and Random, which pick no neighbours."""
    return 0 if method in (recommend.KNI, baselines.RANDOM) else neighbors


def _serving_echo(config: ExperimentConfig, method: str) -> dict:
    """The report columns a serving of method decides: method, N and k."""
    return dict(method=method, N=served_neighbors(method, config.neighbors), k=config.k)


def loss_trace(trace: list[EpochStats]) -> tuple[list[str], list[tuple]]:
    """The loss trace CSV's columns (EpochStats' fields) and rows."""
    return [f.name for f in fields(EpochStats)], [astuple(stats) for stats in trace]


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
    score_block: Callable[[np.ndarray], sparse.csr_matrix],
    users: Sequence[str],
    row_bytes: int | None = None,
) -> Iterator[tuple[Sequence[str], sparse.csr_matrix]]:
    """A score rule's lists of users, a block at a time: yields (a block of
    users, their ranked matrix), in order. Row i of the matrix stores user
    i's list, venue columns and scores in rank order (see recommend.ranked),
    and nothing for a user outside the vocabulary. score_block(rows) is a
    fresh (len(rows) x venues) CSR matrix with sorted indices, the
    candidates of the vocabulary's users at those rows.

    Users are served a block at a time: one score_block call and one
    ranking per block that holds a known user, of as many users as
    BLOCK_BYTES holds rows of row_bytes each (at most the user count).
    row_bytes defaults to a float64 row over the users, the size of a
    neighbour pick's similarities.
    No score depends on the block: the rules pick neighbours and KNI/KIU
    venues from a shortlist whose float64 re-scores are the printed scores
    (see recommend.cosine_margin), so a user's list does not depend on
    which users share its block or on the BLAS kernel their shape selects.

    A user outside the vocabulary gets an empty list, as does one with no
    candidates (an undefined similarity query); evaluation books both as
    coverage misses. Under filter_seen each user's stored candidates among
    its venues in visits (the build_interactions table over vocab) are set
    to -inf before the block is ranked, so the list is exactly the top k
    of the unseen venues, ties included.
    """
    row_bytes = row_bytes or 8 * max(1, vocab.user_count)
    size = max(1, min(BLOCK_BYTES // row_bytes, vocab.user_count))
    index, width = vocab.user_index, len(vocab.venues)
    for start in range(0, len(users), size):
        block = users[start : start + size]
        rows = np.array([index.get(user, -1) for user in block], dtype=np.int64)
        known = np.flatnonzero(rows >= 0)
        lengths = np.zeros(len(block), dtype=np.int64)
        data, columns = np.empty(0), np.empty(0, dtype=np.int64)
        if known.size:
            rows = rows[known]
            scores = score_block(rows)
            if config.filter_seen:  # one int64 key per (block row, venue) pair
                stored = np.repeat(np.arange(len(rows)), np.diff(scores.indptr)) * width
                seen_rows, seen_venues = visits[rows].nonzero()
                seen = seen_rows.astype(np.int64) * width + seen_venues
                scores.data[np.isin(stored + scores.indices, seen)] = -np.inf
            top = recommend.ranked(scores, config.k)
            lengths[known] = np.diff(top.indptr)
            data, columns = top.data, top.indices
        starts = np.concatenate(([0], np.cumsum(lengths)))
        yield block, sparse.csr_matrix((data, columns, starts), shape=(len(block), width))


@dataclass
class Fit:
    """What serving reads, built once from the training split (see fit):
    the methods it serves, the vocabulary, the user rows neighbours are
    picked among (None for Random), an embedding's venue rows, the training
    visit table (None for an embedding, whose serving counts the visits only
    where it reads them), the report columns the fit decides (arch, F, C, E)
    and the traces to write, file name -> (columns, rows).
    """

    methods: tuple[str, ...]
    vocab: Vocabulary
    users: np.ndarray | sparse.csr_matrix | None
    venues: np.ndarray | None = None
    visits: sparse.csr_matrix | None = None
    echo: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)

    @classmethod
    def of_model(cls, model: EmbeddingModel, **fields) -> Fit:
        """A trained embedding's fit; its rows are views of the model's."""
        count, vectors = model.vocab.user_count, model.input_vectors
        return cls(EMBEDDING_METHODS, model.vocab, vectors[:count], vectors[count:], **fields)


def fit(config: ExperimentConfig, dataset: Dataset) -> Fit:
    """Build the method's model from the training records only."""
    if config.method in EMBEDDING_METHODS:
        model, corpus, trace = fit_embedding(config, dataset)
        echo = dict(
            arch=config.architecture,
            F=config.feature_count,
            C=resolve_window(model.config.context_count, corpus.max_length),
            E=config.epoch_count,
        )
        return Fit.of_model(model, echo=echo, traces={"loss_trace.csv": loss_trace(trace)})
    vocab = build_vocabulary(dataset.train)
    visits = build_interactions(dataset.train, vocab, config.binary_votes)
    users, echo, traces = visits, {}, {}
    if config.method == baselines.RANDOM:
        users = None
    elif config.method != baselines.CF:  # svd / ccdpp
        rank = min(config.latent_rank(), min(visits.shape))
        if config.method == baselines.SVD:
            factors = baselines.svd_factorize(visits, rank, seed=config.seed)
        else:
            factors, objective = baselines.ccdpp_factorize(
                visits, rank, config.regularization, seed=config.seed
            )
            traces["objective_trace.csv"] = (["iteration", "objective"], list(enumerate(objective)))
        users, echo["F"] = factors.user_factors, factors.rank
    return Fit((config.method,), vocab, users, None, visits, echo, traces)


def check_serves(methods: Sequence[str], method: str) -> None:
    """Raises ConfigError if a fit for methods cannot serve method."""
    if method not in methods:
        raise ConfigError(f"a fit for {'/'.join(methods)} cannot serve {method}")


def reads_dataset(config: ExperimentConfig, fitted: Fit) -> bool:
    """Whether recommender reads the dataset: only an embedding's serving
    does, to count the training visits NN votes from or the seen mask takes."""
    return fitted.visits is None and (config.method == recommend.NN or config.filter_seen)


def recommender(
    config: ExperimentConfig, fitted: Fit, dataset: Dataset | None, users: Sequence[str]
) -> Iterator[tuple[Sequence[str], sparse.csr_matrix]]:
    """config.method's serving of users over a fit, serve's blocks: the one
    place a method's score rule, and so its block size, is chosen.

    KNI and KIU are kiu_scores, KNI with no neighbors; NN, CF, SVD and CCD++
    are vote_scores, weighted by similarity for CF only; Random is
    random_scores, the head of a permutation seeded by config.seed and the
    user's row. Ties break by ascending vocabulary index. Random's blocks
    are sized by its own float64 rows, as deep as its deepest draw, since it
    builds no rows over the users. An embedding's training visits are
    counted over its vocabulary here, for NN's votes and the seen mask
    only, so pruned venues and users without history vote nothing. The row
    norms are taken once per call, before the blocks are iterated, the
    user norms only where neighbours are picked. dataset
    may be None where reads_dataset is false.

    Raises:
        ConfigError: if the fit does not serve config.method.
    """
    check_serves(fitted.methods, config.method)
    vocab, visits, rows = fitted.vocab, fitted.visits, fitted.users
    if reads_dataset(config, fitted):
        visits = build_interactions(dataset.train, vocab, config.binary_votes)
    # KNI, KIU and Random keep k venues, or k + |seen| under filter_seen:
    # the seen mask takes at most a user's visited venues out of them
    depth = np.full(vocab.user_count, config.k)
    if config.filter_seen:
        depth += np.diff(visits.indptr)

    row_bytes = None  # serve's default: a float64 row over the users
    if config.method == baselines.RANDOM:
        rule = lambda block: recommend.random_scores(  # noqa: E731
            vocab.user_count, len(vocab.venues), block, depth[block], config.seed
        )
        row_bytes = 8 * int(depth.max(initial=config.k))
    elif config.method in (recommend.KNI, recommend.KIU):
        neighbors = served_neighbors(config.method, config.neighbors)
        # only a neighbour pick reads the user norms: KNI queries with the row itself
        norms = recommend.row_norms(rows) if neighbors else None
        venues, venue_norms = fitted.venues, recommend.row_norms(fitted.venues)
        rule = lambda block: recommend.kiu_scores(  # noqa: E731
            rows, norms, venues, venue_norms, block, neighbors, depth[block]
        )
    else:
        norms, weighted = recommend.row_norms(rows), config.method == baselines.CF
        rule = lambda block: recommend.vote_scores(  # noqa: E731
            rows, norms, visits, block, config.neighbors, weighted
        )
    return serve(config, vocab, visits, rule, users, row_bytes)


def score_lists(
    blocks: Iterable[tuple[Sequence[str], sparse.csr_matrix]],
    truth: TruthTable,
    k: int,
    rows: list[UserResult],
) -> list[tuple[Sequence[str], sparse.csr_matrix]]:
    """Score blocks of lists, (users, their lists' venue columns in rank
    order as the rows of a CSR matrix) as serve yields them, into rows as
    each block arrives, so rows keeps the partial results if the blocks
    stop with an exception. truth's rows are the blocks' users, one block
    after another. Returns the blocks.
    """
    scored, start = [], 0
    for users, top in blocks:
        block_truth = truth.rows(start, start + len(users))
        rows.extend(score_block(users, top.indices, top.indptr, block_truth, k))
        scored.append((users, top))
        start += len(users)
    return scored


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """One full run, its artifacts written into config.out_dir if set:
    run_experiments' one-config case, raising the exception it records."""
    (result,) = run_experiments([config])
    if isinstance(result, Exception):
        raise result
    return result


def _fit_key(config: ExperimentConfig) -> ExperimentConfig:
    """config with the fields fit does not read cleared and method as its family
    (kni, nn and kiu are one); seed, rank and the like stay for every family."""
    family = recommend.KNI if config.method in EMBEDDING_METHODS else config.method
    return replace(config, method=family, neighbors=0, k=0, filter_seen=False,
                   random_runs=0, out_dir=None)


def run_experiments(configs: Iterable[ExperimentConfig]) -> list[MetricsReport | Exception]:
    """Each config's full run in order, its artifacts written into its out_dir
    if set: one entry per config, its report or the exception it failed with
    (leaving an ERROR marker, plus the partial per-user CSV of a run that died
    mid-way); the rest still run. The previous dataset is reused for the same
    input, and the previous fit, with its seconds, for an equal _fit_key; each
    is dropped before the next is built."""
    results: list[MetricsReport | Exception] = []
    data_key = fit_key = dataset = users = fitted = None
    for config in configs:
        out_dir = Path(config.out_dir) if config.out_dir else None
        try:
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
            config.validate()
            source = (config.input_path, config.fixture, config.boundary, config.layout)
            if source != data_key:
                data_key = fit_key = dataset = fitted = None
                dataset = load_dataset(config)
                users, data_key = evaluation_users(dataset), source
            if not users:
                raise ConfigError("no user has both train and test records")
            key = _fit_key(config)
            if key != fit_key:
                fit_key = fitted = None
                started = time.perf_counter()
                fitted = fit(config, dataset)
                fit_seconds, fit_key = time.perf_counter() - started, key
            results.append(_run_experiment(config, dataset, users, fitted, fit_seconds, out_dir))
        except Exception as exc:
            if out_dir is not None and out_dir.is_dir():
                (out_dir / ERROR_MARKER).write_text(
                    f"{exc}\n\n{traceback.format_exc()}", encoding="utf-8"
                )
            results.append(exc)
    return results


def _run_experiment(config: ExperimentConfig, dataset: Dataset, users: list[str], fitted: Fit,
                    fit_seconds: float, out_dir: Path | None) -> MetricsReport:
    """Every run of the method over a fit that took fit_seconds, then their
    mean (a single run is its own mean).

    With more than one run each run's rows go to per_user_run{i}.csv;
    per_user.csv and recommendations.tsv are run 0's.
    """
    started = time.perf_counter()
    count = config.random_runs if config.method == baselines.RANDOM else 1
    runs = [
        recommender(replace(config, seed=config.seed + run), fitted, dataset, users)
        for run in range(count)
    ]
    train_seconds = fit_seconds + time.perf_counter() - started
    # the ground truth over the fit's venue columns, outside the timed phases
    truth = TruthTable.of(dataset.test, users, fitted.vocab.venue_index)
    echo = _serving_echo(config, config.method)
    many = len(runs) > 1
    reports: list[MetricsReport] = []
    for index, served in enumerate(runs):
        per_user = f"per_user_run{index}.csv" if many else "per_user.csv"
        rows: list[UserResult] = []
        started = time.perf_counter()
        try:
            blocks = score_lists(served, truth, config.k, rows)
        except Exception:
            # keep the partial per-user rows for post-mortem; the caller adds
            # the ERROR marker next to them
            if out_dir is not None and rows:
                write_per_user_csv(rows, out_dir / per_user)
            raise
        seconds = time.perf_counter() - started
        if out_dir is not None and many:
            write_per_user_csv(rows, out_dir / per_user)
        if out_dir is not None and index == 0:
            recommend.write_batch_blocks(
                blocks, config.method, fitted.vocab.venues, out_dir / "recommendations.tsv"
            )
        reports.append(
            aggregate(rows, train_s=train_seconds, rec_s=seconds, **echo, **fitted.echo)
        )
    count = len(reports)
    rec_seconds = sum(r.rec_s_total for r in reports)
    report = replace(
        reports[0],
        **{metric: sum(getattr(r, metric) for r in reports) / count for metric in METRICS},
        rec_s_total=rec_seconds,
        rec_s_per_user=rec_seconds / (len(users) * count),
    )
    if out_dir is not None:
        _write_artifacts(report, out_dir, fitted.traces)
    return report


def evaluate_recommendations(
    config: ExperimentConfig, path: str | Path, out_dir: Path
) -> MetricsReport:
    """Score the batch file at path, the lists of one method, against the
    test split, in file order.

    Lists of users outside the evaluation population are skipped; the
    report is written into out_dir.

    Raises:
        FormatError: if the file is not a batch file (see
            recommend.read_batch_blocks), if its lists come from more than
            one method, naming them, or a user has more than one list,
            naming the user.
        ConfigError: if a scored list is longer than config.k.
    """
    users, methods, venues, top = recommend.read_batch_blocks(path)
    methods = sorted(set(methods))
    if len(methods) > 1:
        raise FormatError(f"the lists mix methods {methods}; evaluate one method at a time")
    listed: set[str] = set()
    for user in users:
        if user in listed:
            raise FormatError(f"user {user!r} has more than one list")
        listed.add(user)
    dataset = load_dataset(config)
    population = set(evaluation_users(dataset))
    scored = [row for row, user in enumerate(users) if user in population]
    lengths = np.diff(top.indptr).tolist()
    for row in scored:
        if lengths[row] > config.k:
            raise ConfigError(
                f"the list of user {users[row]!r} holds {lengths[row]} "
                f"venues, more than k={config.k}"
            )
    if not scored:
        raise ConfigError("no overlap between recommendations and evaluation users")
    names = [users[row] for row in scored]
    rows: list[UserResult] = []
    score_lists([(names, top[scored])], TruthTable.of(dataset.test, names, venues), config.k, rows)
    report = aggregate(rows, **_serving_echo(config, methods[0]))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_artifacts(report, out_dir, {})
    return report


def _write_artifacts(report: MetricsReport, out_dir: Path, traces: dict) -> None:
    """per_user.csv, report.csv and report.json, plus the traces given
    (file name -> (columns, rows))."""
    row = report.to_row()
    write_per_user_csv(report.per_user, out_dir / "per_user.csv")
    write_csv(out_dir / "report.csv", REPORT_COLUMNS, [row.values()])
    write_report_json(row, out_dir / "report.json")
    for name, (columns, rows) in traces.items():
        write_csv(out_dir / name, columns, rows)


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis; the other parameters stay fixed at the base config."""

    axis: str
    values: Sequence[int | str] | None = None  # None: the axis's grid

    def resolved_values(self) -> list:
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {sorted(SWEEP_AXES)}")
        values = list(SWEEP_AXES[self.axis][1] if self.values is None else self.values)
        if self.axis != "C" and MAX_WINDOW in values:
            raise ConfigError(f"sweep axis {self.axis} takes integers; only C accepts 'max'")
        return values


def run_sweep(
    spec: SweepSpec, base: ExperimentConfig
) -> tuple[list[MetricsReport | Exception], list[dict]]:
    """One run per axis value, through run_experiments: the input is read
    once, and a failed value is recorded while the sweep continues.

    Returns the reports (the exception where a run failed) and the combined
    rows, and writes sweep_<axis>.csv under base.out_dir when set.
    """
    values = spec.resolved_values()
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name = SWEEP_AXES[spec.axis][0]
    out_dir = Path(base.out_dir) if base.out_dir else None
    reports = run_experiments(
        replace(base, **{field_name: value},
                out_dir=str(out_dir / f"{spec.axis}={value}") if out_dir else None)
        for value in values
    )
    rows = [report.to_row() for report in reports if not isinstance(report, Exception)]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / f"sweep_{spec.axis}.csv", REPORT_COLUMNS, (r.values() for r in rows))
    return reports, rows


def infer_axis(rows: Sequence[dict], axis: str | None = None) -> str:
    """The sweep axis rows vary along: axis if given, else the single F/C/E
    column that varies, from one scan of the rows.

    Raises:
        EmitError: if axis is not F, C or E, if a column other than axis
            varies, or if axis is None and no column varies.
    """
    varying = [name for name in SWEEP_AXES if len({row[name] for row in rows}) > 1]
    if axis is None:
        if not varying:
            raise EmitError("reports do not vary along any of F, C, E")
        axis = varying[0]
    elif axis not in SWEEP_AXES:
        raise EmitError(f"unknown axis {axis!r}")
    for other in varying:
        if other != axis:
            raise EmitError(f"reports mix axes {axis} and {other}")
    return axis


def emit_plot_data(
    rows: Sequence[dict], out_dir: str | Path, axis: str | None = None
) -> dict[tuple[str, str], Path]:
    """Tidy (axis_value, metric, value) CSVs, one file per (method, axis)."""
    if not rows:
        raise EmitError("no reports to emit")
    axis = infer_axis(rows, axis)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[tuple[str, str], Path] = {}
    methods = sorted({row["method"] for row in rows})
    for method in methods:
        path = out_dir / f"{method}_{axis}.csv"
        ordered = sorted((r for r in rows if r["method"] == method), key=lambda r: r[axis])
        tidy = ((row[axis], metric, row[metric]) for row in ordered for metric in METRICS)
        write_csv(path, ["axis_value", "metric", "value"], tidy)
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

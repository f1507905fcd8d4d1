"""Skip-gram and CBOW token embeddings trained with negative sampling.

Two weight matrices are kept: input (center) vectors and output (context)
vectors. All similarity queries run against the input matrix for users and
venues alike, so the three vector-space recommenders stay mutually
consistent. Training is plain SGD over sentences with a linearly decaying
learning rate; a per-position window radius is drawn uniformly from [1, C]
exactly like the classic word2vec reduced-window trick.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

import numpy as np

from .corpus import SentenceCorpus, Vocabulary
from .errors import ConfigError, SimilarityError, TrainingError

SKIP_GRAM = "skip-gram"
CBOW = "cbow"
MAX_WINDOW: Literal["max"] = "max"

# Dot products are clamped here before the sigmoid; standard SGNS overflow guard.
DOT_CLAMP = 30.0


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one embedding training run.

    context_count is the maximum window radius; the sentinel "max" resolves
    to the corpus max sentence length at training time, which makes CBOW
    context averaging span whole sentences.
    """

    architecture: str = SKIP_GRAM
    feature_count: int = 100
    context_count: int | Literal["max"] = 20
    epoch_count: int = 25
    negative_samples: int = 5
    initial_learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    noise_exponent: float = 0.75
    seed: int = 1

    def __post_init__(self) -> None:
        if self.architecture not in (SKIP_GRAM, CBOW):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.feature_count < 1:
            raise ConfigError("feature_count must be >= 1")
        if self.context_count != MAX_WINDOW and (
            not isinstance(self.context_count, int) or self.context_count < 1
        ):
            raise ConfigError('context_count must be an int >= 1 or "max"')
        if self.epoch_count < 1:
            raise ConfigError("epoch_count must be >= 1")
        if self.negative_samples < 1:
            raise ConfigError("negative_samples must be >= 1")
        if not self.initial_learning_rate > self.min_learning_rate > 0:
            raise ConfigError(
                "need initial_learning_rate > min_learning_rate > 0"
            )


@dataclass
class EpochStats:
    """One row of the training loss trace."""

    epoch: int
    average_loss: float
    learning_rate_end: float
    seconds: float


@dataclass
class EmbeddingModel:
    """Trained (or freshly initialized) token embeddings plus their vocabulary."""

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    vocab: Vocabulary
    config: TrainingConfig
    _input_norms: np.ndarray | None = field(default=None, repr=False, compare=False)

    def input_norms(self) -> np.ndarray:
        """Row norms of the input matrix, cached after training completes."""
        if self._input_norms is None:
            self._input_norms = np.linalg.norm(
                self.input_vectors.astype(np.float64, copy=False), axis=1
            )
        return self._input_norms

    def invalidate_caches(self) -> None:
        self._input_norms = None


def init_model(
    vocab: Vocabulary, config: TrainingConfig, dtype=np.float32
) -> EmbeddingModel:
    """Seeded initialization: input uniform in [-0.5/F, 0.5/F], output zero.

    dtype=np.float64 gives the double-precision mode used by numerical test
    suites; training and queries work identically in either precision.
    """
    if len(vocab) == 0:
        raise ConfigError("cannot initialize a model over an empty vocabulary")
    feature_count = config.feature_count
    rng = np.random.default_rng(config.seed)
    input_vectors = (
        (rng.random((len(vocab), feature_count)) - 0.5) / feature_count
    ).astype(dtype)
    output_vectors = np.zeros((len(vocab), feature_count), dtype=dtype)
    return EmbeddingModel(input_vectors, output_vectors, vocab, config)


class NegativeSamplingTable:
    """Cumulative noise distribution over token indices, p(i) ∝ freq(i)^exponent."""

    def __init__(self, frequencies: np.ndarray, exponent: float = 0.75):
        weights = np.asarray(frequencies, dtype=np.float64) ** exponent
        total = weights.sum()
        if total <= 0:
            raise TrainingError("noise distribution has no mass")
        self.probabilities = weights / total
        self.cumulative = np.cumsum(self.probabilities)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = np.searchsorted(self.cumulative, rng.random(size), side="right")
        # fp round-off can leave cumulative[-1] a hair under 1.0
        return np.minimum(draws, len(self.cumulative) - 1)

    def sample_excluding(
        self, rng: np.random.Generator, forbidden: np.ndarray | int, size: int
    ) -> np.ndarray:
        """Draw negatives, resampling any draw that hits its positive target."""
        draws = self.sample(rng, size)
        collisions = draws == forbidden
        while collisions.any():
            draws[collisions] = self.sample(rng, int(collisions.sum()))
            collisions = draws == forbidden
        return draws


def _sgns_update(
    hidden: np.ndarray, rows: np.ndarray, positives: int, rate: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """The one SGNS step of a hidden vector against its target output rows.

    The first `positives` rows are positive targets, the rest negatives; the
    loss is -Σ log σ(±row·hidden) with each dot clamped to ±DOT_CLAMP.
    Returns (loss, per-row step, hidden step), the steps already scaled by
    rate and signed so that adding them descends the loss.
    """
    dots = np.clip(rows @ hidden, -DOT_CLAMP, DOT_CLAMP)
    sig = 1.0 / (1.0 + np.exp(-dots))
    loss = float(
        np.logaddexp(0.0, -dots[:positives]).sum()
        + np.logaddexp(0.0, dots[positives:]).sum()
    )
    labels = np.zeros(rows.shape[0], dtype=rows.dtype)
    labels[:positives] = 1.0
    scaled = (labels - sig) * rate
    return loss, scaled[:, None] * hidden[None, :], scaled @ rows


def negative_sampling_gradient(
    center: np.ndarray,
    context: np.ndarray,
    negatives: Sequence[np.ndarray] | np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and exact gradients for one positive pair and its negative draws.

    The training update at rate 1 with its sign flipped: loss =
    -log σ(center·context) - Σ_i log σ(-center·negative_i), with each dot
    product clamped to ±DOT_CLAMP before the sigmoid.

    Returns:
        (loss, d/d center, d/d context, d/d negatives) with the last entry
        shaped (len(negatives), F). Works in whatever float precision the
        inputs carry.
    """
    rows = np.vstack((np.asarray(context), np.asarray(negatives)))
    loss, row_steps, center_step = _sgns_update(np.asarray(center), rows, 1, 1.0)
    return loss, -center_step, -row_steps[0], -row_steps[1:]


def _learning_rate(config: TrainingConfig, tokens_done: int, schedule: int) -> float:
    """Linear decay from the initial to the minimum rate over schedule tokens."""
    initial, floor = config.initial_learning_rate, config.min_learning_rate
    return max(floor, initial - (initial - floor) * min(tokens_done / schedule, 1.0))


def context_windows(
    sentence: np.ndarray, window: int, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """(center, context indices) for each position with a non-empty context.

    Each position's radius is drawn uniformly from [1, window], the classic
    word2vec reduced-window trick. All radii of the sentence are drawn from
    rng before the first pair is yielded, ahead of any negatives the caller
    draws from the same stream.
    """
    length = len(sentence)
    radii = rng.integers(1, window + 1, size=length)
    for pos in range(length):
        lo = max(0, pos - int(radii[pos]))
        hi = min(length, pos + int(radii[pos]) + 1)
        context = np.concatenate((sentence[lo:pos], sentence[pos + 1 : hi]))
        if context.size:
            yield int(sentence[pos]), context


def _train_sentence_sg(
    inputs: np.ndarray,
    outputs: np.ndarray,
    sentence: np.ndarray,
    window: int,
    k: int,
    rate: float,
    table: NegativeSamplingTable,
    rng: np.random.Generator,
) -> tuple[float, int]:
    loss = 0.0
    pairs = 0
    for center, context in context_windows(sentence, window, rng):
        n_ctx = context.size
        negatives = table.sample_excluding(rng, np.repeat(context, k), n_ctx * k)
        targets = np.concatenate((context, negatives))
        step_loss, row_steps, center_step = _sgns_update(
            inputs[center], outputs[targets], n_ctx, rate
        )
        np.add.at(outputs, targets, row_steps)
        inputs[center] += center_step
        loss += step_loss
        pairs += n_ctx
    return loss, pairs


def _train_sentence_cbow(
    inputs: np.ndarray,
    outputs: np.ndarray,
    sentence: np.ndarray,
    window: int,
    k: int,
    rate: float,
    table: NegativeSamplingTable,
    rng: np.random.Generator,
) -> tuple[float, int]:
    loss = 0.0
    pairs = 0
    for center, context in context_windows(sentence, window, rng):
        hidden = inputs[context].mean(axis=0)
        negatives = table.sample_excluding(rng, center, k)
        targets = np.concatenate(([center], negatives))
        step_loss, row_steps, hidden_step = _sgns_update(
            hidden, outputs[targets], 1, rate
        )
        np.add.at(outputs, targets, row_steps)
        # like word2vec's averaged-CBOW update: full gradient to every context row
        np.add.at(inputs, context, np.broadcast_to(hidden_step, (context.size,) + hidden_step.shape))
        loss += step_loss
        pairs += 1
    return loss, pairs


def resolve_window(context_count: int | str, max_sentence_length: int) -> int:
    """Resolve the "max" window sentinel against a corpus."""
    if context_count == MAX_WINDOW:
        return max(max_sentence_length, 1)
    return int(context_count)


def train(
    model: EmbeddingModel, corpus: SentenceCorpus
) -> tuple[EmbeddingModel, list[EpochStats]]:
    """Train the model in place over the sentence corpus.

    Runs config.epoch_count epochs in one thread; the learning rate decays
    linearly from the initial to the minimum rate across total_tokens *
    epochs. Results are bit-reproducible at a fixed seed.

    Args:
        model: freshly initialized or previously trained model; mutated.
        corpus: sentences of vocabulary indices.

    Returns:
        (the same model, per-epoch loss trace)

    Raises:
        TrainingError: on an empty corpus, out-of-vocabulary tokens, or an
            epoch that leaves a non-finite loss or weight (for example a
            learning rate too large for the data).
    """
    config = model.config
    if len(corpus) == 0:
        raise TrainingError("cannot train on an empty sentence corpus")
    high = max(int(s.max()) for s in corpus.sentences)
    if high >= len(model.vocab):
        raise TrainingError("sentence token index outside the model vocabulary")
    window = resolve_window(config.context_count, corpus.max_length)
    table = NegativeSamplingTable(model.vocab.frequency, config.noise_exponent)
    schedule = max(corpus.total_tokens * config.epoch_count, 1)
    tokens_done = 0
    step = (
        _train_sentence_sg if config.architecture == SKIP_GRAM else _train_sentence_cbow
    )
    k = config.negative_samples
    trace: list[EpochStats] = []
    for epoch in range(config.epoch_count):
        started = time.perf_counter()
        # the trailing 0 keeps the stream, and so the models, of earlier releases
        rng = np.random.default_rng([config.seed, epoch, 0])
        total_loss = 0.0
        total_pairs = 0
        for sentence in corpus.sentences:
            rate = _learning_rate(config, tokens_done, schedule)
            tokens_done += len(sentence)
            sentence_loss, sentence_pairs = step(
                model.input_vectors,
                model.output_vectors,
                sentence,
                window,
                k,
                rate,
                table,
                rng,
            )
            total_loss += sentence_loss
            total_pairs += sentence_pairs
        average_loss = total_loss / max(total_pairs, 1)
        weights = (model.input_vectors, model.output_vectors)
        if not (np.isfinite(average_loss) and all(np.isfinite(w).all() for w in weights)):
            raise TrainingError(
                f"training diverged in epoch {epoch}: non-finite loss or weights"
            )
        trace.append(
            EpochStats(
                epoch=epoch,
                average_loss=average_loss,
                learning_rate_end=_learning_rate(config, tokens_done, schedule),
                seconds=time.perf_counter() - started,
            )
        )
    model.invalidate_caches()
    return model, trace


def get_vector(model: EmbeddingModel, token: str) -> np.ndarray:
    """Input-matrix row for a token; raises TokenNotFoundError when unknown."""
    return model.input_vectors[model.vocab.index(token)]


def _resolve_candidates(
    model: EmbeddingModel, candidates: np.ndarray | Sequence[str] | None
) -> np.ndarray:
    if candidates is None:
        return np.arange(len(model.vocab), dtype=np.int64)
    if isinstance(candidates, np.ndarray) and candidates.dtype != object:
        return candidates.astype(np.int64, copy=False)
    return np.fromiter(
        (model.vocab.index(t) for t in candidates), dtype=np.int64
    )


def top_k_similar(
    model: EmbeddingModel,
    query: np.ndarray,
    candidates: np.ndarray | Sequence[str] | None,
    k: int,
) -> list[tuple[str, float]]:
    """The k candidate tokens most cosine-similar to the query vector.

    Ties are broken by ascending token index so results are deterministic;
    fewer than k candidates simply returns them all, ranked.

    Args:
        candidates: token names, vocabulary indices, or None for every token.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64)
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0:
        raise SimilarityError("query vector has zero norm")
    indices = _resolve_candidates(model, candidates)
    if indices.size == 0:
        return []
    matrix = model.input_vectors
    if (
        indices[-1] - indices[0] + 1 == indices.size
        and bool((np.diff(indices) > 0).all())
    ):
        # contiguous candidate range (the common whole-venue-block case):
        # slice instead of gathering a copy
        rows = matrix[int(indices[0]) : int(indices[-1]) + 1]
    else:
        rows = matrix[indices]
    norms = model.input_norms()[indices]
    dots = rows @ query.astype(matrix.dtype, copy=False)
    scores = dots.astype(np.float64) / (np.where(norms == 0.0, 1.0, norms) * query_norm)
    order = np.lexsort((indices, -scores))[:k]
    return [(model.vocab.token(int(indices[i])), float(scores[i])) for i in order]


def write_loss_trace(trace: list[EpochStats], path) -> None:
    """CSV loss trace: epoch, average_loss, learning_rate_end, seconds."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("epoch,average_loss,learning_rate_end,seconds\n")
        for row in trace:
            handle.write(
                f"{row.epoch},{row.average_loss!r},"
                f"{row.learning_rate_end!r},{row.seconds!r}\n"
            )

"""Skip-gram and CBOW token embeddings trained with negative sampling.

Two weight matrices are kept, input (center) vectors over output (context)
vectors in one block. All similarity queries run against the input matrix
for users and venues alike, so the three vector-space recommenders stay
mutually consistent. Training is minibatched SGD over sentences with a linearly
decaying learning rate; a per-position window radius is drawn uniformly from
[1, C] exactly like the classic word2vec reduced-window trick. Each
minibatch is one matrix-form SGNS step (Ji et al., arXiv 1604.04661).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np
from scipy import sparse

from .corpus import SentenceCorpus, Vocabulary
from .errors import ConfigError, TrainingError

SKIP_GRAM = "skip-gram"
CBOW = "cbow"
MAX_WINDOW: Literal["max"] = "max"

# Dot products are clamped here before the sigmoid; standard SGNS overflow guard.
DOT_CLAMP = 30.0
# The learning rate decays linearly from the initial to the minimum rate over
# the whole run; NEGATIVE_SAMPLES negatives per target are drawn from unigram
# frequencies to this power.
INITIAL_LEARNING_RATE = 0.025
MIN_LEARNING_RATE = 1e-4
NOISE_EXPONENT = 0.75
NEGATIVE_SAMPLES = 5

# Rows per SGNS step: (center, context) pairs for skip-gram, windows for
# CBOW. A step gathers a (rows, 1 + k, F) block of output vectors, so much
# larger steps cost memory (4096 CBOW windows at F=100 took 46 MB more).
BATCH_ROWS = 256
# Window radii and pairs are drawn for blocks of whole sentences of at most
# this many tokens (or one longer sentence), so training memory is bounded by
# the block, not the epoch; a block's CBOW windows then fit in one step.
BLOCK_TOKENS = 256
# Steps hold at most total_tokens / MIN_STEPS_PER_EPOCH rows, so an epoch
# takes at least about this many steps even on a tiny corpus. A diverging
# learning rate then leaves non-finite weights in the epoch where it starts:
# a single step per epoch can grow the weights to 1e18 and leave them finite.
MIN_STEPS_PER_EPOCH = 16


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


@dataclass
class EpochStats:
    """One row of the training loss trace."""

    epoch: int
    average_loss: float
    learning_rate_end: float
    seconds: float


@dataclass
class EmbeddingModel:
    """Trained (or freshly initialized) token embeddings plus their vocabulary.

    weights is one C-contiguous (2V x F) block, the model file's layout:
    the V input rows over the V output rows, each half read as a view.
    """

    weights: np.ndarray
    vocab: Vocabulary
    config: TrainingConfig

    @property
    def input_vectors(self) -> np.ndarray:
        return self.weights[: self.weights.shape[0] // 2]

    @property
    def output_vectors(self) -> np.ndarray:
        return self.weights[self.weights.shape[0] // 2 :]


def init_model(
    vocab: Vocabulary, config: TrainingConfig, dtype=np.float32
) -> EmbeddingModel:
    """Seeded initialization: input uniform in [-0.5/F, 0.5/F], output zero.

    dtype=np.float64 gives the double-precision mode used by numerical test
    suites; training and queries work identically in either precision.
    """
    if len(vocab) == 0:
        raise ConfigError("cannot initialize a model over an empty vocabulary")
    size, feature_count = len(vocab), config.feature_count
    rng = np.random.default_rng(config.seed)
    weights = np.zeros((2 * size, feature_count), dtype=dtype)
    weights[:size] = (rng.random((size, feature_count)) - 0.5) / feature_count
    return EmbeddingModel(weights, vocab, config)


class NegativeSamplingTable:
    """Alias table of the noise distribution over token indices, p(i) ∝ freq(i)^exponent.

    A draw picks a bucket i uniformly and keeps i with probability accept[i],
    else takes alias[i] (Walker 1977; Vose 1991), so it costs O(1) whatever
    the vocabulary size. Bucket i holds accept[i] of token i and
    1 - accept[i] of token alias[i]; summed over the buckets this is n * p.
    """

    def __init__(self, frequencies: np.ndarray, exponent: float = NOISE_EXPONENT):
        weights = np.asarray(frequencies, dtype=np.float64) ** exponent
        total = weights.sum()
        if total <= 0:
            raise TrainingError("noise distribution has no mass")
        self.probabilities = weights / total
        self.accept, self.alias = _alias_table(self.probabilities)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        buckets = rng.integers(0, self.accept.size, size=size)
        return np.where(rng.random(size) < self.accept[buckets], buckets, self.alias[buckets])

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


def _alias_table(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's (accept, alias) arrays for a distribution, built without a Python loop.

    Scaled by n, a token under 1 is light and keeps its own mass as accept;
    the rest of its bucket comes from a heavy token. Laying the lights'
    deficits end to end and the heavies' surpluses end to end, a light
    takes its deficit from the heavy whose surplus covers the deficit's
    start, as a sweep over both in index order would. A heavy whose surplus
    runs out inside a light's deficit covers that light in full, keeps the
    rest as its own accept and takes its own deficit from the next heavy.
    """
    n = probabilities.size
    scaled = probabilities * n
    light = scaled < 1.0
    # round-off can leave every weight a hair under 1 (n equal weights, n = 49)
    light[np.argmax(scaled)] = False
    lights, heavies = np.flatnonzero(light), np.flatnonzero(~light)
    deficits = 1.0 - scaled[lights]
    deficit_ends = np.cumsum(deficits)
    surplus_ends = np.cumsum(scaled[heavies] - 1.0)
    accept = scaled.copy()
    alias = np.arange(n)
    owners = np.searchsorted(surplus_ends, deficit_ends - deficits, side="right")
    alias[lights] = heavies[np.minimum(owners, heavies.size - 1)]
    overshoot = np.zeros(heavies.size)
    if lights.size:
        ends = np.minimum(np.searchsorted(deficit_ends, surplus_ends), lights.size - 1)
        overshoot = np.clip(deficit_ends[ends] - surplus_ends, 0.0, 1.0)
    accept[heavies] = 1.0 - overshoot
    alias[heavies[:-1]] = heavies[1:]
    # the last heavy's surplus ends where the deficits do, up to round-off
    accept[heavies[-1]] = 1.0
    return accept, alias


def _sgns_update(
    hidden: np.ndarray, rows: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SGNS step of a minibatch of hidden vectors against their target rows.

    hidden is (B, F); rows is (B, 1 + k, F), each hidden vector's positive
    target first and its k negatives after it; rates is (B,). The loss of
    row b is -log σ(rows[b, 0]·hidden[b]) - Σ_j log σ(-rows[b, j]·hidden[b])
    with each dot clamped to ±DOT_CLAMP.
    Returns (per-row loss, target coefficients (B, 1 + k), hidden step
    (B, F)). Target j of row b steps by coefficients[b, j] * hidden[b]. The
    steps are scaled by each row's rate and signed so that adding them
    descends the loss.
    """
    dots = np.clip(np.matmul(rows, hidden[:, :, None])[:, :, 0], -DOT_CLAMP, DOT_CLAMP)
    # -log σ(d) = log(1 + e^-d) and -log σ(-d) = d + log(1 + e^-d)
    exp_neg = np.exp(-dots)
    losses = np.log1p(exp_neg).sum(axis=1) + dots[:, 1:].sum(axis=1)
    coefficients = -1.0 / (1.0 + exp_neg)
    coefficients[:, 0] += 1.0
    coefficients *= rates[:, None]
    return losses, coefficients, np.matmul(coefficients[:, None, :], rows)[:, 0, :]


def negative_sampling_gradient(
    center: np.ndarray,
    context: np.ndarray,
    negatives: Sequence[np.ndarray] | np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and exact gradients for one positive pair and its negative draws.

    The training update on a minibatch of one, at rate 1 with its sign
    flipped: loss = -log σ(center·context) - Σ_i log σ(-center·negative_i),
    with each dot product clamped to ±DOT_CLAMP before the sigmoid.

    Returns:
        (loss, d/d center, d/d context, d/d negatives) with the last entry
        shaped (len(negatives), F). Works in whatever float precision the
        inputs carry.
    """
    center = np.asarray(center)
    rows = np.vstack((np.asarray(context), np.asarray(negatives)))
    losses, coefficients, center_steps = _sgns_update(
        center[None], rows[None], np.ones(1, dtype=center.dtype)
    )
    row_gradients = -coefficients[0, :, None] * center[None, :]
    return float(losses[0]), -center_steps[0], row_gradients[0], row_gradients[1:]


def _sgns_step(
    weights: np.ndarray,
    slot: np.ndarray,
    members: np.ndarray,
    indptr: np.ndarray,
    targets: np.ndarray,
    rates: np.ndarray,
) -> float:
    """Apply one minibatch SGNS step in place; returns the summed loss.

    weights holds V input rows over V output rows. Row r's hidden vector is
    the mean of the input vectors of members[indptr[r]:indptr[r + 1]] (its
    center token for skip-gram, its context tokens for CBOW); targets[r]
    holds its positive then its negative tokens, read from the output rows.
    As in word2vec's averaged CBOW, each member gets the row's full hidden
    step. Every row reads the weights as they stood before the step. slot
    is int32 scratch of 2V entries whose contents on entry do not matter;
    members and indptr are int32 too, so the sparse constructors take every
    index array as it is, without scanning it for its range.
    """
    size, dtype = weights.shape[0] // 2, weights.dtype
    rows, width = targets.shape
    if members.size == rows:
        # one member per row (skip-gram): the mean is that member's vector
        hidden = weights[members]
    else:
        means = sparse.csr_matrix(
            (np.ones(members.size, dtype=dtype), members, indptr), shape=(rows, size)
        )
        hidden = (means @ weights[:size]) / np.diff(indptr).astype(dtype)[:, None]
    tokens = np.concatenate((members, targets.ravel()))
    tokens[members.size :] += size
    losses, coefficients, hidden_steps = _sgns_update(
        hidden, weights[tokens[members.size :].reshape(rows, width)], rates
    )
    # each distinct row once, without a sort: one position per row keeps its claim on its slot
    positions = np.arange(tokens.size)
    slot[tokens] = positions
    distinct = tokens[slot[tokens] == positions]
    slot[distinct] = np.arange(distinct.size)
    # column r < rows adds row r's hidden step to its members, column rows + r
    # adds coefficient times row r's hidden vector to its targets, in a fixed order
    data = np.concatenate((np.ones(members.size, dtype=dtype), coefficients.ravel()))
    starts = np.concatenate(
        (indptr, np.arange(members.size + width, tokens.size + 1, width, dtype=np.int32))
    )
    scatter = sparse.csc_matrix((data, slot[tokens], starts), shape=(distinct.size, 2 * rows))
    weights[distinct] += scatter @ np.vstack((hidden_steps, hidden))
    return float(losses.sum(dtype=np.float64))


def _learning_rate(tokens_done: int | np.ndarray, schedule: int) -> np.ndarray:
    """Linear decay from the initial to the minimum rate over schedule tokens."""
    initial, floor = INITIAL_LEARNING_RATE, MIN_LEARNING_RATE
    return np.maximum(
        floor, initial - (initial - floor) * np.minimum(np.asarray(tokens_done) / schedule, 1.0)
    )


def context_pairs(
    lengths: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (center, context) position pair of a block of sentences.

    The block is its sentences laid end to end: lengths holds each
    sentence's token count and radii each position's window radius, drawn
    uniformly from [1, C] by the caller (the classic word2vec
    reduced-window trick). A position pairs with every other position of
    its own sentence at most its radius away. Pairs come ordered by center
    position, then by context position.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    positions = np.arange(ends.size)
    lo = np.maximum(starts, positions - radii)
    counts = np.minimum(ends, positions + radii + 1) - lo - 1
    centers = np.repeat(positions, counts)
    # a pair's offset within its center's run of pairs, then skip the center
    first = np.cumsum(counts) - counts
    contexts = np.repeat(lo - first, counts) + np.arange(centers.size)
    contexts += contexts >= centers
    return centers, contexts


def _sentence_blocks(starts: np.ndarray) -> Iterator[tuple[int, int]]:
    """Index ranges [first, last) of consecutive sentences, as many as fit in
    BLOCK_TOKENS tokens (at least one); sentence s is starts[s]:starts[s + 1]."""
    first, count = 0, starts.size - 1
    while first < count:
        last = int(np.searchsorted(starts, starts[first] + BLOCK_TOKENS, side="right")) - 1
        last = max(last, first + 1)
        yield first, last
        first = last


def _train_block(
    model: EmbeddingModel,
    tokens: np.ndarray,
    lengths: np.ndarray,
    tokens_done: int,
    window: int,
    schedule: int,
    table: NegativeSamplingTable,
    rng: np.random.Generator,
    batch: int,
    slot: np.ndarray,
) -> tuple[float, int]:
    """Train on one block of sentences in minibatches of batch rows.

    The block is its sentences' tokens laid end to end and their lengths.
    Draws every position's window radius for the whole block, then every
    row's negatives in one call, and slices each minibatch's (rows, 1 + k)
    targets out of them. A skip-gram row is one (center, context) pair:
    the center predicts the context token. A CBOW row is one window: the
    mean of its context vectors predicts the center token. Each row trains
    at its sentence's rate. Returns (summed loss, rows).
    """
    config = model.config
    sentence_starts = tokens_done + np.cumsum(lengths) - lengths
    rates = np.repeat(_learning_rate(sentence_starts, schedule), lengths)
    radii = rng.integers(1, window + 1, size=tokens.size)
    centers, contexts = context_pairs(lengths, radii)
    if config.architecture == SKIP_GRAM:
        row_positions, row_of_pair = centers, np.arange(centers.size)
        members, positives = tokens[centers], tokens[contexts]
    else:
        row_positions, row_of_pair = np.unique(centers, return_inverse=True)
        members, positives = tokens[contexts], tokens[row_positions]
    rows = positives.size
    row_rates = rates[row_positions].astype(model.weights.dtype)
    # pairs come sorted by row, so row r's members are members[indptr[r]:indptr[r + 1]]
    indptr = np.searchsorted(row_of_pair, np.arange(rows + 1)).astype(np.int32)
    k = NEGATIVE_SAMPLES
    negatives = table.sample_excluding(rng, np.repeat(positives, k), rows * k)
    targets = np.column_stack((positives, negatives.reshape(rows, k)))
    loss = 0.0
    for first in range(0, rows, batch):
        last = min(first + batch, rows)
        loss += _sgns_step(
            model.weights,
            slot,
            members[indptr[first] : indptr[last]],
            indptr[first : last + 1] - indptr[first],
            targets[first:last],
            row_rates[first:last],
        )
    return loss, rows


def resolve_window(context_count: int | str, max_sentence_length: int) -> int:
    """Resolve the "max" window sentinel against a corpus."""
    if context_count == MAX_WINDOW:
        return max(max_sentence_length, 1)
    return int(context_count)


def train(
    model: EmbeddingModel, corpus: SentenceCorpus
) -> tuple[EmbeddingModel, list[EpochStats]]:
    """Train the model in place over the sentence corpus.

    Runs config.epoch_count epochs in one thread. Sentences are taken a
    block at a time: the block's window radii and pairs, then all of its
    negatives from the alias table, are drawn as arrays, and each minibatch
    of at most BATCH_ROWS rows is one SGNS step that reads the weights as
    they stood before it. The learning rate decays linearly from the
    initial to the minimum rate across total_tokens * epochs, per sentence.
    Results are bit-reproducible at a fixed seed.

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
    if corpus.tokens.max() >= len(model.vocab):
        raise TrainingError("sentence token index outside the model vocabulary")
    window = resolve_window(config.context_count, corpus.max_length)
    table = NegativeSamplingTable(model.vocab.frequency)
    schedule = max(corpus.total_tokens * config.epoch_count, 1)
    batch = max(1, min(BATCH_ROWS, corpus.total_tokens // MIN_STEPS_PER_EPOCH))
    starts, lengths = corpus.starts, np.diff(corpus.starts)
    if model.weights.shape[0] >= 2**31:
        raise TrainingError("a vocabulary of 2^30 tokens or more does not fit int32 indices")
    blocks = [
        (corpus.tokens[starts[first] : starts[last]].astype(np.int32), lengths[first:last])
        for first, last in _sentence_blocks(starts)
    ]
    slot = np.empty(model.weights.shape[0], dtype=np.int32)
    tokens_done = 0
    trace: list[EpochStats] = []
    for epoch in range(config.epoch_count):
        started = time.perf_counter()
        rng = np.random.default_rng([config.seed, epoch, 0])
        total_loss = 0.0
        total_rows = 0
        # overflow in a diverging run is reported by the check after the epoch
        with np.errstate(all="ignore"):
            for tokens, block_lengths in blocks:
                block_loss, block_rows = _train_block(
                    model, tokens, block_lengths, tokens_done, window, schedule, table, rng,
                    batch, slot,
                )
                tokens_done += tokens.size
                total_loss += block_loss
                total_rows += block_rows
        average_loss = total_loss / max(total_rows, 1)
        halves = (model.input_vectors, model.output_vectors)
        if not (np.isfinite(average_loss) and all(np.isfinite(w).all() for w in halves)):
            raise TrainingError(
                f"training diverged in epoch {epoch}: non-finite loss or weights"
            )
        trace.append(
            EpochStats(
                epoch=epoch,
                average_loss=average_loss,
                learning_rate_end=float(_learning_rate(tokens_done, schedule)),
                seconds=time.perf_counter() - started,
            )
        )
    return model, trace


"""Top-k venue recommendation from a trained embedding model.

Three strategies:
  KNI  rank venues by cosine similarity to the target user's vector.
  NN   collect the venues of the N most similar users and sum their votes.
  KIU  rank venues by cosine to the mean of the target's and neighbors' vectors.

Every method, Random too (random_scores), is a score rule: given a block of
target rows it returns its candidates, one (targets x catalog) CSR matrix
with sorted indices whose stored entries are the only venues a target can
list, and ranked picks each target's list from them. KNI is KIU with no
neighbors, so kiu_scores serves both. NN's rule is also CF's and the latent
baselines' (vote_scores): only the user space of the neighbors differs. The
rules take row arrays with the row_norms the caller computes once per serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import FormatError

KNI = "kni"
NN = "nn"
KIU = "kiu"

NO_PREDICTION = "no-prediction"

# Below this many candidates top_k sorts them all at once; from it on, it
# partitions first. Measured on one Xeon vCPU (k = 10 and 30, random cosines):
# 256 candidates sort in 15 us against 16 us for partition and sort, 1,024 in
# 45-52 us against 23-24, 9,904 in 1,220-1,240 us against 82-89. The rules
# return shortlists of about k venues or N neighbours, vote rows of at most
# the venues the neighbours visited and CF similarity rows of the users who
# share a venue with the target (at most 15 at the paper shape), so only a
# denser check-in log than the paper's, where over 1,024 users share a
# target's venues, partitions.
PARTITION_MIN = 1024


@dataclass
class RecommendationList:
    user: str
    method: str
    items: list[tuple[str, float]] = field(default_factory=list)

    @property
    def predicted(self) -> bool:
        return bool(self.items)

    def venues(self) -> list[str]:
        return [venue for venue, _ in self.items]


def row_norms(rows) -> np.ndarray:
    """The float64 norm of each row of a dense array or a scipy sparse matrix.

    A serving computes its user and venue norms with this once, and the
    score rules take them as arrays, so no norm outlives the rows it was
    taken from.
    """
    if sparse.issparse(rows):
        return np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1)).ravel())
    # 4096 rows at a time: float64 copies of a whole catalog would set a serving's peak memory
    blocks = np.split(rows, range(4096, len(rows), 4096))
    return np.concatenate([np.linalg.norm(b.astype(np.float64, copy=False), axis=1) for b in blocks])


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores above -inf, by descending score,
    ties by ascending position; fewer when fewer are above -inf.

    Past PARTITION_MIN entries above -inf (a row of a denser log than the
    paper's), a partition of those entries finds the k-th highest score and
    only the entries at or above it are sorted, exactly, so ties at the cut
    are ordered like the rest. Partitioning only the entries above -inf
    keeps -inf entries (the seen mask's, a neighbour pick's own row) off
    numpy's slow path for many equal values.

    Raises:
        ValueError: if k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    survivors = np.flatnonzero(scores > -np.inf)
    if PARTITION_MIN < survivors.size and k < survivors.size:
        values = scores[survivors]
        floor = np.partition(values, values.size - k)[values.size - k]
        survivors = survivors[values >= floor]
    return survivors[np.lexsort((survivors, -scores[survivors]))][:k]


def ranked(scores: sparse.csr_matrix, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each row's top k of a candidate matrix (sorted indices): the columns
    of its k highest stored scores above -inf, by descending score, ties by
    ascending column, and those scores; fewer when fewer are stored.

    Raises:
        ValueError: if k < 1 and scores has a row (top_k's k).
    """
    for start, stop in zip(scores.indptr[:-1], scores.indptr[1:]):
        values = scores.data[start:stop]
        top = top_k(values, k)
        yield scores.indices[start:stop][top], values[top]


def _user_block(block, count: int) -> np.ndarray:
    """block as int64 user row indices.

    Raises:
        ValueError: if an index is not a user row in [0, count).
    """
    block = np.asarray(block, dtype=np.int64)
    outside = block[(block < 0) | (block >= count)]
    if outside.size:
        raise ValueError(f"{outside[0]} is not a user row in [0, {count})")
    return block


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): the relative error bound of an
    n-term inner product in a precision of unit roundoff u."""
    return n * u / (1.0 - n * u)


def cosine_margin(features: int, dtype) -> float:
    """A bound on |s - r| for one cosine: s as _shortlist computes it from a
    product in dtype, r its float64 re-score.

    Let c be the cosine of the float64 query q and a row v, divided by
    their float64 norms Nq and Nv as computed, u the unit roundoff of dtype
    (2^-24 for float32) and F the row length. Then (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1):

    - the query is scaled to q / Nq in float64 and cast to dtype, each
      entry off by a relative 2u at most;
    - the product of that query with v is off by gamma_F |q'|.|v| <=
      gamma_F (1 + 2u) |q| |v| / Nq, in whatever summation order the BLAS
      kernel picks, and the cast adds at most 2u |q| |v| / Nq;
    - the multiply by 1 / Nv, a float64 divide cast to dtype (2u) and
      rounded once more (u), adds a relative 3u to a value of magnitude
      about |c| <= 1;

    so |s - c| <= gamma_F + 5u to first order. The re-score is one float64
    dot product (gamma_F in float64), the product of the two norms and the
    divide, so |r - c| <= gamma_{F+3} in float64 to first order. Every
    term left out is a product of two of u, gamma_F and the float64 terms,
    and with F u <= 1/200 (F up to 83,886 in float32) they add less than
    1% to the rest: hence the factor 1.01. The bound assumes the dtype
    product neither underflows nor overflows.
    """
    u = float(np.finfo(dtype).eps) / 2
    return 1.01 * (_gamma(features, u) + 5 * u + _gamma(features + 3, 2.0**-53))


def _shortlist(
    queries: np.ndarray, rows: np.ndarray, norms: np.ndarray, depth, excluded=None
) -> sparse.csr_matrix:
    """For each float64 query, every row whose float64 cosine to it can rank
    among its depth highest, ties with the depth-th included, and those
    cosines: a (queries x rows) CSR matrix with sorted indices. A zero-norm
    query and the excluded (query index, position) entries rank nothing; a
    zero-norm row scores 0.

    One product of the block's queries with rows, in the rows' dtype, gives
    every score s to within cosine_margin of its float64 re-score r. If t is
    a query's depth-th highest s, at least depth rows have r >= t - margin,
    so a row among the depth highest r has s >= t - 2 margin: only those
    rows are re-scored, each by a float64 dot product summed in numpy's
    pairwise order over its F terms, which no block shape or BLAS kernel
    changes.
    """
    count, features = rows.shape
    query_norms = row_norms(queries)
    live = query_norms != 0.0
    norms = np.where(norms == 0.0, 1.0, norms)
    scaled = queries / np.where(live, query_norms, 1.0)[:, None]
    scores = scaled.astype(rows.dtype) @ rows.T
    scores *= (1.0 / norms).astype(rows.dtype)
    scores[~live] = -np.inf
    if excluded is not None:
        scores[excluded] = -np.inf
    depth = np.clip(np.broadcast_to(depth, len(queries)), 1, max(count, 1))
    cuts = count - depth
    # the depth-th highest score, at its place once the row is partitioned
    # around every cut in use; widened to float64 so the cut is not rounded
    floor = np.full(len(queries), -np.inf)
    if count:
        floor = np.partition(scores, np.unique(cuts), axis=1)[np.arange(len(queries)), cuts]
    # every score is above -1 - margin > -2, so -2 keeps each live score
    # where fewer than depth are live, and still drops -inf
    margin = cosine_margin(features, rows.dtype)
    floor = np.maximum(floor.astype(np.float64) - 2 * margin, -2.0)
    which, positions = np.nonzero(scores >= floor[:, None])
    dots = np.empty(len(positions))
    bounds = np.searchsorted(which, np.arange(len(queries) + 1))
    for index, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        # one query at a time, so no (shortlist x F) float64 copy of the queries
        dots[start:stop] = (rows[positions[start:stop]] * queries[index]).sum(axis=1)
    cosines = dots / (norms[positions] * query_norms[which])
    return sparse.csr_matrix((cosines, positions, bounds), shape=(len(queries), count))


def nearest_users(
    rows, norms: np.ndarray, block: np.ndarray, neighbors: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each row index in block, the positions of the at most neighbors
    rows most cosine-similar to it, itself excluded, ties by ascending
    position, and their float64 similarities; none for a zero-norm row.

    rows is a dense array or a scipy sparse matrix of visit counts, and
    norms its precomputed row norms. A sparse block's similarities are the
    stored entries of one product, exact in float64 for counts, so a count
    row's neighbors are the rows that share a column with it; a dense
    block's are _shortlist's, whose float64 re-scores do not depend on the
    block or the BLAS kernel, and a zero-norm dense row scores 0.

    Raises:
        ValueError: if an index is not a row, or neighbors < 1 (top_k's k)
            and block is not empty.
    """
    block = _user_block(block, rows.shape[0])
    self_pairs = (np.arange(len(block)), block)
    if not sparse.issparse(rows):
        shortlist = _shortlist(rows[block].astype(np.float64), rows, norms, neighbors, self_pairs)
        return list(ranked(shortlist, neighbors))
    # rows times the block's rows, transposed: scipy multiplies this way
    # round faster than rows[block] @ rows.T, whose operand is all rows
    sims = (rows @ rows[block].T).T.tocsr().sorted_indices()
    which = np.repeat(np.arange(len(block)), np.diff(sims.indptr))
    sims.data /= norms[sims.indices] * norms[block][which]
    sims.data[sims.indices == block[which]] = -np.inf
    return list(ranked(sims, neighbors))


def vote_scores(
    rows,
    norms: np.ndarray,
    votes: sparse.csr_matrix,
    block: np.ndarray,
    neighbors: int,
    weighted: bool,
) -> sparse.csr_matrix:
    """NN, CF, SVD and CCD++: for each user index in block, each venue's
    vote from the neighbors users most cosine-similar to it in some user
    space; one (len(block) x venues) CSR matrix with sorted indices that
    stores the positive votes only (every weight and vote is positive).

    rows are the users' vectors (embedding, visit-count or latent rows) with
    their norms, and the rows of the votes matrix line up with them. Each
    neighbor adds its vote row, scaled by its similarity when weighted (CF,
    which keeps only positive similarities) and by 1 otherwise. The block's
    tallies are one sparse (block x users) weight matrix times votes. Each
    row's weights are stored in neighbor order, not column order, and the
    product adds a venue's votes in stored order: one neighbor after another,
    by descending similarity. A user whose row has zero norm has no
    neighbors and gets no votes.

    Raises:
        ValueError: if an index is not a user row, or neighbors < 1 (top_k's
            k) and block is not empty.
    """
    columns, weights = [], []
    for near, sims in nearest_users(rows, norms, block, neighbors):
        if weighted:
            near, sims = near[sims > 0.0], sims[sims > 0.0]
        columns.append(near)
        weights.append(sims if weighted else np.ones(len(near)))
    starts = np.cumsum([0, *map(len, columns)])
    matrix = sparse.csr_matrix(
        (np.concatenate(weights), np.concatenate(columns), starts),
        shape=(len(block), votes.shape[0]),
    )
    return (matrix @ votes).sorted_indices()


def kiu_scores(
    users: np.ndarray,
    user_norms: np.ndarray,
    venues: np.ndarray,
    venue_norms: np.ndarray,
    block: np.ndarray,
    neighbors: int,
    depth,
) -> sparse.csr_matrix:
    """KIU and KNI: for each user row index in block, the float64 cosine of
    each venue row that can rank among the depth highest (an int or one per
    block row) to the float64 mean of that user row and its neighbors
    nearest user rows; one (len(block) x venues) CSR matrix with sorted
    indices, with no entry in a row whose mean has zero norm.

    users and venues are the two blocks of one embedding matrix with their
    row norms. With no neighbors the query is the user's own row (the
    float64 mean of one row is that row), which is KNI. The neighbors come
    from nearest_users; the cosines and the venues kept from _shortlist, so
    the top depth of a row, ties included, is that of the float64 cosines
    over every venue. A zero-norm venue scores 0.

    Raises:
        ValueError: if an index is not a user row, or neighbors < 0 (top_k's k).
    """
    block = _user_block(block, len(users))
    queries = users[block].astype(np.float64)
    if neighbors:
        picks = nearest_users(users, user_norms, block, neighbors)
        for row, (index, (near, _)) in enumerate(zip(block, picks)):
            queries[row] = users[np.concatenate(([index], near))].astype(np.float64).mean(axis=0)
    return _shortlist(queries, venues, venue_norms, depth)


# splitmix64's increment, the odd integer nearest 2^64 / phi (Steele, Lea and
# Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)

# random_scores draws at most this many venues per pass (more only for one
# row that needs more), so a deep draw, near the whole catalog, takes
# passes of bounded memory: about 80 bytes of temporaries per draw
DRAW_BLOCK = 1 << 18


def _mix64(states: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of each uint64 state: a bijection of the
    64-bit integers whose every output bit depends on every input bit.
    Array arithmetic wraps modulo 2^64 without a warning."""
    states = (states ^ (states >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    states = (states ^ (states >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return states ^ (states >> np.uint64(31))


def _first_distinct(keys: np.ndarray, counts: np.ndarray, venues: int):
    """Over the first counts[i] >= 1 draws of each stream keys[i], each
    distinct venue's stream, the venue and its place in order of first
    draw, sorted by (stream, venue). Draw j is splitmix64's j-th output from
    state key, taken to [0, venues) as floor(draw * venues / 2^64), exactly,
    in two 32-bit halves (venues < 2^32)."""
    starts = np.cumsum(counts) - counts
    which = np.repeat(np.arange(len(keys)), counts)
    index = np.arange(len(which)) - starts[which] + 1
    draws = _mix64(keys[which] + index.astype(np.uint64) * _GAMMA)
    span = np.uint64(venues)
    low = ((draws & np.uint64(0xFFFFFFFF)) * span) >> np.uint64(32)
    picks = (((draws >> np.uint64(32)) * span + low) >> np.uint64(32)).astype(np.int64)
    # a (stream, venue) pair's first draw is the least position among its draws
    pairs = which * venues + picks
    order = np.argsort(pairs)
    pairs = pairs[order]
    groups = np.flatnonzero(np.concatenate(([True], pairs[1:] != pairs[:-1])))
    first = np.minimum.reduceat(order, groups)
    # the first draws up to each position, counted in stream order; a
    # stream's own first draw is always one, so its places start at 0
    new = np.zeros(len(which), dtype=bool)
    new[first] = True
    seen = np.cumsum(new)
    which = which[first]
    return which, picks[first], seen[first] - seen[starts[which]]


def random_scores(users: int, venues: int, block, depth, seed: int) -> sparse.csr_matrix:
    """Random: for each user row index in block, the first min(depth, venues)
    venues (depth an int or one per block row) of a uniform permutation
    seeded by (seed, row), each scored 1 / (1 + its place); one (len(block) x
    venues) CSR matrix with sorted indices.

    Each row owns a counter-based stream of uniform venues, draw j a pure
    function of (seed, row, j), so a block is drawn in array operations and
    no row depends on the rows that share its block or on their depths. The
    permutation is the stream's distinct venues in order of first draw:
    given the venues drawn before, the next new one is uniform over the
    rest, up to splitmix64's own quality and the mapping's bias (each venue
    is drawn with probability within 2^-64 of 1 / venues). A deeper draw
    extends a shallower one (the seen mask keeps the permutation's order).
    A row of depth d takes venues * (H(venues) - H(venues - d)) draws on
    average (H the harmonic numbers), about d + d^2 / (2 venues) for d well
    below venues; a row left short draws again with twice as many.

    Raises:
        ValueError: if an index is not a user row, or seed is not in [0, 2^64).
    """
    block = _user_block(block, users)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    depth = np.minimum(np.broadcast_to(depth, len(block)), venues).astype(np.int64)
    root = _mix64(np.array([seed], dtype=np.uint64))
    keys = _mix64(root + (block.astype(np.uint64) + np.uint64(1)) * _GAMMA)
    # the expected draws, venues * (H(venues) - H(venues - d)) with H(x) ~
    # ln(x + 1/2) + const, and a margin, so most rows take one pass
    expected = venues * np.log((venues + 0.5) / (venues - depth + 0.5))
    draws = np.ceil(1.1 * expected).astype(np.int64) + 8
    starts = np.concatenate(([0], np.cumsum(depth)))
    columns, scores = np.empty(starts[-1], dtype=np.int64), np.empty(starts[-1])
    pending = np.flatnonzero(depth)
    while pending.size:
        fits = np.searchsorted(np.cumsum(draws[pending]), DRAW_BLOCK, "right")
        take = pending[: max(1, fits)]
        which, picks, places = _first_distinct(keys[take], draws[take], venues)
        done = np.bincount(which, minlength=len(take)) >= depth[take]
        keep = done[which] & (places < depth[take][which])
        which = which[keep]
        # each done row's venues, in venue order, fill its slots
        slots = starts[take[which]] + np.arange(len(which)) - np.searchsorted(which, which)
        columns[slots], scores[slots] = picks[keep], 1.0 / (1.0 + places[keep])
        draws[take[~done]] *= 2
        pending = np.concatenate((pending[len(take) :], take[~done]))
    return sparse.csr_matrix((scores, columns, starts), shape=(len(block), venues))


def format_batch_line(result: RecommendationList) -> str:
    if not result.predicted:
        return f"{result.user}\t{result.method}\t{NO_PREDICTION}"
    pairs = "\t".join(f"{venue}:{score:.6f}" for venue, score in result.items)
    return f"{result.user}\t{result.method}\t{pairs}"


def write_batch_recommendations(
    results: Iterable[RecommendationList], path: str | Path
) -> None:
    """One line per user: user, method, then venue:score pairs (tab-separated)."""
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(format_batch_line(result) + "\n")


def _venue_score(pair: str) -> tuple[str, float]:
    venue, colon, score = pair.rpartition(":")
    if not colon:
        raise ValueError(pair)
    return venue, float(score)


def read_batch_recommendations(path: str | Path) -> list[RecommendationList]:
    """Inverse of write_batch_recommendations.

    Raises:
        FormatError: naming the path and line of a line with fewer than two
            tab-separated fields or a pair that is not venue:score.
    """
    results = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                user, method, *rest = line.split("\t")
                if rest == [NO_PREDICTION]:
                    rest = []
                items = [_venue_score(pair) for pair in rest]
            except ValueError:
                raise FormatError(
                    f"{path} line {number}: expected user, method and venue:score "
                    f"fields separated by tabs, got {line!r}"
                ) from None
            results.append(RecommendationList(user, method, items))
    return results

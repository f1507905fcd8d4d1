"""Top-k venue recommendation for all seven methods, and the batch file of
their lists.

The embedding methods, over a trained model's user and venue rows:
  KNI  rank venues by cosine similarity to the target user's vector.
  NN   collect the venues of the N most similar users and sum their votes.
  KIU  rank venues by cosine to the mean of the target's and neighbors' vectors.
The baselines: CF votes like NN over visit-count rows, weighted by
similarity; SVD and CCD++ like NN over latent user factors; Random lists a
seeded permutation of the catalog.

Every method, Random too (random_scores), is a score rule: given a block of
target rows it returns its candidates, one (targets x catalog) CSR matrix
with sorted indices whose stored entries are the only venues a target can
list, and ranked picks every target's list from them for the whole block
at once. KNI is KIU with no
neighbors, so kiu_scores serves both. NN's rule is also CF's and the latent
baselines' (vote_scores): only the user space of the neighbors differs. The
rules take row arrays with the row_norms the caller computes once per serving.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import FormatError

KNI = "kni"
NN = "nn"
KIU = "kiu"

NO_PREDICTION = "no-prediction"
_SEPARATORS = "\t\n\r"  # the batch file's field and line separators

# ranked cuts a row with more entries above -inf than this (and than k) to
# those that can rank, before the block's sort. Measured on one Xeon vCPU:
# SVD vote rows of about 260 entries (k = 10) ranked in 3.5 ms with the cut
# and 4.6 ms without it, CF similarity rows of about 580 entries (k = 30)
# in 73 ms and 177 ms, against 114 ms for a sort per row; shortlists of
# about k entries are never cut.
LONG_ROW = 64


def row_norms(rows) -> np.ndarray:
    """The float64 norm of each row of a dense array or a scipy sparse matrix.

    A serving computes its user and venue norms with this once, and the
    score rules take them as arrays, so no norm outlives the rows it was
    taken from.
    """
    if sparse.issparse(rows):
        return np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1)).ravel())
    # 4096 rows at a time: float64 squares of a whole catalog would set a
    # serving's peak memory. One float64 array of squares per block, summed
    # pairwise along the row as np.linalg.norm sums it, without its copies
    blocks = np.split(rows, range(4096, len(rows), 4096))
    squares = (np.multiply(b, b, dtype=np.float64) for b in blocks)
    return np.concatenate([np.sqrt(np.add.reduce(s, axis=1)) for s in squares])


def _floors(values: np.ndarray, lengths: np.ndarray, long: np.ndarray, k: int) -> np.ndarray:
    """For each row in long, of lengths > k entries (values holds every
    row's entries, one row after another), a floor at most its k-th
    highest value.

    A row's entries j, j + k, j + 2k, ... (j < k) are k disjoint sets,
    each holding at least entry j, so their maxima are k distinct entries,
    and the least of them is at most the k-th highest. The rows are padded
    with -inf to a multiple of k, in groups within 2x of each other's
    length, so padding is at most about half of what a group reduces.
    """
    firsts = np.cumsum(lengths) - lengths
    floors = np.empty(len(long))
    groups = np.frexp(lengths[long].astype(np.float64))[1]
    for group in np.unique(groups).tolist():
        members = np.flatnonzero(groups == group)
        sizes = lengths[long[members]]
        width = -(-int(sizes.max()) // k) * k
        padded = np.full((len(members), width), -np.inf)
        offsets = np.repeat(firsts[long[members]] - (np.cumsum(sizes) - sizes), sizes)
        padded[np.arange(width) < sizes[:, None]] = values[offsets + np.arange(sizes.sum())]
        floors[members] = padded.reshape(len(members), -1, k).max(axis=1).min(axis=1)
    return floors


def ranked(scores: sparse.csr_matrix, k: int) -> sparse.csr_matrix:
    """Each row's top k of a candidate matrix (sorted indices), ranked for
    the whole block at once: a CSR matrix of the same shape whose row i
    stores the columns of row i's k highest stored scores above -inf, with
    those scores, in rank order (by descending score, ties by ascending
    column); fewer when fewer are stored. Its indices are in rank order,
    not sorted.

    The block's entries above -inf are sorted stably by descending score,
    then by row, so ties keep their ascending columns. A row with more than
    LONG_ROW of them (and more than k) is first cut: only its entries above
    a floor at most its k-th highest score (see _floors), and the first k
    at the floor, can rank.

    Raises:
        ValueError: if k < 1 and scores has a row (ranked's k); a block
            with no row is returned empty at any k.
    """
    count = scores.shape[0]
    if k < 1 and count:
        raise ValueError(f"k must be >= 1, got {k}")
    # uint16 row ids sort by radix, in linear time
    rows = np.arange(count, dtype=np.uint16 if count <= 1 << 16 else np.int64)
    keep = np.flatnonzero(scores.data > -np.inf)
    rows = np.repeat(rows, np.diff(scores.indptr))[keep]
    values = scores.data[keep]
    lengths = np.bincount(rows, minlength=count)
    long = np.flatnonzero(lengths > max(LONG_ROW, k))
    if long.size:
        floor = np.full(count, -np.inf)
        floor[long] = _floors(values, lengths, long, k)
        floor = floor[rows]
        above = values > floor
        level = np.flatnonzero(values == floor)  # in column order within a row
        ties = np.bincount(rows[level], minlength=count)
        place = np.arange(len(level)) - (np.cumsum(ties) - ties)[rows[level]]
        above[level[place < k]] = True
        cut = np.flatnonzero(above)
        keep, rows, values = keep[cut], rows[cut], values[cut]
        lengths = np.bincount(rows, minlength=count)
    order = np.argsort(-values, kind="stable")
    order = order[np.argsort(rows[order], kind="stable")]
    firsts = np.cumsum(lengths) - lengths  # each row's first place in order
    order = order[np.arange(len(order)) - firsts[rows[order]] < k]
    starts = np.concatenate(([0], np.cumsum(np.minimum(lengths, k))))
    return sparse.csr_matrix(
        (values[order], scores.indices[keep[order]], starts), shape=scores.shape
    )


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
    which, positions = np.divmod(np.flatnonzero(scores >= floor[:, None]), count)
    dots = np.empty(len(positions))
    bounds = np.searchsorted(which, np.arange(len(queries) + 1))
    for index, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        # one query at a time, so no (shortlist x F) float64 copy of the queries
        dots[start:stop] = (rows[positions[start:stop]] * queries[index]).sum(axis=1)
    cosines = dots / (norms[positions] * query_norms[which])
    return sparse.csr_matrix((cosines, positions, bounds), shape=(len(queries), count))


def nearest_users(rows, norms: np.ndarray, block: np.ndarray, neighbors: int) -> sparse.csr_matrix:
    """For each row index in block, the at most neighbors rows most
    cosine-similar to it, itself excluded, ties by ascending position, with
    their float64 similarities: ranked's (len(block) x rows) matrix, whose
    row i stores them in that order; none for a zero-norm row.

    rows is a dense array or a scipy sparse matrix of visit counts, and
    norms its precomputed row norms. A sparse block's similarities are the
    stored entries of one product, exact in float64 for counts, so a count
    row's neighbors are the rows that share a column with it; a dense
    block's are _shortlist's, whose float64 re-scores do not depend on the
    block or the BLAS kernel, and a zero-norm dense row scores 0.

    Raises:
        ValueError: if an index is not a row, or neighbors < 1 (ranked's k)
            and block is not empty.
    """
    block = _user_block(block, rows.shape[0])
    self_pairs = (np.arange(len(block)), block)
    if not sparse.issparse(rows):
        shortlist = _shortlist(rows[block].astype(np.float64), rows, norms, neighbors, self_pairs)
        return ranked(shortlist, neighbors)
    # rows times the block's rows, transposed: scipy multiplies this way
    # round faster than rows[block] @ rows.T, whose operand is all rows
    sims = (rows @ rows[block].T).T.tocsr().sorted_indices()
    which = np.repeat(np.arange(len(block)), np.diff(sims.indptr))
    sims.data /= norms[sims.indices] * norms[block][which]
    sims.data[sims.indices == block[which]] = -np.inf
    return ranked(sims, neighbors)


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
    tallies are one sparse (block x users) weight matrix, nearest_users'
    with its weights set, times votes. Each row's weights are stored in
    neighbor order, not column order, and the product adds a venue's votes
    in stored order: one neighbor after another, by descending similarity.
    A user whose row has zero norm has no neighbors and gets no votes.

    Raises:
        ValueError: if an index is not a user row, or neighbors < 1 (ranked's
            k) and block is not empty.
    """
    weights = nearest_users(rows, norms, block, neighbors)
    if weighted:
        weights.data[~(weights.data > 0.0)] = 0.0
        weights.eliminate_zeros()  # keeps the stored order
    else:
        weights.data[:] = 1.0
    return (weights @ votes).sorted_indices()


def kiu_scores(
    users: np.ndarray,
    user_norms: np.ndarray | None,
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
    float64 mean of one row is that row), which is KNI, and user_norms is
    not read (it may be None). The neighbors come
    from nearest_users; the cosines and the venues kept from _shortlist, so
    the top depth of a row, ties included, is that of the float64 cosines
    over every venue. A zero-norm venue scores 0.

    Raises:
        ValueError: if an index is not a user row, or neighbors < 0 (ranked's k).
    """
    block = _user_block(block, len(users))
    queries = users[block].astype(np.float64)
    if neighbors:
        near = nearest_users(users, user_norms, block, neighbors)
        for row, (index, start, stop) in enumerate(zip(block, near.indptr, near.indptr[1:])):
            members = np.concatenate(([index], near.indices[start:stop]))
            queries[row] = users[members].astype(np.float64).mean(axis=0)
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


def write_batch_blocks(
    blocks: Iterable[tuple[Sequence[str], sparse.csr_matrix]],
    method: str,
    venues: Sequence[str],
    path: str | Path,
) -> None:
    """The batch file of ranked blocks, one line per user: user, method,
    then venue:score pairs in rank order, or no-prediction for an empty
    list (tab-separated). Each block is (users, a matrix whose row i stores
    user i's list as venue columns and scores in rank order, see ranked),
    and venues names the columns.

    Raises:
        FormatError: naming the path and the first id, line by line, that
            holds a tab or a line break, which its line could not carry
            (one count per separator over the whole file); nothing is
            written.
    """
    blocks = list(blocks)
    lines, tabs = [], 0
    for users, top in blocks:
        names = map(venues.__getitem__, top.indices.tolist())
        pairs = list(map("{}:{:.6f}".format, names, top.data.tolist()))
        bounds = top.indptr.tolist()
        for user, start, stop in zip(users, bounds, bounds[1:]):
            listed = "\t".join(pairs[start:stop]) if stop > start else NO_PREDICTION
            lines.append(f"{user}\t{method}\t{listed}\n")
            tabs += max(stop - start, 1) + 1
    text = "".join(lines)
    if text.count("\t") != tabs or text.count("\n") != len(lines) or "\r" in text:
        for users, top in blocks:
            bounds = top.indptr.tolist()
            for user, start, stop in zip(users, bounds, bounds[1:]):
                names = map(venues.__getitem__, top.indices[start:stop].tolist())
                for name in (user, method, *names):
                    if any(char in name for char in _SEPARATORS):
                        raise FormatError(
                            f"{path}: id {name!r} holds a tab or a line break, which a "
                            f"recommendation line cannot carry"
                        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_batch_blocks(path: str | Path) -> tuple[list, list, dict[str, int], sparse.csr_matrix]:
    """Inverse of write_batch_blocks: each line's user and method, the
    file's venues numbered by first occurrence (venue -> column), and one
    CSR block whose row i stores line i's list as venue columns and scores
    in rank order (blank lines are skipped).

    Raises:
        FormatError: naming the path and line of a line with fewer than two
            tab-separated fields or a pair that is not venue:score.
    """
    users, methods, columns, scores, starts = [], [], [], [], [0]
    venues: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                user, method, *pairs = line.split("\t")
                for pair in [] if pairs == [NO_PREDICTION] else pairs:
                    venue, colon, score = pair.rpartition(":")
                    if not colon:
                        raise ValueError(pair)
                    scores.append(float(score))
                    columns.append(venues.setdefault(venue, len(venues)))
            except ValueError:
                raise FormatError(
                    f"{path} line {number}: expected user, method and venue:score "
                    f"fields separated by tabs, got {line!r}"
                ) from None
            users.append(user)
            methods.append(method)
            starts.append(len(columns))
    top = (np.array(scores), np.array(columns, dtype=np.int64), starts)
    return users, methods, venues, sparse.csr_matrix(top, shape=(len(users), len(venues)))

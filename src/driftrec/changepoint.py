"""Change-point detection over interaction sequences.

The primary detector decodes a sequence with a trained hidden Markov model
and reads change points off the decoded state path.  Three reference
detectors (cumulative-sum, sliding-window, random) cover the classical
alternatives.  Detected points drive sequence partitioning and the
segmented user-item incidence matrix consumed by the factorization models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hmm import (
    HmmModel,
    InteractionSequence,
    _check_count,
    _check_entries,
    _check_points,
    _check_real,
    _decode_all,
    _index_array,
    _joined,
)


@dataclass(frozen=True)
class ChangePointResult:
    """Detected change points for one user, in ascending sequence order.

    predicted holds indices of the first item after each change; each lies
    in [1, T).  score_per_point aligns with predicted.  A result is
    immutable once validated.
    """

    user_id: str
    predicted: list[int] = field(default_factory=list)
    score_per_point: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.predicted) != len(self.score_per_point):
            raise ValueError("predicted and score_per_point must align")
        object.__setattr__(self, "predicted", _check_points("predicted", self.predicted, 1))

    @property
    def no_change(self) -> bool:
        """True when no change point was found: the decoded path never switches."""
        return not self.predicted


def hmcd_detect(model: HmmModel, seq: InteractionSequence, k: int = 1) -> ChangePointResult:
    """Change points from the decoded state path, strongest switches first.

    The result hmcd_detect_all gives for a corpus of one; see there for
    how candidates are found, scored and selected.
    """
    return hmcd_detect_all(model, [seq], k)[0]


def hmcd_detect_all(
    model: HmmModel, corpus: list[InteractionSequence], k: int = 1
) -> list[ChangePointResult]:
    """Change points of every sequence, in corpus order, from one batched decode.

    A candidate is any step whose decoded state differs from its
    predecessor's.  Each candidate t is scored by the probability of the
    decoded switch times the probability of the observed item under the
    new state.  The k highest-scoring candidates are returned in ascending
    order; score ties prefer the earliest step.  A switchless path yields
    an empty result flagged no_change.  The candidates of the whole corpus
    are found and scored in one pass, and ranked by one lexsort.
    """
    _check_count("k", k)
    states, bounds, _ = _decode_all(model, corpus)
    items = np.concatenate([seq.items for seq in corpus] or [states])
    # a switch at joined position p, unless p starts a sequence
    switch = states[1:] != states[:-1]
    switch[bounds[1:-1] - 1] = False
    at = switch.nonzero()[0]
    before = states[at]
    at += 1
    after = states[at]
    scores = model.trans[before, after] * model.emit[after, items[at]]
    owner = bounds[1:].searchsorted(at, "right")
    # one sort ranks each sequence's switches, best score first and ties to
    # the earliest step; each sequence keeps its first k, in step order
    order = np.lexsort((at, -scores, owner))
    ranked = owner[order]
    keep = np.sort(order[np.arange(len(order)) - ranked.searchsorted(ranked) < k])
    owner = owner[keep]
    cuts = owner.searchsorted(np.arange(len(corpus) + 1)).tolist()
    points = (at[keep] - bounds[owner]).tolist()
    kept = scores[keep].tolist()
    return [
        ChangePointResult(user_id=seq.user_id, predicted=points[a:b], score_per_point=kept[a:b])
        for seq, a, b in zip(corpus, cuts, cuts[1:])
    ]


def partition(seq: InteractionSequence, points: list[int]) -> list[np.ndarray]:
    """Split items into len(points)+1 contiguous segments at the given indices.

    Segment j covers [points[j-1], points[j]), so concatenating the
    segments reproduces the sequence exactly.
    """
    T = len(seq)
    bounds = [0] + _check_points("points", points, 1, T - 1) + [T]
    return [seq.items[a:b].copy() for a, b in zip(bounds, bounds[1:])]


def incidence_matrix(item_lists, m: int, labels) -> np.ndarray:
    """Binary incidence rows, one per item list: row r marks item_lists[r].

    Repeated items mark their cell once and an empty list gives an
    all-zero row.  labels[r] names row r in the ValueError raised for an
    item that is not a whole number in [0, m).
    """
    arrays = [np.asarray(items) for items in item_lists]
    rows = np.repeat(np.arange(len(arrays)), [a.size for a in arrays])
    cols = _index_array(np.concatenate(arrays) if arrays else rows, lambda i: labels[rows[i]], m)
    matrix = np.zeros((len(arrays), m))
    matrix[rows, cols] = 1.0
    return matrix


def build_segmented_matrix(segments_by_user: dict[str, list], m: int) -> np.ndarray:
    """Stack per-segment binary item-incidence rows for all users.

    Every user must contribute the same number of segments; empty segments
    produce all-zero rows.  Row order is users in mapping order, segments
    in sequence order, so user u's segment j is row u * segments + j.
    """
    if not segments_by_user:
        raise ValueError("segments_by_user must not be empty")
    counts = {len(segs) for segs in segments_by_user.values()}
    if len(counts) != 1:
        raise ValueError(f"users have inconsistent segment counts: {sorted(counts)}")
    per_user = _check_count("segments per user", counts.pop())
    return incidence_matrix(
        [segment for segs in segments_by_user.values() for segment in segs],
        m,
        [f"user {user!r} segment {ordinal}" for user in segments_by_user for ordinal in range(per_user)],
    )


def cusum_detect(
    seq: InteractionSequence, tau: float, stat=None
) -> tuple[int, bool]:
    """Smallest index where the running statistic total exceeds tau.

    stat maps an item index to a per-step value; by default the item index
    itself is used.  If the cumulative sum never exceeds tau the last
    index is returned with the flag set.
    """
    tau = _check_real("tau", tau, "[-inf, inf]")
    j = int(_first_crossings(np.cumsum(_step_values(seq, stat)), tau))
    return min(j, len(seq) - 1), j == len(seq)


def _step_values(seq: InteractionSequence, stat) -> np.ndarray:
    if stat is None:
        return seq.items.astype(float)
    values = np.array([stat(int(i)) for i in seq.items], dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"stat gave a non-finite value on sequence {seq.user_id!r}")
    return values


def _first_crossings(running: np.ndarray, taus):
    """Per tau, the first index whose running total exceeds it, or len(running): the sorted
    running maximum first exceeds tau there, so a binary search finds it."""
    return np.searchsorted(np.maximum.accumulate(running), taus, side="right")


def tune_cusum_threshold(
    corpus: list[InteractionSequence], stat=None, grid_size: int = 201
) -> float:
    """Grid-search the threshold that minimizes mean displacement error.

    The grid spans [0, mean final cumulative sum] so it always brackets
    the useful range.  Sequences whose sum never crosses a candidate
    threshold contribute the fallback index (the last step).  Ties prefer
    the smallest threshold; the search is exhaustive and deterministic.
    """
    if not corpus:
        raise ValueError("corpus must not be empty")
    if any(seq.truth_change is None for seq in corpus):
        raise ValueError("threshold tuning needs truth_change on every sequence")
    grid_size = _check_count("grid_size", grid_size)
    sums = [np.cumsum(_step_values(seq, stat)) for seq in corpus]
    upper = float(np.mean([s[-1] for s in sums]))
    grid = np.linspace(0.0, upper, grid_size)
    total = np.zeros(grid_size)
    for seq, running in zip(corpus, sums):
        j = np.minimum(_first_crossings(running, grid), len(seq) - 1)
        total += np.abs(j - seq.truth_change)
    return float(grid[np.argmin(total)])


def sliding_window_detect(
    seq: InteractionSequence, item_vectors: np.ndarray
) -> tuple[int, bool]:
    """Split point maximizing within-segment over between-segment similarity.

    The result sliding_window_detect_all gives for a corpus of one; see
    there for the objective and the checks on item_vectors.
    """
    return sliding_window_detect_all([seq], item_vectors)[0]


def sliding_window_detect_all(
    corpus: list[InteractionSequence], item_vectors: np.ndarray
) -> list[tuple[int, bool]]:
    """Each sequence's split point, in corpus order, from one distance table.

    Similarity between two positions is the negated Euclidean distance of
    their items' vectors.  The objective at split t is the mean similarity
    over all within-segment pairs (both segments pooled) minus the mean
    over all between-segment pairs; the earliest maximizer wins ties.  If
    every pairwise distance of a sequence is zero the objective carries no
    information and (1, True) is returned for it.  item_vectors must be a
    2-D matrix whose rows for the corpus's items are finite.  Each
    sequence reads its distances from one table over the corpus's U
    distinct items, which holds U**2 float64 values.  Sequences of equal
    length are gathered from it and prefix-summed together, in blocks of
    at most about 2**18 distances.
    """
    if not corpus:
        raise ValueError("corpus must not be empty")
    item_vectors = np.asarray(item_vectors, dtype=float)
    if item_vectors.ndim != 2:
        raise ValueError(f"item_vectors must be a 2-D matrix, got shape {item_vectors.shape}")
    for seq in corpus:
        if len(seq) < 2:
            raise ValueError(f"sequence {seq.user_id!r} has {len(seq)} item(s); need at least 2 to split")
    arrays = [seq.items for seq in corpus]
    items = _index_array(*_joined(arrays, lambda r: f"sequence {corpus[r].user_id!r}"), len(item_vectors))
    uniq, rows = np.unique(items, return_inverse=True)  # rows[p]: position p's row of the table
    table = _distance_table(item_vectors, uniq).reshape(-1)
    lengths = np.array([len(items) for items in arrays])
    starts = np.cumsum(lengths) - lengths
    splits, flat = np.empty(len(corpus), dtype=np.int64), np.empty(len(corpus), dtype=bool)
    for T in np.unique(lengths).tolist():
        group, block = np.flatnonzero(lengths == T), max(1, 2**18 // (T * T))
        for members in (group[lo : lo + block] for lo in range(0, len(group), block)):
            pos = rows[starts[members, None] + np.arange(T)]
            splits[members], flat[members] = _best_splits(table.take(pos[:, :, None] * len(uniq) + pos[:, None, :]))
    return list(zip(splits.tolist(), flat.tolist()))


def _distance_table(item_vectors: np.ndarray, uniq: np.ndarray) -> np.ndarray:
    """Euclidean distances between the vectors of items uniq, written over
    their gram matrix a block of rows at a time, so one len(uniq) x
    len(uniq) array is live."""
    block = 256
    vecs = item_vectors[uniq]
    table = vecs @ vecs.T
    sq = np.diag(table).copy()
    # a non-finite entry makes its row's squared norm non-finite; only the rows read are checked
    if not np.isfinite(sq).all():
        read = np.zeros_like(item_vectors)
        read[uniq] = vecs
        _check_entries(read, nonnegative=False, name="item_vectors")
    for a in range(0, len(uniq), block):
        rows = table[a : a + block]
        rows *= 2.0
        np.subtract(sq[a : a + block, None] + sq[None, :], rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        np.sqrt(rows, out=rows)
    return table


def _best_splits(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The split of each sequence of a block of equal-length ones, from its
    g x T x T distances, and whether the sequence is flat (then split 1);
    see sliding_window_detect_all."""
    T = dist.shape[1]
    # 2-D prefix sums give each rectangle sum of a distance matrix in O(1);
    # ps[:, a, b] sums the rectangle [0, a] x [0, b]
    ps = dist.cumsum(axis=1).cumsum(axis=2)
    whole = ps[:, T - 1, T - 1]
    t = np.arange(1, T)
    left = ps[:, t - 1, t - 1]
    right = whole[:, None] - ps[:, t - 1, T - 1] - ps[:, T - 1, t - 1] + left
    cross = ps[:, t - 1, T - 1] - left
    n1 = t.astype(float)
    n2 = (T - t).astype(float)
    intra_pairs = n1 * (n1 - 1) / 2 + n2 * (n2 - 1) / 2
    inter_pairs = n1 * n2
    intra_mean = np.divide(
        (left + right) / 2.0,
        intra_pairs,
        out=np.zeros_like(left),
        where=intra_pairs > 0,
    )
    objective = cross / inter_pairs - intra_mean
    # distances are nonnegative, so they sum to zero only when all are zero
    flat = whole == 0.0
    return np.where(flat, 1, objective.argmax(axis=1) + 1), flat


def random_partition(seq: InteractionSequence, rng_seed: int) -> int:
    """Uniform split index over [0, T], reproducible from the seed."""
    rng = np.random.default_rng(_check_count("rng_seed", rng_seed, 0))
    return int(rng.integers(0, len(seq) + 1))


def displacement_error(truth: int, predicted: int) -> float:
    """Absolute distance between the true and predicted change indices."""
    return float(abs(int(truth) - int(predicted)))


def cooccurrence_item_vectors(
    corpus: list[InteractionSequence], m: int
) -> np.ndarray:
    """Item vectors for the sliding-window detector: who consumed each item.

    Each item's vector is its column of the user-by-item incidence matrix,
    L2-normalized, so items sharing an audience sit close together.  Items
    no one consumed keep a zero vector.
    """
    incidence = incidence_matrix(
        [seq.items for seq in corpus], _check_count("m", m), [f"user {seq.user_id!r}" for seq in corpus]
    )
    vectors = incidence.T.copy()
    norms = np.linalg.norm(vectors, axis=1)
    np.divide(vectors, norms[:, None], out=vectors, where=norms[:, None] > 0)
    return vectors

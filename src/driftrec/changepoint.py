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

from .hmm import HmmModel, InteractionSequence, viterbi_decode, viterbi_decode_all


@dataclass
class ChangePointResult:
    """Detected change points for one user, in ascending sequence order.

    predicted holds indices of the first item after each change; each lies
    in [1, T).  score_per_point aligns with predicted.  no_change is set
    when the decoded state path never switches, in which case both lists
    are empty.
    """

    user_id: str
    predicted: list[int] = field(default_factory=list)
    score_per_point: list[float] = field(default_factory=list)
    no_change: bool = False

    def __post_init__(self):
        if len(self.predicted) != len(self.score_per_point):
            raise ValueError("predicted and score_per_point must align")
        if any(t < 1 for t in self.predicted):
            raise ValueError("change indices must be >= 1")
        if any(b <= a for a, b in zip(self.predicted, self.predicted[1:])):
            raise ValueError("change indices must be strictly ascending")


def hmcd_detect(model: HmmModel, seq: InteractionSequence, k: int = 1) -> ChangePointResult:
    """Change points from the decoded state path, strongest switches first.

    The result hmcd_detect_all gives for a corpus of one; see there for
    how candidates are found, scored and selected.
    """
    _check_k(k)
    return _switch_points(model, seq, viterbi_decode(model, seq).states, k)


def hmcd_detect_all(
    model: HmmModel, corpus: list[InteractionSequence], k: int = 1
) -> list[ChangePointResult]:
    """Change points of every sequence, in corpus order, from one batched decode.

    A candidate is any step whose decoded state differs from its
    predecessor's.  Each candidate t is scored by the probability of the
    decoded switch times the probability of the observed item under the
    new state.  The k highest-scoring candidates are returned in ascending
    order; score ties prefer the earliest step.  A switchless path yields
    an empty result flagged no_change.
    """
    _check_k(k)
    paths = viterbi_decode_all(model, corpus)
    return [_switch_points(model, seq, path.states, k) for seq, path in zip(corpus, paths)]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


def _switch_points(
    model: HmmModel, seq: InteractionSequence, path: np.ndarray, k: int
) -> ChangePointResult:
    switches = np.flatnonzero(path[1:] != path[:-1]) + 1
    if len(switches) == 0:
        return ChangePointResult(user_id=seq.user_id, no_change=True)
    scores = model.trans[path[switches - 1], path[switches]] * model.emit[
        path[switches], seq.items[switches]
    ]
    # primary key: score descending; secondary: step ascending
    # switches ascend, so ascending positions keep the points in step order
    keep = np.sort(np.lexsort((switches, -scores))[:k])
    return ChangePointResult(
        user_id=seq.user_id, predicted=switches[keep].tolist(), score_per_point=scores[keep].tolist()
    )


def partition(seq: InteractionSequence, points: list[int]) -> list[np.ndarray]:
    """Split items into len(points)+1 contiguous segments at the given indices.

    Segment j covers [points[j-1], points[j]), so concatenating the
    segments reproduces the sequence exactly.
    """
    T = len(seq)
    pts = [int(p) for p in points]
    if any(not 1 <= p < T for p in pts):
        raise ValueError(f"partition points must lie in [1, {T})")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("partition points must be strictly ascending")
    bounds = [0] + pts + [T]
    return [seq.items[a:b].copy() for a, b in zip(bounds, bounds[1:])]


def incidence_matrix(item_lists, m: int, labels) -> np.ndarray:
    """Binary incidence rows, one per item list: row r marks item_lists[r].

    Repeated items mark their cell once and an empty list gives an
    all-zero row.  labels[r] names row r in the ValueError raised for an
    item outside [0, m).
    """
    arrays = [np.asarray(items, dtype=np.int64) for items in item_lists]
    rows = np.repeat(np.arange(len(arrays)), [a.size for a in arrays])
    cols = np.concatenate(arrays) if arrays else rows
    bad = np.flatnonzero((cols < 0) | (cols >= m))
    if bad.size:
        raise ValueError(f"{labels[rows[bad[0]]]} has item index outside [0, {m})")
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
    per_user = counts.pop()
    if per_user < 1:
        raise ValueError("each user needs at least one segment")
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
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
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

    Similarity between two positions is the negated Euclidean distance of
    their items' vectors.  The objective at split t is the mean similarity
    over all within-segment pairs (both segments pooled) minus the mean
    over all between-segment pairs; the earliest maximizer wins ties.  If
    every pairwise distance is zero the objective carries no information
    and (1, True) is returned.
    """
    T = len(seq)
    if T < 2:
        raise ValueError("need at least 2 items to split")
    item_vectors = np.asarray(item_vectors, dtype=float)
    if int(seq.items.max()) >= item_vectors.shape[0]:
        raise ValueError("item_vectors has fewer rows than the largest item index")

    uniq, inv = np.unique(seq.items, return_inverse=True)
    vecs = item_vectors[uniq]
    gram = vecs @ vecs.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)[np.ix_(inv, inv)]
    if dist.max() == 0.0:
        return 1, True

    # 2-D prefix sums give each rectangle sum of the distance matrix in O(1)
    ps = np.zeros((T + 1, T + 1))
    ps[1:, 1:] = dist.cumsum(axis=0).cumsum(axis=1)
    t = np.arange(1, T)
    left = ps[t, t]
    right = ps[T, T] - ps[t, T] - ps[T, t] + ps[t, t]
    cross = ps[t, T] - ps[t, t]
    n1 = t.astype(float)
    n2 = (T - t).astype(float)
    intra_pairs = n1 * (n1 - 1) / 2 + n2 * (n2 - 1) / 2
    inter_pairs = n1 * n2
    intra_mean = np.divide(
        (left + right) / 2.0,
        intra_pairs,
        out=np.zeros_like(n1),
        where=intra_pairs > 0,
    )
    objective = cross / inter_pairs - intra_mean
    return int(t[np.argmax(objective)]), False


def random_partition(seq: InteractionSequence, rng_seed: int) -> int:
    """Uniform split index over [0, T], reproducible from the seed."""
    rng = np.random.default_rng(rng_seed)
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
        [seq.items for seq in corpus], m, [f"user {seq.user_id!r}" for seq in corpus]
    )
    vectors = incidence.T.copy()
    norms = np.linalg.norm(vectors, axis=1)
    np.divide(vectors, norms[:, None], out=vectors, where=norms[:, None] > 0)
    return vectors

"""Top-N recommendation from a user's most recent interaction segment.

Two segment-aware recommenders share one scoring rule: each item in the
segment votes for its l nearest neighbors in a latent item space, and
candidates are ranked by vote fraction.  The item space comes either from
factorizing the segmented incidence matrix or from inverting a trained
HMM's emissions into per-item state posteriors.  A popularity ranker
serves as the non-personalized reference.

Scoring reads a neighbor-order table instead of forming the segment's
similarities to every item: row i lists item i's neighbors by descending
dot product, ties by ascending index.  A segment with |U| distinct items
needs only the first min(m, l + |U|) entries of each of its rows, so the
table keeps the widest prefix asked for so far, rounded up to a power of
two, at 2 * m * width bytes (int16 indices below 2**15 items).  It is
built lazily, 256 rows at a time, and cached on the ItemFactors.  Its
vectors are a read-only copy with every subnormal entry set to zero, so
the table is the exact stable order over the stored vectors and cannot
go stale; vectors that still hold subnormals can order an exact tie
differently.  HmmModel is immutable too,
so hmmr_recommend inverts each model's emissions and builds its table once
per instance, however many requests it serves.

The recommend stage scores _BLOCK_ROWS users at a time: one sort of
(user, item) keys, a few 2-D passes over the table rows the block reads
and one bincount of every vote.  score_by_segment, which a served request
calls, is a block of one.

Both orders are selected rather than sorted, with the ties of a full
stable sort.  A table row keeps the items above its width-th similarity
plus the lowest-index items tied with it, then sorts only those.  A top-N
list keeps the unseen items scoring at least the N-th best, all of its
ties included, then sorts only those by score, popularity and index.

One function ranks a block of users: one partition along the item axis
finds every row's N-th best score, and one lexsort over (item,
-popularity, -score, row) orders the kept entries of every row at once.
It returns each row's items and scores.  rank_by_scores,
recommend_from_segments and hmmr_recommend rank a block of one and wrap
its row in a Recommendation; the recommend stage ranks _BLOCK_ROWS users
at a time and writes the rows.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .factorization import FactorPair, _as_matrix
from .hmm import _ROW_SUM_TOL, HmmModel, _check_count, _check_entries, _index_array

_BLOCK_ROWS = 256
_LARGEST = np.finfo(float).max
_TINY = np.finfo(float).tiny


def _threshold(key: np.ndarray, width: int, scratch: np.ndarray) -> np.ndarray:
    """Each row's width-th smallest key, as a column, partitioned in scratch."""
    part = scratch[: len(key)]
    np.copyto(part, key)
    part.partition(width - 1, axis=1)
    return part[:, width - 1 : width]


def _stable_prefix(key: np.ndarray, thr: np.ndarray, width: int) -> np.ndarray:
    """np.argsort(key, axis=1, kind="stable")[:, :width], selected rather
    than sorted: each row keeps the entries below thr, its width-th
    smallest key, plus the lowest-index entries tied with it, and sorts
    only those."""
    B, m = key.shape
    # NaN sorts last, so a NaN threshold marks a row with fewer than width
    # comparable keys; such a block is sorted in full
    if width == m or np.isnan(thr).any():
        return np.argsort(key, axis=1, kind="stable")[:, :width]
    sel = key <= thr
    # a row tied at its threshold past the width keeps only its lowest-index ties
    surplus = np.count_nonzero(sel, axis=1) - width
    over = np.flatnonzero(surplus)
    tied = key[over] == thr[over]
    sel[over] &= ~tied | (np.cumsum(tied, axis=1) <= tied.sum(axis=1, keepdims=True) - surplus[over, None])
    # the flat indices ascend, so each row's width columns come in ascending order
    flat = np.flatnonzero(sel).reshape(B, width)
    kept = key.ravel()[flat]
    cols = flat - np.arange(0, B * m, m)[:, None]
    # an unstable sort orders distinct keys as a stable one does; only the
    # rows whose kept keys tie are sorted again, stably
    order = kept.argsort(axis=1)
    ranked = np.take_along_axis(kept, order, axis=1)
    ties = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    order[ties] = kept[ties].argsort(axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def neighbor_order(vectors: np.ndarray, width: int) -> np.ndarray:
    """The first min(width, m) entries of every item's neighbor order.

    Row i ranks all items by descending vectors[i] . vectors[j], ties by
    ascending j (a stable sort), over the vectors as given.  ItemFactors
    passes its stored vectors, whose subnormal entries are already zero.
    The similarities are formed _BLOCK_ROWS rows at a time into one
    buffer, so the m x m product is never held whole and each block reuses
    the same memory.
    """
    m = len(vectors)
    width = min(_check_count("width", width), m)
    table = np.empty((m, width), dtype=np.int16 if m < 2**15 else np.int32)
    product = np.empty((min(m, _BLOCK_ROWS), m))
    scratch = np.empty_like(product)
    for lo in range(0, m, _BLOCK_ROWS):
        hi = min(m, lo + _BLOCK_ROWS)
        key = np.negative(np.matmul(vectors[lo:hi], vectors.T, out=product[: hi - lo]), out=product[: hi - lo])
        table[lo:hi] = _stable_prefix(key, _threshold(key, width, scratch), width)
    return table


@dataclass(frozen=True, eq=False)
class ItemFactors:
    """Latent vectors per item; source records how they were produced.

    For source "hmm" each row is the item's posterior distribution over
    hidden states and must be a probability vector.  vectors is a
    read-only copy of the input with every subnormal entry set to zero:
    products over subnormals run several times slower, and NMF factors
    hold hundreds of them.  The read-only neighbor-order table derived
    from it, the exact stable order over these stored vectors, is cached
    here.  A caller whose own vectors hold subnormals can order an exact
    tie differently from this table.
    """

    vectors: np.ndarray
    source: str
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError("vectors must be an m x d matrix")
        if self.source not in ("nmf", "bpr", "hmm"):
            raise ValueError(f"unknown factor source {self.source!r}")
        _check_entries(vectors, nonnegative=self.source == "hmm", name="vectors")
        if self.source == "hmm" and np.any(np.abs(vectors.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("state posterior rows must sum to 1")
        vectors[np.abs(vectors) < _TINY] = 0.0
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_order", np.empty((len(vectors), 0), dtype=np.int16))

    def neighbors(self, width: int) -> np.ndarray:
        """The first min(width, m) columns of the neighbor-order table.

        A request wider than the cached prefix rebuilds it once, at the
        next power of two, so a run of growing requests rebuilds it only
        logarithmically often.
        """
        m = len(self.vectors)
        width = min(_check_count("width", width), m)
        if width > self._order.shape[1]:
            order = neighbor_order(self.vectors, min(m, 1 << (width - 1).bit_length()))
            order.setflags(write=False)
            object.__setattr__(self, "_order", order)
        return self._order[:, :width]


def _distinct_keys(item_lists, m: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys r * m + item, for each item of item_lists[r]
    (a whole number in [0, m), else a ValueError naming the field `name`),
    and how often each occurs."""
    items = _index_array(np.concatenate(item_lists) if item_lists else np.zeros(0, np.int64), name, m)
    keys = np.arange(0, len(item_lists) * m, m).repeat([len(lst) for lst in item_lists])
    keys += items
    keys.sort()
    # a sort and a mask: np.unique with counts is 8-10% slower on a 256-user block, and
    # 21 against 12 us on one served segment; a run of equal keys starts and ends at an edge
    edges = np.empty(len(keys) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = edges.nonzero()[0]
    return keys[bounds[:-1]], bounds[1:] - bounds[:-1]


@dataclass(frozen=True)
class Recommendation:
    """Ranked item list for one user; finite scores, aligned with ranked_items.

    used_fallback marks lists produced from an earlier segment because the
    most recent one was empty.  The fields cannot be rebound once
    validated, and both lists are stored as tuples, so they cannot be
    edited in place either.
    """

    user_id: str
    ranked_items: tuple[int, ...]
    scores: tuple[float, ...]
    used_fallback: bool = False

    def __post_init__(self):
        for name in ("ranked_items", "scores"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.ranked_items) != len(self.scores):
            raise ValueError("ranked_items and scores must align")
        if len(set(self.ranked_items)) != len(self.ranked_items):
            raise ValueError("ranked_items contains duplicates")
        if not all(map(math.isfinite, self.scores)):
            raise ValueError("scores must be finite")
        if list(self.scores) != sorted(self.scores, reverse=True):
            raise ValueError("scores must be non-increasing")


def factors_from_pair(pair: FactorPair, source: str) -> ItemFactors:
    """Wrap a fitted factor pair's item side for recommendation."""
    return ItemFactors(vectors=pair.q, source=source)


def hmm_item_factors(model: HmmModel) -> ItemFactors:
    """Per-item posterior over hidden states, from inverted emissions.

    The state prior is the transition matrix's column mass; the item
    marginal mixes emissions under that prior; the posterior divides them
    out and is renormalized so every row is an exact distribution.
    """
    state_mass = model.trans.sum(axis=0)
    p_state = state_mass / state_mass.sum()
    p_item = model.emit.T @ p_state
    p_item /= p_item.sum()
    if not np.all(p_item > 0):
        item = int(np.argmin(p_item > 0))
        raise ValueError(f"item {item} has zero emission mass under the state prior")
    posterior = (model.emit.T * p_state[None, :]) / p_item[:, None]
    posterior /= posterior.sum(axis=1, keepdims=True)
    return ItemFactors(vectors=posterior, source="hmm")


def _score_block(factors: ItemFactors, segments, l: int) -> np.ndarray:
    """score_by_segment of each of a block of B segments, as a B x m array.

    One sort of (row, item) keys finds each row's distinct items U and how
    often each occurs.  Each distinct item's table row is read to
    min(m, l + |U|) columns, as score_by_segment reads it, or up to 15
    more: the rows are taken in runs of one width // 16, each read to its
    widest row, so the block takes a few 2-D passes however many rows it
    has, and a column past a row's own width only follows its l voters.
    One membership gather per run marks the neighbors inside their own
    segment, one cumsum keeps each row's first l others, and one bincount
    adds every vote into the B x m array.  Votes are whole numbers, so
    their sums are exact in any order.
    """
    m = len(factors.vectors)
    # a row has fewer than m others to vote for, so an l past m votes as m
    # does, and the capped l fits the table's index type the cumsum counts in
    l = min(_check_count("l", l), m)
    keys, counts = _distinct_keys(segments, m, "segment")
    lengths = [len(segment) for segment in segments]
    if not all(lengths):
        raise ValueError("segment must not be empty")
    items = keys % m
    base = keys - items
    member = np.zeros(len(segments) * m, dtype=bool)
    member[keys] = True
    counts = counts.astype(float)
    if len(segments) == 1:
        # a block of one is one run, read to its own width
        runs = [(slice(None), min(m, l + len(keys)))]
        table = factors.neighbors(runs[0][1])
    else:
        rows = base // m
        widths = np.minimum(np.bincount(rows)[rows] + l, m)
        table = factors.neighbors(int(widths.max()))
        order = widths.argsort(kind="stable")
        classes = widths[order] >> 4
        cuts = [0, *((classes[1:] != classes[:-1]).nonzero()[0] + 1).tolist(), len(order)]
        runs = [(order[a:b], widths[order[b - 1]]) for a, b in zip(cuts, cuts[1:])]
    voters, weights = [], []
    for run, width in runs:
        neighbors = table[items[run], :width] + base[run, None]
        keep = ~member[neighbors]
        others = keep.cumsum(axis=1, dtype=table.dtype)
        keep &= others <= l
        # compress rather than a boolean index: several times faster on these masks
        voters.append(neighbors.ravel().compress(keep.ravel()))
        weights.append(counts[run].repeat(np.minimum(others[:, -1], l)))
    votes = np.bincount(np.concatenate(voters), np.concatenate(weights), minlength=member.size)
    # with no votes at all bincount returns integers
    votes = votes.reshape(-1, m).astype(float, copy=False)
    votes /= np.array(lengths)[:, None]
    return votes


def score_by_segment(factors: ItemFactors, segment, l: int) -> np.ndarray:
    """Vote-fraction scores: how often each item neighbors the segment.

    Every segment occurrence contributes one vote to each of its item's
    top-l dot-product neighbors over factors' stored vectors, whose
    subnormal entries are zero; neighbor lists never include any item
    present in the segment, and similarity ties prefer the smaller item
    index.  Scores are votes divided by segment length, so they live in
    [0, 1].  At most |U| of a row's first l + |U| neighbors lie in the
    segment's item set U, so that prefix of the neighbor-order table
    holds all l neighbors that vote.  This is _score_block on a block of
    one; the recommend stage scores _BLOCK_ROWS segments per call.
    """
    return _score_block(factors, [segment], l)[0]


def item_popularity(matrix) -> np.ndarray:
    """How many rows of the incidence matrix contain each item."""
    return (_as_matrix(matrix) > 0).sum(axis=0).astype(float)


def _list_popularity(item_lists, m: int) -> np.ndarray:
    """How many of the item lists contain each of the m items: the
    item_popularity of their incidence matrix, counted without building it."""
    return np.bincount(_distinct_keys(item_lists, m, "items")[0] % m, minlength=m).astype(float)


def _last_usable_segment(segments) -> tuple:
    for ordinal in range(len(segments) - 1, -1, -1):
        if len(segments[ordinal]) > 0:
            return segments[ordinal], ordinal < len(segments) - 1
    raise ValueError("every segment is empty")


def _rank_block(scores, popularity, training_items, N) -> list[tuple[list[int], list[float]]]:
    """Top-N unseen items of each row of a B x m block of finite scores, as
    the row's (items, scores) lists, best first.

    Row r drops training_items[r] and ranks the rest by score desc, then
    popularity desc, then index asc, as one lexsort of every unseen item
    would.  Only the unseen items scoring at least a row's N-th best can
    reach its top N, so one partition finds each row's N-th score and one
    lexsort orders only those items, every tie with it included.  The
    partition finds the N-th smallest of the negated scores: on rows where
    most items tie at zero votes, numpy's introselect finds that several
    times faster than the N-th largest of the scores themselves.
    """
    _check_count("N", N)
    scores = np.asarray(scores)
    part = np.negative(scores, dtype=float)
    B, m = part.shape
    popularity = np.asarray(popularity, dtype=float)
    if popularity.shape != (m,):
        raise ValueError(f"popularity must have shape ({m},)")
    _check_entries(popularity, nonnegative=False, name="popularity")
    seen = _index_array(np.concatenate(training_items), "training_items", m)
    # array methods rather than their np.* wrappers: a served request ranks
    # a block of one, where each wrapper's call costs as much as its work
    excluded = np.arange(B).repeat([len(items) for items in training_items]), seen
    part[excluded] = np.inf
    # only an excluded item is inf, so a bar at the largest float keeps every
    # unseen item of a row with N or fewer and no excluded one
    bar = _LARGEST
    if N < m:
        # the negated scores are partitioned in place: the rows are then
        # selected from the scores themselves, s >= -bar exactly when -s <= bar
        part.partition(N - 1, axis=1)
        bar = np.minimum(part[:, N - 1, None], bar)
    keep = scores >= -bar
    keep[excluded] = False
    rows, cols = keep.nonzero()
    kept = np.negative(scores[rows, cols], dtype=float)
    order = np.lexsort((cols, -popularity[cols], kept, rows))
    # rows ascend and lead the sort, so row r's entries fill
    # order[bounds[r]:bounds[r + 1]], best first; it keeps the first N
    bounds = rows.searchsorted(np.arange(B + 1)).tolist()
    ends = [min(b, a + N) for a, b in zip(bounds, bounds[1:])]
    items, values = cols[order].tolist(), np.negative(kept[order]).tolist()
    return [(items[a:b], values[a:b]) for a, b in zip(bounds, ends)]


def _rank(scores, popularity, exclude, N, user_id, used_fallback) -> Recommendation:
    """One user's top N: the row of a block of one, as a Recommendation."""
    return Recommendation(user_id, *_rank_block(scores[None], popularity, [exclude], N)[0], used_fallback)


def rank_by_scores(
    scores, popularity: np.ndarray, training_items, N: int, user_id: str = ""
) -> Recommendation:
    """Top-N unseen items under an arbitrary per-item score vector.

    Same exclusion and tie rules as the segment-based rankers, so static
    scorers (a plain factorization dot product, say) produce directly
    comparable lists.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    _check_entries(scores, nonnegative=False, name="scores")
    return _rank(scores, popularity, training_items, N, user_id, False)


def recommend_from_segments(
    factors: ItemFactors,
    segments,
    training_items,
    popularity: np.ndarray,
    l: int = 10,
    N: int = 10,
    user_id: str = "",
) -> Recommendation:
    """Rank unseen items by segment-neighbor votes; shared by both models.

    Scores come from the last non-empty segment; having to step back past
    an empty final segment sets used_fallback.  All of the user's training
    items are removed before ranking, and score ties fall back to
    popularity, then item index.
    """
    segment, used_fallback = _last_usable_segment(segments)
    scores = score_by_segment(factors, segment, l)
    return _rank(scores, popularity, training_items, N, user_id, used_fallback)


# segment-based ranking over factorization item vectors is the shared rule itself
smf_recommend = recommend_from_segments


# per model instance, which is immutable: its item factors
_MODEL_FACTORS: "weakref.WeakKeyDictionary[HmmModel, ItemFactors]" = weakref.WeakKeyDictionary()


def hmmr_recommend(
    model: HmmModel,
    segments,
    training_items,
    popularity: np.ndarray,
    l: int = 10,
    N: int = 10,
    user_id: str = "",
) -> Recommendation:
    """Segment-based ranking over the model's item-state posteriors.

    The posteriors and their neighbor-order table are computed on the
    first call for a model and reused on every later one.
    """
    factors = _MODEL_FACTORS.get(model)
    if factors is None:
        factors = _MODEL_FACTORS[model] = hmm_item_factors(model)
    return recommend_from_segments(factors, segments, training_items, popularity, l=l, N=N, user_id=user_id)


def pop_rank(matrix, user_items, N: int, user_id: str = "") -> Recommendation:
    """Most popular unseen items, most frequent first; ties by index."""
    popularity = item_popularity(matrix)
    return _rank(popularity, popularity, user_items, N, user_id, False)

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
built lazily, 256 rows at a time, and cached on the ItemFactors, whose
vectors are a read-only copy so the table cannot go stale.  hmmr_recommend
inverts a model's emissions and builds its table once per HmmModel
instance, however many requests it serves.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .factorization import FactorPair
from .hmm import HmmModel

_ROW_SUM_TOL = 1e-9
_BLOCK_ROWS = 256


def neighbor_order(vectors: np.ndarray, width: int) -> np.ndarray:
    """The first `width` entries of every item's neighbor order.

    Row i ranks all items by descending vectors[i] . vectors[j], ties by
    ascending j (a stable sort).  The similarities are formed _BLOCK_ROWS
    rows at a time, so the m x m product is never held whole.
    """
    m = len(vectors)
    table = np.empty((m, width), dtype=np.int16 if m < 2**15 else np.int32)
    for lo in range(0, m, _BLOCK_ROWS):
        sims = vectors[lo : lo + _BLOCK_ROWS] @ vectors.T
        table[lo : lo + _BLOCK_ROWS] = np.argsort(-sims, axis=1, kind="stable")[:, :width]
    return table


@dataclass(frozen=True, eq=False)
class ItemFactors:
    """Latent vectors per item; source records how they were produced.

    For source "hmm" each row is the item's posterior distribution over
    hidden states and must be a probability vector.  vectors is a
    read-only copy of the input, and the read-only neighbor-order table
    derived from it is cached here.
    """

    vectors: np.ndarray
    source: str
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError("vectors must be an m x d matrix")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors must be finite")
        if self.source not in ("nmf", "bpr", "hmm"):
            raise ValueError(f"unknown factor source {self.source!r}")
        if self.source == "hmm":
            if np.any(vectors < 0):
                raise ValueError("state posteriors must be nonnegative")
            if np.any(np.abs(vectors.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
                raise ValueError("state posterior rows must sum to 1")
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
        width = min(width, m)
        if width > self._order.shape[1]:
            order = neighbor_order(self.vectors, min(m, 1 << (width - 1).bit_length()))
            order.setflags(write=False)
            object.__setattr__(self, "_order", order)
        return self._order[:, :width]

    def reserve(self, l: int, segment_lists) -> None:
        """Widen the table once for ranking every one of these users at l,
        so a run of ever-longer segments does not widen it again and again."""
        self.neighbors(l + max((len(np.unique(_last_usable_segment(segs)[0])) for segs in segment_lists), default=0))


@dataclass
class Recommendation:
    """Ranked item list for one user; scores align with ranked_items.

    used_fallback marks lists produced from an earlier segment because the
    most recent one was empty.
    """

    user_id: str
    ranked_items: list[int]
    scores: list[float]
    used_fallback: bool = False

    def __post_init__(self):
        if len(self.ranked_items) != len(self.scores):
            raise ValueError("ranked_items and scores must align")
        if len(set(self.ranked_items)) != len(self.ranked_items):
            raise ValueError("ranked_items contains duplicates")
        if any(b > a for a, b in zip(self.scores, self.scores[1:])):
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
    total = p_item.sum()
    if not total > 0:
        raise ValueError("emission mass vanished: the item marginal sums to 0")
    p_item = p_item / total
    if not np.all(p_item > 0):
        item = int(np.argmin(p_item > 0))
        raise ValueError(f"item {item} has zero emission mass under the state prior")
    posterior = (model.emit.T * p_state[None, :]) / p_item[:, None]
    posterior /= posterior.sum(axis=1, keepdims=True)
    return ItemFactors(vectors=posterior, source="hmm")


def score_by_segment(factors: ItemFactors, segment, l: int) -> np.ndarray:
    """Vote-fraction scores: how often each item neighbors the segment.

    Every segment occurrence contributes one vote to each of its item's
    top-l dot-product neighbors; neighbor lists never include any item
    present in the segment, and similarity ties prefer the smaller item
    index.  Scores are votes divided by segment length, so they live in
    [0, 1].  At most |U| of a row's first l + |U| neighbors lie in the
    segment's item set U, so that prefix of the neighbor-order table
    holds all l neighbors that vote.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    seg = np.asarray(segment, dtype=np.int64)
    if seg.size == 0:
        raise ValueError("segment must not be empty")
    m = len(factors.vectors)
    if seg.min() < 0 or seg.max() >= m:
        raise ValueError(f"segment items must lie in [0, {m})")
    items, counts = np.unique(seg, return_counts=True)
    rows = factors.neighbors(l + len(items))[items]
    member = np.zeros(m, dtype=bool)
    member[items] = True
    keep = ~member[rows]
    keep &= np.cumsum(keep, axis=1) <= l
    votes = np.bincount(rows[keep], weights=np.repeat(counts, keep.sum(axis=1)).astype(float), minlength=m)
    return votes / len(seg)


def item_popularity(matrix) -> np.ndarray:
    """How many rows of the incidence matrix contain each item."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    return (M > 0).sum(axis=0).astype(float)


def _last_usable_segment(segments) -> tuple:
    for ordinal in range(len(segments) - 1, -1, -1):
        if len(segments[ordinal]) > 0:
            return segments[ordinal], ordinal < len(segments) - 1
    raise ValueError("every segment is empty")


def _rank(scores, popularity, exclude, N, user_id, used_fallback) -> Recommendation:
    m = len(scores)
    mask = np.ones(m, dtype=bool)
    exclude = np.asarray(exclude, dtype=np.int64)
    if exclude.size:
        mask[exclude] = False
    cand = np.flatnonzero(mask)
    # primary: score desc; then popularity desc; then index asc
    order = np.lexsort((cand, -popularity[cand], -scores[cand]))
    top = cand[order[:N]]
    return Recommendation(
        user_id=user_id,
        ranked_items=[int(i) for i in top],
        scores=[float(scores[i]) for i in top],
        used_fallback=used_fallback,
    )


def rank_by_scores(
    scores, popularity: np.ndarray, training_items, N: int, user_id: str = ""
) -> Recommendation:
    """Top-N unseen items under an arbitrary per-item score vector.

    Same exclusion and tie rules as the segment-based rankers, so static
    scorers (a plain factorization dot product, say) produce directly
    comparable lists.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    scores = np.asarray(scores, dtype=float)
    if scores.shape != popularity.shape:
        raise ValueError("scores and popularity must have the same length")
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
    if N < 1:
        raise ValueError("N must be >= 1")
    segment, used_fallback = _last_usable_segment(segments)
    scores = score_by_segment(factors, segment, l)
    return _rank(scores, popularity, training_items, N, user_id, used_fallback)


# segment-based ranking over factorization item vectors is the shared rule itself
smf_recommend = recommend_from_segments


# per model instance: the arrays the factors were inverted from, and the factors
_MODEL_FACTORS: "weakref.WeakKeyDictionary[HmmModel, tuple]" = weakref.WeakKeyDictionary()


def _model_factors(model: HmmModel) -> ItemFactors:
    """hmm_item_factors(model), inverted once per model instance; a model
    whose parameter arrays were replaced is inverted again."""
    trans, emit, factors = _MODEL_FACTORS.get(model, (None, None, None))
    if trans is not model.trans or emit is not model.emit:
        factors = hmm_item_factors(model)
        _MODEL_FACTORS[model] = (model.trans, model.emit, factors)
    return factors


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
    return recommend_from_segments(
        _model_factors(model), segments, training_items, popularity, l=l, N=N, user_id=user_id
    )


def pop_rank(matrix, user_items, N: int, user_id: str = "") -> Recommendation:
    """Most popular unseen items, most frequent first; ties by index."""
    if N < 1:
        raise ValueError("N must be >= 1")
    popularity = item_popularity(matrix)
    return _rank(popularity, popularity, user_items, N, user_id, False)

"""Top-N recommendation from a user's most recent interaction segment.

Two segment-aware recommenders share one scoring rule: each item in the
segment votes for its l nearest neighbors in a latent item space, and
candidates are ranked by vote fraction.  The item space comes either from
factorizing the segmented incidence matrix or from inverting a trained
HMM's emissions into per-item state posteriors.  A popularity ranker
serves as the non-personalized reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorization import FactorPair
from .hmm import HmmModel

_ROW_SUM_TOL = 1e-9


@dataclass
class ItemFactors:
    """Latent vectors per item; source records how they were produced.

    For source "hmm" each row is the item's posterior distribution over
    hidden states and must be a probability vector.
    """

    vectors: np.ndarray
    source: str

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be an m x d matrix")
        if self.source not in ("nmf", "bpr", "hmm"):
            raise ValueError(f"unknown factor source {self.source!r}")
        if self.source == "hmm":
            if np.any(self.vectors < 0):
                raise ValueError("state posteriors must be nonnegative")
            if np.any(np.abs(self.vectors.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
                raise ValueError("state posterior rows must sum to 1")


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
    [0, 1].
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    seg = np.asarray(segment, dtype=np.int64)
    if seg.size == 0:
        raise ValueError("segment must not be empty")
    vectors = factors.vectors
    m = vectors.shape[0]
    if seg.min() < 0 or seg.max() >= m:
        raise ValueError(f"segment items must lie in [0, {m})")
    sims = vectors[seg] @ vectors.T
    sims[:, np.unique(seg)] = -np.inf
    idx = np.arange(m)
    votes = np.zeros(m)
    for row in sims:
        top = np.lexsort((idx, -row))[:l]
        top = top[np.isfinite(row[top])]
        votes[top] += 1.0
    return votes / len(seg)


def item_popularity(matrix) -> np.ndarray:
    """How many rows of the incidence matrix contain each item."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    return (M > 0).sum(axis=0).astype(float)


def _last_usable_segment(segments) -> tuple:
    usable = None
    for ordinal in range(len(segments) - 1, -1, -1):
        if len(segments[ordinal]) > 0:
            usable = ordinal
            break
    if usable is None:
        raise ValueError("every segment is empty")
    return segments[usable], usable < len(segments) - 1


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


def smf_recommend(
    factors: ItemFactors,
    segments,
    training_items,
    popularity: np.ndarray,
    l: int = 10,
    N: int = 10,
    user_id: str = "",
) -> Recommendation:
    """Segment-based ranking over factorization item vectors."""
    return recommend_from_segments(
        factors, segments, training_items, popularity, l=l, N=N, user_id=user_id
    )


def hmmr_recommend(
    model: HmmModel,
    segments,
    training_items,
    popularity: np.ndarray,
    l: int = 10,
    N: int = 10,
    user_id: str = "",
) -> Recommendation:
    """Segment-based ranking over the model's item-state posteriors."""
    return recommend_from_segments(
        hmm_item_factors(model),
        segments,
        training_items,
        popularity,
        l=l,
        N=N,
        user_id=user_id,
    )


def pop_rank(matrix, user_items, N: int, user_id: str = "") -> Recommendation:
    """Most popular unseen items, most frequent first; ties by index."""
    if N < 1:
        raise ValueError("N must be >= 1")
    popularity = item_popularity(matrix)
    return _rank(popularity, popularity, user_items, N, user_id, False)

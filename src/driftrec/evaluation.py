"""Ranking metrics, precision-recall curves, and cross-method aggregation.

The ranking metrics compare a recommended list against a time-ordered
held-out list.  The gain model rewards retrieving items the user picked
earlier: the j-th held-out item (1-indexed, out of L) carries relevance
L - j + 1, discounted by log2(rank + 1).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .hmm import _check_count, _check_points, _index_array


@functools.lru_cache(maxsize=None)
def _ideal_dcg(L: int, K: int) -> float:
    """Ideal gain of K of L truth items, by sum(): from 3.12 it rounds unlike a running total."""
    return sum((L - j) / math.log2(j + 2) for j in range(K))


def _relevance(truths) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The held-out side of the metrics, for users 0, 1, ... holding truths.

    Returns vocab, the sorted distinct held-out items; keys, the sorted
    u * len(vocab) + (position of the item in vocab) of every user's
    distinct held-out items; gain, each key's relevance L - j for the
    user's j-th distinct item (0-based, first occurrence wins); and L, each
    user's count of distinct items.
    """
    lengths = np.array([len(truth) for truth in truths])
    if not lengths.all():
        raise ValueError("truth must not be empty")
    vocab, code = np.unique(_index_array(np.concatenate(truths), "truth"), return_inverse=True)
    keys, first = np.unique(np.repeat(np.arange(len(truths)), lengths) * len(vocab) + code, return_index=True)
    L = np.bincount(keys // len(vocab), minlength=len(truths))
    # the keys in time order run user by user, each user's in first-occurrence order
    by_time = np.argsort(first)
    j = np.empty_like(keys)
    j[by_time] = np.arange(len(keys)) - np.repeat(np.cumsum(L) - L, L)
    return vocab, keys, L[keys // len(vocab)] - j, L


def _mean_metrics(ranked: np.ndarray, relevance, n_grid) -> tuple[dict, dict, dict]:
    """Mean precision, recall and NDCG across the users of relevance, each as
    {N: mean} over n_grid, from ranked: one row of item indices per user,
    padded with -1 to max(n_grid) ranks.

    A repeated recommendation is one hit and gains only at its first rank.
    Each gain is relevance / log2(rank + 1), the running sums go rank by
    rank, and each mean is np.mean over one contiguous row of users.
    """
    vocab, keys, gain, L = relevance
    n, R = ranked.shape
    pos = np.minimum(np.searchsorted(vocab, ranked), len(vocab) - 1)
    key = np.arange(n)[:, None] * len(vocab) + pos
    slot = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    hit = (vocab[pos] == ranked) & (keys[slot] == key)
    # np.nonzero runs user by user, rank by rank, so return_index finds each item's first rank
    users, ranks = np.nonzero(hit)
    _, first = np.unique(key[users, ranks], return_index=True)
    found = np.zeros_like(hit)
    found[users[first], ranks[first]] = True
    discount = np.array([math.log2(rank + 1) for rank in range(1, R + 1)])
    dcg = np.cumsum(np.where(found, gain[slot], 0) / discount, axis=1)
    hits = np.cumsum(found, axis=1)
    grid = np.array(n_grid)
    ideal = np.array([[_ideal_dcg(l, min(N, l)) for N in n_grid] for l in range(1, L.max() + 1)])[L - 1]
    at_n = hits[:, grid - 1]
    per_user = np.stack([(at_n / grid).T, (at_n / L[:, None]).T, (dcg[:, grid - 1] / ideal).T])
    return tuple({N: float(np.mean(row)) for N, row in zip(n_grid, at_n)} for at_n in per_user)


def _ranked_table(lists, R: int) -> np.ndarray:
    """The first R items of each list, one row each, padded with -1."""
    table = np.full((len(lists), R), -1, dtype=np.int64)
    for row, items in zip(table, lists):
        head = _index_array(np.asarray(items)[:R], "recommended")
        row[: len(head)] = head
    return table


def _scalar(recommended, truth, N) -> list[float]:
    """Precision, recall and NDCG at N of one list: the metrics' batch of one."""
    N = _check_count("N", N)
    return [table[N] for table in _mean_metrics(_ranked_table([recommended], N), _relevance([truth]), [N])]


def precision_recall_at(recommended, truth, N: int) -> tuple[float, float]:
    """Fraction of the top-N that is held out, and of the held-out found.

    Repeated truth items count once (first occurrence wins), so both
    metrics count the same intersection.
    """
    return tuple(_scalar(recommended, truth, N)[:2])


def ndcg_time_aware(recommended, truth, N: int) -> float:
    """Discounted gain against the time-ordered held-out list, normalized.

    Relevance of the j-th of L truth items is L - j + 1 and zero for
    everything else; a repeated recommendation gains only at its first
    rank, and both the achieved and the ideal gain truncate at N.
    """
    return _scalar(recommended, truth, N)[2]


def ranking_metrics(ranked_by_user: dict, truth_by_user: dict, n_grid) -> tuple[dict, dict, dict]:
    """Mean precision, recall and NDCG across users, each as {N: mean} over
    n_grid, from one array pass over every user.  Each mean is np.mean over a
    contiguous row in sorted user order, so it equals the scalar metrics' mean bit for bit."""
    n_grid = _check_points("n_grid", n_grid, 1, nonempty=True)
    missing = set(truth_by_user) - set(ranked_by_user)
    if missing:
        raise ValueError(f"no ranking for users: {sorted(missing)[:5]}")
    users = sorted(truth_by_user)
    if not users:
        raise ValueError("no users to evaluate")
    ranked = _ranked_table([ranked_by_user[u] for u in users], n_grid[-1])
    return _mean_metrics(ranked, _relevance([truth_by_user[u] for u in users]), n_grid)


def pr_curve(ranked_by_user: dict, truth_by_user: dict, n_grid) -> list[tuple[float, float]]:
    """Mean (precision, recall) across users at each list length in n_grid."""
    precision, recall, _ = ranking_metrics(ranked_by_user, truth_by_user, n_grid)
    return list(zip(precision.values(), recall.values()))


def aggregate_cpd(per_method: dict[str, dict[str, tuple[int, int]]]) -> dict[str, float]:
    """Mean absolute displacement per method, over one shared user set."""
    if not per_method:
        raise ValueError("per_method: no methods to aggregate")
    user_sets = {method: set(results) for method, results in per_method.items()}
    reference = next(iter(user_sets.values()))
    for method, users in user_sets.items():
        if users != reference:
            raise ValueError(f"method {method!r} covers a different user set")
    if not reference:
        raise ValueError("per_method: no users to aggregate")
    return {
        method: float(
            np.mean([abs(truth - pred) for truth, pred in (results[u] for u in sorted(results))])
        )
        for method, results in per_method.items()
    }


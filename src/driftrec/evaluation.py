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

from .hmm import _check_count, _check_points


@functools.lru_cache(maxsize=None)
def _ideal_dcg(L: int, K: int) -> float:
    """Ideal gain of K of L truth items, by sum(): from 3.12 it rounds unlike a running total."""
    return sum((L - j) / math.log2(j + 2) for j in range(K))


def _walk(recommended, truth, n_grid) -> list[tuple[float, float, float]]:
    """(precision, recall, NDCG) at each N of the checked n_grid, from one walk.  A truth
    item counts once; a repeated recommendation is one hit and gains only at its first rank."""
    distinct = dict.fromkeys(int(item) for item in truth)
    L = len(distinct)
    if not L:
        raise ValueError("truth must not be empty")
    relevance = {item: L - j for j, item in enumerate(distinct)}
    found, hits, dcg, gain = set(), [0], [0.0], 0.0
    for rank, item in enumerate(map(int, recommended[: n_grid[-1]]), start=1):
        if item in relevance and item not in found:
            found.add(item)
            gain += relevance[item] / math.log2(rank + 1)
        hits.append(len(found))
        dcg.append(gain)
    at = [min(N, len(hits) - 1) for N in n_grid]
    return [(hits[k] / N, hits[k] / L, dcg[k] / _ideal_dcg(L, min(N, L))) for N, k in zip(n_grid, at)]


def precision_recall_at(recommended, truth, N: int) -> tuple[float, float]:
    """Fraction of the top-N that is held out, and of the held-out found.

    Repeated truth items count once (first occurrence wins), so both
    metrics count the same intersection.
    """
    return _walk(recommended, truth, [_check_count("N", N)])[0][:2]


def ndcg_time_aware(recommended, truth, N: int) -> float:
    """Discounted gain against the time-ordered held-out list, normalized.

    Relevance of the j-th of L truth items is L - j + 1 and zero for
    everything else; a repeated recommendation gains only at its first
    rank, and both the achieved and the ideal gain truncate at N.
    """
    return _walk(recommended, truth, [_check_count("N", N)])[0][2]


def ranking_metrics(ranked_by_user: dict, truth_by_user: dict, n_grid) -> tuple[dict, dict, dict]:
    """Mean precision, recall and NDCG across users, each as {N: mean} over
    n_grid, from one walk per user.  Each mean is np.mean over a contiguous
    row in sorted user order, so it equals the scalar metrics' mean bit for bit."""
    n_grid = _check_points("n_grid", n_grid, 1, nonempty=True)
    missing = set(truth_by_user) - set(ranked_by_user)
    if missing:
        raise ValueError(f"no ranking for users: {sorted(missing)[:5]}")
    users = sorted(truth_by_user)
    if not users:
        raise ValueError("no users to evaluate")
    per_user = np.array([_walk(ranked_by_user[u], truth_by_user[u], n_grid) for u in users])
    rows = np.ascontiguousarray(per_user.transpose(2, 1, 0))  # (metric, N, user)
    return tuple({N: float(np.mean(row)) for N, row in zip(n_grid, at_n)} for at_n in rows)


def pr_curve(ranked_by_user: dict, truth_by_user: dict, n_grid) -> list[tuple[float, float]]:
    """Mean (precision, recall) across users at each list length in n_grid."""
    precision, recall, _ = ranking_metrics(ranked_by_user, truth_by_user, n_grid)
    return list(zip(precision.values(), recall.values()))


def aggregate_cpd(per_method: dict[str, dict[str, tuple[int, int]]]) -> dict[str, float]:
    """Mean absolute displacement per method, over one shared user set."""
    if not per_method:
        raise ValueError("no methods to aggregate")
    user_sets = {method: set(results) for method, results in per_method.items()}
    reference = next(iter(user_sets.values()))
    for method, users in user_sets.items():
        if users != reference:
            raise ValueError(f"method {method!r} covers a different user set")
    if not reference:
        raise ValueError("no users to aggregate")
    return {
        method: float(
            np.mean([abs(truth - pred) for truth, pred in (results[u] for u in sorted(results))])
        )
        for method, results in per_method.items()
    }


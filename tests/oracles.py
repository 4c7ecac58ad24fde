"""Scalar references that the batched library code is checked against: the
per-triple pairwise-ranking loss and gradient behind bpr_fit's level updates,
the per-sequence sliding-window split behind sliding_window_detect_all, the
per-sequence switch scoring behind hmcd_detect_all, and the per-user ranking
walk behind the evaluation module's array metrics."""

import math

import numpy as np

from driftrec.evaluation import _ideal_dcg


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    return float(np.exp(-np.logaddexp(0.0, -x)))


def bpr_triple_loss(p_u, q_i, q_j, regularization: float) -> float:
    """Pairwise ranking loss of one (user, preferred, other) triple."""
    x = float(p_u @ (q_i - q_j))
    penalty = 0.5 * regularization * (p_u @ p_u + q_i @ q_i + q_j @ q_j)
    return float(np.logaddexp(0.0, -x) + penalty)


def bpr_triple_grad(p_u, q_i, q_j, regularization: float):
    """Gradient of bpr_triple_loss with respect to (p_u, q_i, q_j)."""
    x = float(p_u @ (q_i - q_j))
    s = sigmoid(-x)
    g_p = -s * (q_i - q_j) + regularization * p_u
    g_i = -s * p_u + regularization * q_i
    g_j = s * p_u + regularization * q_j
    return g_p, g_i, g_j


def sliding_window_reference(items, item_vectors):
    """The sliding-window split of one sequence from its own distance matrix:
    the reference sliding_window_detect_all's shared table is checked against.

    Distances come from the gram matrix of the sequence's distinct items.
    """
    items = np.asarray(items)
    uniq, inv = np.unique(items, return_inverse=True)
    vecs = np.asarray(item_vectors, dtype=float)[uniq]
    gram = vecs @ vecs.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return best_split(np.sqrt(d2)[np.ix_(inv, inv)])


def best_split(dist):
    """The split of one sequence from its T x T distance matrix: it maximizes
    the mean between-segment distance minus the mean within-segment distance,
    the earliest on a tie, and a sequence whose distances are all zero gives
    (1, True).  Prefix sums run along the rows, then along the columns, as in
    sliding_window_detect_all, so both give the same bits."""
    if dist.max() == 0.0:
        return 1, True
    T = len(dist)
    ps = np.zeros((T + 1, T + 1))
    ps[1:, 1:] = dist.cumsum(axis=0).cumsum(axis=1)
    t = np.arange(1, T)
    left = ps[t, t]
    right = ps[T, T] - ps[t, T] - ps[T, t] + ps[t, t]
    cross = ps[t, T] - ps[t, t]
    n1 = t.astype(float)
    n2 = (T - t).astype(float)
    intra_pairs = n1 * (n1 - 1) / 2 + n2 * (n2 - 1) / 2
    intra_mean = np.divide((left + right) / 2.0, intra_pairs, out=np.zeros_like(n1), where=intra_pairs > 0)
    objective = cross / (n1 * n2) - intra_mean
    return int(t[np.argmax(objective)]), False


def switch_points(model, items, path, k):
    """(predicted, scores) of one decoded path: the steps where the state
    changes, scored by trans[previous, new] * emit[new, item], the k best in
    step order, the earliest step on a score tie."""
    path, items = np.asarray(path), np.asarray(items)
    switches = np.flatnonzero(path[1:] != path[:-1]) + 1
    scores = model.trans[path[switches - 1], path[switches]] * model.emit[path[switches], items[switches]]
    keep = np.sort(np.lexsort((switches, -scores))[:k])
    return switches[keep].tolist(), scores[keep].tolist()


def ranking_walk(recommended, truth, n_grid) -> list[tuple[float, float, float]]:
    """(precision, recall, NDCG) at each N of n_grid for one user, from one walk
    down the list.  A truth item counts once; a repeated recommendation is one
    hit and gains only at its first rank."""
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

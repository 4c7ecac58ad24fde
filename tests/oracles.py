"""Scalar references that the batched library code is checked against: the
per-triple pairwise-ranking loss and gradient behind bpr_fit's level updates,
and the per-sequence sliding-window split behind sliding_window_detect_all."""

import numpy as np


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

    Distances come from the gram matrix of the sequence's distinct items; the
    split maximizes the mean between-segment distance minus the mean
    within-segment distance, the earliest on a tie, and a sequence whose
    distances are all zero gives (1, True).
    """
    items = np.asarray(items)
    T = len(items)
    uniq, inv = np.unique(items, return_inverse=True)
    vecs = np.asarray(item_vectors, dtype=float)[uniq]
    gram = vecs @ vecs.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)[np.ix_(inv, inv)]
    if dist.max() == 0.0:
        return 1, True
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

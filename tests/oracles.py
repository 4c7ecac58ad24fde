"""References that the library code is checked against: the per-triple
pairwise-ranking loss and gradient behind bpr_fit's level updates, the
per-sequence sliding-window split behind sliding_window_detect_all, the
per-sequence switch scoring behind hmcd_detect_all, the per-user ranking
walk behind the evaluation module's array metrics, the E-step on one
(h, cells) array and the all-pairs farthest-point start behind
baum_welch_train, and the neighbor-order table from the stored vectors and
the one-segment scorer behind the recommend module's subnormal-free table
and block scorer, which must give the same bits."""

import math

import numpy as np

from driftrec.evaluation import _ideal_dcg
from driftrec.hmm import _pack_corpus


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


def init_params_reference(corpus, h, m, cfg):
    """hmm._init_params with the farthest-point selection computed from
    every candidate's distance to every chosen one, an (n_cand, chosen, m)
    array per round."""
    rng = np.random.default_rng(cfg.seed)
    pi = np.full(h, 1.0 / h)
    trans = np.full((h, h), 1.0 / h) + 0.25 * rng.dirichlet(np.ones(h), size=h)
    trans /= trans.sum(axis=1, keepdims=True)
    freq = np.bincount(np.concatenate([seq.items for seq in corpus]), minlength=m).astype(float)
    freq /= freq.sum()
    n_cand = max(8, 4 * h)
    cands = np.zeros((n_cand, m))
    for c in range(n_cand):
        items = corpus[int(rng.integers(len(corpus)))].items
        w = min(10, len(items))
        r = int(rng.integers(0, len(items) - w + 1))
        cands[c] = np.bincount(items[r : r + w], minlength=m)
        cands[c] /= cands[c].sum()
    chosen = [0]
    while len(chosen) < h:
        dist = np.linalg.norm(cands[:, None, :] - cands[chosen][None, :, :], axis=2)
        nearest = dist.min(axis=1)
        nearest[chosen] = -np.inf
        chosen.append(int(np.argmax(nearest)))
    emit = cands[chosen] + 0.5 * freq[None, :] + 0.1 * rng.dirichlet(np.ones(m), size=h)
    emit /= emit.sum(axis=1, keepdims=True)
    return pi, trans, emit


def packed_forward(pi, trans, emit, start, obs):
    """The scaled forward recursion on one (h, cells) array in packed cell
    order, each step a strided column range of it: alpha, each cell's scale
    (1 where it is 0) and each sorted sequence's log-likelihood."""
    alpha = np.take(emit, obs, axis=1)
    scale = np.empty(len(obs))
    for t in range(len(start) - 1):
        lo, hi = start[t], start[t + 1]
        a = alpha[:, lo:hi]
        if t == 0:
            a *= pi[:, None]
        else:
            a *= trans.T @ alpha[:, start[t - 1] : start[t - 1] + hi - lo]
        c = a.sum(axis=0)
        scale[lo:hi] = c
        c[c == 0.0] = 1.0
        a /= c
    with np.errstate(divide="ignore"):
        log_scale = np.log(scale)
    log_lik = np.zeros(start[1])
    for t in range(len(start) - 1):
        log_lik[: start[t + 1] - start[t]] += log_scale[start[t] : start[t + 1]]
    scale[scale == 0.0] = 1.0
    return alpha, scale, log_lik


def packed_log_likelihood(model, corpus):
    """total_log_likelihood from packed_forward."""
    order, start, obs = _pack_corpus(corpus, model.num_items)
    log_lik = packed_forward(model.pi, model.trans, model.emit, start, obs)[2]
    return sum(log_lik[np.argsort(order)].tolist())


def packed_baum_welch(corpus, h, cfg, m):
    """baum_welch_train's EM from init_params_reference, with the E-step on
    one (h, cells) array: gamma from packed_forward's alpha, per-step
    emissions gathered afresh for the backward pass, and per-state emission
    bincounts over the packed corpus.  Returns (pi, trans, emit, history)."""
    _, start, obs = _pack_corpus(corpus, m)
    t_max = len(start) - 1
    pi, trans, emit = init_params_reference(corpus, h, m, cfg)
    floor = cfg.emission_floor / m
    history = []
    for _ in range(cfg.max_iters):
        gamma, scale, log_lik = packed_forward(pi, trans, emit, start, obs)
        history.append(float(log_lik.sum()))
        beta = np.ones((h, start[t_max] - start[t_max - 1]))
        xi = np.zeros((h, h))
        for t in range(t_max - 2, -1, -1):
            lo, mid, hi = start[t], start[t + 1], start[t + 2]
            weighted = np.take(emit, obs[mid:hi], axis=1) * beta / scale[mid:hi]
            xi += gamma[:, lo : lo + hi - mid] @ weighted.T
            gamma[:, mid:hi] *= beta
            beta = np.ones((h, mid - lo))
            beta[:, : hi - mid] = trans @ weighted
        gamma[:, : start[1]] *= beta
        pi = gamma[:, : start[1]].sum(axis=1)
        pi /= pi.sum()
        trans_num = trans * xi
        trans_den = trans_num.sum(axis=1)
        safe = trans_den > 0
        trans = np.where(safe[:, None], trans_num / np.where(safe, trans_den, 1.0)[:, None], trans)
        trans /= trans.sum(axis=1, keepdims=True)
        emit_num = np.stack([np.bincount(obs, weights=g, minlength=m) for g in gamma])
        emit = (emit_num + floor) / (emit_num.sum(axis=1) + floor * m)[:, None]
        emit /= emit.sum(axis=1, keepdims=True)
        if len(history) >= 2 and (history[-1] - history[-2]) / max(1.0, abs(history[-2])) < cfg.log_lik_tol:
            break
    return pi, trans, emit, history


def neighbor_order_reference(vectors, width, rows=256):
    """The first `width` columns of the neighbor-order table, from the stored
    vectors: each block of `rows` rows is multiplied by all items in one
    product, as neighbor_order forms it (BLAS's bits depend on the shape),
    and its negated similarities are sorted in full, stably."""
    vectors = np.asarray(vectors, dtype=float)
    blocks = [
        np.argsort(-(vectors[lo : lo + rows] @ vectors.T), axis=1, kind="stable")[:, :width]
        for lo in range(0, len(vectors), rows)
    ]
    return np.concatenate(blocks)


def segment_scores_reference(factors, segment, l):
    """score_by_segment for one segment on its own: each distinct item's
    first l + |U| table columns, its first l neighbors outside the segment
    found by a cumsum, and votes weighted by the item's count."""
    m = len(factors.vectors)
    seg = np.asarray(segment, dtype=np.int64)
    items, counts = np.unique(seg, return_counts=True)
    rows = factors.neighbors(l + len(items))[items]
    member = np.zeros(m, dtype=bool)
    member[items] = True
    keep = ~member[rows]
    keep &= np.cumsum(keep, axis=1) <= l
    votes = np.bincount(rows[keep], weights=np.repeat(counts, keep.sum(axis=1)).astype(float), minlength=m)
    return votes / len(seg)

"""Latent-factor models over binary user-item incidence matrices.

Two fitters share a factor-pair representation: multiplicative-update
nonnegative matrix factorization, and pairwise-ranking matrix
factorization trained by stochastic gradient descent on sampled
(user, positive, negative) triples.  Both are deterministic for a fixed
seed and run single-threaded.

Neither inner loop runs per entry or per triple in Python.  The NMF
objective uses the Gram identity
||M - PQ^T||^2 = ||M||^2 - 2<P, MQ> + <P^T P, Q^T Q>, whose products the
next sweep's updates reuse, so no sweep forms an n x m array.  Pairwise
training applies each epoch's triples one level at a time, a triple's
level being one more than the highest of any earlier triple sharing its
user row or an item row.  A level's triples share no row and triples
sharing a row keep their order, so applying a level at once, with the
same float operations, gives the per-triple loop's factors bit for bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hmm import _check_count, _check_entries, _check_real, _decode_array, _encode_array, _reading

_EPS = 1e-12


@dataclass
class FactorizationConfig:
    """Shared settings for both fitters.

    max_iters counts full update sweeps for multiplicative updates and
    epochs for pairwise training; learning_rate and regularization apply
    to pairwise training only.
    """

    d: int = 40
    max_iters: int = 200
    seed: int = 0
    learning_rate: float = 0.05
    regularization: float = 0.01
    convergence_tol: float = 1e-5

    def __post_init__(self):
        self.d = _check_count("d", self.d)
        self.max_iters = _check_count("max_iters", self.max_iters)
        self.seed = _check_count("seed", self.seed, 0)
        self.learning_rate = _check_real("learning_rate", self.learning_rate, "(0, inf)")
        self.regularization = _check_real("regularization", self.regularization, "[0, inf)")
        self.convergence_tol = _check_real("convergence_tol", self.convergence_tol, "[0, inf]")


@dataclass
class FactorPair:
    """Row factors p (one row per matrix row) and item factors q, both with
    d columns."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.q.ndim != 2 or self.q.shape[1] < 1:
            raise ValueError(f"q must have shape (m, d) with d >= 1, got {self.q.shape}")
        if self.p.ndim != 2 or self.p.shape[1] != self.d:
            raise ValueError(f"p must have shape (n, {self.d}), got {self.p.shape}")
        _check_entries(self.p, nonnegative=False, name="p")
        _check_entries(self.q, nonnegative=False, name="q")

    @property
    def d(self) -> int:
        return self.q.shape[1]


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    return M


def frobenius_objective(M: np.ndarray, pair: FactorPair) -> float:
    """Squared reconstruction error of the factor pair (the reference that
    nmf_fit's Gram-identity objective is tested against)."""
    diff = M - pair.p @ pair.q.T
    return float(np.sum(diff * diff))


def _gram_objective(norm_sq: float, p, Mq, ptp, qtq) -> float:
    """||M - p q^T||^2 as ||M||^2 - 2<p, M q> + <p^T p, q^T q>, from
    products that cost O((n + m) d^2) instead of an n x m reconstruction."""
    return norm_sq - 2.0 * float(np.vdot(p, Mq)) + float(np.vdot(ptp, qtq))


def nmf_fit(M, cfg: FactorizationConfig | None = None, return_history: bool = False):
    """Nonnegative factorization by multiplicative updates.

    Each sweep rescales p then q by the ratio of the reconstruction
    gradient terms, which keeps every entry exactly nonnegative and never
    increases the squared error.  Stops after max_iters sweeps or when the
    relative objective improvement drops below convergence_tol.  Entries
    must be finite and nonnegative.

    With return_history=True, returns (pair, objective per sweep) where
    the first entry is the starting objective.
    """
    cfg = cfg or FactorizationConfig()
    M = _as_matrix(M)
    _check_entries(M, nonnegative=True)
    if not np.any(M):
        raise ValueError("matrix is all zeros")
    n, m = M.shape
    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(M.mean() / cfg.d)
    p = rng.uniform(0.0, 1.0, size=(n, cfg.d)) * scale
    q = rng.uniform(0.0, 1.0, size=(m, cfg.d)) * scale

    # M @ q and q.T @ q enter both the objective after a sweep and the
    # next sweep's p update, which reuses them: the same products of the
    # same operands, so the factors are those of computing them in place.
    norm_sq = float(np.vdot(M, M))
    Mq, qtq = M @ q, q.T @ q
    history = [_gram_objective(norm_sq, p, Mq, p.T @ p, qtq)]
    for _ in range(cfg.max_iters):
        p *= Mq / (p @ qtq + _EPS)
        ptp = p.T @ p
        q *= (M.T @ p) / (q @ ptp + _EPS)
        Mq, qtq = M @ q, q.T @ q
        obj = _gram_objective(norm_sq, p, Mq, ptp, qtq)
        history.append(obj)
        prev = history[-2]
        if prev - obj < cfg.convergence_tol * max(1.0, prev):
            break

    pair = FactorPair(p=p, q=q)
    if return_history:
        return pair, history
    return pair


def _triple_levels(users, items, negs, n: int, m: int) -> np.ndarray:
    """Each triple's level: 1 + the highest level of any earlier triple that shares its
    user row or one of its item rows.  (Inline comparisons: max() doubles the loop's cost.)"""
    user_level, item_level = [0] * n, [0] * m
    levels = []
    for u, i, j in zip(users.tolist(), items.tolist(), negs.tolist()):
        a, b, c = user_level[u], item_level[i], item_level[j]
        level = 1 + (a if a > b and a > c else b if b > c else c)
        user_level[u] = item_level[i] = item_level[j] = level
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def _bpr_chunk(p, q, u, i, j, lr: float, reg: float) -> None:
    """One SGD step for triples that share no row, applied at once.

    Per triple this is the pairwise-ranking gradient step, operation for
    operation: the margin x is a dot product and the logistic weight
    sigmoid(-x) is exp(-logaddexp(0, x)).
    """
    p_u, q_i, q_j = p[u], q[i], q[j]
    diff = q_i - q_j
    x = np.matmul(p_u[:, None, :], diff[:, :, None])[:, :, 0]
    s = np.exp(-np.logaddexp(0.0, x))
    p[u] = p_u - lr * (-s * diff + reg * p_u)
    q[i] = q_i - lr * (-s * p_u + reg * q_i)
    q[j] = q_j - lr * (s * p_u + reg * q_j)


def bpr_fit(M, cfg: FactorizationConfig | None = None) -> FactorPair:
    """Pairwise-ranking factorization trained by stochastic gradient descent.

    Each epoch draws one triple per observed positive: a uniform eligible
    user, one of their positives, and a uniformly resampled item outside
    their positive set.  Users lacking either a positive or a negative
    item cannot form a triple and are skipped, with one warning giving the
    count.  Sampling and update order are fixed by cfg.seed; the updates
    equal those of a per-triple gradient loop, bit for bit.
    Entries must be finite; those > 0 are the positives.
    """
    cfg = cfg or FactorizationConfig()
    M = _as_matrix(M)
    _check_entries(M, nonnegative=False)
    n, m = M.shape
    positive = M > 0
    # row-major nonzeros: each user's positives, ascending, as CSR arrays
    rows, cols = np.nonzero(positive)
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    eligible = np.flatnonzero((counts > 0) & (counts < m))
    skipped = n - len(eligible)
    if skipped:
        warnings.warn(f"skipped {skipped} users lacking a positive/negative item pair")
    if len(eligible) == 0:
        raise ValueError("no user has both a positive and a negative item")

    rng = np.random.default_rng(cfg.seed)
    p = rng.normal(0.0, 0.1, size=(n, cfg.d))
    q = rng.normal(0.0, 0.1, size=(m, cfg.d))
    triples_per_epoch = int(counts[eligible].sum())

    for _ in range(cfg.max_iters):
        users = eligible[rng.integers(0, len(eligible), size=triples_per_epoch)]
        pos_pick = rng.random(triples_per_epoch)
        items = cols[indptr[users] + (pos_pick * counts[users]).astype(np.int64)]
        negs = rng.integers(0, m, size=triples_per_epoch)
        bad = positive[users, negs]
        while bad.any():
            negs[bad] = rng.integers(0, m, size=int(bad.sum()))
            bad[bad] = positive[users[bad], negs[bad]]
        levels = _triple_levels(users, items, negs, n, m)
        # a stable sort keeps each level's triples in their original order
        order = np.argsort(levels, kind="stable")
        users, items, negs = users[order], items[order], negs[order]
        bounds = np.cumsum(np.bincount(levels)).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            _bpr_chunk(p, q, users[a:b], items[a:b], negs[a:b], cfg.learning_rate, cfg.regularization)

    return FactorPair(p=p, q=q)


def save_factors(path: str | Path, pair: FactorPair, meta: dict | None = None) -> None:
    """Write a factor pair as a driftrec-factors-v2 JSON file: p and q each
    stored as its shape and the base64 of its row-major little-endian
    float64 bytes, so loading reproduces them bit-exactly.  Files of the
    earlier v1 format, which stored decimal lists, no longer load."""
    payload = {
        "format": "driftrec-factors-v2",
        "d": pair.d,
        "p": _encode_array(pair.p),
        "q": _encode_array(pair.q),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(payload))


def load_factors(path: str | Path) -> tuple[FactorPair, dict]:
    with _reading(path, "driftrec-factors-v2", "fit") as payload:
        pair = FactorPair(p=_decode_array(payload, "p"), q=_decode_array(payload, "q"))
        if _check_count("d", payload["d"]) != pair.d:
            raise ValueError(f"d: header says {payload['d']}, the arrays hold {pair.d}")
        return pair, payload.get("meta", {})

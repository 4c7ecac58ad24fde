"""Discrete-observation hidden Markov models over item interaction sequences.

A single global model is learned from a corpus of user sequences and then
used for likelihood scoring, state decoding, and downstream change-point
detection.  All probability computations are scaled or carried out in log
space so that sequences of realistic length (~80 interactions) do not
underflow.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_ROW_SUM_TOL = 1e-9


def _check_entries(arr: np.ndarray, nonnegative: bool, name: str = "matrix") -> None:
    """Reject NaN and infinite entries (and negative ones when asked),
    naming the array and its first bad index in row-major order."""
    if not arr.size:
        return
    lo, hi = arr.min(), arr.max()
    if np.isfinite(lo) and np.isfinite(hi) and (lo >= 0 or not nonnegative):
        return
    bad = ~np.isfinite(arr)
    if nonnegative:
        bad |= arr < 0
    index = tuple(int(v) for v in np.argwhere(bad)[0])
    need = "finite and nonnegative" if nonnegative else "finite"
    raise ValueError(f"{name} entry ({', '.join(map(str, index))}) is {arr[index]}; entries must be {need}")


def _check_count(name: str, value, minimum: int = 1) -> int:
    """value as an int: a Python or numpy integer at or above minimum.  A
    bool or a non-integer, which a plain comparison would accept, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {value}")
    return int(value)


def _check_real(name: str, value, interval: str) -> float:
    """value as a float inside interval, written like "(0, 1)" or "[0, inf]".
    NaN, which fails every comparison, and bools are refused."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        v = float(value)
        if (lo < v if interval[0] == "(" else lo <= v) and (v < hi if interval[-1] == ")" else v <= hi):
            return v
    raise ValueError(f"{name}: expected a real number in {interval}, got {value!r}")


def _index_array(values, name, m: int | None = None) -> np.ndarray:
    """values as a 1-D int64 array of item indices in [0, m), or of
    nonnegative ones when m is None.  A ValueError names the field when they
    are not 1-D, hold a value that is not a whole number (which a plain
    integer cast would truncate) or one out of range.  When values joins
    several fields, name(i) gives the field of entry i."""
    field_of = name if callable(name) else lambda _: name
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{field_of(0)} must be a 1-D index array")
    if arr.dtype.kind not in "biu":
        arr = arr.astype(float)
        whole = np.isfinite(arr) & (arr == np.trunc(arr))
        if not whole.all():
            raise ValueError(f"{field_of(int(np.argmin(whole)))} must hold integer indices")
    arr = arr.astype(np.int64, copy=False)
    # read as uint64 a negative index is at least 2**63, so one max checks both ends
    wrapped, limit = arr.view(np.uint64), 2**63 if m is None else m
    if arr.size and wrapped.max() >= limit:
        i = int(np.argmax(wrapped >= limit))
        raise ValueError(f"{field_of(i)} has item {arr[i]}; items must lie in [0, {'inf' if m is None else m})")
    return arr


def _joined(arrays, field_of):
    """arrays joined for one _index_array call, and the name of its entry i:
    field_of(r) for the array r that holds it."""
    ends = np.cumsum([len(a) for a in arrays])
    return np.concatenate(arrays or [[]]), lambda i: field_of(int(np.searchsorted(ends, i, side="right")))


def _check_points(name: str, values, lo: int, hi: float = math.inf, nonempty: bool = False) -> list[int]:
    """values as a list of ints, each checked by _check_count, that ascend
    strictly within [lo, hi] (and are not empty when asked)."""
    try:
        points = [_check_count(f"{name} entry", v, lo) for v in values]
    except TypeError:
        raise ValueError(f"{name}: expected a list of integers, got {values!r}") from None
    if (nonempty and not points) or (points and points[-1] > hi) or any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError(f"{name} {points} must {'be nonempty and ' if nonempty else ''}ascend strictly within [{lo}, {hi}]")
    return points


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Model parameters: initial distribution, state transitions, emissions.

    pi has shape (h,), trans has shape (h, h) with trans[z, z'] the
    probability of moving from state z to z', and emit has shape (h, m)
    with emit[z, i] the probability of observing item i in state z.
    A model is immutable: the arrays are read-only copies of the inputs and
    cannot be rebound, so a model valid once stays valid, and values derived
    from it (its item-state posteriors, say) may be cached per instance;
    instances compare and hash by identity.
    """

    pi: np.ndarray
    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        for name in ("pi", "trans", "emit"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.pi.ndim != 1 or len(self.pi) < 1:
            raise ValueError("pi must be a non-empty 1-D probability vector")
        h = len(self.pi)
        if self.trans.shape != (h, h):
            raise ValueError(f"trans must have shape ({h}, {h}), got {self.trans.shape}")
        if self.emit.ndim != 2 or self.emit.shape[0] != h or self.emit.shape[1] < 1:
            raise ValueError(f"emit must have shape ({h}, m), got {self.emit.shape}")
        for name, arr in (("pi", self.pi), ("trans", self.trans), ("emit", self.emit)):
            _check_entries(arr, nonnegative=True, name=name)
        if abs(self.pi.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError("pi does not sum to 1")
        for name, arr in (("trans", self.trans), ("emit", self.emit)):
            if np.any(np.abs(arr.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
                raise ValueError(f"{name} has a row that does not sum to 1")

    @property
    def num_states(self) -> int:
        return self.pi.shape[0]

    @property
    def num_items(self) -> int:
        return self.emit.shape[1]

    @functools.cached_property
    def log_tables(self) -> tuple[np.ndarray, ...]:
        """log(pi), log(trans), log(trans).T and log(emit).T, the transposes
        contiguous, all read-only; computed on first use and kept, which
        the frozen arrays allow.  Row i of log(emit).T holds every state's
        log probability of emitting item i."""
        with np.errstate(divide="ignore"):
            log_trans = np.log(self.trans)
            tables = (np.log(self.pi), log_trans, log_trans.T.copy(), np.log(self.emit).T.copy())
        for table in tables:
            table.setflags(write=False)
        return tables

    def __reduce__(self):
        # unpickled through the constructor, so a model sent between processes stays read-only
        return HmmModel, (self.pi, self.trans, self.emit)


@dataclass
class InteractionSequence:
    """One user's time-ordered item indices, with optional known change index.

    truth_change, when present, is the index of the first item after the
    change, so it splits items into items[:truth_change] and
    items[truth_change:].
    """

    user_id: str
    items: np.ndarray
    truth_change: int | None = None

    def __post_init__(self):
        self.items = _index_array(self.items, "items")
        if len(self.items) < 1:
            raise ValueError("items must be a non-empty 1-D index array")
        if self.truth_change is not None:
            t = _check_count("truth_change", self.truth_change)
            if t >= len(self.items):
                raise ValueError(f"truth_change {t} outside [1, {len(self.items)}) for user {self.user_id}")
            self.truth_change = t

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class DecodedPath:
    """Most likely state path and the log joint probability it achieves."""

    states: np.ndarray
    log_joint: float


@dataclass
class TrainConfig:
    """Baum-Welch settings: iteration budget, stopping rule, init seed, smoothing."""

    max_iters: int = 100
    log_lik_tol: float = 1e-5
    seed: int = 0
    emission_floor: float = 1e-6

    def __post_init__(self):
        self.max_iters = _check_count("max_iters", self.max_iters)
        self.seed = _check_count("seed", self.seed, 0)
        self.log_lik_tol = _check_real("log_lik_tol", self.log_lik_tol, "[0, inf]")
        self.emission_floor = _check_real("emission_floor", self.emission_floor, "(0, inf)")


def viterbi_decode(model: HmmModel, seq: InteractionSequence) -> DecodedPath:
    """Most likely hidden state path for the observed sequence.

    viterbi_decode_all's result for a corpus of one, which it decodes with
    its one-sequence recursion: ties are broken toward the lowest state
    index, and ValueError is raised if every path has probability zero.
    """
    return viterbi_decode_all(model, [seq])[0]


def viterbi_decode_all(
    model: HmmModel, corpus: list[InteractionSequence]
) -> list[DecodedPath]:
    """Most likely hidden state path of every sequence, in corpus order.

    A log-space Viterbi recursion (Rabiner, 1989).  A corpus of one runs
    a one-sequence recursion.  A larger corpus runs one recursion over the
    packed, length-sorted corpus: step t keeps each live cell's best score
    and its first-index argmax as a running maximum over the predecessor
    states, on (cells, h) arrays, and then every sequence's backpointers
    are walked back together, one vector step per time index.  Both read
    HmmModel.log_tables and make the same floating-point additions, and
    ties are broken toward the lowest state index, both in the per-step
    backpointers and in the final state, so decoding is deterministic and
    each path is bit for bit the one a corpus of one gives.  Raises
    ValueError naming the first sequence, in corpus order, whose every
    path has probability zero.
    """
    states, bounds, log_joint = _decode_all(model, corpus)
    bounds = bounds.tolist()
    return [DecodedPath(states=states[a:b], log_joint=v) for a, b, v in zip(bounds, bounds[1:], log_joint)]


def _decode_all(model: HmmModel, corpus: list[InteractionSequence]) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """viterbi_decode_all's paths joined in corpus order into one int64
    array; the bounds of the paths in it, sequence r's path being
    states[bounds[r]:bounds[r + 1]]; and each sequence's log_joint."""
    if len(corpus) == 1:
        states, log_joint = _viterbi_one(model, corpus[0])
        return states, np.array([0, len(states)]), [log_joint]
    if not corpus:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), []
    order, start, obs = _pack_corpus(corpus, model.num_items)
    h = model.num_states
    log_pi, log_trans, _, log_emit_t = model.log_tables

    # delta[c, j]: best log prob of a path ending in state j at cell c
    delta = log_emit_t[obs]
    delta[: start[1]] += log_pi
    back = np.zeros(delta.shape, dtype=np.min_scalar_type(h - 1))
    bounds = start.tolist()
    best, score = np.empty((2, len(corpus), h))
    better = np.empty((len(corpus), h), dtype=bool)
    add, greater, maximum, copyto = np.add, np.greater, np.maximum, np.copyto
    for t in range(1, len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        # a cell's predecessor is the cell of its sequence one step back
        prev = delta[bounds[t - 1] : bounds[t - 1] + hi - lo]
        b, s, w, arg = best[: hi - lo], score[: hi - lo], better[: hi - lo], back[lo:hi]
        # b[c, j]: best log prob ending in j after transitioning from one of
        # states 0..i; only a strictly greater score moves the argmax to i
        add(prev[:, :1], log_trans[0], b)
        for i in range(1, h):
            add(prev[:, i : i + 1], log_trans[i], s)
            greater(s, b, w)
            copyto(arg, i, where=w)
            maximum(b, s, out=b)
        delta[lo:hi] += b

    lengths = np.array([len(seq) for seq in corpus], dtype=np.int64)
    last = delta[start[lengths[order] - 1] + np.arange(len(corpus))]  # each sorted sequence's last cell
    state = last.argmax(axis=1)
    log_joint = np.empty(len(corpus))
    log_joint[order] = np.maximum.reduce(last, axis=1)
    if -math.inf in log_joint:
        bad = int(np.argmax(log_joint == -math.inf))
        raise ValueError(f"sequence {corpus[bad].user_id!r} inconsistent with model")

    # walk every sequence's backpointers back together: sorted sequence j's
    # state at step t lands at offset[j] + t of the corpus-order output
    corpus_bounds = np.concatenate([[0], np.cumsum(lengths)])
    offset = corpus_bounds[order]
    states = np.empty(len(obs), dtype=np.int64)
    pointers = back.reshape(-1)
    rows = np.arange(0, len(corpus) * h, h)
    for t in range(len(bounds) - 2, 0, -1):
        lo, hi = bounds[t], bounds[t + 1]
        live = state[: hi - lo]
        states[offset[: hi - lo] + t] = live
        live[:] = pointers[lo * h : hi * h].take(rows[: hi - lo] + live)
    states[offset] = state
    return states, corpus_bounds, log_joint.tolist()


def _viterbi_one(model: HmmModel, seq: InteractionSequence) -> tuple[np.ndarray, float]:
    """viterbi_decode_all's recursion for one sequence, a step at a time:
    its state path and log_joint.

    Each step makes the batch loop's additions, laid out over the
    transposed log(trans), and takes the same first-index argmax; the
    step's best score is read at that argmax, which is the maximum itself."""
    items = _index_array(seq.items, f"sequence {seq.user_id!r}", model.num_items)
    log_pi, _, log_trans_t, log_emit_t = model.log_tables
    h = model.num_states
    emitted = log_emit_t[items]
    back = np.empty((len(items), h), dtype=np.intp)
    # scores[j, i]: best log prob ending in j after transitioning from i
    scores = np.empty((h, h))
    row_starts = np.arange(0, h * h, h)
    best = np.empty(h, dtype=np.intp)
    delta = emitted[0] + log_pi
    add, argmax, take = np.add, scores.argmax, scores.reshape(-1).take
    for back_t, emission in zip(back[1:], emitted[1:]):
        add(delta, log_trans_t, scores)
        argmax(1, back_t)
        add(back_t, row_starts, best)
        take(best, out=delta)
        add(delta, emission, delta)
    state = int(delta.argmax())
    log_joint = float(delta[state])
    if log_joint == -math.inf:
        raise ValueError(f"sequence {seq.user_id!r} inconsistent with model")

    pointers = memoryview(back.reshape(-1))
    states = [state]
    for offset in range((len(items) - 1) * h, 0, -h):
        state = pointers[offset + state]
        states.append(state)
    states.reverse()
    return np.array(states, dtype=np.int64), log_joint


def _init_params(corpus, h, m, cfg):
    """Seeded starting point: uniform pi, near-uniform transitions, and
    per-state emission prototypes taken from short windows of the corpus.

    Random contiguous windows tend to be dominated by one latent regime, so
    seeding each state from a different window gives EM clearly separated
    emission profiles.  Candidates are drawn at random and thinned by
    farthest-point selection, which keeps the prototypes mutually distant;
    without this, near-identical starting states sit on a symmetric saddle
    that the likelihood climb escapes only very slowly, if at all.  Global
    item frequencies plus Dirichlet noise are blended in so every item
    starts with positive probability in every state.
    """
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
    # nearest[c]: candidate c's distance to the closest chosen one, -inf once chosen
    chosen, nearest = [0], np.full(n_cand, np.inf)
    while len(chosen) < h:
        np.minimum(nearest, np.linalg.norm(cands - cands[chosen[-1]], axis=1), out=nearest)
        nearest[chosen[-1]] = -np.inf
        chosen.append(int(np.argmax(nearest)))
    emit = cands[chosen] + 0.5 * freq[None, :] + 0.1 * rng.dirichlet(np.ones(m), size=h)
    emit /= emit.sum(axis=1, keepdims=True)
    return pi, trans, emit


def _pack_corpus(corpus, m):
    """Store a corpus time-major, without padding.

    Sequences are sorted by length, descending and stable; order[j] is the
    corpus index of sorted sequence j.  Step t's live cells are
    obs[start[t]:start[t + 1]], one per sorted sequence still running at t,
    so each step's live set is a prefix of the previous step's.
    """
    _index_array(*_joined([seq.items for seq in corpus], lambda r: f"sequence {corpus[r].user_id!r}"), m)
    lengths = np.array([len(seq) for seq in corpus], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    live = len(corpus) - np.cumsum(np.bincount(lengths))[:-1]  # sequences longer than t
    start = np.concatenate([[0], np.cumsum(live)])
    obs = np.empty(start[-1], dtype=np.int64)
    for j, i in enumerate(order.tolist()):
        obs[start[: lengths[i]] + j] = corpus[i].items
    return order, start, obs


def _block_views(buf, start, h):
    """Each step's live (h, n_t) view of a flat buffer in the E-step's
    block layout.

    Step t's n_t = start[t + 1] - start[t] live cells take a contiguous
    (h, max(n_t, 2)) block, blocks in step order, and the view is its first
    n_t columns, so the recursions run on contiguous arrays rather than on
    strided column ranges of one (h, cells) array.  A step with one live
    cell keeps a second, unused column, so the (h, 1) operand that the next
    step hands to matmul stays strided, as a column of an (h, cells) array
    is: matmul passes an (h, 1) operand to gemv, which gives other bits for
    a contiguous vector.
    """
    views, at = [], 0
    for n in np.diff(start).tolist():
        w = max(n, 2)
        views.append(buf[at : at + h * w].reshape(h, w)[:, :n])
        at += h * w
    return views


def _emission_keys(start, obs, h, m):
    """The flat int64 key array of a packed corpus in _block_views' layout:
    live entry (z, j) of step t's block has key z * m + obs[start[t] + j],
    the index of emit[z, item] in emit.ravel(), and an unused column has
    key h * m."""
    keys = np.full(h * int(np.maximum(np.diff(start), 2).sum()), h * m)
    rows = m * np.arange(h)[:, None]
    for t, k in enumerate(_block_views(keys, start, h)):
        np.add(rows, obs[start[t] : start[t + 1]], out=k)
    return keys


def _forward(pi, trans, alpha, start):
    """Scaled forward recursion (Rabiner, 1989) over a packed corpus.

    alpha holds _block_views' view of each step and enters holding every
    state's probability of emitting each live cell's item; it is turned in
    place into the forward variables, every cell normalized to sum to 1.
    Returns the scale of each cell and each sorted sequence's
    log-likelihood, -inf when it has zero probability.  From the step where
    a sequence's probability vanishes, its alpha is zero and its scales are
    1, so it adds nothing to expected counts.
    """
    bounds = start.tolist()
    scale = np.empty(bounds[-1])
    for t, a in enumerate(alpha):
        lo, hi = bounds[t], bounds[t + 1]
        a *= pi[:, None] if t == 0 else trans.T @ alpha[t - 1][:, : hi - lo]
        c = a.sum(axis=0)
        scale[lo:hi] = c
        c[c == 0.0] = 1.0
        a /= c
    with np.errstate(divide="ignore"):
        log_scale = np.log(scale)
    log_lik = np.zeros(bounds[1])
    for lo, hi in zip(bounds, bounds[1:]):
        log_lik[: hi - lo] += log_scale[lo:hi]
    scale[scale == 0.0] = 1.0
    return scale, log_lik


def baum_welch_train(
    corpus: list[InteractionSequence],
    h: int,
    cfg: TrainConfig | None = None,
    num_items: int | None = None,
    return_history: bool = False,
):
    """Learn model parameters from a corpus by expectation-maximization.

    The E-step runs the scaled forward-backward recursions batched across
    all sequences of a packed, length-sorted corpus that stores no padding,
    with sums accumulated in a fixed order so training is bit-reproducible.
    It keeps each step's cells as one contiguous block of a flat buffer
    (see _block_views), allocated once per call and refilled in place
    every iteration, and re-gathers a step's emissions for the backward
    pass from the same keys that fill the buffer and bin the M-step's
    emission counts.
    A small emission pseudo-count keeps every emission probability strictly
    positive.

    With return_history=True, returns (model, history).  history[i] is the
    corpus log-likelihood of the parameters before update i + 1, so it lags
    the returned model by one update; score that model with
    total_log_likelihood.  The history is non-decreasing up to
    floating-point slack.
    """
    if not corpus:
        raise ValueError("corpus must not be empty")
    _check_count("h", h)
    cfg = cfg or TrainConfig()
    m = _check_count("num_items", num_items) if num_items is not None else int(max(seq.items.max() for seq in corpus)) + 1
    _, start, obs = _pack_corpus(corpus, m)
    t_max = len(start) - 1
    pi, trans, emit = _init_params(corpus, h, m, cfg)
    floor = cfg.emission_floor / m

    # the flat buffer holds each iteration's emissions, then alpha, then gamma
    keys = _emission_keys(start, obs, h, m)
    gamma = np.empty(len(keys))
    alpha, key_blocks = _block_views(gamma, start, h), _block_views(keys, start, h)
    weighted_buf, beta_buf = np.empty((2, h * start[1]))
    bounds = start.tolist()
    history: list[float] = []
    for _ in range(cfg.max_iters):
        emit.take(keys, out=gamma, mode="clip")
        scale, log_lik = _forward(pi, trans, alpha, start)
        history.append(float(log_lik.sum()))

        # backward pass with the same scaling constants, keeping beta for one
        # step: it adds step t's expected transitions and turns alpha into gamma
        beta = beta_buf[: h * (bounds[t_max] - bounds[t_max - 1])].reshape(h, -1)
        beta[...] = 1.0
        xi = np.zeros((h, h))
        for t in range(t_max - 2, -1, -1):
            lo, mid, hi = bounds[t], bounds[t + 1], bounds[t + 2]
            weighted = weighted_buf[: h * (hi - mid)].reshape(h, hi - mid)
            emit.take(key_blocks[t + 1], out=weighted, mode="clip")
            weighted *= beta
            weighted /= scale[mid:hi]
            xi += alpha[t][:, : hi - mid] @ weighted.T
            alpha[t + 1] *= beta
            # step t's beta: 1 where a sequence ends at t
            beta = beta_buf[: h * (mid - lo)].reshape(h, mid - lo)
            beta[:, hi - mid :] = 1.0
            beta[:, : hi - mid] = trans @ weighted
        alpha[0] *= beta

        pi = alpha[0].sum(axis=1)
        pi /= pi.sum()
        trans_num = trans * xi
        # row sums of the expected transition counts are the state occupancies
        # at steps with a successor; rows with no evidence keep their values
        trans_den = trans_num.sum(axis=1)
        safe = trans_den > 0
        trans = np.where(
            safe[:, None], trans_num / np.where(safe, trans_den, 1.0)[:, None], trans
        )
        trans /= trans.sum(axis=1, keepdims=True)
        # each (state, item) bin adds its cells' gamma in packed cell order, as
        # per-state bincounts over the packed corpus do; unused columns go to bin h * m
        emit_num = np.bincount(keys, weights=gamma, minlength=h * m + 1)[: h * m].reshape(h, m)
        emit = (emit_num + floor) / (emit_num.sum(axis=1) + floor * m)[:, None]
        emit /= emit.sum(axis=1, keepdims=True)

        if len(history) >= 2:
            prev = history[-2]
            if (history[-1] - prev) / max(1.0, abs(prev)) < cfg.log_lik_tol:
                break

    model = HmmModel(pi=pi, trans=trans, emit=emit)
    if return_history:
        return model, history
    return model


def total_log_likelihood(model: HmmModel, corpus: list[InteractionSequence]) -> float:
    """Corpus log-likelihood: each sequence's from one batched forward pass,
    summed in corpus order; -inf if any sequence has zero probability."""
    if not corpus:
        return 0.0
    order, start, obs = _pack_corpus(corpus, model.num_items)
    h = model.num_states
    alpha = _block_views(model.emit.take(_emission_keys(start, obs, h, model.num_items), mode="clip"), start, h)
    log_lik = _forward(model.pi, model.trans, alpha, start)[1]
    return sum(log_lik[np.argsort(order)].tolist())


def save_model(
    path: str | Path,
    model: HmmModel,
    train_config: TrainConfig | None = None,
    meta: dict | None = None,
) -> None:
    """Write the model (and the training settings that produced it) as a
    driftrec-hmm-v2 JSON file.

    Each of pi, trans and emit is stored as its shape and the base64 of its
    row-major little-endian float64 bytes, so loading reproduces the
    parameter arrays bit-exactly.  meta may carry provenance (run seed,
    config hash); it is stored but not interpreted.  Files of the earlier
    v1 format, which stored the arrays as decimal lists, no longer load.
    """
    payload = {
        "format": "driftrec-hmm-v2",
        "num_states": model.num_states,
        "num_items": model.num_items,
        "pi": _encode_array(model.pi),
        "trans": _encode_array(model.trans),
        "emit": _encode_array(model.emit),
        "train_config": None if train_config is None else dataclasses.asdict(train_config),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(payload))


def _encode_array(arr: np.ndarray) -> dict:
    """arr as {"shape": [...], "data": base64 of its row-major little-endian
    float64 bytes}, the array form of the v2 model and factor files."""
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode_array(payload: dict, name: str) -> np.ndarray:
    """The writable float64 array that _encode_array stored as payload[name].
    A missing or malformed shape, data that is not base64, or a byte count
    other than 8 per entry raises a ValueError naming the field."""
    stored = payload[name]
    if not isinstance(stored, dict) or "shape" not in stored or "data" not in stored:
        raise ValueError(f"{name}: expected an object with fields 'shape' and 'data'")
    shape = stored["shape"]
    if not isinstance(shape, list):
        raise ValueError(f"{name}: shape must be a list of integers, got {shape!r}")
    shape = [_check_count(f"{name} shape entry", n, 0) for n in shape]
    try:
        raw = base64.b64decode(stored["data"], validate=True)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: data is not base64 text") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{name}: data holds {len(raw)} bytes; shape {shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


@contextlib.contextmanager
def _reading(path, fmt: str, stage: str):
    """The JSON payload of a fmt file, which the pipeline's stage writes.  A
    defect met while reading it raises a ValueError naming the file, and the
    field when one is missing; a file of another format or version names the
    format found and the stage that rewrites it."""
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"not a {fmt} file")
        if payload.get("format") != fmt:
            raise ValueError(f"format is {payload.get('format')!r}, not {fmt!r}; rerun the {stage} stage to rewrite it")
        yield payload
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_model(path: str | Path) -> tuple[HmmModel, TrainConfig | None]:
    with _reading(path, "driftrec-hmm-v2", "train") as payload:
        model = HmmModel(*(_decode_array(payload, name) for name in ("pi", "trans", "emit")))
        for name in ("num_states", "num_items"):
            if _check_count(name, payload[name]) != getattr(model, name):
                raise ValueError(f"{name}: header says {payload[name]}, the arrays hold {getattr(model, name)}")
        cfg = payload.get("train_config")
        return model, None if cfg is None else TrainConfig(**cfg)

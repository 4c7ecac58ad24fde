"""Discrete-observation hidden Markov models over item interaction sequences.

A single global model is learned from a corpus of user sequences and then
used for likelihood scoring, state decoding, and downstream change-point
detection.  All probability computations are scaled or carried out in log
space so that sequences of realistic length (~80 interactions) do not
underflow.
"""

from __future__ import annotations

import contextlib
import dataclasses
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


@dataclass(eq=False)
class HmmModel:
    """Model parameters: initial distribution, state transitions, emissions.

    pi has shape (h,), trans has shape (h, h) with trans[z, z'] the
    probability of moving from state z to z', and emit has shape (h, m)
    with emit[z, i] the probability of observing item i in state z.
    The arrays are read-only copies of the inputs, so values derived from
    a model (its item-state posteriors, say) may be cached per instance;
    instances compare and hash by identity.
    """

    pi: np.ndarray
    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        self.pi = np.array(self.pi, dtype=float)
        self.trans = np.array(self.trans, dtype=float)
        self.emit = np.array(self.emit, dtype=float)
        h = self.pi.shape[0]
        if self.pi.ndim != 1 or h < 1:
            raise ValueError("pi must be a non-empty 1-D probability vector")
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
        for arr in (self.pi, self.trans, self.emit):
            arr.setflags(write=False)

    @property
    def num_states(self) -> int:
        return self.pi.shape[0]

    @property
    def num_items(self) -> int:
        return self.emit.shape[1]


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
        self.items = np.asarray(self.items, dtype=np.int64)
        if self.items.ndim != 1 or len(self.items) < 1:
            raise ValueError("items must be a non-empty 1-D index array")
        if np.any(self.items < 0):
            raise ValueError("item indices must be nonnegative")
        if self.truth_change is not None:
            t = int(self.truth_change)
            if not 1 <= t < len(self.items):
                raise ValueError(
                    f"truth_change {t} outside [1, {len(self.items)}) for user {self.user_id}"
                )
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.log_lik_tol < 0:
            raise ValueError("log_lik_tol must be >= 0")
        if self.emission_floor <= 0:
            raise ValueError("emission_floor must be > 0")


def _check_items(seq: InteractionSequence, m: int) -> np.ndarray:
    items = seq.items
    if items.max(initial=-1) >= m:
        raise ValueError(
            f"sequence {seq.user_id!r} contains item index {int(items.max())} "
            f">= model item count {m}"
        )
    return items


def forward_log_likelihood(model: HmmModel, seq: InteractionSequence) -> float:
    """Log probability of the observed sequence under the model.

    The scaled forward recursion on a corpus of one; returns -inf if the
    sequence has zero probability (an impossible observation under the
    model).
    """
    return total_log_likelihood(model, [seq])


def viterbi_decode(model: HmmModel, seq: InteractionSequence) -> DecodedPath:
    """Most likely hidden state path for the observed sequence.

    A batch of one for viterbi_decode_all: ties are broken toward the
    lowest state index, and ValueError is raised if every path has
    probability zero.
    """
    return viterbi_decode_all(model, [seq])[0]


def viterbi_decode_all(
    model: HmmModel, corpus: list[InteractionSequence]
) -> list[DecodedPath]:
    """Most likely hidden state path of every sequence, in corpus order.

    One log-space Viterbi recursion (Rabiner, 1989) runs over the packed,
    length-sorted corpus.  Ties are broken toward the lowest state index,
    both in the per-step backpointers and in the final state, so decoding
    is deterministic and each path is the one a corpus of one would give.
    Raises ValueError naming the first sequence, in corpus order, whose
    every path has probability zero.
    """
    if not corpus:
        return []
    order, start, obs = _pack_corpus(corpus, model.num_items)
    h = model.num_states
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_trans = np.log(model.trans)
        log_emit = np.log(model.emit)

    # delta[c, j]: best log prob of a path ending in state j at cell c
    delta = log_emit.T[obs]
    delta[: start[1]] += log_pi
    back = np.zeros(delta.shape, dtype=np.min_scalar_type(h - 1))
    # at most `block` cells per scores buffer, which bounds it to 8 MB
    block = max(1, 2**20 // (h * h))
    bounds = start.tolist()
    columns = delta[:, :, None]
    for t in range(1, len(bounds) - 1):
        shift = bounds[t] - bounds[t - 1]  # a cell's predecessor is `shift` cells back
        for lo in range(bounds[t], bounds[t + 1], block):
            hi = min(lo + block, bounds[t + 1])
            # scores[c, i, j]: best log prob ending in j after transitioning from i
            scores = columns[lo - shift : hi - shift] + log_trans
            back[lo:hi] = scores.argmax(axis=1)
            delta[lo:hi] += np.maximum.reduce(scores, axis=1)

    order = order.tolist()
    lengths = [len(corpus[i]) for i in order]
    ends = delta[[bounds[n - 1] + j for j, n in enumerate(lengths)]]
    finals = ends.argmax(axis=1).tolist()
    log_joint = np.maximum.reduce(ends, axis=1).tolist()
    if -math.inf in log_joint:
        bad = min(i for i, v in zip(order, log_joint) if v == -math.inf)
        raise ValueError(f"sequence {corpus[bad].user_id!r} inconsistent with model")

    # walk each sequence's backpointers back from its final state
    pointers = memoryview(back.reshape(-1))
    offsets = [b * h for b in bounds]
    paths = [None] * len(corpus)
    for j, (i, state, length) in enumerate(zip(order, finals, lengths)):
        states = [state]
        for t in range(length - 1, 0, -1):
            state = pointers[offsets[t] + j * h + state]
            states.append(state)
        states.reverse()
        paths[i] = DecodedPath(states=np.array(states, dtype=np.int64), log_joint=log_joint[j])
    return paths


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
    chosen = [0]
    while len(chosen) < h:
        dist = np.linalg.norm(cands[:, None, :] - cands[chosen][None, :, :], axis=2)
        nearest = dist.min(axis=1)
        nearest[chosen] = -np.inf
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
    lengths = np.array([len(_check_items(seq, m)) for seq in corpus], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    live = len(corpus) - np.cumsum(np.bincount(lengths))[:-1]  # sequences longer than t
    start = np.concatenate([[0], np.cumsum(live)])
    obs = np.empty(start[-1], dtype=np.int64)
    for j, i in enumerate(order.tolist()):
        obs[start[: lengths[i]] + j] = corpus[i].items
    return order, start, obs


def _forward(pi, trans, emit, start, obs):
    """Scaled forward recursion (Rabiner, 1989) over a packed corpus.

    Returns alpha, shape (h, cells), with every cell normalized to sum to
    1; the scale of each cell; and each sorted sequence's log-likelihood,
    -inf when it has zero probability.  From the step where a sequence's
    probability vanishes, its alpha is zero and its scales are 1, so it
    adds nothing to expected counts.
    """
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
    if h < 1:
        raise ValueError("h must be >= 1")
    cfg = cfg or TrainConfig()
    m = num_items if num_items is not None else int(max(seq.items.max() for seq in corpus)) + 1
    _, start, obs = _pack_corpus(corpus, m)
    t_max = len(start) - 1
    pi, trans, emit = _init_params(corpus, h, m, cfg)
    floor = cfg.emission_floor / m

    history: list[float] = []
    for _ in range(cfg.max_iters):
        gamma, scale, log_lik = _forward(pi, trans, emit, start, obs)
        history.append(float(log_lik.sum()))

        # backward pass with the same scaling constants, keeping beta for one
        # step: it adds step t's expected transitions and turns alpha into gamma
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
        # row sums of the expected transition counts are the state occupancies
        # at steps with a successor; rows with no evidence keep their values
        trans_den = trans_num.sum(axis=1)
        safe = trans_den > 0
        trans = np.where(
            safe[:, None], trans_num / np.where(safe, trans_den, 1.0)[:, None], trans
        )
        trans /= trans.sum(axis=1, keepdims=True)
        emit_num = np.stack([np.bincount(obs, weights=g, minlength=m) for g in gamma])
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
    log_lik = _forward(model.pi, model.trans, model.emit, start, obs)[2]
    return sum(log_lik[np.argsort(order)].tolist())


def save_model(
    path: str | Path,
    model: HmmModel,
    train_config: TrainConfig | None = None,
    meta: dict | None = None,
) -> None:
    """Write the model (and the training settings that produced it) as JSON.

    Floats are serialized with Python's shortest round-trip representation,
    so loading reproduces the parameter arrays bit-exactly.  meta may carry
    provenance (run seed, config hash); it is stored but not interpreted.
    """
    payload = {
        "format": "driftrec-hmm-v1",
        "num_states": model.num_states,
        "num_items": model.num_items,
        "pi": model.pi.tolist(),
        "trans": model.trans.tolist(),
        "emit": model.emit.tolist(),
        "train_config": None if train_config is None else dataclasses.asdict(train_config),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(payload))


@contextlib.contextmanager
def _reading(path, fmt: str):
    """The JSON payload of a fmt file.  A defect met while reading it raises
    a ValueError naming the file, and the field when one is missing."""
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict) or payload.get("format") != fmt:
            raise ValueError(f"not a {fmt} file")
        yield payload
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_model(path: str | Path) -> tuple[HmmModel, TrainConfig | None]:
    with _reading(path, "driftrec-hmm-v1") as payload:
        model = HmmModel(pi=payload["pi"], trans=payload["trans"], emit=payload["emit"])
        cfg = payload.get("train_config")
        return model, None if cfg is None else TrainConfig(**cfg)

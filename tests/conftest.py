import contextlib
import itertools
import json
from pathlib import Path

import numpy as np

from driftrec.hmm import HmmModel, _decode_array, _encode_array


def data_rows(path):
    """The tab-split cells of every data row of a stage table, skipping
    blank lines and '#' lines (the header, the column names, a verdict)."""
    return [line.split("\t") for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]


@contextlib.contextmanager
def arrays_as_lists(path):
    """The payload of the model or factor file at path, its stored arrays
    decoded to nested lists for a test to edit in place; on exit the arrays
    are encoded again and the file rewritten."""
    path = Path(path)
    payload = json.loads(path.read_text())
    names = [name for name in ("pi", "trans", "emit", "p", "q") if name in payload]
    for name in names:
        payload[name] = _decode_array(payload, name).tolist()
    yield payload
    for name in names:
        payload[name] = _encode_array(np.array(payload[name], dtype=float))
    path.write_text(json.dumps(payload))


def random_model(rng, h, m):
    """Random valid model with strictly positive parameters."""
    pi = rng.dirichlet(np.ones(h))
    trans = rng.dirichlet(np.ones(h), size=h)
    emit = rng.dirichlet(np.ones(m), size=h)
    return HmmModel(pi=pi, trans=trans, emit=emit)


def enumerate_path_probs(model, items):
    """Joint probability of every state path, by direct multiplication.

    Exponential in len(items); intended as the oracle for small instances.
    Yields (path, probability) pairs in lexicographic path order.
    """
    h = model.num_states
    for path in itertools.product(range(h), repeat=len(items)):
        p = model.pi[path[0]] * model.emit[path[0], items[0]]
        for t in range(1, len(items)):
            p *= model.trans[path[t - 1], path[t]] * model.emit[path[t], items[t]]
        yield path, p


def brute_force_likelihood(model, items):
    return sum(p for _, p in enumerate_path_probs(model, items))


def brute_force_best_path(model, items):
    """(best_path, best_prob) by exhaustive argmax, first-in-lex-order on ties."""
    best_path, best_p = None, -1.0
    for path, p in enumerate_path_probs(model, items):
        if p > best_p:
            best_path, best_p = path, p
    return best_path, best_p


def two_state_disjoint_model(m_low, m_high, stay=0.95):
    """Two states with disjoint uniform emission supports: state 0 emits
    [0, m_low), state 1 emits [m_low, m_low + m_high)."""
    m = m_low + m_high
    emit = np.zeros((2, m))
    emit[0, :m_low] = 1.0 / m_low
    emit[1, m_low:] = 1.0 / m_high
    trans = np.array([[stay, 1 - stay], [1 - stay, stay]])
    return HmmModel(pi=np.array([0.5, 0.5]), trans=trans, emit=emit)

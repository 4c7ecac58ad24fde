import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from driftrec import factorization
from driftrec.changepoint import build_segmented_matrix
from driftrec.factorization import (
    FactorizationConfig,
    FactorPair,
    _triple_levels,
    bpr_fit,
    frobenius_objective,
    load_factors,
    nmf_fit,
    save_factors,
)

from conftest import arrays_as_lists
from oracles import bpr_triple_grad, bpr_triple_loss, sigmoid


def training_auc(M, pair):
    """Exhaustive positive/negative pair enumeration, ties count as losses."""
    scores = pair.p @ pair.q.T
    per_user = []
    for u in range(M.shape[0]):
        pos = np.flatnonzero(M[u] > 0)
        neg = np.flatnonzero(M[u] == 0)
        if len(pos) == 0 or len(neg) == 0:
            continue
        wins = scores[u][pos][:, None] > scores[u][neg][None, :]
        per_user.append(wins.mean())
    return float(np.mean(per_user))


def reference_nmf_fit(M, cfg):
    """The sweep loop with the objective taken as the dense reconstruction
    error, recomputed after every sweep."""
    n, m = M.shape
    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(M.mean() / cfg.d)
    p = rng.uniform(0.0, 1.0, size=(n, cfg.d)) * scale
    q = rng.uniform(0.0, 1.0, size=(m, cfg.d)) * scale
    history = [frobenius_objective(M, FactorPair(p=p, q=q))]
    for _ in range(cfg.max_iters):
        p *= (M @ q) / (p @ (q.T @ q) + 1e-12)
        q *= (M.T @ p) / (q @ (p.T @ p) + 1e-12)
        obj = frobenius_objective(M, FactorPair(p=p, q=q))
        history.append(obj)
        if history[-2] - obj < cfg.convergence_tol * max(1.0, history[-2]):
            break
    return FactorPair(p=p, q=q), history


def reference_bpr_fit(M, cfg):
    """The per-triple SGD loop over bpr_triple_grad, with set-based
    negative sampling, drawing from the RNG in the fitter's order."""
    n, m = M.shape
    positives = [np.flatnonzero(M[u] > 0) for u in range(n)]
    eligible = np.array([u for u in range(n) if 0 < len(positives[u]) < m], dtype=np.int64)
    pos_sets = {u: set(positives[u].tolist()) for u in eligible.tolist()}
    rng = np.random.default_rng(cfg.seed)
    p = rng.normal(0.0, 0.1, size=(n, cfg.d))
    q = rng.normal(0.0, 0.1, size=(m, cfg.d))
    triples = int(sum(len(positives[u]) for u in eligible))
    for _ in range(cfg.max_iters):
        users = eligible[rng.integers(0, len(eligible), size=triples)]
        pos_pick = rng.random(triples)
        items = [positives[u][int(r * len(positives[u]))] for u, r in zip(users, pos_pick)]
        negs = rng.integers(0, m, size=triples)
        bad = np.array([int(j) in pos_sets[int(u)] for u, j in zip(users, negs)])
        while bad.any():
            negs[bad] = rng.integers(0, m, size=int(bad.sum()))
            bad[bad] = np.array([int(j) in pos_sets[int(u)] for u, j in zip(users[bad], negs[bad])])
        for u, i, j in zip(users, items, negs):
            g_p, g_i, g_j = bpr_triple_grad(p[u], q[i], q[j], cfg.regularization)
            p[u] -= cfg.learning_rate * g_p
            q[i] -= cfg.learning_rate * g_i
            q[j] -= cfg.learning_rate * g_j
    return FactorPair(p=p, q=q)


def ragged_binary(rng, n, m):
    """Binary rows whose densities range from empty-ish to dense."""
    return (rng.random((n, m)) < rng.random((n, 1)) * 0.6).astype(float)


class TestConfig:
    def test_defaults(self):
        cfg = FactorizationConfig()
        assert cfg.d == 40
        assert cfg.learning_rate == 0.05
        assert cfg.regularization == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            FactorizationConfig(d=0)
        with pytest.raises(ValueError):
            FactorizationConfig(max_iters=0)
        with pytest.raises(ValueError):
            FactorizationConfig(learning_rate=0.0)


class TestNmf:
    def test_identity_fully_reconstructed(self):
        M = np.eye(2)
        pair = nmf_fit(M, FactorizationConfig(d=2, max_iters=500, convergence_tol=0.0, seed=0))
        assert frobenius_objective(M, pair) <= 1e-3

    def test_rank_one_recovery(self):
        u = np.array([1.0, 0.5, 2.0, 0.0])
        v = np.array([0.2, 1.5, 0.0, 0.7, 1.0])
        M = np.outer(u, v)
        pair = nmf_fit(M, FactorizationConfig(d=1, max_iters=2000, convergence_tol=0.0, seed=1))
        assert frobenius_objective(M, pair) <= 1e-6

    def test_objective_monotone_per_sweep(self):
        rng = np.random.default_rng(3)
        M = (rng.random((12, 9)) < 0.4).astype(float)
        _, history = nmf_fit(
            M,
            FactorizationConfig(d=4, max_iters=80, convergence_tol=0.0, seed=2),
            return_history=True,
        )
        assert len(history) == 81
        assert max(np.diff(history)) <= 1e-9

    def test_nonnegativity_is_exact(self):
        rng = np.random.default_rng(5)
        M = (rng.random((10, 8)) < 0.3).astype(float)
        M[4] = 0.0  # a user with no interactions must not break anything
        pair = nmf_fit(M, FactorizationConfig(d=3, max_iters=60, seed=4))
        assert pair.p.min() >= 0.0
        assert pair.q.min() >= 0.0
        assert np.isfinite(pair.p).all() and np.isfinite(pair.q).all()

    def test_rejects_all_zero_matrix(self):
        with pytest.raises(ValueError):
            nmf_fit(np.zeros((3, 4)))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        M = (rng.random((6, 5)) < 0.5).astype(float)
        cfg = FactorizationConfig(d=2, max_iters=30, seed=11)
        a = nmf_fit(M, cfg)
        b = nmf_fit(M, cfg)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    @pytest.mark.parametrize("tol, stops_early", [(0.0, False), (1e-3, True)])
    def test_matches_dense_objective_loop(self, tol, stops_early):
        M = ragged_binary(np.random.default_rng(29), 30, 40)
        cfg = FactorizationConfig(d=5, max_iters=60, seed=3, convergence_tol=tol)
        want, want_history = reference_nmf_fit(M, cfg)
        got, history = nmf_fit(M, cfg, return_history=True)
        assert (len(want_history) < 61) == stops_early
        assert len(history) == len(want_history)
        assert np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)
        np.testing.assert_allclose(history, want_history, rtol=1e-12, atol=0.0)

    def test_allocates_no_dense_reconstruction(self):
        M = (np.random.default_rng(31).random((400, 1500)) < 0.1).astype(float)
        cfg = FactorizationConfig(d=10, max_iters=3, seed=0, convergence_tol=0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nmf_fit(M, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < M.nbytes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_entries_naming_the_first(self, value):
        M = np.ones((4, 5))
        M[2, 3] = value
        M[3, 0] = value
        with pytest.raises(ValueError, match=r"matrix entry \(2, 3\).*finite and nonnegative"):
            nmf_fit(M, FactorizationConfig(d=2, max_iters=3))

    def test_accepts_segmented_matrix(self):
        sm = build_segmented_matrix({"a": [[0, 1], [2]], "b": [[1], [0, 2]]}, m=3)
        pair = nmf_fit(sm, FactorizationConfig(d=2, max_iters=40, seed=0))
        assert pair.p.shape == (4, 2)
        assert pair.q.shape == (3, 2)


class TestBpr:
    def test_single_separable_constraint(self):
        M = np.array([[1.0, 0.0]])
        pair = bpr_fit(M, FactorizationConfig(d=2, max_iters=200, seed=0))
        scores = pair.p @ pair.q.T
        assert scores[0, 0] > scores[0, 1]

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        M = (rng.random((8, 12)) < 0.4).astype(float)
        cfg = FactorizationConfig(d=3, max_iters=5, seed=6)
        a = bpr_fit(M, cfg)
        b = bpr_fit(M, cfg)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    def test_training_auc_after_50_epochs(self):
        rng = np.random.default_rng(13)
        M = (rng.random((20, 30)) < 0.3).astype(float)
        M[M.sum(axis=1) == 0, 0] = 1.0  # every user needs a positive
        pair = bpr_fit(M, FactorizationConfig(d=5, max_iters=50, seed=1))
        assert training_auc(M, pair) >= 0.85

    def test_auc_improves_over_first_10_epochs(self):
        rng = np.random.default_rng(17)
        M = (rng.random((15, 20)) < 0.35).astype(float)
        M[M.sum(axis=1) == 0, 0] = 1.0
        cfg = FactorizationConfig(d=4, max_iters=10, seed=2)
        # untrained factors drawn exactly as the fitter initializes them
        init_rng = np.random.default_rng(cfg.seed)
        init = FactorPair(
            p=init_rng.normal(0.0, 0.1, size=(15, 4)),
            q=init_rng.normal(0.0, 0.1, size=(20, 4)),
        )
        trained = bpr_fit(M, cfg)
        assert training_auc(M, trained) > training_auc(M, init)

    def test_all_positive_user_skipped_with_warning(self):
        M = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.warns(UserWarning, match="skipped 1 users"):
            pair = bpr_fit(M, FactorizationConfig(d=2, max_iters=3, seed=0))
        assert pair.p.shape == (2, 2)

    def test_error_when_no_user_eligible(self):
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                bpr_fit(np.ones((2, 3)), FactorizationConfig(d=2, max_iters=3))

    def test_level_pass_on_hand_built_epoch(self):
        users, items, negs = (np.array(a) for a in ([0, 1, 0, 2], [0, 2, 2, 5], [1, 3, 4, 6]))
        # the third triple shares user 0 with the first and item 2 with the second
        assert _triple_levels(users, items, negs, n=3, m=7).tolist() == [1, 1, 2, 1]
        # an item row links a positive to a later negative
        users, items, negs = (np.array(a) for a in ([0, 1, 2, 3], [0, 1, 2, 4], [1, 2, 3, 5]))
        assert _triple_levels(users, items, negs, n=4, m=6).tolist() == [1, 2, 3, 1]

    @pytest.mark.parametrize(
        "name, n, m, epochs",
        [
            ("ragged", 40, 30, 3),
            ("three items", 12, 3, 4),
            ("full and empty rows", 15, 8, 3),
            ("popular item", 40, 30, 3),
        ],
    )
    def test_matches_per_triple_loop(self, name, n, m, epochs, monkeypatch):
        rng = np.random.default_rng(37)
        M = ragged_binary(rng, n, m)
        if name == "popular item":
            # short rows that nearly all hold item 7 draw it as the positive
            # of most triples, chaining their levels
            M[rng.random((n, m)) < 0.85] = 0.0
            M[np.arange(n) % 8 != 0, 7] = 1.0
        M[M.sum(axis=1) == 0, 0] = 1.0
        if name == "full and empty rows":
            M[2] = 1.0
            M[5] = 0.0
        cfg = FactorizationConfig(d=6, max_iters=epochs, seed=8)
        levels = []

        def recording_levels(*args):
            levels.append(_triple_levels(*args))
            return levels[-1]

        monkeypatch.setattr(factorization, "_triple_levels", recording_levels)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = bpr_fit(M, cfg)
        # with three items any two triples share a row, so nothing may move;
        # otherwise some triple must run before an earlier one
        reordered = any(np.any(np.diff(epoch) < 0) for epoch in levels)
        assert len(levels) == epochs and reordered == (m > 3)
        skipped = int(np.sum((M.sum(axis=1) == 0) | (M.sum(axis=1) == m)))
        if name == "full and empty rows":
            assert skipped >= 2
        assert [str(w.message) for w in caught] == (
            [f"skipped {skipped} users lacking a positive/negative item pair"] if skipped else []
        )
        want = reference_bpr_fit(M, cfg)
        assert np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries_naming_the_first(self, value):
        M = np.zeros((3, 4))
        M[:, 0] = 1.0
        M[1, 2] = value
        with pytest.raises(ValueError, match=r"matrix entry \(1, 2\).*must be finite"):
            bpr_fit(M, FactorizationConfig(d=2, max_iters=1))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        h = 1e-6
        for _ in range(100):
            d = int(rng.integers(2, 6))
            reg = float(rng.random() * 0.1)
            p_u = rng.normal(size=d)
            q_i = rng.normal(size=d)
            q_j = rng.normal(size=d)
            grads = bpr_triple_grad(p_u, q_i, q_j, reg)
            vecs = [p_u, q_i, q_j]
            for which, grad in enumerate(grads):
                for c in range(d):
                    args_hi = [v.copy() for v in vecs]
                    args_lo = [v.copy() for v in vecs]
                    args_hi[which][c] += h
                    args_lo[which][c] -= h
                    fd = (
                        bpr_triple_loss(*args_hi, reg) - bpr_triple_loss(*args_lo, reg)
                    ) / (2 * h)
                    assert abs(fd - grad[c]) <= 1e-5 * max(1.0, abs(fd))

    def test_loss_uses_stable_sigmoid(self):
        # huge negative margin must not overflow
        p_u = np.array([100.0])
        q_i = np.array([-10.0])
        q_j = np.array([10.0])
        loss = bpr_triple_loss(p_u, q_i, q_j, 0.0)
        assert np.isfinite(loss) and loss == pytest.approx(2000.0, rel=1e-9)
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(800.0) == 1.0


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        pair = FactorPair(p=rng.normal(size=(4, 3)), q=rng.normal(size=(6, 3)))
        path = tmp_path / "factors.json"
        save_factors(path, pair, meta={"source": "bpr"})
        loaded, meta = load_factors(path)
        assert np.array_equal(loaded.p, pair.p)
        assert np.array_equal(loaded.q, pair.q)
        assert loaded.d == 3
        assert meta == {"source": "bpr"}

    def test_file_format(self, tmp_path):
        path = tmp_path / "factors.json"
        pair = FactorPair(p=[[1.0, -0.5], [0.25, 2.0]], q=[[0.0, 1.5], [3.0, -1.0]])
        save_factors(path, pair, meta={"model": "NMF"})
        # p and q as base64 of their row-major little-endian float64 bytes
        assert path.read_text() == (
            '{"format": "driftrec-factors-v2", "d": 2, '
            '"p": {"shape": [2, 2], "data": "AAAAAAAA8D8AAAAAAADgvwAAAAAAANA/AAAAAAAAAEA="}, '
            '"q": {"shape": [2, 2], "data": "AAAAAAAAAAAAAAAAAAD4PwAAAAAAAAhAAAAAAAAA8L8="}, '
            '"meta": {"model": "NMF"}}'
        )

    def test_extreme_values_round_trip_bit_exactly(self, tmp_path):
        path = tmp_path / "factors.json"
        pair = FactorPair(p=[[-0.0, 5e-324], [0.1, 1.7976931348623157e308]], q=[[0.1, -0.0]])
        save_factors(path, pair)
        loaded, _ = load_factors(path)
        assert loaded.p.tobytes() == pair.p.tobytes()
        assert loaded.q.tobytes() == pair.q.tobytes()
        assert loaded.p.flags.writeable and loaded.q.flags.writeable

    def test_refuses_a_v1_file_naming_the_stage_that_rewrites_it(self, tmp_path):
        path = tmp_path / "factors_nmf.json"
        path.write_text('{"format": "driftrec-factors-v1", "d": 1, "p": [[1.0]], "q": [[1.0]], "meta": {}}')
        message = f"{path}: format is 'driftrec-factors-v1', not 'driftrec-factors-v2'; rerun the fit stage to rewrite it"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_factors(path)

    def test_rejects_nan_factors_in_file(self, tmp_path):
        path = tmp_path / "factors.json"
        save_factors(path, FactorPair(p=np.ones((2, 2)), q=np.ones((3, 2))))
        with arrays_as_lists(path) as payload:
            payload["q"][2][1] = float("nan")
        assert np.isnan(factorization._decode_array(json.loads(path.read_text()), "q")[2, 1])
        with pytest.raises(ValueError, match=r"q entry \(2, 1\) is nan; entries must be finite"):
            load_factors(path)

    @pytest.mark.parametrize(
        "p, q, match",
        [
            ([[np.nan]], [[np.inf]], r"p entry \(0, 0\) is nan"),
            ([[1.0], [2.0]], [[0.5], [-np.inf]], r"q entry \(1, 0\) is -inf"),
        ],
        ids=["p", "q"],
    )
    def test_pair_rejects_non_finite_entries(self, p, q, match):
        with pytest.raises(ValueError, match=match):
            FactorPair(p=p, q=q)

    @pytest.mark.parametrize(
        "value, message",
        [(2.0, "d: expected an integer, got 2.0"), (3, "d: header says 3, the arrays hold 2")],
        ids=["float", "disagrees"],
    )
    def test_header_d_must_match_the_arrays(self, tmp_path, value, message):
        path = tmp_path / "factors.json"
        save_factors(path, FactorPair(p=np.ones((2, 2)), q=np.ones((3, 2))))
        payload = json.loads(path.read_text())
        payload["d"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_factors(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "driftrec-hmm-v1"}')
        with pytest.raises(ValueError):
            load_factors(path)

    def test_a_file_lacking_a_field_is_refused_naming_it(self, tmp_path):
        path = tmp_path / "factors_smf_s2.json"
        save_factors(path, FactorPair(p=np.ones((2, 2)), q=np.ones((3, 2))))
        path.write_text(json.dumps({k: v for k, v in json.loads(path.read_text()).items() if k != "q"}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: missing field ' + repr('q'))}$"):
            load_factors(path)

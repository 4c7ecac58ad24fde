import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from driftrec import hmm
from driftrec.hmm import (
    HmmModel,
    InteractionSequence,
    TrainConfig,
    baum_welch_train,
    load_model,
    save_model,
    total_log_likelihood,
    viterbi_decode,
    viterbi_decode_all,
)

from conftest import (
    arrays_as_lists,
    brute_force_best_path,
    brute_force_likelihood,
    enumerate_path_probs,
    random_model,
    two_state_disjoint_model,
)
from oracles import init_params_reference, packed_baum_welch, packed_log_likelihood


def seq(items, user="u", truth=None):
    return InteractionSequence(user_id=user, items=np.array(items), truth_change=truth)


class TestModelInvariants:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            HmmModel(pi=[0.5, 0.4], trans=np.eye(2), emit=np.eye(2))
        with pytest.raises(ValueError):
            HmmModel(pi=[0.5, 0.5], trans=[[0.9, 0.2], [0.5, 0.5]], emit=np.eye(2))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            HmmModel(pi=[1.2, -0.2], trans=np.eye(2), emit=np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            HmmModel(pi=[1.0], trans=np.eye(2), emit=np.eye(2))

    def test_zero_dimensional_pi_is_named(self):
        with pytest.raises(ValueError, match="pi must be a non-empty 1-D"):
            HmmModel(pi=0.5, trans=[[1.0]], emit=[[1.0]])

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("pi", [np.nan, 1.0], r"pi entry \(0\) is nan"),
            ("trans", [[1.0, 0.0], [np.inf, 0.0]], r"trans entry \(1, 0\) is inf"),
            ("emit", [[1.0, 0.0], [0.0, -np.inf]], r"emit entry \(1, 1\) is -inf"),
        ],
        ids=["pi", "trans", "emit"],
    )
    def test_rejects_non_finite_entries_naming_the_first(self, name, value, match):
        params = dict(pi=[0.5, 0.5], trans=np.eye(2), emit=np.eye(2))
        params[name] = value
        with pytest.raises(ValueError, match=match + "; entries must be finite and nonnegative"):
            HmmModel(**params)

    def test_unpickled_model_is_read_only(self):
        model = random_model(np.random.default_rng(0), 3, 5)
        copy = pickle.loads(pickle.dumps(model, protocol=4))
        for name in ("pi", "trans", "emit"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(model, name))
            assert not getattr(copy, name).flags.writeable, name

    def test_sequence_bounds(self):
        with pytest.raises(ValueError):
            InteractionSequence(user_id="u", items=np.array([], dtype=int))
        with pytest.raises(ValueError):
            seq([0, 1, 2], truth=0)
        with pytest.raises(ValueError):
            seq([0, 1, 2], truth=3)
        assert seq([0, 1, 2], truth=2).truth_change == 2

    def test_fractional_item_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="items must hold integer indices"):
            InteractionSequence(user_id="u", items=[0.7, 1])


class TestForward:
    def test_degenerate_single_state(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert total_log_likelihood(model, [seq([0, 0, 0])]) == 0.0

    def test_impossible_observation_is_neg_inf(self):
        model = HmmModel(pi=[0.5, 0.5], trans=np.eye(2), emit=np.eye(2))
        assert total_log_likelihood(model, [seq([0, 1])]) == float("-inf")

    def test_out_of_range_item_rejected(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        with pytest.raises(ValueError):
            total_log_likelihood(model, [seq([0, 1])])

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, h=3, m=4)
        items = rng.integers(0, 4, size=5)
        got = total_log_likelihood(model, [seq(items)])
        want = math.log(brute_force_likelihood(model, items))
        assert got == pytest.approx(want, rel=1e-10)

    def test_permutation_of_states_is_invisible(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, h=4, m=5)
        items = rng.integers(0, 5, size=12)
        perm = rng.permutation(4)
        relabeled = HmmModel(
            pi=model.pi[perm],
            trans=model.trans[np.ix_(perm, perm)],
            emit=model.emit[perm],
        )
        a = total_log_likelihood(model, [seq(items)])
        b = total_log_likelihood(relabeled, [seq(items)])
        assert a == pytest.approx(b, abs=1e-12)


class TestViterbi:
    def test_deterministic_chain(self):
        # 0 -> 1 -> 0 -> 1 forced by 0/1 parameters
        model = HmmModel(
            pi=[1.0, 0.0],
            trans=[[0.0, 1.0], [1.0, 0.0]],
            emit=np.eye(2),
        )
        path = viterbi_decode(model, seq([0, 1, 0, 1]))
        assert path.states.tolist() == [0, 1, 0, 1]
        assert path.log_joint == 0.0

    def test_single_state_path(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.3, 0.7]])
        s = seq([1, 0, 1])
        path = viterbi_decode(model, s)
        assert path.states.tolist() == [0, 0, 0]
        assert path.log_joint == pytest.approx(total_log_likelihood(model, [s]), rel=1e-12)

    def test_inconsistent_sequence_raises(self):
        model = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2))
        with pytest.raises(ValueError, match="inconsistent"):
            viterbi_decode(model, seq([0, 1]))

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, h=3, m=4)
        items = rng.integers(0, 4, size=5)
        path = viterbi_decode(model, seq(items))
        _, best_p = brute_force_best_path(model, items)
        assert path.log_joint == pytest.approx(math.log(best_p), rel=1e-10)

    def test_log_joint_is_log_prob_of_returned_path(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_model(rng, h=3, m=5)
            items = rng.integers(0, 5, size=8)
            path = viterbi_decode(model, seq(items))
            s = path.states
            p = math.log(model.pi[s[0]]) + math.log(model.emit[s[0], items[0]])
            for t in range(1, len(items)):
                p += math.log(model.trans[s[t - 1], s[t]])
                p += math.log(model.emit[s[t], items[t]])
            assert path.log_joint == pytest.approx(p, rel=1e-12)

    def test_tie_break_prefers_lowest_state(self):
        # two interchangeable states: every path has equal probability
        model = HmmModel(
            pi=[0.5, 0.5],
            trans=[[0.5, 0.5], [0.5, 0.5]],
            emit=[[0.5, 0.5], [0.5, 0.5]],
        )
        path = viterbi_decode(model, seq([0, 1, 0]))
        assert path.states.tolist() == [0, 0, 0]


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(101)
    for _ in range(60):
        h = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        model = random_model(rng, h, m)
        items = rng.integers(0, m, size=t)
        ll = total_log_likelihood(model, [seq(items)])
        want = brute_force_likelihood(model, items)
        assert ll == pytest.approx(math.log(want), rel=1e-10)
        path = viterbi_decode(model, seq(items))
        _, best = brute_force_best_path(model, items)
        assert path.log_joint == pytest.approx(math.log(best), rel=1e-10)



def _scalar_viterbi(model, items):
    """The per-sequence log-space recursion, kept as the batched decoder's oracle."""
    T, h = len(items), model.num_states
    with np.errstate(divide="ignore"):
        log_pi, log_trans, log_emit = np.log(model.pi), np.log(model.trans), np.log(model.emit)
    delta = log_pi + log_emit[:, items[0]]
    back = np.zeros((T, h), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + log_trans
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(h)] + log_emit[:, items[t]]
    states = np.zeros(T, dtype=np.int64)
    states[T - 1] = np.argmax(delta)
    for t in range(T - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
    return states, float(delta[states[T - 1]])


class TestViterbiBatch:
    def _ragged(self, rng, m):
        # a length-1 sequence and three tied at the maximum length
        return [
            seq(rng.integers(0, m, size=n), user=f"u{i}")
            for i, n in enumerate((3, 1, 6, 2, 6, 4, 6, 5))
        ]

    @pytest.mark.parametrize("h", [1, 3])
    def test_matches_exhaustive_argmax_on_ragged_corpus(self, h):
        rng = np.random.default_rng(59 + h)
        for _ in range(3):
            model = random_model(rng, h, 4)
            corpus = self._ragged(rng, 4)
            paths = viterbi_decode_all(model, corpus)
            assert len(paths) == len(corpus)
            for s, path in zip(corpus, paths):
                best_path, best_p = brute_force_best_path(model, s.items)
                assert path.states.tolist() == list(best_path)
                assert path.states.dtype == np.int64
                assert path.log_joint == pytest.approx(math.log(best_p), rel=1e-10)
            self._each_alone_matches_the_batch(model, corpus)

    def test_corpus_order_does_not_change_paths(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, 4, 7)
        corpus = [
            seq(rng.integers(0, 7, size=int(rng.integers(1, 40))), user=f"u{i}")
            for i in range(50)
        ]
        shuffled = [corpus[i] for i in rng.permutation(len(corpus))]
        want = {s.user_id: p for s, p in zip(corpus, viterbi_decode_all(model, corpus))}
        for s, p in zip(shuffled, viterbi_decode_all(model, shuffled)):
            assert p.states.tolist() == want[s.user_id].states.tolist()
            assert p.log_joint == want[s.user_id].log_joint

    def test_all_tied_model_decodes_to_state_zero(self):
        h, m = 3, 2
        model = HmmModel(
            pi=np.full(h, 1 / h), trans=np.full((h, h), 1 / h), emit=np.full((h, m), 1 / m)
        )
        corpus = [seq([0, 1, 0], user="a"), seq([1], user="b"), seq([1, 1, 0, 0, 1], user="c")]
        for s, path in zip(corpus, viterbi_decode_all(model, corpus)):
            assert path.states.tolist() == [0] * len(s)
        self._each_alone_matches_the_batch(model, corpus)

    def test_many_states_match_scalar_recursion(self):
        # 300 states need two-byte backpointers, and each step's running
        # argmax passes over 300 predecessor states
        rng = np.random.default_rng(67)
        model = random_model(rng, 300, 6)
        corpus = [
            seq(rng.integers(0, 6, size=int(rng.integers(1, 9))), user=f"u{i}")
            for i in range(16)
        ]
        for s, path in zip(corpus, viterbi_decode_all(model, corpus)):
            states, log_joint = _scalar_viterbi(model, s.items)
            assert path.states.tolist() == states.tolist()
            assert path.log_joint == log_joint
        self._each_alone_matches_the_batch(model, corpus)

    def test_sequences_ending_at_every_step_match_the_scalar_recursion(self):
        # two sequences end at each step, so every backtrack step picks up
        # final states, and the packed order differs from the corpus order
        rng = np.random.default_rng(71)
        model = random_model(rng, 4, 6)
        lengths = rng.permutation(np.repeat(np.arange(1, 16), 2))
        corpus = [seq(rng.integers(0, 6, size=int(n)), user=f"u{i}") for i, n in enumerate(lengths)]
        for s, path in zip(corpus, viterbi_decode_all(model, corpus)):
            states, log_joint = _scalar_viterbi(model, s.items)
            assert path.states.tolist() == states.tolist()
            assert path.log_joint == log_joint
        self._each_alone_matches_the_batch(model, corpus)

    def test_impossible_sequence_is_named(self):
        model = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2))
        # the first impossible sequence in corpus order is named, although
        # the longer one after it comes first in the packed corpus
        corpus = [
            seq([0, 0], user="fine"),
            seq([0, 1, 0], user="broken"),
            seq([0], user="ok"),
            seq([0, 0, 0, 1, 0], user="also_broken"),
        ]
        with pytest.raises(ValueError, match="'broken' inconsistent"):
            viterbi_decode_all(model, corpus)

    def test_empty_corpus(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert viterbi_decode_all(model, []) == []

    @staticmethod
    def _each_alone_matches_the_batch(model, corpus):
        """A corpus of one runs the one-sequence recursion; its path must be
        bit for bit the sequence's path in the packed batch."""
        assert len(corpus) > 1
        for s, path in zip(corpus, viterbi_decode_all(model, corpus)):
            alone = viterbi_decode_all(model, [s])[0]
            assert alone.states.dtype == np.int64
            assert alone.states.tolist() == path.states.tolist()
            assert alone.log_joint == path.log_joint
            assert viterbi_decode(model, s).states.tolist() == path.states.tolist()

    def test_one_sequence_path_matches_the_batch_on_length_one_sequences(self):
        rng = np.random.default_rng(79)
        model = random_model(rng, 4, 5)
        self._each_alone_matches_the_batch(model, [seq([i], user=f"u{i}") for i in range(5)])

    def test_one_sequence_path_matches_the_batch_with_zero_probabilities(self):
        # sparse rows put -inf among the scores, and exact ties between paths
        model = HmmModel(
            pi=[0.5, 0.5, 0.0],
            trans=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
            emit=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
        )
        corpus = [seq(items, user=f"u{i}") for i, items in enumerate(([1, 1, 2, 0], [0, 1], [1], [1, 2, 2, 2, 0, 0]))]
        self._each_alone_matches_the_batch(model, corpus)

    @pytest.mark.parametrize(
        "model, bad",
        [
            (HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2)), [0, 1, 0]),
            (HmmModel(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), emit=np.eye(2)), [0, 2]),
        ],
        ids=["impossible-sequence", "item-out-of-range"],
    )
    def test_a_corpus_of_one_is_refused_with_the_batch_message(self, model, bad):
        corpus = [seq([0, 0], user="fine"), seq(bad, user="broken"), seq([0], user="ok")]
        with pytest.raises(ValueError) as batch:
            viterbi_decode_all(model, corpus)
        with pytest.raises(ValueError) as alone:
            viterbi_decode_all(model, [corpus[1]])
        assert "'broken'" in str(batch.value)
        assert str(alone.value) == str(batch.value)

    def test_log_tables_are_computed_once_per_model_and_read_only(self):
        rng = np.random.default_rng(83)
        model = random_model(rng, 3, 4)
        tables = hmm._log_tables(model)
        assert hmm._log_tables(model) is tables
        assert hmm._log_tables(random_model(rng, 3, 4)) is not tables
        log_pi, log_trans, log_trans_t, log_emit_t = tables
        np.testing.assert_array_equal(log_pi, np.log(model.pi))
        np.testing.assert_array_equal(log_trans, np.log(model.trans))
        np.testing.assert_array_equal(log_trans_t, np.log(model.trans).T)
        np.testing.assert_array_equal(log_emit_t, np.log(model.emit).T)
        assert log_trans_t.flags.c_contiguous and log_emit_t.flags.c_contiguous
        assert not any(table.flags.writeable for table in tables)


class TestBaumWelch:
    def test_forced_degenerate_solution(self):
        corpus = [seq([0, 0, 0], user=f"u{i}") for i in range(3)]
        model = baum_welch_train(corpus, h=1, cfg=TrainConfig(max_iters=5, seed=0))
        np.testing.assert_allclose(model.pi, [1.0])
        np.testing.assert_allclose(model.trans, [[1.0]])
        np.testing.assert_allclose(model.emit, [[1.0]])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            baum_welch_train([], h=2)
        with pytest.raises(ValueError):
            baum_welch_train([seq([0])], h=0)

    def test_learned_model_close_to_generator(self):
        truth = two_state_disjoint_model(5, 5, stay=0.9)
        rng = np.random.default_rng(23)
        corpus = []
        for i in range(200):
            states, items = _sample(truth, 50, rng)
            corpus.append(seq(items, user=f"u{i}"))
        learned = baum_welch_train(
            corpus, h=2, cfg=TrainConfig(max_iters=60, log_lik_tol=0.0, seed=1)
        )
        ll_learned = total_log_likelihood(learned, corpus)
        ll_truth = total_log_likelihood(truth, corpus)
        assert ll_learned >= ll_truth - 0.01 * abs(ll_truth)

    def test_log_likelihood_monotone_and_rows_stochastic(self):
        rng = np.random.default_rng(29)
        for trial in range(3):
            gen = random_model(rng, h=3, m=6)
            corpus = [
                seq(_sample(gen, int(rng.integers(3, 25)), rng)[1], user=f"u{i}")
                for i in range(12)
            ]
            model, history = baum_welch_train(
                corpus,
                h=2,
                cfg=TrainConfig(max_iters=40, log_lik_tol=0.0, seed=trial),
                return_history=True,
            )
            diffs = np.diff(history)
            assert diffs.min(initial=0.0) >= -1e-8
            np.testing.assert_allclose(model.pi.sum(), 1.0, atol=1e-9)
            np.testing.assert_allclose(model.trans.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(model.emit.sum(axis=1), 1.0, atol=1e-9)

    def test_emission_floor_keeps_probabilities_positive(self):
        # item 3 never observed, yet must keep nonzero emission mass
        corpus = [seq([0, 1, 0, 1], user="a"), seq([1, 2, 1, 0], user="b")]
        model = baum_welch_train(
            corpus, h=2, cfg=TrainConfig(max_iters=10, seed=3), num_items=4
        )
        assert model.emit.min() > 0
        assert model.emit.shape == (2, 4)

    def test_batched_likelihood_matches_per_sequence_forward(self):
        # history[t] is the corpus likelihood of the parameters entering
        # iteration t, so the model a 1-iteration run returns is the one whose
        # likelihood shows up as the second entry of a 2-iteration history.
        # This pits the padded batched forward against the plain per-sequence
        # recursion on a ragged corpus, including a length-1 sequence.
        rng = np.random.default_rng(31)
        gen = random_model(rng, h=2, m=4)
        corpus = [seq(_sample(gen, n, rng)[1], user=f"u{n}") for n in (1, 2, 5, 9, 4)]
        model_one = baum_welch_train(
            corpus, h=2, cfg=TrainConfig(max_iters=1, log_lik_tol=0.0, seed=5)
        )
        _, history = baum_welch_train(
            corpus,
            h=2,
            cfg=TrainConfig(max_iters=2, log_lik_tol=0.0, seed=5),
            return_history=True,
        )
        assert len(history) == 2
        assert history[1] == pytest.approx(
            total_log_likelihood(model_one, corpus), rel=1e-10
        )

    def test_batched_total_matches_brute_force_on_ragged_corpus(self):
        # a length-1 sequence, three tied at the maximum length, and an item
        # no state emits, so a sequence containing it has probability zero
        rng = np.random.default_rng(43)
        h, m = 3, 4
        base = random_model(rng, h, m - 1)
        model = HmmModel(
            pi=base.pi, trans=base.trans, emit=np.hstack([base.emit, np.zeros((h, 1))])
        )
        corpus = [
            seq(rng.integers(0, m - 1, size=n), user=f"u{i}")
            for i, n in enumerate((3, 1, 6, 2, 6, 4, 6, 5))
        ]
        want = [math.log(brute_force_likelihood(model, s.items)) for s in corpus]
        assert total_log_likelihood(model, corpus) == pytest.approx(sum(want), rel=1e-10)
        for s, w in zip(corpus, want):
            assert total_log_likelihood(model, [s]) == pytest.approx(w, rel=1e-10)

        # -inf, not nan: the impossible sequence leaves its neighbours intact
        impossible = seq([0, m - 1, 1, 2], user="x")
        assert total_log_likelihood(model, [impossible]) == float("-inf")
        assert total_log_likelihood(model, corpus[:4] + [impossible] + corpus[4:]) == float("-inf")

    def test_corpus_order_does_not_change_the_model(self, monkeypatch):
        # the starting point samples windows by corpus position, so pin it to
        # the original order's; the E-step itself must not depend on order
        rng = np.random.default_rng(47)
        gen = random_model(rng, h=3, m=6)
        corpus = [
            seq(_sample(gen, int(rng.integers(1, 30)), rng)[1], user=f"u{i}")
            for i in range(40)
        ]
        cfg = TrainConfig(max_iters=25, log_lik_tol=0.0, seed=4)
        start = hmm._init_params(corpus, 3, 6, cfg)
        monkeypatch.setattr(hmm, "_init_params", lambda *args: tuple(a.copy() for a in start))
        shuffled = [corpus[i] for i in rng.permutation(len(corpus))]
        a = baum_welch_train(corpus, 3, cfg, num_items=6)
        b = baum_welch_train(shuffled, 3, cfg, num_items=6)
        np.testing.assert_allclose(b.pi, a.pi, rtol=1e-10)
        np.testing.assert_allclose(b.trans, a.trans, rtol=1e-10)
        np.testing.assert_allclose(b.emit, a.emit, rtol=1e-10)

    def test_memory_scales_with_live_cells_not_padding(self):
        # padded to the longest sequence, this corpus needs 2001 x 4000 x 2
        # doubles (128 MB) per forward or backward buffer; it has 8000 cells
        rng = np.random.default_rng(53)
        corpus = [seq(rng.integers(0, 5, size=4000), user="long")]
        corpus += [seq(rng.integers(0, 5, size=2), user=f"s{i}") for i in range(2000)]
        tracemalloc.start()
        try:
            model = baum_welch_train(
                corpus, 2, TrainConfig(max_iters=2, log_lik_tol=0.0, seed=1), num_items=5
            )
            total_log_likelihood(model, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("h", [1, 2, 10])
    @pytest.mark.parametrize(
        "lengths",
        [list(range(1, 31)), [14, 9, 9, 6, 3, 1, 1], [17] * 8],
        ids=["one-ends-at-every-step", "longest-alone-for-5-steps", "equal"],
    )
    def test_matches_the_packed_array_e_step_bit_for_bit(self, h, lengths):
        # a step with one live cell is where a contiguous (h, 1) operand would
        # send matmul's gemv down another path; every bit must still match
        rng = np.random.default_rng(len(lengths) + h)
        m = 7
        corpus = [seq(rng.integers(0, m, size=n), user=f"u{i}") for i, n in enumerate(lengths)]
        corpus = [corpus[i] for i in rng.permutation(len(corpus))]
        cfg = TrainConfig(max_iters=8, log_lik_tol=0.0, seed=h)
        model, history = baum_welch_train(corpus, h, cfg, num_items=m, return_history=True)
        pi, trans, emit, want = packed_baum_welch(corpus, h, cfg, m)
        for got, ref in ((model.pi, pi), (model.trans, trans), (model.emit, emit)):
            assert got.tobytes() == ref.tobytes()
        assert history == want
        assert total_log_likelihood(model, corpus) == packed_log_likelihood(model, corpus)

    def test_zero_probability_sequences_score_as_the_packed_forward(self):
        # state 1 never returns to 0 and pi starts in 0, so [2, ...] and
        # [0, 2, 0] are impossible; their scales are 1 from the step they die
        model = HmmModel(
            pi=[1.0, 0.0],
            trans=[[0.5, 0.5], [0.0, 1.0]],
            emit=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
        )
        corpus = [seq(items, user=f"u{i}") for i, items in enumerate(([0, 1, 2, 2], [2, 1], [0, 2, 0], [1], [0, 0, 1, 2, 1]))]
        for part in (corpus, corpus[:1] + corpus[3:], *([s] for s in corpus)):
            assert total_log_likelihood(model, part) == packed_log_likelihood(model, part)
        assert total_log_likelihood(model, corpus) == float("-inf")

    @pytest.mark.parametrize("h", [1, 2, 3, 5, 10, 20])
    def test_init_matches_the_all_pairs_farthest_point_start(self, h):
        # one- and two-item sequences give coinciding candidates, so distance ties occur
        rng = np.random.default_rng(h)
        corpus = [seq(rng.integers(0, 40, size=int(rng.integers(1, 30))), user=f"u{i}") for i in range(60)]
        for s in range(5):
            cfg = TrainConfig(seed=s)
            for got, want in zip(hmm._init_params(corpus, h, 40, cfg), init_params_reference(corpus, h, 40, cfg)):
                assert got.tobytes() == want.tobytes()

    def test_wide_corpus_training_holds_two_cell_sized_arrays(self):
        # with many items and long ragged sequences, training's traced peak is
        # the E-step's flat buffer and its keys, h x cells 8-byte entries each,
        # plus the packed corpus and the M-step; a third such array, or a
        # start-up larger than them, breaks the bound
        rng = np.random.default_rng(59)
        m, h = 2000, 10
        corpus = [seq(rng.integers(0, m, size=int(n)), user=f"u{i}") for i, n in enumerate(rng.integers(35, 141, size=300))]
        cells = sum(len(s) for s in corpus)
        tracemalloc.start()
        try:
            baum_welch_train(corpus, h, TrainConfig(max_iters=2, log_lik_tol=0.0, seed=1), num_items=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * h * cells * 8

    def test_single_iteration_matches_path_enumeration_counts(self):
        # one M-step must reproduce the expected-count update computed by
        # summing over every hidden path explicitly
        from driftrec.hmm import _init_params

        rng = np.random.default_rng(3)
        h, m = 2, 3
        corpus = [
            seq(rng.integers(0, m, size=n), user=f"u{i}")
            for i, n in enumerate((4, 2, 5))
        ]
        cfg = TrainConfig(max_iters=1, log_lik_tol=0.0, seed=8)
        pi0, trans0, emit0 = _init_params(corpus, h, m, cfg)
        init = HmmModel(pi=pi0, trans=trans0, emit=emit0)

        pi_num = np.zeros(h)
        trans_num = np.zeros((h, h))
        emit_num = np.zeros((h, m))
        emit_den = np.zeros(h)
        for s in corpus:
            items = s.items
            total = 0.0
            occ = np.zeros((len(items), h))
            moves = np.zeros((h, h))
            for path, p in enumerate_path_probs(init, items):
                total += p
                for t, st in enumerate(path):
                    occ[t, st] += p
                    if t + 1 < len(path):
                        moves[st, path[t + 1]] += p
            occ /= total
            moves /= total
            pi_num += occ[0]
            trans_num += moves
            for t, it in enumerate(items):
                emit_num[:, it] += occ[t]
            emit_den += occ.sum(axis=0)

        floor = cfg.emission_floor / m
        pi_want = pi_num / pi_num.sum()
        trans_want = trans_num / trans_num.sum(axis=1, keepdims=True)
        emit_want = (emit_num + floor) / (emit_den + floor * m)[:, None]

        model = baum_welch_train(corpus, h, cfg=cfg)
        np.testing.assert_allclose(model.pi, pi_want, rtol=1e-10)
        np.testing.assert_allclose(model.trans, trans_want, rtol=1e-10)
        np.testing.assert_allclose(model.emit, emit_want, rtol=1e-10)

    def test_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(37)
        gen = random_model(rng, h=2, m=5)
        corpus = [seq(_sample(gen, 12, rng)[1], user=f"u{i}") for i in range(6)]
        a = baum_welch_train(corpus, h=2, cfg=TrainConfig(max_iters=15, seed=9))
        b = baum_welch_train(corpus, h=2, cfg=TrainConfig(max_iters=15, seed=9))
        assert np.array_equal(a.pi, b.pi)
        assert np.array_equal(a.trans, b.trans)
        assert np.array_equal(a.emit, b.emit)


def _sample(model, length, rng):
    states = np.zeros(length, dtype=int)
    items = np.zeros(length, dtype=int)
    states[0] = rng.choice(model.num_states, p=model.pi)
    items[0] = rng.choice(model.num_items, p=model.emit[states[0]])
    for t in range(1, length):
        states[t] = rng.choice(model.num_states, p=model.trans[states[t - 1]])
        items[t] = rng.choice(model.num_items, p=model.emit[states[t]])
    return states, items


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        model = random_model(rng, h=3, m=7)
        cfg = TrainConfig(max_iters=50, log_lik_tol=1e-6, seed=12, emission_floor=1e-7)
        path = tmp_path / "model.json"
        save_model(path, model, cfg)
        loaded, loaded_cfg = load_model(path)
        assert np.array_equal(loaded.pi, model.pi)
        assert np.array_equal(loaded.trans, model.trans)
        assert np.array_equal(loaded.emit, model.emit)
        assert loaded_cfg == cfg
        items = rng.integers(0, 7, size=30)
        before = viterbi_decode(model, seq(items))
        after = viterbi_decode(loaded, seq(items))
        assert np.array_equal(before.states, after.states)
        assert before.log_joint == after.log_joint

    def test_rejects_nan_parameters_in_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, random_model(np.random.default_rng(5), h=2, m=3))
        with arrays_as_lists(path) as payload:
            payload["emit"][1][2] = float("nan")
        assert math.isnan(hmm._decode_array(json.loads(path.read_text()), "emit")[1, 2])
        with pytest.raises(ValueError, match=r"emit entry \(1, 2\) is nan"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_states", 7, "num_states: header says 7, the arrays hold 1"),
            ("num_items", 99, "num_items: header says 99, the arrays hold 2"),
            ("num_items", True, "num_items: expected an integer, got True"),
        ],
    )
    def test_header_must_match_the_arrays(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        save_model(path, HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.5]]))
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "emit"}),
                "missing field 'emit'",
            ),
            (lambda text: text[:40], "Unterminated string starting at"),
        ],
        ids=["lacks-emit", "truncated"],
    )
    def test_a_damaged_file_is_refused_naming_it(self, tmp_path, edit, message):
        path = tmp_path / "hmm_s2.json"
        save_model(path, HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.5]]))
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_model(path)

    GOLDEN_MODEL = HmmModel(
        pi=[0.5, 0.5], trans=[[0.75, 0.25], [0.5, 0.5]], emit=[[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]]
    )
    # pi [0.5, 0.5], trans [[0.75, 0.25], [0.5, 0.5]] and emit [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]]
    # as base64 of their little-endian float64 bytes
    GOLDEN_HEAD = (
        '{"format": "driftrec-hmm-v2", "num_states": 2, "num_items": 3, '
        '"pi": {"shape": [2], "data": "AAAAAAAA4D8AAAAAAADgPw=="}, '
        '"trans": {"shape": [2, 2], "data": "AAAAAAAA6D8AAAAAAADQPwAAAAAAAOA/AAAAAAAA4D8="}, '
        '"emit": {"shape": [2, 3], "data": "AAAAAAAA4D8AAAAAAADQPwAAAAAAANA/AAAAAAAAwD8AAAAAAADYPwAAAAAAAOA/"}, '
    )

    def test_file_format_with_train_config(self, tmp_path):
        path = tmp_path / "model.json"
        cfg = TrainConfig(max_iters=7, log_lik_tol=1e-6, seed=3, emission_floor=1e-7)
        save_model(path, self.GOLDEN_MODEL, cfg, meta={"h": 2})
        assert path.read_text() == self.GOLDEN_HEAD + (
            '"train_config": {"max_iters": 7, "log_lik_tol": 1e-06, "seed": 3, "emission_floor": 1e-07}, '
            '"meta": {"h": 2}}'
        )

    def test_file_format_without_train_config(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, self.GOLDEN_MODEL)
        assert path.read_text() == self.GOLDEN_HEAD + '"train_config": null, "meta": {}}'

    def test_extreme_values_round_trip_bit_exactly(self, tmp_path):
        path = tmp_path / "model.json"
        model = HmmModel(pi=[0.1, 0.9], trans=[[1.0, -0.0], [0.5, 0.5]], emit=[[5e-324, 1.0], [0.1, 0.9]])
        save_model(path, model)
        loaded, _ = load_model(path)
        for name in ("pi", "trans", "emit"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
        assert math.copysign(1.0, loaded.trans[0, 1]) == -1.0

    def test_refuses_a_v1_file_naming_the_stage_that_rewrites_it(self, tmp_path):
        path = tmp_path / "hmm_s2.json"
        path.write_text(
            '{"format": "driftrec-hmm-v1", "num_states": 1, "num_items": 1, "pi": [1.0], "trans": [[1.0]], '
            '"emit": [[1.0]], "train_config": null, "meta": {}}'
        )
        message = f"{path}: format is 'driftrec-hmm-v1', not 'driftrec-hmm-v2'; rerun the train stage to rewrite it"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

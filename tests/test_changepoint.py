import dataclasses

import numpy as np
import pytest

from driftrec.changepoint import (
    ChangePointResult,
    _distance_table,
    build_segmented_matrix,
    cooccurrence_item_vectors,
    cusum_detect,
    displacement_error,
    hmcd_detect,
    hmcd_detect_all,
    incidence_matrix,
    partition,
    random_partition,
    sliding_window_detect,
    sliding_window_detect_all,
    tune_cusum_threshold,
)
from driftrec.hmm import HmmModel, InteractionSequence, viterbi_decode

from conftest import brute_force_best_path, random_model, two_state_disjoint_model
from oracles import best_split, sliding_window_reference, switch_points


def seq(items, user="u", truth=None):
    return InteractionSequence(user_id=user, items=np.array(items), truth_change=truth)


class TestResultType:
    def test_rejects_misaligned_scores(self):
        with pytest.raises(ValueError):
            ChangePointResult(user_id="u", predicted=[3], score_per_point=[])

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            ChangePointResult(user_id="u", predicted=[5, 3], score_per_point=[0.1, 0.2])
        with pytest.raises(ValueError):
            ChangePointResult(user_id="u", predicted=[0], score_per_point=[0.1])

    def test_no_change_follows_predicted(self):
        assert ChangePointResult(user_id="u").no_change
        result = ChangePointResult(user_id="u", predicted=[3], score_per_point=[0.1])
        assert not result.no_change
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.predicted = []
        with pytest.raises(TypeError, match="no_change"):
            ChangePointResult("u", [3], [0.1], no_change=True)


class TestHmcdDetect:
    def test_single_forced_switch(self):
        model = HmmModel(
            pi=[1.0, 0.0],
            trans=[[0.6, 0.4], [0.0, 1.0]],
            emit=[[1.0, 0.0], [0.0, 1.0]],
        )
        result = hmcd_detect(model, seq([0, 0, 0, 1, 1]), k=1)
        assert result.predicted == [3]
        assert not result.no_change
        # switch score: P(1|0) times P(item at the switch | state 1)
        assert result.score_per_point == [pytest.approx(0.4 * 1.0)]

    def test_constant_path_is_flagged(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.5]])
        result = hmcd_detect(model, seq([0, 1, 0]), k=1)
        assert result.predicted == []
        assert result.score_per_point == []
        assert result.no_change

    def test_length_one_sequence(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        result = hmcd_detect(model, seq([0]), k=2)
        assert result.predicted == [] and result.no_change

    def test_rejects_bad_k(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        with pytest.raises(ValueError):
            hmcd_detect(model, seq([0, 0]), k=0)

    def test_disjoint_supports_recover_truth_exactly(self):
        model = two_state_disjoint_model(5, 5)
        rng = np.random.default_rng(2)
        for lam, total in ((40, 80), (10, 20), (37, 61)):
            items = np.concatenate(
                [rng.integers(0, 5, size=lam), rng.integers(5, 10, size=total - lam)]
            )
            result = hmcd_detect(model, seq(items), k=1)
            assert result.predicted == [lam]

    def test_short_variants_match_exhaustive_decode(self):
        # on tiny sequences the best path is enumerable, so the detector's
        # switch positions can be read off the oracle path directly
        model = two_state_disjoint_model(3, 3)
        rng = np.random.default_rng(5)
        for _ in range(25):
            lam = int(rng.integers(1, 5))
            items = np.concatenate(
                [rng.integers(0, 3, size=lam), rng.integers(3, 6, size=int(rng.integers(1, 3)))]
            )
            best_path, _ = brute_force_best_path(model, items)
            want = [t for t in range(1, len(items)) if best_path[t] != best_path[t - 1]]
            result = hmcd_detect(model, seq(items), k=len(items))
            assert result.predicted == want

    def test_predictions_sit_on_decoded_switches(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            model = random_model(rng, h=3, m=5)
            items = rng.integers(0, 5, size=15)
            result = hmcd_detect(model, seq(items), k=3)
            path = viterbi_decode(model, seq(items)).states
            for t in result.predicted:
                assert path[t] != path[t - 1]

    def test_top_k_selection_matches_reference_sort(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            model = random_model(rng, h=3, m=5)
            items = rng.integers(0, 5, size=14)
            s = seq(items)
            path = viterbi_decode(model, s).states
            cand = [t for t in range(1, len(items)) if path[t] != path[t - 1]]
            score = {
                t: float(model.trans[path[t - 1], path[t]] * model.emit[path[t], items[t]])
                for t in cand
            }
            for k in (1, 2, 3, 99):
                want = sorted(sorted(cand, key=lambda t: (-score[t], t))[:k])
                result = hmcd_detect(model, s, k=k)
                assert result.predicted == want
                assert result.score_per_point == [score[t] for t in want]
                assert all(0.0 <= v <= 1.0 for v in result.score_per_point)


    @pytest.mark.parametrize("k", [1, 2, 99])
    def test_batch_matches_per_sequence(self, k):
        rng = np.random.default_rng(29)
        model = random_model(rng, h=3, m=5)
        corpus = [
            seq(rng.integers(0, 5, size=int(rng.integers(1, 25))), user=f"u{i}")
            for i in range(40)
        ]
        assert hmcd_detect_all(model, corpus, k=k) == [hmcd_detect(model, s, k=k) for s in corpus]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_matches_the_per_sequence_oracle(self, k):
        """Each result is the oracle's scoring of the path the sequence decodes
        to alone, in corpus order.  Under the disjoint model every switch
        scores the same, so a sequence with more than k switches keeps its
        earliest k; under the quantized model scores take few values, so ties
        fall among untied scores; length-1 and switchless sequences sit among
        the others."""
        rng = np.random.default_rng(31)
        corpus = []
        for i in range(40):
            blocks = rng.integers(1, 5, size=int(rng.integers(1, 7)))
            corpus.append(seq(np.concatenate([rng.integers(0, 3, n) + 3 * (j % 2) for j, n in enumerate(blocks)]), f"b{i}"))
        corpus += [seq([4], "one"), seq([1], "one-low"), seq([1, 2, 0, 1], "switchless")]
        corpus = [corpus[i] for i in rng.permutation(len(corpus))]
        tied = two_state_disjoint_model(3, 3)
        quantized = HmmModel(
            pi=[0.5, 0.25, 0.25],
            trans=[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
            emit=[np.roll([0.25, 0.25, 0.125, 0.125, 0.125, 0.125], 2 * z) for z in range(3)],
        )
        scored = [r.score_per_point for r in hmcd_detect_all(quantized, corpus, k=99)]
        assert any(len(set(v)) < len(v) and len(set(v)) > 1 for v in scored)
        for model in (tied, quantized, random_model(rng, 3, 6)):
            results = hmcd_detect_all(model, corpus, k=k)
            assert [r.user_id for r in results] == [s.user_id for s in corpus]
            for s, r in zip(corpus, results):
                assert (r.predicted, r.score_per_point) == switch_points(model, s.items, viterbi_decode(model, s).states, k)
            reordered = hmcd_detect_all(model, corpus[::-1], k=k)
            assert reordered == results[::-1]
        every_switch = [r.score_per_point for r in hmcd_detect_all(tied, corpus, k=99)]
        assert sum(len(v) > k for v in every_switch) > 10 and len({x for v in every_switch for x in v}) == 1

    def test_batch_rejects_bad_k_before_decoding(self):
        # the sequence is impossible under the model, so decoding would fail
        model = HmmModel(pi=[1.0, 0.0], trans=np.eye(2), emit=np.eye(2))
        with pytest.raises(ValueError, match="^k: must be >= 1, got 0$"):
            hmcd_detect_all(model, [seq([0, 1])], k=0)

    def test_batch_of_nothing(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert hmcd_detect_all(model, [], k=1) == []


class TestPartition:
    def test_two_segments(self):
        segs = partition(seq([5, 6, 7, 8]), [2])
        assert [s.tolist() for s in segs] == [[5, 6], [7, 8]]

    def test_no_points(self):
        segs = partition(seq([5, 6, 7]), [])
        assert [s.tolist() for s in segs] == [[5, 6, 7]]

    def test_even_split_lengths(self):
        segs = partition(seq(list(range(80))), [40])
        assert [len(s) for s in segs] == [40, 40]

    def test_concatenation_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            T = int(rng.integers(2, 30))
            items = rng.integers(0, 100, size=T)
            n_pts = int(rng.integers(0, min(4, T - 1) + 1))
            pts = sorted(rng.choice(np.arange(1, T), size=n_pts, replace=False).tolist())
            segs = partition(seq(items), pts)
            assert len(segs) == n_pts + 1
            np.testing.assert_array_equal(np.concatenate(segs), items)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            partition(seq([1, 2, 3]), [0])
        with pytest.raises(ValueError):
            partition(seq([1, 2, 3]), [3])
        with pytest.raises(ValueError):
            partition(seq([1, 2, 3, 4]), [2, 2])
        with pytest.raises(ValueError):
            partition(seq([1, 2, 3, 4]), [3, 1])


class TestSegmentedMatrix:
    def test_single_user_incidence(self):
        sm = build_segmented_matrix({"u": [[0], [1]]}, m=2)
        assert isinstance(sm, np.ndarray) and sm.dtype == np.float64
        # one row per segment, in sequence order
        np.testing.assert_array_equal(sm, [[1, 0], [0, 1]])

    def test_repeats_collapse_to_incidence(self):
        sm = build_segmented_matrix({"u": [[1, 1, 1, 0]]}, m=3)
        np.testing.assert_array_equal(sm, [[1, 1, 0]])

    def test_row_count_is_users_times_segments(self):
        sm = build_segmented_matrix(
            {"a": [[0], [1]], "b": [[2], []]}, m=3
        )
        assert sm.shape == (4, 3)
        np.testing.assert_array_equal(sm[3], [0, 0, 0])
        # user b's first segment follows both of user a's
        np.testing.assert_array_equal(sm[2], [0, 0, 1])

    def test_union_of_rows_is_user_item_set(self):
        rng = np.random.default_rng(11)
        items = rng.integers(0, 12, size=20)
        segs = partition(seq(items), [7, 13])
        sm = build_segmented_matrix({"u": [s.tolist() for s in segs]}, m=12)
        union = sm.max(axis=0)
        expected = np.zeros(12)
        expected[items] = 1.0
        np.testing.assert_array_equal(union, expected)

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            build_segmented_matrix({"a": [[0]], "b": [[1], [2]]}, m=3)

    def test_rejects_out_of_range_items(self):
        with pytest.raises(ValueError):
            build_segmented_matrix({"a": [[5]]}, m=3)


def loop_incidence(item_lists, m):
    """The row-at-a-time fill the shared builder replaced; the oracle."""
    rows = np.zeros((len(item_lists), m))
    for r, items in enumerate(item_lists):
        rows[r, np.asarray(items, dtype=np.int64)] = 1.0
    return rows


class TestIncidenceMatrix:
    def ragged_segments(self):
        """Users with repeated items, every segment count padded to 3, and
        empty segments both inside and at the end of a user's rows."""
        rng = np.random.default_rng(41)
        by_user = {}
        for u in range(9):
            items = rng.integers(0, 7, size=int(rng.integers(2, 30)))
            points = sorted(rng.choice(np.arange(1, len(items)), size=min(2, len(items) - 1), replace=False))
            segs = partition(seq(items, user=f"u{u}"), [int(p) for p in points])
            segs += [np.array([], dtype=np.int64)] * (3 - len(segs))
            by_user[f"u{u}"] = segs
        by_user["u2"][1] = np.array([], dtype=np.int64)
        by_user["u5"] = [np.array([3, 3, 3]), np.array([], dtype=np.int64), np.array([], dtype=np.int64)]
        return by_user

    def test_matches_row_loop_on_ragged_corpus(self):
        by_user = self.ragged_segments()
        flat = [segment for segs in by_user.values() for segment in segs]
        assert any(len(s) == 0 for s in flat)
        assert any(len(np.unique(s)) < len(s) for s in flat)
        labels = [f"row {r}" for r in range(len(flat))]
        np.testing.assert_array_equal(incidence_matrix(flat, 9, labels), loop_incidence(flat, 9))
        sm = build_segmented_matrix(by_user, m=9)
        np.testing.assert_array_equal(sm, loop_incidence(flat, 9))
        # users in mapping order, each user's segments in sequence order
        for r, (u, o) in enumerate((u, o) for u in by_user for o in range(3)):
            np.testing.assert_array_equal(sm[r], loop_incidence([by_user[u][o]], 9)[0])

    def test_whole_sequences_match_row_loop(self):
        rng = np.random.default_rng(43)
        corpus = [seq(rng.integers(0, 25, size=int(rng.integers(1, 40))), user=f"u{i}") for i in range(30)]
        items = [s.items for s in corpus]
        got = incidence_matrix(items, 25, [s.user_id for s in corpus])
        np.testing.assert_array_equal(got, loop_incidence(items, 25))
        assert got.dtype == np.float64

    def test_no_rows(self):
        assert incidence_matrix([], 4, []).shape == (0, 4)

    def test_error_names_the_first_bad_row(self):
        with pytest.raises(ValueError, match=r"^row b has item 3; items must lie in \[0, 3\)$"):
            incidence_matrix([[0], [2, 3], [-1]], 3, ["row a", "row b", "row c"])
        with pytest.raises(ValueError, match=r"^row c has item -1; items must lie in \[0, 3\)$"):
            incidence_matrix([[0], [], [-1]], 3, ["row a", "row b", "row c"])

    def test_segmented_error_names_user_and_segment(self):
        by_user = {"a": [[0], [1]], "b": [[2], [5]]}
        with pytest.raises(ValueError, match=r"^user 'b' segment 1 has item 5; items must lie in \[0, 3\)$"):
            build_segmented_matrix(by_user, m=3)
        with pytest.raises(ValueError, match=r"^user 'a' segment 0 has item -2; items must lie in \[0, 3\)$"):
            build_segmented_matrix({"a": [[-2], []]}, m=3)

    def test_cooccurrence_error_names_user(self):
        corpus = [seq([0, 1], user="a"), seq([1, 9], user="b")]
        with pytest.raises(ValueError, match=r"^user 'b' has item 9; items must lie in \[0, 5\)$"):
            cooccurrence_item_vectors(corpus, m=5)


def loop_cusum_detect(values, tau):
    """The boolean-mask crossing rule the shared helper replaced; the oracle."""
    above = np.cumsum(values) > tau
    if above.any():
        return int(np.argmax(above)), False
    return len(values) - 1, True


def loop_tune_cusum_threshold(corpus, values_of, grid_size):
    """The grid x T boolean-matrix tuner the shared helper replaced; the oracle."""
    sums = [np.cumsum(values_of(s)) for s in corpus]
    grid = np.linspace(0.0, float(np.mean([r[-1] for r in sums])), grid_size)
    total = np.zeros(grid_size)
    for s, running in zip(corpus, sums):
        above = running[None, :] > grid[:, None]
        j = np.where(above.any(axis=1), above.argmax(axis=1), len(s) - 1)
        total += np.abs(j - s.truth_change)
    return float(grid[np.argmin(total)])


class TestCusum:
    def test_matches_mask_loop_with_negative_steps_and_ties(self):
        rng = np.random.default_rng(47)
        table = np.round(rng.normal(0.5, 3.0, size=15))
        assert table.min() < 0

        def stat(i):
            return float(table[i])

        def values_of(s):
            return table[s.items]

        corpus = []
        for u in range(40):
            T = int(rng.integers(2, 30))
            corpus.append(seq(rng.integers(0, 15, size=T), user=f"u{u}", truth=int(rng.integers(1, T))))
        assert any(np.any(np.diff(np.cumsum(values_of(s))) < 0) for s in corpus)
        for s in corpus:
            running = np.cumsum(values_of(s))
            # every running total as tau is a total exactly equal to tau
            for tau in [-np.inf, -1.5, 0.0, 2.5, np.inf, *running.tolist()]:
                assert cusum_detect(s, tau, stat) == loop_cusum_detect(values_of(s), tau), (s.user_id, tau)
        for grid_size in (1, 2, 50):
            assert tune_cusum_threshold(corpus, stat, grid_size) == loop_tune_cusum_threshold(
                corpus, values_of, grid_size
            )

    def test_total_equal_to_tau_is_not_a_crossing(self):
        assert cusum_detect(seq([1, 1, 1, 1]), tau=2.0) == (2, False)
        # running totals 3, 1, 2: the only crossing of 2.5 is the first step
        assert cusum_detect(seq([0, 1, 2]), tau=2.5, stat=lambda i: [3.0, -2.0, 1.0][i]) == (0, False)
        assert cusum_detect(seq([0, 1, 2]), tau=3.0, stat=lambda i: [3.0, -2.0, 1.0][i]) == (2, True)
        # final sums 10 and 14 make the 13-point grid the integers 0..12,
        # so every grid point equals some running total
        corpus = [seq([1, 2, 3, 4], user="a", truth=3), seq([5, 5, 4], user="b", truth=1)]
        for grid_size in (13, 25):
            want = loop_tune_cusum_threshold(corpus, lambda s: s.items.astype(float), grid_size)
            assert tune_cusum_threshold(corpus, grid_size=grid_size) == want

    def test_rejects_non_finite_statistic(self):
        with pytest.raises(ValueError, match="stat gave a non-finite value on sequence 'u'"):
            cusum_detect(seq([0, 1]), tau=1.0, stat=lambda i: [1.0, np.nan][i])
        with pytest.raises(ValueError, match="non-finite"):
            tune_cusum_threshold([seq([0, 1], truth=1)], stat=lambda i: np.inf)

    def test_first_crossing(self):
        assert cusum_detect(seq([1, 1, 1, 1]), tau=2.5) == (2, False)

    def test_never_crossing_returns_last_flagged(self):
        assert cusum_detect(seq([1, 1, 1, 1]), tau=float("inf")) == (3, True)

    def test_custom_statistic(self):
        # constant statistic 2 per step: sums 2, 4, 6
        idx, flagged = cusum_detect(seq([9, 9, 9]), tau=5.0, stat=lambda i: 2.0)
        assert (idx, flagged) == (2, False)

    def test_tuner_hits_zero_error_when_attainable(self):
        # truth sits exactly where taus in [2, 3) put the crossing
        corpus = [seq([1, 1, 1, 1], truth=2)]
        tau = tune_cusum_threshold(corpus)
        idx, _ = cusum_detect(corpus[0], tau)
        assert idx == 2

    def test_tuner_single_point_grid(self):
        corpus = [seq([1, 2, 3], truth=1)]
        assert tune_cusum_threshold(corpus, grid_size=1) == 0.0

    def test_tuner_requires_truth(self):
        with pytest.raises(ValueError):
            tune_cusum_threshold([seq([1, 2, 3])])

    def test_tuner_matches_exhaustive_grid_evaluation(self):
        rng = np.random.default_rng(13)
        corpus = []
        for i in range(20):
            T = int(rng.integers(5, 25))
            corpus.append(
                seq(rng.integers(0, 9, size=T), user=f"u{i}", truth=int(rng.integers(1, T)))
            )
        grid_size = 57
        tau = tune_cusum_threshold(corpus, grid_size=grid_size)
        upper = np.mean([np.cumsum(s.items.astype(float))[-1] for s in corpus])
        grid = np.linspace(0.0, upper, grid_size)
        means = []
        for g in grid:
            deltas = []
            for s in corpus:
                idx, _ = cusum_detect(s, float(g))
                deltas.append(displacement_error(s.truth_change, idx))
            means.append(np.mean(deltas))
        assert tau == float(grid[int(np.argmin(means))])


class TestSlidingWindow:
    def test_perfect_two_cluster_split(self):
        vectors = np.array([[0.0, 0.0]] * 3 + [[3.0, 4.0]] * 3)
        idx, flagged = sliding_window_detect(seq([0, 1, 2, 3, 4, 5]), vectors)
        assert (idx, flagged) == (3, False)

    def test_identical_vectors_are_degenerate(self):
        vectors = np.ones((4, 3))
        idx, flagged = sliding_window_detect(seq([0, 1, 2, 3]), vectors)
        assert (idx, flagged) == (1, True)

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            sliding_window_detect(seq([0]), np.ones((2, 2)))

    def test_rejects_missing_item_rows(self):
        with pytest.raises(ValueError):
            sliding_window_detect(seq([0, 5]), np.ones((3, 2)))

    def test_matches_naive_objective_argmax(self):
        # summation order differs between the naive oracle and the prefix-sum
        # implementation, so exact ties can resolve differently; the chosen
        # split must score within numerical noise of the oracle's maximum
        rng = np.random.default_rng(17)
        for _ in range(20):
            m, T = 6, int(rng.integers(2, 10))
            vectors = rng.normal(size=(m, 3))
            items = rng.integers(0, m, size=T)

            def dist(a, b):
                return float(np.linalg.norm(vectors[items[a]] - vectors[items[b]]))

            objs = {}
            for t in range(1, T):
                intra = [
                    -dist(a, b)
                    for group in (range(0, t), range(t, T))
                    for a in group
                    for b in group
                    if a < b
                ]
                inter = [-dist(a, b) for a in range(0, t) for b in range(t, T)]
                objs[t] = (np.mean(intra) if intra else 0.0) - np.mean(inter)
            idx, flagged = sliding_window_detect(seq(items), vectors)
            assert not flagged
            assert objs[idx] >= max(objs.values()) - 1e-9

    def test_exact_tie_prefers_smallest_split(self):
        # 1-D 0/1 vectors make all pair distances exact, and [0,1,0,1] ties
        # t=1 with t=3 at objective zero
        vectors = np.array([[0.0], [1.0]])
        idx, flagged = sliding_window_detect(seq([0, 1, 0, 1]), vectors)
        assert (idx, flagged) == (1, False)


def sliding_window_corpus():
    """About 200 seeded sequences over 60 items, drawn from a skewed
    distribution so that items repeat, plus a sequence of one repeated item,
    a sequence of two, and items 50-59 each consumed by one user only."""
    rng = np.random.default_rng(24)
    weights = 1.0 / np.arange(1, 51)
    corpus = [
        seq(rng.choice(50, size=int(rng.integers(2, 40)), p=weights / weights.sum()), user=f"u{i}")
        for i in range(196)
    ]
    corpus += [seq([7] * 6, user="same"), seq([3, 12], user="pair")]
    corpus += [seq(np.concatenate([rng.integers(0, 50, size=10), [50 + j, 55 + j]]), user=f"solo{j}") for j in range(5)]
    return corpus, cooccurrence_item_vectors(corpus, 60)


class TestSlidingWindowBatch:
    def test_corpus_splits_match_the_per_sequence_reference(self):
        corpus, vectors = sliding_window_corpus()
        expected = [sliding_window_reference(s.items, vectors) for s in corpus]
        assert sliding_window_detect_all(corpus, vectors) == expected
        assert expected[196] == (1, True)

    def test_length_groups_match_the_per_sequence_oracle(self):
        """Several sequences per length, a flat sequence in a group of non-flat
        ones, length-2 sequences, and a length-300 group that spans three
        blocks of at most 2**18 distances.  Integer vectors make every
        distance exact, so the flat sequences' distances are exactly zero."""
        rng = np.random.default_rng(37)
        vectors = rng.integers(-3, 4, size=(40, 4)).astype(float)
        vectors[30:] = vectors[30]
        lengths = [2] * 5 + [7] * 6 + [300] * 5 + [25] * 4
        corpus = [seq(rng.integers(0, 30, size=n), user=f"u{i}") for i, n in enumerate(lengths)]
        corpus += [seq(rng.integers(30, 40, size=7), user="flat"), seq([31, 35], user="flat-pair")]
        corpus = [corpus[i] for i in rng.permutation(len(corpus))]
        uniq = np.unique(np.concatenate([s.items for s in corpus]))
        dist = _distance_table(vectors, uniq)
        expected = []
        for s in corpus:
            pos = np.searchsorted(uniq, s.items)
            expected.append(best_split(dist[np.ix_(pos, pos)]))
        assert sliding_window_detect_all(corpus, vectors) == expected
        flat = {s.user_id: split for s, split in zip(corpus, expected) if split[1]}
        assert flat == {"flat": (1, True), "flat-pair": (1, True)}

    def test_batch_of_one_equals_the_reference(self):
        corpus, vectors = sliding_window_corpus()
        for s in corpus:
            assert sliding_window_detect(s, vectors) == sliding_window_reference(s.items, vectors)


class TestRandomPartition:
    def test_range_includes_both_ends(self):
        values = {random_partition(seq([4]), rng_seed=i) for i in range(50)}
        assert values <= {0, 1}
        assert values == {0, 1}

    def test_deterministic_per_seed(self):
        s = seq(list(range(30)))
        assert random_partition(s, rng_seed=99) == random_partition(s, rng_seed=99)

    def test_mean_near_half_length(self):
        s = seq(list(range(80)))
        draws = [random_partition(s, rng_seed=i) for i in range(10_000)]
        assert abs(np.mean(draws) - 40.0) < 2.0


def test_displacement_error_values():
    assert displacement_error(40, 40) == 0.0
    assert displacement_error(40, 23) == 17.0
    assert displacement_error(23, 40) == 17.0


class TestCooccurrenceVectors:
    def test_hand_built_profiles(self):
        corpus = [seq([0, 1], user="a"), seq([1, 2], user="b")]
        vectors = cooccurrence_item_vectors(corpus, m=4)
        r2 = np.sqrt(2.0)
        np.testing.assert_allclose(
            vectors,
            [[1.0, 0.0], [1 / r2, 1 / r2], [0.0, 1.0], [0.0, 0.0]],
        )

    def test_rows_unit_or_zero_norm(self):
        rng = np.random.default_rng(29)
        corpus = [
            seq(rng.integers(0, 15, size=int(rng.integers(2, 12))), user=f"u{i}")
            for i in range(8)
        ]
        vectors = cooccurrence_item_vectors(corpus, m=20)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))

    def test_rejects_items_outside_vocabulary(self):
        with pytest.raises(ValueError):
            cooccurrence_item_vectors([seq([7])], m=5)

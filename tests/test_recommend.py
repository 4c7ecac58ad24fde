import dataclasses

import numpy as np
import pytest

import driftrec.recommend
from driftrec.factorization import FactorPair
from driftrec.hmm import HmmModel
from driftrec.recommend import (
    ItemFactors,
    Recommendation,
    factors_from_pair,
    hmm_item_factors,
    hmmr_recommend,
    item_popularity,
    neighbor_order,
    pop_rank,
    recommend_from_segments,
    score_by_segment,
    smf_recommend,
)

from conftest import random_model, two_state_disjoint_model


def posterior_oracle(model):
    """Scalar-loop re-derivation of the per-item state posterior."""
    h, m = model.num_states, model.num_items
    p_s = [sum(model.trans[sp, s] for sp in range(h)) for s in range(h)]
    z = sum(p_s)
    p_s = [v / z for v in p_s]
    p_i = [sum(model.emit[s, i] * p_s[s] for s in range(h)) for i in range(m)]
    z = sum(p_i)
    p_i = [v / z for v in p_i]
    rows = []
    for i in range(m):
        row = [model.emit[s, i] * p_s[s] / p_i[i] for s in range(h)]
        z = sum(row)
        rows.append([v / z for v in row])
    return np.array(rows)


def lexsort_oracle(vectors, segment, l):
    """The per-occurrence scorer the neighbor-order table replaced: one BLAS
    product of the segment against every item, then a lexsort per occurrence."""
    vectors = np.asarray(vectors, dtype=float)
    seg = np.asarray(segment, dtype=np.int64)
    m = vectors.shape[0]
    sims = vectors[seg] @ vectors.T
    sims[:, np.unique(seg)] = -np.inf
    idx = np.arange(m)
    votes = np.zeros(m)
    for row in sims:
        top = np.lexsort((idx, -row))[:l]
        top = top[np.isfinite(row[top])]
        votes[top] += 1.0
    return votes / len(seg)


def tie_heavy_vectors(rng, m, d):
    """Small-integer vectors with duplicated and all-zero rows, so that many
    similarities tie exactly."""
    vectors = rng.integers(-2, 3, size=(m, d)).astype(float)
    vectors[rng.choice(m, m // 4, replace=False)] = vectors[rng.choice(m, m // 4, replace=False)]
    vectors[rng.choice(m, m // 10, replace=False)] = 0.0
    return vectors


def counting(monkeypatch, name):
    """Replace driftrec.recommend.<name> by a wrapper; returns its call list."""
    calls = []
    original = getattr(driftrec.recommend, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(driftrec.recommend, name, wrapper)
    return calls


class TestItemFactorsType:
    def test_hmm_rows_must_be_distributions(self):
        with pytest.raises(ValueError):
            ItemFactors(vectors=[[0.7, 0.7]], source="hmm")
        with pytest.raises(ValueError):
            ItemFactors(vectors=[[1.2, -0.2]], source="hmm")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            ItemFactors(vectors=[[1.0]], source="magic")

    def test_wrap_factor_pair(self):
        pair = FactorPair(p=np.ones((2, 3)), q=np.ones((5, 3)), d=3)
        factors = factors_from_pair(pair, "nmf")
        assert factors.vectors.shape == (5, 3)
        assert factors.source == "nmf"


class TestRecommendationType:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Recommendation(user_id="u", ranked_items=[1, 1], scores=[0.5, 0.5])

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError):
            Recommendation(user_id="u", ranked_items=[1, 2], scores=[0.2, 0.5])


class TestHmmItemFactors:
    def test_single_state(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.25, 0.25, 0.5]])
        factors = hmm_item_factors(model)
        np.testing.assert_array_equal(factors.vectors, [[1.0], [1.0], [1.0]])

    def test_disjoint_supports_force_posterior(self):
        model = HmmModel(
            pi=[0.5, 0.5],
            trans=[[0.5, 0.5], [0.5, 0.5]],
            emit=[[0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]],
        )
        factors = hmm_item_factors(model)
        assert factors.vectors[0, 0] == pytest.approx(1.0)
        assert factors.vectors[2, 1] == pytest.approx(1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            model = random_model(rng, h=3, m=5)
            factors = hmm_item_factors(model)
            np.testing.assert_allclose(
                factors.vectors, posterior_oracle(model), rtol=1e-10
            )

    def test_item_with_zero_emission_mass_rejected(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match="item 1 has zero emission mass"):
            hmm_item_factors(model)

    def test_vanished_emission_mass_rejected(self):
        # HmmModel validates on construction only; a caller that zeroes the
        # emissions afterwards must get an error, not a division by zero
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.5]])
        model.emit = np.zeros((1, 2))
        with pytest.raises(ValueError, match="emission mass vanished"):
            hmm_item_factors(model)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(37)
        model = random_model(rng, h=4, m=9)
        factors = hmm_item_factors(model)
        assert factors.vectors.min() >= 0.0
        np.testing.assert_allclose(factors.vectors.sum(axis=1), 1.0, atol=1e-9)


class TestScoreBySegment:
    def test_single_item_single_neighbor(self):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 0.1]])
        factors = ItemFactors(vectors=vectors, source="nmf")
        scores = score_by_segment(factors, [0], l=1)
        np.testing.assert_array_equal(scores, [0.0, 1.0, 0.0])

    def test_shared_neighbors_score_full(self):
        # items 0 and 1 both neighbor 2 and 3; l covers every candidate
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.4, 0.0]])
        factors = ItemFactors(vectors=vectors, source="nmf")
        scores = score_by_segment(factors, [0, 1], l=10)
        np.testing.assert_array_equal(scores, [0.0, 0.0, 1.0, 1.0])

    def test_matches_brute_force(self, monkeypatch):
        """Votes bit-equal to the per-occurrence lexsort scorer.  One
        ItemFactors serves segments of growing width, so its cached table
        prefix widens; the 600-item cases span three build blocks."""
        builds = counting(monkeypatch, "neighbor_order")
        rng = np.random.default_rng(41)
        cases = [
            (rng.normal(size=(8, 4)), 2),
            (tie_heavy_vectors(rng, 12, 2), 5),
            (rng.normal(size=(600, 6)), 10),
            (tie_heavy_vectors(rng, 600, 3), 20),
        ]
        for vectors, l in cases:
            m = len(vectors)
            factors = ItemFactors(vectors=vectors, source="bpr")
            segments = [rng.choice(m, size=size) for size in (1, 2, 3, 5, 9, 40, m // 2) for _ in range(4)]
            # every item but one, and every item: fewer than l candidates remain
            segments += [np.arange(1, m), np.arange(m)]
            del builds[:]
            for segment in segments:
                got = score_by_segment(factors, segment, l)
                np.testing.assert_array_equal(got, lexsort_oracle(vectors, segment, l))
            assert len(builds) > 1
            assert builds[-1][1] == m

    def test_blocked_table_matches_whole_product(self):
        rng = np.random.default_rng(42)
        for vectors in (rng.normal(size=(600, 5)), tie_heavy_vectors(rng, 600, 2)):
            whole = np.argsort(-(vectors @ vectors.T), axis=1, kind="stable")
            table = neighbor_order(vectors, 600)
            assert table.dtype == np.int16
            np.testing.assert_array_equal(table, whole)
            np.testing.assert_array_equal(neighbor_order(vectors, 37), whole[:, :37])

    def test_segment_order_irrelevant(self):
        rng = np.random.default_rng(43)
        vectors = rng.normal(size=(10, 3))
        factors = ItemFactors(vectors=vectors, source="bpr")
        segment = [4, 1, 7, 1]
        a = score_by_segment(factors, segment, l=3)
        b = score_by_segment(factors, segment[::-1], l=3)
        np.testing.assert_array_equal(a, b)

    def test_repeated_item_votes_twice(self):
        vectors = np.array([[1.0], [0.9], [0.1]])
        factors = ItemFactors(vectors=vectors, source="nmf")
        scores = score_by_segment(factors, [0, 0], l=1)
        # both copies of item 0 vote for item 1
        np.testing.assert_array_equal(scores, [0.0, 1.0, 0.0])

    def test_uniform_scaling_leaves_scores_unchanged(self):
        rng = np.random.default_rng(47)
        vectors = rng.normal(size=(9, 3))
        segment = [2, 5]
        a = score_by_segment(ItemFactors(vectors=vectors, source="bpr"), segment, l=3)
        b = score_by_segment(
            ItemFactors(vectors=2.7 * vectors, source="bpr"), segment, l=3
        )
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty_segment(self):
        factors = ItemFactors(vectors=np.ones((3, 2)), source="nmf")
        with pytest.raises(ValueError):
            score_by_segment(factors, [], l=2)

    def test_scores_live_in_unit_interval(self):
        rng = np.random.default_rng(53)
        vectors = rng.normal(size=(12, 4))
        factors = ItemFactors(vectors=vectors, source="bpr")
        scores = score_by_segment(factors, [0, 3, 3, 9], l=4)
        assert scores.min() >= 0.0 and scores.max() <= 1.0


class TestCachedState:
    def _request(self, model):
        return hmmr_recommend(
            model, [[0, 1, 2], [5, 6, 6]], [0, 1, 2, 5, 6], np.zeros(30), l=4, N=5
        )

    def test_hmmr_inverts_and_builds_once_per_model(self, monkeypatch):
        inversions = counting(monkeypatch, "hmm_item_factors")
        builds = counting(monkeypatch, "neighbor_order")
        model = random_model(np.random.default_rng(61), h=3, m=30)
        first = self._request(model)
        for _ in range(4):
            assert self._request(model) == first
        assert (len(inversions), len(builds)) == (1, 1)
        # a second instance with the same parameters gets its own
        twin = HmmModel(pi=model.pi, trans=model.trans, emit=model.emit)
        assert self._request(twin) == first
        assert (len(inversions), len(builds)) == (2, 2)

    def test_replacing_model_arrays_inverts_again(self, monkeypatch):
        inversions = counting(monkeypatch, "hmm_item_factors")
        model = random_model(np.random.default_rng(67), h=3, m=30)
        self._request(model)
        model.emit = random_model(np.random.default_rng(71), h=3, m=30).emit
        self._request(model)
        assert len(inversions) == 2

    def test_cached_inputs_cannot_be_mutated(self):
        source = np.random.default_rng(73).normal(size=(6, 2))
        factors = ItemFactors(vectors=source, source="bpr")
        with pytest.raises(ValueError, match="read-only"):
            factors.vectors[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            factors.vectors = np.zeros((6, 2))
        with pytest.raises(ValueError, match="read-only"):
            factors.neighbors(3)[0, 0] = 1
        # the factors own a copy, so the caller's array stays writable and apart
        source[0, 0] = 99.0
        assert factors.vectors[0, 0] != 99.0
        model = random_model(np.random.default_rng(79), h=2, m=6)
        for arr in (model.pi, model.trans, model.emit):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    def test_non_finite_vectors_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ItemFactors(vectors=[[1.0, np.nan]], source="bpr")


class TestSegmentRecommenders:
    def _cluster_factors(self):
        # two tight clusters in factor space: items 0-3 and items 4-7
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        jitter = np.linspace(0.0, 0.03, 4)[:, None]
        vectors = np.vstack([a + jitter * b, b + jitter * a])
        return ItemFactors(vectors=vectors, source="nmf")

    def test_heldout_cluster_items_reach_top_n(self):
        factors = self._cluster_factors()
        popularity = np.zeros(8)
        rec = smf_recommend(
            factors,
            segments=[[0, 1], [4, 5]],
            training_items=[0, 1, 4, 5],
            popularity=popularity,
            l=2,
            N=2,
            user_id="u",
        )
        assert set(rec.ranked_items) == {6, 7}
        assert not rec.used_fallback

    def test_n_beyond_candidates_shortens_list(self):
        factors = self._cluster_factors()
        rec = smf_recommend(
            factors,
            segments=[[4, 5]],
            training_items=[0, 1, 2, 3, 4, 5],
            popularity=np.zeros(8),
            l=3,
            N=50,
        )
        assert len(rec.ranked_items) == 2

    def test_tie_break_popularity_then_index(self):
        # all vectors identical: every candidate inside l ties at score 1
        factors = ItemFactors(vectors=np.ones((6, 2)), source="nmf")
        popularity = np.array([0.0, 5.0, 2.0, 2.0, 9.0, 1.0])
        rec = smf_recommend(
            factors,
            segments=[[0]],
            training_items=[0],
            popularity=popularity,
            l=10,
            N=5,
        )
        assert rec.ranked_items == [4, 1, 2, 3, 5]

    def test_smf_recommend_is_the_shared_rule(self):
        assert smf_recommend is recommend_from_segments

    def test_empty_last_segment_falls_back_flagged(self):
        factors = self._cluster_factors()
        rec = smf_recommend(
            factors,
            segments=[[4, 5], []],
            training_items=[4, 5],
            popularity=np.zeros(8),
            l=2,
            N=2,
        )
        assert rec.used_fallback
        assert set(rec.ranked_items) == {6, 7}

    def test_all_segments_empty_is_an_error(self):
        factors = self._cluster_factors()
        with pytest.raises(ValueError):
            smf_recommend(
                factors,
                segments=[[], []],
                training_items=[],
                popularity=np.zeros(8),
            )

    def test_never_recommends_training_items(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            vectors = rng.normal(size=(15, 3))
            factors = ItemFactors(vectors=vectors, source="bpr")
            training = rng.choice(15, size=6, replace=False).tolist()
            segments = [training[:3], training[3:]]
            rec = recommend_from_segments(
                factors,
                segments,
                training,
                popularity=rng.random(15),
                l=4,
                N=10,
            )
            assert not set(rec.ranked_items) & set(training)
            assert len(set(rec.ranked_items)) == len(rec.ranked_items)

    def test_hmmr_disjoint_recommends_current_state_items(self):
        model = two_state_disjoint_model(4, 4)
        rec = hmmr_recommend(
            model,
            segments=[[0, 1], [4, 5]],
            training_items=[0, 1, 4, 5],
            popularity=np.zeros(8),
            l=2,
            N=2,
        )
        assert set(rec.ranked_items) <= {6, 7}
        factors = hmm_item_factors(model)
        for item in rec.ranked_items:
            assert factors.vectors[item, 1] == pytest.approx(1.0)

    def test_hmmr_single_state_degenerates_to_popularity(self):
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.2, 0.2, 0.2, 0.2, 0.2]])
        popularity = np.array([3.0, 7.0, 1.0, 9.0, 2.0])
        rec = hmmr_recommend(
            model,
            segments=[[0]],
            training_items=[0],
            popularity=popularity,
            l=10,
            N=4,
        )
        assert rec.ranked_items == [3, 1, 4, 2]


class TestPopRank:
    def _matrix(self):
        # frequencies per column: [5, 3, 3, 1]
        M = np.zeros((5, 4))
        M[:, 0] = 1.0
        M[:3, 1] = 1.0
        M[2:, 2] = 1.0
        M[0, 3] = 1.0
        return M

    def test_most_popular_first(self):
        rec = pop_rank(self._matrix(), user_items=[], N=2, user_id="u")
        assert rec.ranked_items == [0, 1]
        assert rec.scores == [5.0, 3.0]

    def test_owned_top_item_excluded(self):
        rec = pop_rank(self._matrix(), user_items=[0], N=2)
        assert rec.ranked_items == [1, 2]

    def test_frequency_ties_break_by_index(self):
        rec = pop_rank(self._matrix(), user_items=[], N=4)
        assert rec.ranked_items == [0, 1, 2, 3]

    def test_popularity_matches_recount(self):
        rng = np.random.default_rng(61)
        M = (rng.random((30, 12)) < 0.3).astype(float)
        pop = item_popularity(M)
        manual = [sum(1 for u in range(30) if M[u, i] > 0) for i in range(12)]
        np.testing.assert_array_equal(pop, manual)

import numpy as np
import pytest

from driftrec.factorization import FactorPair
from driftrec.hmm import HmmModel
from driftrec.recommend import (
    ItemFactors,
    Recommendation,
    factors_from_pair,
    hmm_item_factors,
    hmmr_recommend,
    item_popularity,
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


def score_oracle(vectors, segment, l):
    """Per-item neighbor voting via explicit enumeration and python sort."""
    m = len(vectors)
    seg_set = set(int(i) for i in segment)
    votes = [0.0] * m
    for i_prime in segment:
        sims = [
            (float(np.dot(vectors[i_prime], vectors[j])), j)
            for j in range(m)
            if j not in seg_set
        ]
        sims.sort(key=lambda t: (-t[0], t[1]))
        for _, j in sims[:l]:
            votes[j] += 1.0
    return np.array(votes) / len(segment)


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

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            vectors = rng.normal(size=(8, 4))
            factors = ItemFactors(vectors=vectors, source="bpr")
            segment = rng.choice(8, size=3, replace=False).tolist()
            got = score_by_segment(factors, segment, l=2)
            np.testing.assert_allclose(got, score_oracle(vectors, segment, 2))

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

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
    rank_by_scores,
    recommend_from_segments,
    score_by_segment,
    smf_recommend,
)

from conftest import random_model, two_state_disjoint_model
from oracles import neighbor_order_reference, segment_scores_reference


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


def full_lexsort_rank(scores, popularity, exclude, N):
    """The ranker before top-N selection: a lexsort of every unseen item by
    score desc, popularity desc, index asc; returns (items, scores)."""
    m = len(scores)
    mask = np.ones(m, dtype=bool)
    exclude = np.asarray(exclude, dtype=np.int64)
    if exclude.size:
        mask[exclude] = False
    cand = np.flatnonzero(mask)
    top = cand[np.lexsort((cand, -popularity[cand], -scores[cand]))[:N]]
    return top, scores[top]


def assert_bits_equal(got, want):
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


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
        pair = FactorPair(p=np.ones((2, 3)), q=np.ones((5, 3)))
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="^scores must be finite$"):
            Recommendation(user_id="u", ranked_items=[1, 2], scores=[0.5, bad])

    def test_fields_cannot_be_rebound(self):
        rec = Recommendation(user_id="u", ranked_items=[1, 2], scores=[0.5, 0.2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.scores = [float("nan"), 9.0]
        assert rec.scores == (0.5, 0.2)

    def test_lists_cannot_be_edited_in_place(self):
        rec = Recommendation(user_id="u", ranked_items=[1, 2], scores=[0.5, 0.2])
        with pytest.raises(TypeError):
            rec.scores[0] = float("nan")
        with pytest.raises(TypeError):
            rec.ranked_items[1] = 1
        assert rec.ranked_items == (1, 2) and rec.scores == (0.5, 0.2)


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
        # HmmModel validates on construction only, and is frozen, so no
        # caller can zero the emissions of a valid model afterwards
        model = HmmModel(pi=[1.0], trans=[[1.0]], emit=[[0.5, 0.5]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.emit = np.zeros((1, 2))
        np.testing.assert_array_equal(hmm_item_factors(model).vectors, [[1.0], [1.0]])

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

    def test_selected_table_matches_stable_argsort(self):
        """Bit-equal to the prefix of a full stable argsort at widths 1,
        m - 1, m and at widths that cut through a tie, on tie-heavy vectors
        with duplicate and all-zero rows; 600 items span three blocks."""
        rng = np.random.default_rng(44)
        for vectors in (tie_heavy_vectors(rng, 600, 2), tie_heavy_vectors(rng, 600, 3)):
            m = len(vectors)
            key = -(vectors @ vectors.T)
            whole = np.argsort(key, axis=1, kind="stable")
            ranked = np.take_along_axis(key, whole, axis=1)
            # widths at which some row's last kept entry ties with the next one
            cuts = np.flatnonzero((ranked[:, :-1] == ranked[:, 1:]).any(axis=0)) + 1
            assert cuts.size > 100
            for width in [1, 2, m - 1, m, *rng.choice(cuts, 4, replace=False)]:
                np.testing.assert_array_equal(neighbor_order(vectors, width), whole[:, :width])

    def test_table_with_incomparable_similarities_sorts_in_full(self):
        # a stable sort puts NaN similarities last; rows of the first block are
        # all NaN, later rows hold NaN columns among comparable ones
        vectors = np.random.default_rng(45).normal(size=(300, 2))
        vectors[:256:7] = np.nan
        whole = np.argsort(-(vectors @ vectors.T), axis=1, kind="stable")
        for width in (1, 20, 299):
            np.testing.assert_array_equal(neighbor_order(vectors, width), whole[:, :width])

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

    @pytest.mark.parametrize(
        "segment, match",
        [([[0, 1]], "segment must be a 1-D"), ([0, 1.5], "segment must hold integer")],
        ids=["2-D", "fractional"],
    )
    def test_malformed_segment_rejected(self, segment, match):
        # a 2-D segment used to be flattened while its votes were divided by
        # its row count, scoring items at 2.0
        with pytest.raises(ValueError, match=match):
            score_by_segment(ItemFactors(vectors=np.eye(4), source="nmf"), segment, 2)

    def test_scores_live_in_unit_interval(self):
        rng = np.random.default_rng(53)
        vectors = rng.normal(size=(12, 4))
        factors = ItemFactors(vectors=vectors, source="bpr")
        scores = score_by_segment(factors, [0, 3, 3, 9], l=4)
        assert scores.min() >= 0.0 and scores.max() <= 1.0


SUBNORMALS = np.array([5e-324, 1e-320, 3e-315, 1e-310, 2e-308])


def subnormal_vectors(rng, m, source, posterior=False):
    """Four-dimensional item vectors for source, tie-prone and with
    subnormal entries.  The normal entries are multiples of 1/16, so every
    product and sum of them is exact; hmm rows sum to 1, and duplicated
    rows tie exactly.  Row m - 5 is the first unit vector and most items
    hold a subnormal or zero first entry, so that row's few normal
    similarities are followed by subnormal ones, which flushing ties at zero.
    Subnormals also fill some zero entries elsewhere.  For nmf and bpr, row
    3 is all zero and row 7 all subnormal; bpr flips the sign of about half
    the entries.  posterior divides each row by its sum, as hmm_item_factors
    does: row 7 then has full mantissas, and its products with the short
    ones of the other rows often lie exactly halfway between two doubles,
    where a dropped subnormal term decides which way the sum rounds."""
    vectors = np.zeros((m, 4))
    vectors[:, 1:] = rng.multinomial(8, [1 / 3] * 3, size=m) / 8.0
    vectors[rng.choice(m, m // 5, replace=False)] = vectors[rng.choice(m, m // 5, replace=False)]
    halved = rng.choice(m, 4, replace=False)
    vectors[halved] /= 2.0
    vectors[halved, 0] = 0.5
    zeros = np.argwhere(vectors == 0.0)
    filled = zeros[rng.random(len(zeros)) < 0.4]
    vectors[filled[:, 0], filled[:, 1]] = rng.choice(SUBNORMALS, len(filled))
    vectors[m - 5] = [1.0, 0.0, 0.0, 0.0]
    if source != "hmm":
        vectors[3] = 0.0
        vectors[7] = rng.choice(SUBNORMALS, 4)
    if posterior:
        sums = vectors.sum(axis=1, keepdims=True)
        vectors /= np.where(sums > 0, sums, 1.0)
    if source == "bpr":
        vectors *= rng.choice([-1.0, 1.0], size=vectors.shape)
    return vectors


def flushed(vectors):
    return np.where(np.abs(vectors) < np.finfo(float).tiny, 0.0, vectors)


class TestSubnormalFreeTable:
    """ItemFactors stores its vectors with every subnormal entry set to
    zero and every other entry bit for bit, and its table is the exact
    stable order over those stored vectors."""

    @pytest.mark.parametrize("posterior", [False, True])
    @pytest.mark.parametrize("source", ["nmf", "hmm", "bpr"])
    def test_equals_the_stored_vector_table(self, source, posterior):
        for m in (40, 300, 600):
            rng = np.random.default_rng([123, m])
            given = subnormal_vectors(rng, m, source, posterior)
            want = flushed(given)
            assert (want != given).sum() > m // 8
            factors = ItemFactors(vectors=given, source=source)
            assert_bits_equal(factors.vectors, want)
            for width in (1, 8, 37, m - 1, m):
                np.testing.assert_array_equal(factors.neighbors(width), neighbor_order_reference(want, width))

    def test_vectors_without_subnormals_are_multiplied_once_per_block(self, monkeypatch):
        thresholds = counting(monkeypatch, "_threshold")
        vectors = np.random.default_rng(107).normal(size=(300, 3))
        vectors[[5, 280]] = 0.0
        vectors[9] = 1e-300
        np.testing.assert_array_equal(neighbor_order(vectors, 20), neighbor_order_reference(vectors, 20))
        assert len(thresholds) == 2


class TestScoreBlock:
    """_score_block scores a block of segments in one pass; each row must
    equal the one-segment reference scorer's, bit for bit."""

    def test_rows_equal_the_one_segment_scorer(self):
        rng = np.random.default_rng(109)
        for vectors, l in [
            (rng.normal(size=(40, 3)), 4),
            (tie_heavy_vectors(rng, 600, 3), 10),
            (subnormal_vectors(rng, 600, "nmf"), 20),
        ]:
            m = len(vectors)
            factors = ItemFactors(vectors=vectors, source="bpr")
            # one-item segments, repeated items, widths across many runs of
            # 16, every item but a few (l >= m - |U|), and every item
            segments = [rng.choice(m, size=size) for size in rng.integers(1, m, 60)]
            segments += [np.array([rng.integers(m)]) for _ in range(5)]
            segments += [np.repeat(rng.choice(m, 3), 4), np.arange(3, m), np.arange(m)[::-1]]
            order = rng.permutation(len(segments))
            block = [segments[i] for i in order]
            got = driftrec.recommend._score_block(factors, block, l)
            want = np.stack([segment_scores_reference(factors, segment, l) for segment in block])
            assert_bits_equal(got, want)
            for big_l in (m - 3, m):
                assert_bits_equal(
                    driftrec.recommend._score_block(factors, block[:7], big_l),
                    np.stack([segment_scores_reference(factors, segment, big_l) for segment in block[:7]]),
                )

    def test_score_by_segment_is_a_block_of_one(self):
        rng = np.random.default_rng(113)
        factors = ItemFactors(vectors=tie_heavy_vectors(rng, 300, 2), source="nmf")
        segments = [rng.choice(300, size=size) for size in (1, 2, 9, 40, 299)]
        block = driftrec.recommend._score_block(factors, segments, 6)
        for segment, row in zip(segments, block):
            assert_bits_equal(score_by_segment(factors, segment, 6), row)

    def test_l_past_the_index_type_votes_as_l_equal_to_m(self):
        """The table holds int16 indices below 2**15 items, and the votes
        are counted in that type; an l past it must still score."""
        rng = np.random.default_rng(127)
        factors = ItemFactors(vectors=rng.normal(size=(40, 3)), source="bpr")
        segments = [rng.choice(40, size=size) for size in (1, 5, 39)]
        want = np.stack([segment_scores_reference(factors, segment, 2**15 + 1) for segment in segments])
        assert_bits_equal(driftrec.recommend._score_block(factors, segments, 2**15 + 1), want)
        assert_bits_equal(score_by_segment(factors, segments[1], 2**15 + 1), want[1])
        assert_bits_equal(score_by_segment(factors, segments[1], 40), want[1])

    def test_empty_segment_in_a_block_is_refused(self):
        factors = ItemFactors(vectors=np.eye(4), source="nmf")
        with pytest.raises(ValueError, match="segment must not be empty"):
            driftrec.recommend._score_block(factors, [[0, 1], []], 2)


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
        # a model's arrays cannot be replaced, so its cached inversion cannot go stale
        inversions = counting(monkeypatch, "hmm_item_factors")
        model = random_model(np.random.default_rng(67), h=3, m=30)
        first = self._request(model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.emit = random_model(np.random.default_rng(71), h=3, m=30).emit
        assert self._request(model) == first
        assert len(inversions) == 1

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
        assert rec.ranked_items == (4, 1, 2, 3, 5)

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
        assert rec.ranked_items == (3, 1, 4, 2)


class TestRankSelection:
    def test_matches_full_lexsort(self):
        """Items and scores bit-equal to a full lexsort of every unseen item."""
        rng = np.random.default_rng(83)
        m = 300
        cases = [
            # integer scores: many ties at the N-th value, broken by popularity, then index
            (rng.integers(0, 4, m).astype(float), rng.integers(0, 3, m).astype(float), 10),
            (np.zeros(m), rng.integers(0, 2, m).astype(float), 10),
            (np.zeros(m), np.zeros(m), 25),
            (rng.choice([-0.0, 0.0, 1.0], m), rng.integers(0, 2, m).astype(float), 10),
            (rng.choice([-0.0, 0.0], m), np.zeros(m), 7),
            (rng.normal(size=m), rng.random(m), 10),
            (rng.normal(size=m), rng.random(m), m),
            (rng.integers(0, 3, m).astype(float), rng.integers(0, 2, m).astype(float), m + 5),
        ]
        # no training items, some, all but four (fewer than N remain), all
        excludes = [[], rng.choice(m, 40, replace=False), rng.choice(m, m - 4, replace=False), np.arange(m)]
        for scores, popularity, N in cases:
            for exclude in excludes:
                got = driftrec.recommend._rank(scores, popularity, exclude, N, "u", False)
                items, want = full_lexsort_rank(scores, popularity, exclude, N)
                np.testing.assert_array_equal(got.ranked_items, items)
                assert_bits_equal(got.scores, want)

    def test_negative_training_item_rejected(self):
        # an index of -1 would silently hide the last item
        scores = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="training_items"):
            rank_by_scores(scores, np.zeros(3), training_items=[-1], N=2)

    def test_training_item_past_the_last_rejected(self):
        with pytest.raises(ValueError, match="training_items"):
            rank_by_scores(np.zeros(3), np.zeros(3), training_items=[3], N=2)

    def test_fractional_training_item_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="training_items must hold integer"):
            rank_by_scores(np.array([3.0, 2.0, 1.0]), np.ones(3), [0.5], 2)

    def test_short_popularity_rejected(self):
        factors = ItemFactors(vectors=np.eye(4), source="nmf")
        with pytest.raises(ValueError, match="popularity"):
            recommend_from_segments(factors, [[0]], [0], popularity=np.zeros(3), N=2)

    def test_non_finite_popularity_rejected(self):
        factors = ItemFactors(vectors=np.eye(4), source="nmf")
        with pytest.raises(ValueError, match="popularity"):
            recommend_from_segments(factors, [[0]], [0], popularity=np.array([0.0, np.nan, 1.0, 2.0]), N=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores"):
            rank_by_scores(np.array([1.0, bad, 0.0]), np.zeros(3), training_items=[], N=2)


def rank_block(scores, popularity, excludes, N):
    """_rank_block over the rows of scores, user ids u0, u1, ..."""
    users = [f"u{r}" for r in range(len(scores))]
    return driftrec.recommend._rank_block(scores, popularity, excludes, N, users, [False] * len(scores))


class TestRankBlock:
    def _block(self, rng, m):
        """Rows with ties at the N-th score, -0.0 beside 0.0, all-zero and
        distinct scores; excludes with none, some (repeated), all but four
        (fewer than N unseen) and every item."""
        scores = np.vstack(
            [
                rng.integers(0, 4, m).astype(float),
                rng.choice([-0.0, 0.0, 1.0], m),
                rng.choice([-0.0, 0.0], m),
                np.zeros(m),
                rng.normal(size=m),
                rng.integers(0, 3, m).astype(float),
                rng.choice([-1.0, -0.0, 0.0], m),
            ]
        )
        excludes = [
            [],
            np.repeat(rng.choice(m, 10, replace=False), 2),
            rng.choice(m, m - 4, replace=False),
            np.arange(m),
            rng.choice(m, 7, replace=False),
            [],
            rng.choice(m, m - 1, replace=False),
        ]
        return scores, excludes

    def test_each_row_matches_full_lexsort(self):
        """Each row's items and scores bit-equal to a full lexsort of its
        unseen items, at N = 1, below m, at m and past m."""
        rng = np.random.default_rng(89)
        m = 40
        scores, excludes = self._block(rng, m)
        for popularity in (rng.integers(0, 3, m).astype(float), np.zeros(m)):
            for N in (1, 5, 10, m, m + 5):
                recs = rank_block(scores, popularity, excludes, N)
                assert [rec.user_id for rec in recs] == [f"u{r}" for r in range(len(scores))]
                for rec, row, exclude in zip(recs, scores, excludes):
                    items, want = full_lexsort_rank(row, popularity, exclude, N)
                    np.testing.assert_array_equal(rec.ranked_items, items)
                    assert_bits_equal(rec.scores, want)

    def test_blocks_of_any_size_rank_alike(self):
        """37 users ranked in blocks of 1, 8 (the last one 5 users) and 37
        give the same lists, each the full lexsort's, and keep their flags."""
        rng = np.random.default_rng(91)
        m = 50
        scores, excludes = self._block(rng, m)
        scores = np.vstack([scores] * 5 + [rng.integers(0, 2, (2, m))])
        excludes = excludes * 5 + [[], [3, 3, 4]]
        popularity = rng.integers(0, 4, m).astype(float)
        fallback = [r % 3 == 0 for r in range(len(scores))]
        ranked = {}
        for rows in (1, 8, 37):
            ranked[rows] = [
                rec
                for a in range(0, 37, rows)
                for rec in driftrec.recommend._rank_block(
                    scores[a : a + rows], popularity, excludes[a : a + rows], 10,
                    [f"u{r}" for r in range(a, min(a + rows, 37))], fallback[a : a + rows],
                )
            ]
        assert ranked[1] == ranked[8] == ranked[37]
        assert [rec.used_fallback for rec in ranked[8]] == fallback
        for rec, row, exclude in zip(ranked[8], scores, excludes):
            items, want = full_lexsort_rank(row, popularity, exclude, 10)
            np.testing.assert_array_equal(rec.ranked_items, items)
            assert_bits_equal(rec.scores, want)

    def test_per_user_factor_products_in_one_matmul(self):
        """np.matmul(p[:, None, :], q.T) runs one vector-matrix product per
        user, so its rows are bit-equal to p[u] @ q.T; the recommend stage
        scores NMF and BPR-MF blocks this way."""
        rng = np.random.default_rng(97)
        for n, m, d in ((300, 593, 10), (37, 2000, 16), (5, 7, 3)):
            p, q = rng.random((n, d)), rng.normal(size=(m, d))
            for a, b in ((0, n), (1, n - 1)):
                block = np.matmul(p[a:b, None, :], q.T)[:, 0]
                for u in range(a, b):
                    assert_bits_equal(block[u - a], p[u] @ q.T)


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
        assert rec.ranked_items == (0, 1)
        assert rec.scores == (5.0, 3.0)

    def test_owned_top_item_excluded(self):
        rec = pop_rank(self._matrix(), user_items=[0], N=2)
        assert rec.ranked_items == (1, 2)

    def test_frequency_ties_break_by_index(self):
        rec = pop_rank(self._matrix(), user_items=[], N=4)
        assert rec.ranked_items == (0, 1, 2, 3)

    def test_popularity_matches_recount(self):
        rng = np.random.default_rng(61)
        M = (rng.random((30, 12)) < 0.3).astype(float)
        pop = item_popularity(M)
        manual = [sum(1 for u in range(30) if M[u, i] > 0) for i in range(12)]
        np.testing.assert_array_equal(pop, manual)

    def test_popularity_of_lists_counts_each_list_once(self):
        """Item lists with repeated items count each item once per list, as
        item_popularity counts the rows of their incidence matrix."""
        lists = [np.array([0, 0, 3, 3, 3]), np.array([3]), np.array([], dtype=np.int64), np.array([1, 0, 1])]
        np.testing.assert_array_equal(driftrec.recommend._list_popularity(lists, 5), [2.0, 1.0, 0.0, 2.0, 0.0])
        rng = np.random.default_rng(67)
        lists = [rng.integers(0, 12, rng.integers(1, 30)) for _ in range(40)]
        M = np.zeros((40, 12))
        for r, items in enumerate(lists):
            M[r, items] = 1.0
        np.testing.assert_array_equal(driftrec.recommend._list_popularity(lists, 12), item_popularity(M))
        with pytest.raises(ValueError, match="items has item 12"):
            driftrec.recommend._list_popularity([[0, 12]], 12)

import math

import numpy as np
import pytest

from driftrec.evaluation import (
    aggregate_cpd,
    ndcg_time_aware,
    pr_curve,
    precision_recall_at,
    ranking_metrics,
)


# The per-call definitions the one-walk metrics replaced, kept as the oracle.
def reference_dedupe(truth):
    seen, out = set(), []
    for item in truth:
        item = int(item)
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def reference_precision_recall(recommended, truth, N):
    truth = reference_dedupe(truth)
    hits = len(set(int(i) for i in recommended[:N]) & set(truth))
    return hits / N, hits / len(truth)


def reference_ndcg(recommended, truth, N):
    truth = reference_dedupe(truth)
    L = len(truth)
    relevance = {item: L - j for j, item in enumerate(truth)}
    dcg, seen = 0.0, set()
    for rank, item in enumerate(recommended[:N], start=1):
        if int(item) not in seen:
            dcg += relevance.get(int(item), 0) / math.log2(rank + 1)
        seen.add(int(item))
    ideal = sum((L - j) / math.log2(j + 2) for j in range(min(N, L)))
    return dcg / ideal


def reference_metrics(recommended, truth, N):
    return (*reference_precision_recall(recommended, truth, N), reference_ndcg(recommended, truth, N))


def bits(values):
    return [float(v).hex() for v in values]


class TestPrecisionRecall:
    def test_half_hits(self):
        truth = list(range(10))
        recommended = [0, 1, 2, 3, 4] + [100, 101, 102, 103, 104]
        assert precision_recall_at(recommended, truth, 10) == (0.5, 0.5)

    def test_disjoint(self):
        assert precision_recall_at([1, 2, 3], [7, 8, 9], 3) == (0.0, 0.0)

    def test_perfect_any_order(self):
        truth = list(range(10))
        recommended = list(reversed(truth))
        assert precision_recall_at(recommended, truth, 10) == (1.0, 1.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at([1, 2], [], 2)
        with pytest.raises(ValueError):
            precision_recall_at([1, 2], [3], 0)

    def test_counting_identity(self):
        # precision * N and recall * |truth| count the same intersection
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = 30
            truth = rng.choice(m, size=int(rng.integers(1, 12)), replace=False).tolist()
            ranked = rng.permutation(m).tolist()
            n = int(rng.integers(1, 15))
            p, r = precision_recall_at(ranked, truth, n)
            assert p * n == pytest.approx(r * len(truth), abs=1e-12)

    def test_duplicate_truth_counts_once(self):
        p, r = precision_recall_at([5, 6], [5, 5, 9], 2)
        assert (p, r) == (0.5, 0.5)


class TestNdcg:
    def test_ideal_order_scores_one(self):
        truth = [4, 9, 2, 7]
        assert ndcg_time_aware(truth + [0, 1], truth, 10) == pytest.approx(1.0)

    def test_disjoint_scores_zero(self):
        assert ndcg_time_aware([1, 2, 3], [8, 9], 3) == 0.0

    def test_two_item_swap_hand_value(self):
        got = ndcg_time_aware([11, 10], [10, 11], 2)
        # independent scalar evaluation of the same definition
        dcg = 1 / math.log2(2) + 2 / math.log2(3)
        idcg = 2 / math.log2(2) + 1 / math.log2(3)
        assert got == pytest.approx(dcg / idcg, rel=1e-12)
        assert got == pytest.approx(0.8597, abs=1e-4)

    def test_truncation_at_n(self):
        truth = [1, 2, 3]
        assert ndcg_time_aware([1], truth, 1) == pytest.approx(1.0)
        assert ndcg_time_aware([3], truth, 1) == pytest.approx(1.0 / 3.0)

    def test_any_transposition_loses(self):
        truth = [3, 1, 4, 1, 5, 9, 2, 6]  # dupes collapse, 7 distinct
        distinct = [3, 1, 4, 5, 9, 2, 6]
        base = ndcg_time_aware(distinct, truth, 10)
        assert base == pytest.approx(1.0)
        for a in range(len(distinct) - 1):
            swapped = distinct.copy()
            swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
            assert ndcg_time_aware(swapped, truth, 10) < 1.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = 25
            truth = rng.choice(m, size=int(rng.integers(1, 10)), replace=False).tolist()
            ranked = rng.permutation(m).tolist()[: int(rng.integers(1, m))]
            v = ndcg_time_aware(ranked, truth, int(rng.integers(1, 15)))
            assert 0.0 <= v <= 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            ndcg_time_aware([1], [], 1)


class TestPrCurve:
    def test_single_user_monotone_recall(self):
        ranked = {"u": [3, 1, 4, 1, 5, 9, 2, 6, 8, 7]}
        truth = {"u": [4, 9, 11]}
        points = pr_curve(ranked, truth, range(1, 11))
        assert len(points) == 10
        recalls = [r for _, r in points]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    def test_perfect_recommender_reaches_full_recall(self):
        truth = {"u": [5, 6, 7]}
        ranked = {"u": [5, 6, 7, 8, 9]}
        points = pr_curve(ranked, truth, [1, 2, 3])
        assert points[2][1] == pytest.approx(1.0)

    def test_random_recommender_matches_analytic_precision(self):
        rng = np.random.default_rng(11)
        m, k, users = 50, 5, 2000
        ranked, truth = {}, {}
        per_user_precision = {n: [] for n in (1, 5, 10)}
        for u in range(users):
            uid = f"u{u}"
            ranked[uid] = rng.permutation(m).tolist()
            truth[uid] = rng.choice(m, size=k, replace=False).tolist()
            for n in per_user_precision:
                p, _ = precision_recall_at(ranked[uid], truth[uid], n)
                per_user_precision[n].append(p)
        points = pr_curve(ranked, truth, [1, 5, 10])
        for (mean_p, _), n in zip(points, (1, 5, 10)):
            samples = np.array(per_user_precision[n])
            se = samples.std(ddof=1) / np.sqrt(users)
            assert abs(mean_p - k / m) <= 3 * se
            assert mean_p == pytest.approx(samples.mean())

    def test_rejects_missing_rankings(self):
        with pytest.raises(ValueError, match="no ranking"):
            pr_curve({}, {"u": [1]}, [1])

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            pr_curve({"u": [1]}, {"u": [1]}, [3, 2])
        with pytest.raises(ValueError):
            pr_curve({"u": [1]}, {"u": [1]}, [])


class TestOneWalk:
    GRID = [1, 2, 3, 5, 8, 13]
    CASES = {
        "repeated truth": ([5, 6, 7, 8, 9, 1], [5, 5, 9, 6, 9]),
        "repeated recommended": ([4, 4, 2, 4, 7, 3], [4, 7, 3]),
        "shorter than N": ([3, 1], [1, 2, 3, 4]),
        "N beyond L": (list(range(20)), [2, 11]),
        "no hits": ([10, 11, 12, 13], [1, 2]),
        "numpy inputs": (np.array([9, 3, 9, 0, 5, 8, 1]), np.array([3, 8, 3, 6, 0, 2, 7, 5])),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_scalar_metrics_bit_equal_to_reference(self, case):
        ranked, truth = self.CASES[case]
        for N in self.GRID:
            got = (*precision_recall_at(ranked, truth, N), ndcg_time_aware(ranked, truth, N))
            assert bits(got) == bits(reference_metrics(ranked, truth, N)), (case, N)

    def test_repeated_recommended_item_is_one_hit_and_gains_once(self):
        p, r = precision_recall_at([4, 4], [4, 7], 2)
        assert (p, r) == (0.5, 0.5)
        dcg = 2 / math.log2(2)
        assert ndcg_time_aware([4, 4], [4, 7], 2) == pytest.approx(dcg / (2 / math.log2(2) + 1 / math.log2(3)))

    def test_ranking_metrics_bit_equal_to_mean_of_reference(self):
        rng = np.random.default_rng(5)
        ranked = {case: ranked for case, (ranked, _) in self.CASES.items()}
        truth = {case: truth for case, (_, truth) in self.CASES.items()}
        for u in range(300):
            ranked[f"r{u}"] = rng.integers(0, 40, size=int(rng.integers(1, 16))).tolist()
            truth[f"r{u}"] = rng.integers(0, 40, size=int(rng.integers(1, 12)))
        users = sorted(truth)
        precision, recall, ndcg = ranking_metrics(ranked, truth, self.GRID)
        assert list(precision) == list(recall) == list(ndcg) == self.GRID
        for N in self.GRID:
            per_user = np.array([reference_metrics(ranked[u], truth[u], N) for u in users])
            assert per_user.max() <= 1.0, N
            expected = [float(np.mean(per_user[:, k].tolist())) for k in range(3)]
            assert bits([precision[N], recall[N], ndcg[N]]) == bits(expected), N
        assert pr_curve(ranked, truth, self.GRID) == [(precision[N], recall[N]) for N in self.GRID]

    def test_ranking_metrics_rejects_bad_input(self):
        with pytest.raises(ValueError, match="^n_grid entry: must be >= 1, got 0$"):
            ranking_metrics({"u": [1]}, {"u": [1]}, [0, 1])
        with pytest.raises(ValueError, match="truth must not be empty"):
            ranking_metrics({"u": [1]}, {"u": []}, [1])
        with pytest.raises(ValueError, match="no users"):
            ranking_metrics({}, {}, [1])


class TestAggregateCpd:
    def test_simple_mean(self):
        out = aggregate_cpd({"m": {"a": (40, 40), "b": (30, 20)}})
        assert out == {"m": 5.0}

    def test_rejects_mismatched_user_sets(self):
        with pytest.raises(ValueError, match="different user set"):
            aggregate_cpd({"m1": {"a": (1, 2)}, "m2": {"b": (1, 2)}})

    def test_matches_recount(self):
        rng = np.random.default_rng(13)
        users = [f"u{i}" for i in range(40)]
        per_method = {
            method: {u: (int(rng.integers(1, 80)), int(rng.integers(0, 80))) for u in users}
            for method in ("x", "y")
        }
        out = aggregate_cpd(per_method)
        for method in per_method:
            manual = np.mean(
                [abs(t - p) for t, p in per_method[method].values()]
            )
            assert out[method] == pytest.approx(manual)

    def test_user_order_invariant(self):
        fwd = {"m": {"a": (10, 0), "b": (20, 25), "c": (5, 5)}}
        rev = {"m": {"c": (5, 5), "b": (20, 25), "a": (10, 0)}}
        assert aggregate_cpd(fwd) == aggregate_cpd(rev)


"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line when its guarantee holds; the
full-scale experiment backing the benchmark comparisons runs once per
session and is shared by the tests that read it.
"""

import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from driftrec.changepoint import hmcd_detect, partition
from driftrec.dataset import load_benchmark
from driftrec.evaluation import ndcg_time_aware, precision_recall_at
from driftrec.factorization import FactorizationConfig, frobenius_objective, nmf_fit
from driftrec.hmm import (
    InteractionSequence,
    TrainConfig,
    baum_welch_train,
    total_log_likelihood,
    viterbi_decode,
)
from driftrec.pipeline import (
    ExperimentConfig,
    cmd_detect,
    cmd_evaluate,
    cmd_fit,
    cmd_recommend,
    cmd_run_all,
    cmd_synthesize,
    cmd_train,
)
from driftrec.recommend import hmm_item_factors, hmmr_recommend

from conftest import (
    brute_force_best_path,
    brute_force_likelihood,
    data_rows,
    random_model,
    two_state_disjoint_model,
)

FIXTURE = str(Path(__file__).parent / "fixtures" / "playlists_200.txt")

EXPERIMENT = dict(
    corpus=FIXTURE,
    seed=39,
    mixed_count=1000,
    min_window=25,
    pool_split=100,
    hidden_state_counts=[2, 5, 10],
    k=1,
    d=40,
    l=20,
    n_grid=list(range(1, 11)),
    methods=[
        "HMCD-S2", "HMCD-S5", "HMCD-S10", "CUSUM", "SW", "RP",
        "SMF-S10", "HMMR-S10", "NMF", "BPR-MF", "PopRank",
    ],
    hmm_max_iters=100,
    hmm_restarts=5,
    nmf_max_iters=200,
    bpr_epochs=20,
)


def _pass(tag: str, detail: str) -> None:
    print(f"PASS [{tag}]: {detail}")


def mean_deltas(out: Path) -> dict[str, float]:
    """cpd_table.tsv's mean displacement per detector."""
    return {method: float(delta) for method, delta, _ in data_rows(out / "cpd_table.tsv")}


def ranking_at(out: Path, N: int) -> dict[tuple[str, str], float]:
    """ranking_metrics.tsv's value per (ranker, metric) at list length N."""
    rows = data_rows(out / "ranking_metrics.tsv")
    return {(method, metric): float(value) for method, metric, n, value in rows if int(n) == N}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    cfg = ExperimentConfig.from_mapping(dict(EXPERIMENT, out_dir=str(out)))
    t0 = time.perf_counter()
    cmd_synthesize(cfg)
    cmd_train(cfg)
    cmd_detect(cfg)
    detect_seconds = time.perf_counter() - t0
    cmd_fit(cfg)
    cmd_recommend(cfg)
    cmd_evaluate(cfg)
    total_seconds = time.perf_counter() - t0
    return SimpleNamespace(
        cfg=cfg,
        out=Path(cfg.out_dir),
        detect_seconds=detect_seconds,
        total_seconds=total_seconds,
    )


def test_decoding_matches_exhaustive_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(200):
        h = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        T = int(rng.integers(1, 7))
        model = random_model(rng, h, m)
        items = rng.integers(0, m, size=T)
        seq = InteractionSequence(user_id="x", items=items)

        expected_ll = math.log(brute_force_likelihood(model, items))
        got_ll = total_log_likelihood(model, [seq])
        assert got_ll == pytest.approx(expected_ll, rel=1e-10, abs=0.0)

        best_path, best_p = brute_force_best_path(model, items)
        decoded = viterbi_decode(model, seq)
        assert list(decoded.states) == list(best_path)
        assert decoded.log_joint == pytest.approx(math.log(best_p), rel=1e-10, abs=0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass("decode-oracle", f"200 random instances match enumeration at 1e-10 in {elapsed:.1f}s")


def test_em_likelihood_never_decreases():
    started = time.perf_counter()
    rng = np.random.default_rng(405)
    worst = 0.0
    for trial in range(20):
        h_gen = int(rng.integers(2, 4))
        m = int(rng.integers(5, 9))
        gen = random_model(rng, h_gen, m)
        corpus = []
        for u in range(10):
            T = int(rng.integers(10, 27))
            state = rng.choice(h_gen, p=gen.pi)
            items = []
            for _ in range(T):
                items.append(rng.choice(m, p=gen.emit[state]))
                state = rng.choice(h_gen, p=gen.trans[state])
            corpus.append(InteractionSequence(user_id=f"u{u}", items=np.array(items)))
        tc = TrainConfig(max_iters=40, log_lik_tol=0.0, seed=trial)
        _, history = baum_welch_train(corpus, int(rng.integers(2, 4)), tc, num_items=m, return_history=True)
        drops = np.diff(history)
        worst = min(worst, float(drops.min()))
        assert drops.min() >= -1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass("em-monotone", f"20 corpora, worst log-likelihood step {worst:.2e} >= -1e-8 in {elapsed:.1f}s")


def test_factorization_monotone_and_rank_one_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(406)
    for trial in range(5):
        M = rng.random((12, 9)) + 0.05
        _, history = nmf_fit(M, FactorizationConfig(d=3, max_iters=60, seed=trial, convergence_tol=0.0), return_history=True)
        assert np.diff(history).max() <= 1e-9

    u = rng.random(6) + 0.5
    v = rng.random(8) + 0.5
    M = np.outer(u, v)
    pair = nmf_fit(M, FactorizationConfig(d=1, max_iters=400, seed=0, convergence_tol=0.0))
    residual = frobenius_objective(M, pair)
    assert residual <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass("nmf", f"objective monotone within 1e-9, rank-1 residual {residual:.1e} <= 1e-6 in {elapsed:.1f}s")


def test_benchmark_detection_beats_baselines(experiment):
    mixed, _ = load_benchmark(experiment.out / "benchmark.tsv")
    assert len(mixed) >= 1000

    lines = Path(FIXTURE).read_text().splitlines()
    pool_a = set(token for line in lines[:100] for token in line.split())
    pool_b = set(token for line in lines[100:] for token in line.split())
    assert not (pool_a & pool_b)

    mean_length = np.mean([len(mx.items) for mx in mixed])
    assert abs(mean_length - 80.0) <= 5.0

    deltas = mean_deltas(experiment.out)
    assert deltas["HMCD-S2"] < deltas["CUSUM"]
    assert deltas["HMCD-S2"] < deltas["SW"]
    assert deltas["HMCD-S2"] < deltas["RP"]

    quarter = np.mean([len(mx.items) / 4.0 for mx in mixed])
    assert abs(deltas["RP"] - quarter) <= 0.10 * quarter
    assert experiment.detect_seconds < 300.0
    _pass(
        "benchmark-detect",
        f"{len(mixed)} sequences (mean length {mean_length:.1f}); "
        f"model delta {deltas['HMCD-S2']:.3f} < CUSUM {deltas['CUSUM']:.3f}, "
        f"SW {deltas['SW']:.3f}, RP {deltas['RP']:.3f}; RP within 10% of T/4 "
        f"({deltas['RP']:.2f} vs {quarter:.2f}) in {experiment.detect_seconds:.0f}s",
    )


def test_displacement_grows_with_state_count(experiment):
    trend_file = experiment.out / "state_count_trend.tsv"
    assert trend_file.exists()
    file_deltas = {int(r[0]): float(r[1]) for r in data_rows(trend_file)}
    verdict = [line for line in trend_file.read_text().splitlines() if line.startswith("# trend_ok")]
    assert len(verdict) == 1

    cpd = mean_deltas(experiment.out)
    deltas = [cpd[f"HMCD-S{h}"] for h in (2, 5, 10)]
    assert file_deltas == {h: d for h, d in zip((2, 5, 10), deltas)}
    flagged_ok = verdict[0].split("\t")[1] == "yes"
    assert flagged_ok == all(b >= a for a, b in zip(deltas, deltas[1:]))

    assert deltas[0] <= deltas[1] <= deltas[2]
    _pass(
        "state-trend",
        "mean displacement non-decreasing over state counts: "
        + ", ".join(f"h={h}: {d:.3f}" for h, d in zip((2, 5, 10), deltas)),
    )


def test_segment_aware_rankers_beat_static_baselines(experiment):
    at10 = ranking_at(experiment.out, 10)
    for candidate in ("SMF-S10", "HMMR-S10"):
        for baseline in ("NMF", "BPR-MF", "PopRank"):
            for metric in ("ndcg", "precision"):
                ours, theirs = at10[candidate, metric], at10[baseline, metric]
                assert ours > theirs, f"{candidate} {metric}@10 {ours:.4f} <= {baseline} {theirs:.4f}"
    assert experiment.total_seconds < 600.0
    _pass(
        "segment-rankers",
        f"SMF P@10 {at10['SMF-S10', 'precision']:.3f}/NDCG@10 {at10['SMF-S10', 'ndcg']:.3f} and "
        f"HMMR P@10 {at10['HMMR-S10', 'precision']:.3f}/NDCG@10 {at10['HMMR-S10', 'ndcg']:.3f} beat all static "
        f"baselines; end-to-end {experiment.total_seconds:.0f}s",
    )


def test_disjoint_model_posteriors_are_exact():
    started = time.perf_counter()
    model = two_state_disjoint_model(6, 8)
    item_state = hmm_item_factors(model).vectors

    first = np.array([0, 3, 1, 5, 2, 4, 0, 1])
    second = np.array([6, 9, 7, 11, 8])
    seq = InteractionSequence(user_id="u", items=np.concatenate([first, second]), truth_change=len(first))
    detected = hmcd_detect(model, seq, k=1)
    assert detected.predicted == [len(first)]

    segments = partition(seq, detected.predicted)
    popularity = np.ones(14)
    rec = hmmr_recommend(model, segments, seq.items, popularity, l=3, N=3, user_id="u")
    assert len(rec.ranked_items) == 3
    for item in rec.ranked_items:
        assert item_state[item, 1] == 1.0
        assert item_state[item, 0] == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(
        "exact-posterior",
        f"all {len(rec.ranked_items)} post-change recommendations have state posterior exactly 1.0",
    )


def test_ranking_metric_identities():
    started = time.perf_counter()
    assert ndcg_time_aware([11, 10], [10, 11], 2) == pytest.approx(0.8597, abs=1e-4)

    rng = np.random.default_rng(408)
    for _ in range(1000):
        m = 50
        N = int(rng.integers(1, 21))
        L = int(rng.integers(1, 16))
        ranking = [int(i) for i in rng.permutation(m)[:N]]
        truth = [int(i) for i in rng.permutation(m)[:L]]
        p, r = precision_recall_at(ranking, truth, N)
        hits = len(set(ranking[:N]) & set(truth))
        assert p == hits / N
        assert r == hits / L
        assert 0.0 <= ndcg_time_aware(ranking, truth, N) <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass("metric-identities", f"hand value 0.8597 and 1000 random counting identities in {elapsed:.1f}s")


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        dict(
            EXPERIMENT,
            out_dir=str(tmp_path / "twice"),
            mixed_count=60,
            hidden_state_counts=[2],
            methods=["HMCD-S2", "CUSUM", "SW", "RP", "SMF-S2", "HMMR-S2", "NMF", "BPR-MF", "PopRank"],
            hmm_restarts=2,
            bpr_epochs=3,
            d=8,
        )
    )
    cmd_run_all(cfg)
    out = Path(cfg.out_dir)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    cmd_run_all(cfg)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == set(second)
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []
    _pass("deterministic", f"two identical-seed runs produced {len(first)} byte-identical artifacts")

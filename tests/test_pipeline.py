"""Configuration handling, staged artifacts, and CLI behavior."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import driftrec.pipeline
from driftrec.changepoint import hmcd_detect
from driftrec.cli import main
from driftrec.dataset import load_benchmark, to_interaction_sequences
from driftrec.hmm import InteractionSequence, load_model
from driftrec.evaluation import ndcg_time_aware, pr_curve, precision_recall_at, ranking_metrics
from driftrec.pipeline import (
    ExperimentConfig,
    _fmt,
    cmd_detect,
    cmd_evaluate,
    cmd_fit,
    cmd_recommend,
    cmd_run_all,
    cmd_synthesize,
    cmd_train,
    method_universe,
    stable_seed,
)
from driftrec.recommend import pop_rank

from conftest import arrays_as_lists, data_rows

FIXTURE = str(Path(__file__).parent / "fixtures" / "playlists_200.txt")
_STAGES = (cmd_synthesize, cmd_train, cmd_detect, cmd_fit, cmd_recommend, cmd_evaluate)


def small_config(out_dir, **overrides):
    base = dict(
        corpus=FIXTURE,
        out_dir=str(out_dir),
        seed=5,
        mixed_count=30,
        min_window=25,
        pool_split=100,
        hidden_state_counts=[2],
        d=6,
        n_grid=[1, 5, 10],
        hmm_max_iters=30,
        hmm_restarts=2,
        nmf_max_iters=30,
        bpr_epochs=3,
    )
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


class TestExperimentConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig(corpus="c.txt", out_dir="o")
        assert cfg.methods == method_universe([2, 10])
        assert cfg.min_len == cfg.min_window + 10
        assert cfg.n_grid == list(range(1, 11))

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="unknown config field.*windowing"):
            ExperimentConfig.from_mapping({"corpus": "c", "out_dir": "o", "windowing": 3})

    def test_missing_required_named(self):
        with pytest.raises(ValueError, match="missing required config field.*out_dir"):
            ExperimentConfig.from_mapping({"corpus": "c"})

    def test_field_level_messages(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(corpus="c", out_dir="o", seed="nope")
        with pytest.raises(ValueError, match="k: must be >= 1"):
            ExperimentConfig(corpus="c", out_dir="o", k=0)
        with pytest.raises(ValueError, match=r"^hidden_state_counts \[3, 2\] must be nonempty and ascend strictly within \[1, inf\]$"):
            ExperimentConfig(corpus="c", out_dir="o", hidden_state_counts=[3, 2])
        for removed in ("holdout", "threads"):
            with pytest.raises(ValueError, match=f"unknown config field.*{removed}"):
                ExperimentConfig.from_mapping({"corpus": "c", "out_dir": "o", removed: 1})
        with pytest.raises(ValueError, match="methods: unknown label 'SVD'"):
            ExperimentConfig(corpus="c", out_dir="o", methods=["SVD"])
        with pytest.raises(ValueError, match="hmm_tol"):
            ExperimentConfig(corpus="c", out_dir="o", hmm_tol=0.0)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ValueError, match="d: expected an integer"):
            ExperimentConfig(corpus="c", out_dir="o", d=True)

    def test_methods_must_match_state_counts(self):
        cfg = ExperimentConfig(corpus="c", out_dir="o", hidden_state_counts=[3], methods=["HMCD-S3", "RP"])
        assert cfg.methods == ["HMCD-S3", "RP"]
        with pytest.raises(ValueError, match="unknown label 'HMCD-S2'"):
            ExperimentConfig(corpus="c", out_dir="o", hidden_state_counts=[3], methods=["HMCD-S2"])

    def test_yaml_round_trip(self, tmp_path):
        cfg = ExperimentConfig(corpus="c.txt", out_dir="o", seed=9, hidden_state_counts=[2, 5])
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(cfg.to_mapping()))
        again = ExperimentConfig.from_yaml(path)
        assert again == cfg

    def test_libyaml_and_python_loaders_agree(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "corpus: playlists.txt   # one playlist per line\n"
            "out_dir: out\nseed: 39\nhidden_state_counts: [2, 5, 10]\nmethods: [HMCD-S2, SMF-S10, NMF]\n"
            "hmm_tol: 1.0e-12\nk: 1\nn_grid:\n- 1\n- 10\n"
        )
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg == ExperimentConfig.from_mapping(yaml.load(path.read_text(), Loader=yaml.SafeLoader))
        assert cfg.hmm_tol == 1e-12 and cfg.methods == ["HMCD-S2", "SMF-S10", "NMF"]

    def test_hash_ignores_execution_context(self):
        a = ExperimentConfig(corpus="c", out_dir="x")
        b = ExperimentConfig(corpus="c", out_dir="y")
        c = ExperimentConfig(corpus="c", out_dir="x", seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12

    def test_replace_revalidates(self):
        cfg = ExperimentConfig(corpus="c", out_dir="o")
        assert dataclasses.replace(cfg, seed=3).seed == 3
        with pytest.raises(ValueError, match="seed"):
            dataclasses.replace(cfg, seed=-1)


def test_stable_seed_depends_on_seed_and_label():
    assert stable_seed(1, "train") == stable_seed(1, "train")
    assert stable_seed(1, "train") != stable_seed(2, "train")
    assert stable_seed(1, "train") != stable_seed(1, "detect")
    assert 0 <= stable_seed(0, "x") < 2**64


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The stages run in order, and what each returned, by name."""
    out = tmp_path_factory.mktemp("run")
    cfg = small_config(out)
    returned = {stage.__name__: stage(cfg) for stage in _STAGES}
    return cfg, Path(cfg.out_dir), returned


class TestPipelineRun:
    def test_all_artifacts_exist(self, pipeline_run):
        _, out, _ = pipeline_run
        expected = [
            "config_resolved.yaml",
            "benchmark.tsv",
            "vocab.tsv",
            "hmm_s2.json",
            "changepoints_HMCD-S2.tsv",
            "changepoints_CUSUM.tsv",
            "changepoints_SW.tsv",
            "changepoints_RP.tsv",
            "factors_smf_s2.json",
            "factors_nmf.json",
            "factors_bpr.json",
            "recommendations_SMF-S2.tsv",
            "recommendations_HMMR-S2.tsv",
            "recommendations_NMF.tsv",
            "recommendations_BPR-MF.tsv",
            "recommendations_PopRank.tsv",
            "cpd_table.tsv",
            "state_count_trend.tsv",
            "ranking_metrics.tsv",
            "summary.txt",
            "manifest.tsv",
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

    def test_every_text_artifact_embeds_hash_and_seed(self, pipeline_run):
        cfg, out, _ = pipeline_run
        # manifest.tsv describes the others, which reruns under other configs may have written
        for path in sorted(set(out.glob("*.tsv")) - {out / "manifest.tsv"}) + sorted(out.glob("*.txt")):
            first = path.read_text().splitlines()[0]
            assert f"config={cfg.config_hash()}" in first, path.name
            assert f"seed={cfg.seed}" in first, path.name

    def test_json_artifacts_carry_provenance(self, pipeline_run):
        import json

        cfg, out, _ = pipeline_run
        for name in ("hmm_s2.json", "factors_smf_s2.json", "factors_nmf.json", "factors_bpr.json"):
            meta = json.loads((out / name).read_text())["meta"]
            assert meta["config"] == cfg.config_hash()
            assert meta["seed"] == cfg.seed

    def test_resolved_config_loads_back(self, pipeline_run):
        cfg, out, _ = pipeline_run
        resolved = yaml.safe_load((out / "config_resolved.yaml").read_text())
        assert resolved.pop("config_hash") == cfg.config_hash()
        assert ExperimentConfig.from_mapping(resolved) == cfg

    def test_changepoint_files_cover_every_user(self, pipeline_run):
        cfg, out, _ = pipeline_run
        mixed, _ = load_benchmark(out / "benchmark.tsv")
        users = [mx.user_id for mx in mixed]
        for label in ("HMCD-S2", "CUSUM", "SW", "RP"):
            rows = data_rows(out / f"changepoints_{label}.tsv")
            assert [r[0] for r in rows] == users
            assert all(r[5] == label for r in rows)
            for r in rows:
                if r[3] != "-":
                    points = [int(p) for p in r[3].split(",")]
                    if label.startswith("HMCD"):
                        assert all(1 <= p < int(r[1]) for p in points)
                    else:
                        assert all(0 <= p <= int(r[1]) for p in points)

    def test_recommendations_are_ranked_unseen_items(self, pipeline_run):
        cfg, out, _ = pipeline_run
        mixed, _ = load_benchmark(out / "benchmark.tsv")
        seen = {mx.user_id: set(int(i) for i in mx.items) for mx in mixed}
        N = max(cfg.n_grid)
        for label in ("SMF-S2", "HMMR-S2", "NMF", "BPR-MF", "PopRank"):
            per_user = {}
            for user_id, rank, item, _ in data_rows(out / f"recommendations_{label}.tsv"):
                per_user.setdefault(user_id, []).append((int(rank), int(item)))
            assert set(per_user) == set(seen)
            for user_id, rows in per_user.items():
                assert [r for r, _ in rows] == list(range(1, N + 1))
                items = [i for _, i in rows]
                assert len(set(items)) == N
                assert not (set(items) & seen[user_id])

    def test_report_covers_all_methods(self, pipeline_run):
        cfg, out, _ = pipeline_run
        cpd = data_rows(out / "cpd_table.tsv")
        assert [label for label, _, _ in cpd] == ["HMCD-S2", "CUSUM", "SW", "RP"]
        assert all(float(delta) >= 0.0 and int(users) == cfg.mixed_count for _, delta, users in cpd)
        rows = data_rows(out / "ranking_metrics.tsv")
        ranking = {(label, metric, int(N)): float(value) for label, metric, N, value in rows}
        assert set(ranking) == {
            (label, metric, N)
            for label in ("SMF-S2", "HMMR-S2", "NMF", "BPR-MF", "PopRank")
            for metric in ("precision", "recall", "ndcg")
            for N in cfg.n_grid
        }
        assert all(0.0 <= value <= 1.0 for value in ranking.values())

    def test_every_stage_returns_paths_that_exist(self, pipeline_run):
        _, out, returned = pipeline_run
        evaluate_files = ("cpd_table.tsv", "state_count_trend.tsv", "ranking_metrics.tsv", "summary.txt")
        assert returned["cmd_evaluate"] == [out / name for name in evaluate_files]
        paths = [p for stage in _STAGES for p in returned[stage.__name__]]
        assert all(path.exists() for path in paths)
        # every file a stage writes but config_resolved.yaml and manifest.tsv, which each rewrites
        written = [p.name for p in out.iterdir() if p.name not in ("config_resolved.yaml", "manifest.tsv")]
        assert sorted(p.name for p in paths) == sorted(written)

    def test_manifest_records_every_returned_path(self, pipeline_run):
        """Each path a stage returned has a manifest row: its current sha256,
        the stage, and the digest of each artifact the stage read."""
        _, out, returned = pipeline_run
        rows = {row[0]: row[1:] for row in data_rows(out / "manifest.tsv")}
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert set(rows) == {p.name for paths in returned.values() for p in paths}
        for stage in _STAGES:
            for path in returned[stage.__name__]:
                sha, writer, inputs = rows[path.name]
                assert (sha, writer) == (digest[path.name], stage.__name__[4:])
                made_from = dict(pair.split("=") for pair in inputs.split(",")) if inputs != "-" else {}
                assert bool(made_from) == (writer != "synthesize")
                assert all(digest[name] == sha for name, sha in made_from.items())
        assert rows["hmm_s2.json"][2] == f"benchmark.tsv={digest['benchmark.tsv']}"

    def test_pr_curve_matches_the_ranking_metrics_rows(self, pipeline_run):
        cfg, out, _ = pipeline_run
        _, truth = to_interaction_sequences(load_benchmark(out / "benchmark.tsv")[0])
        rows = data_rows(out / "ranking_metrics.tsv")
        for label in cfg.ranker_labels():
            ranked = {}
            for user_id, _, item, _ in data_rows(out / f"recommendations_{label}.tsv"):
                ranked.setdefault(user_id, []).append(int(item))
            written = {(metric, int(N)): float(value) for method, metric, N, value in rows if method == label}
            curve = [(written["precision", N], written["recall", N]) for N in cfg.n_grid]
            assert curve == pr_curve(ranked, truth, cfg.n_grid), label

    def test_ranking_metrics_match_scalar_means_from_recommendations(self, pipeline_run):
        cfg, out, _ = pipeline_run
        _, truth = to_interaction_sequences(load_benchmark(out / "benchmark.tsv")[0])
        users = sorted(truth)
        expected = []
        for label in cfg.ranker_labels():
            ranked = {}
            for user_id, _, item, _ in data_rows(out / f"recommendations_{label}.tsv"):
                ranked.setdefault(user_id, []).append(int(item))
            for N in cfg.n_grid:
                pr = [precision_recall_at(ranked[u], truth[u], N) for u in users]
                ndcg = [ndcg_time_aware(ranked[u], truth[u], N) for u in users]
                expected += [
                    [label, "precision", str(N), repr(float(np.mean([p for p, _ in pr])))],
                    [label, "recall", str(N), repr(float(np.mean([r for _, r in pr])))],
                    [label, "ndcg", str(N), repr(float(np.mean(ndcg)))],
                ]
        assert data_rows(out / "ranking_metrics.tsv") == expected

    def test_poprank_matches_pop_rank_per_user(self, pipeline_run):
        cfg, out, _ = pipeline_run
        mixed, meta = load_benchmark(out / "benchmark.tsv")
        seqs, _ = to_interaction_sequences(mixed)
        raw = np.zeros((len(seqs), int(meta["num_items"])))
        for r, seq in enumerate(seqs):
            raw[r, seq.items] = 1.0
        expected = []
        for seq in seqs:
            rec = pop_rank(raw, seq.items, max(cfg.n_grid), user_id=seq.user_id)
            expected += [
                [seq.user_id, str(rank), str(item), repr(score)]
                for rank, (item, score) in enumerate(zip(rec.ranked_items, rec.scores), start=1)
            ]
        assert data_rows(out / "recommendations_PopRank.tsv") == expected

    def test_hmcd_detect_per_user_matches_the_changepoint_rows(self, pipeline_run):
        """hmcd_detect on one history, as a served request calls it, gives
        the detect stage's row for that user under every state count."""
        cfg, out, _ = pipeline_run
        mixed, _ = load_benchmark(out / "benchmark.tsv")
        for h in cfg.hidden_state_counts:
            label = f"HMCD-S{h}"
            model, _ = load_model(out / f"hmm_s{h}.json")
            rows = data_rows(out / f"changepoints_{label}.tsv")
            assert len(rows) == len(mixed) and any(row[3] != "-" for row in rows)
            for mx, row in zip(mixed, rows):
                result = hmcd_detect(model, mx, k=cfg.k)
                points = ",".join(str(p) for p in result.predicted) or "-"
                scores = ",".join(_fmt(s) for s in result.score_per_point) or "-"
                assert row == [mx.user_id, str(len(mx)), str(mx.truth_change), points, scores, label]

    def test_trend_file_has_verdict_line(self, pipeline_run):
        _, out, _ = pipeline_run
        text = (out / "state_count_trend.tsv").read_text()
        assert "# trend_ok\t" in text


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config(tmp_path / "run", mixed_count=15, bpr_epochs=2)
    cmd_run_all(cfg)
    out = Path(cfg.out_dir)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cmd_run_all(cfg)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_two_points_score_the_one_nearest_the_truth(tmp_path):
    cfg = small_config(tmp_path / "k2", k=2, hidden_state_counts=[2, 5], bpr_epochs=2)
    cmd_run_all(cfg)
    out = Path(cfg.out_dir)
    written = {row[0]: float(row[1]) for row in data_rows(out / "cpd_table.tsv")}
    not_earliest = 0
    for h in cfg.hidden_state_counts:
        deltas = []
        for _, T, truth, predicted, _, _ in data_rows(out / f"changepoints_HMCD-S{h}.tsv"):
            points = [int(t) for t in predicted.split(",")] if predicted != "-" else [int(T) - 1]
            nearest = min(points, key=lambda t: abs(t - int(truth)))
            not_earliest += nearest != points[0]
            deltas.append(abs(nearest - int(truth)))
        assert written[f"HMCD-S{h}"] == float(np.mean(deltas))
    assert not_earliest > 0


def test_single_state_run_completes_with_flagged_detections(tmp_path):
    cfg = small_config(tmp_path / "s1", mixed_count=12, hidden_state_counts=[1], bpr_epochs=2)
    cpd, trend, ranking, _ = cmd_run_all(cfg)
    assert all(r[3] == "-" for r in data_rows(Path(cfg.out_dir) / "changepoints_HMCD-S1.tsv"))
    assert {r[0]: float(r[1]) for r in data_rows(cpd)}["HMCD-S1"] > 0.0
    precision = [float(r[3]) for r in data_rows(ranking) if r[:3] == ["SMF-S1", "precision", "10"]]
    assert len(precision) == 1 and 0.0 <= precision[0] <= 1.0
    assert trend.exists()


def test_missing_artifact_names_the_file(tmp_path):
    cfg = small_config(tmp_path / "empty")
    with pytest.raises(FileNotFoundError, match="benchmark.tsv"):
        cmd_train(cfg)


def test_stage_handoff_runs_in_order(tmp_path):
    cfg = small_config(tmp_path / "stages", mixed_count=12, bpr_epochs=2)
    cmd_synthesize(cfg)
    cmd_train(cfg)
    cmd_detect(cfg)
    cmd_fit(cfg)
    cmd_recommend(cfg)
    cpd, _, ranking, _ = cmd_evaluate(cfg)
    assert {r[0] for r in data_rows(cpd)} | {r[0] for r in data_rows(ranking)} == set(cfg.methods)


def use_cpus(monkeypatch, count):
    """Make _map_jobs see `count` available CPUs, and count the worker pools it starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    pools = []
    pool = driftrec.pipeline.ProcessPoolExecutor
    monkeypatch.setattr(driftrec.pipeline, "ProcessPoolExecutor", lambda *a, **kw: pools.append(a) or pool(*a, **kw))
    return pools


def test_cpu_count_changes_no_output(tmp_path, monkeypatch):
    """train, detect, fit, recommend and evaluate run their jobs on one
    worker per CPU, and leave no worker behind; two CPUs write the same
    bytes as one, which runs inline."""
    cfg = small_config(tmp_path / "out", mixed_count=15, hidden_state_counts=[2, 5], bpr_epochs=2)
    written = {}
    for cpus in (1, 2):
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pools = use_cpus(monkeypatch, cpus)
        for stage in _STAGES:
            stage(cfg)
            assert multiprocessing.active_children() == [], stage.__name__
        assert pools == ([] if cpus == 1 else [(2,)] * 5)
        written[cpus] = {p.name: p.read_bytes() for p in Path(cfg.out_dir).iterdir()}
    assert written[2] == written[1]


def test_block_size_changes_no_recommendation(cli_run, tmp_path, monkeypatch):
    """The recommend stage ranks _BLOCK_ROWS users at a time.  Blocks of one
    user, of seven (which leave a last block of five of the twelve users)
    and of the default size write the same recommendations files."""
    config, out = cli_run
    default = driftrec.pipeline._BLOCK_ROWS
    written = {}
    for rows in (1, 7, default):
        copy = tmp_path / f"rows{rows}"
        shutil.copytree(out, copy)
        monkeypatch.setattr(driftrec.pipeline, "_BLOCK_ROWS", rows)
        assert main(["recommend", "--config", str(config), "--out", str(copy)]) == 0
        written[rows] = {p.name: p.read_bytes() for p in copy.glob("recommendations_*.tsv")}
    assert len(written[1]) == 5
    assert written[1] == written[7] == written[default]


def record_starts(monkeypatch):
    """The first argument of each job _map_jobs starts, in start order; run
    at one CPU, where the jobs run inline."""
    started = []
    map_jobs = driftrec.pipeline._map_jobs

    def recorded(fn, jobs, **kwargs):
        return map_jobs(lambda *job: started.append(job[0]) or fn(*job), jobs, **kwargs)

    monkeypatch.setattr(driftrec.pipeline, "_map_jobs", recorded)
    return started


def test_without_a_thread_setter_jobs_run_inline_in_order(monkeypatch):
    """Where no OpenBLAS with a thread setter is found, as with a numpy built
    against MKL, the pool is left alone and one CPU runs the jobs inline."""
    monkeypatch.setattr(driftrec.pipeline, "_openblas", lambda: None)
    pools = use_cpus(monkeypatch, 1)
    assert driftrec.pipeline._blas_threads(1) is None
    started = []
    done = driftrec.pipeline._map_jobs(lambda i: started.append(i) or i * i, [(3,), (1,), (2,)], key=lambda job: job[0])
    assert done == [9, 1, 4]
    assert started == [1, 2, 3]
    assert pools == []


def test_a_job_may_close_over_what_cannot_be_pickled(monkeypatch):
    """Forked workers inherit the job function and the jobs, so a job may be
    a lambda over a lock; started out of job order, the results still come
    back in job order."""
    pools = use_cpus(monkeypatch, 2)
    lock = threading.Lock()
    jobs = [(1,), (2,), (3,), (4,)]
    done = driftrec.pipeline._map_jobs(lambda i: (i * i, lock.locked()), jobs, key=lambda job: -job[0])
    assert done == [(1, False), (4, False), (9, False), (16, False)]
    assert pools == [(2,)]
    assert multiprocessing.active_children() == []


def test_train_and_detect_start_their_longest_jobs_first(tmp_path, monkeypatch):
    """Restarts start by descending state count; detectors with SW, then HMCD
    by descending state count, then CUSUM and RP.  Only the start order
    changes: the files are still written in label order."""
    cfg = small_config(tmp_path / "out", mixed_count=12, hidden_state_counts=[2, 5], bpr_epochs=2)
    use_cpus(monkeypatch, 1)
    cmd_synthesize(cfg)
    started = record_starts(monkeypatch)
    assert [load_model(path)[0].num_states for path in cmd_train(cfg)] == [2, 5]
    tables = cmd_detect(cfg)
    assert [path.name for path in tables] == [f"changepoints_{label}.tsv" for label in cfg.detector_labels()]
    assert started == [5, 5, 2, 2, "SW", "HMCD-S5", "HMCD-S2", "CUSUM", "RP"]
    # only CUSUM tunes a threshold, and only HMCD scores its points
    assert ["tau=" in path.read_text().splitlines()[0] for path in tables] == [False, False, True, False, False]
    assert [data_rows(path)[0][4] != "-" for path in tables] == [True, True, False, False, False]


def test_fit_starts_its_longest_job_first(tmp_path, monkeypatch):
    """Fit starts BPR-MF, then the NMF fits in label order.  Only the start
    order changes: the factor files still come back in label order."""
    cfg = small_config(tmp_path / "out", mixed_count=12, hidden_state_counts=[2, 5], bpr_epochs=2)
    use_cpus(monkeypatch, 1)
    for stage in (cmd_synthesize, cmd_train, cmd_detect):
        stage(cfg)
    started = record_starts(monkeypatch)
    paths = cmd_fit(cfg)
    assert started == ["BPR-MF", "SMF-S2", "SMF-S5", "NMF"]
    assert [path.name for path in paths] == ["factors_smf_s2.json", "factors_smf_s5.json", "factors_nmf.json", "factors_bpr.json"]


def test_a_workers_error_is_raised_as_inline(cli_run, tmp_path, monkeypatch, capsys):
    """A job that fails on a worker raises what it raises inline: fit's
    BPR-MF job, which starts first, detect's SW job, recommend's BPR-MF job
    (after the SMF, HMMR and NMF jobs) and evaluate's NMF job.  Each fails
    in the library call it makes, patched to raise; forked workers inherit
    the patch."""
    config, out = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    cfg = dataclasses.replace(ExperimentConfig.from_yaml(config), out_dir=str(copy))

    def failing(name, when=lambda *args: True):
        """driftrec.pipeline's name, raising a ValueError when when(*args) holds."""
        call = getattr(driftrec.pipeline, name)

        def patched(*args, **kwargs):
            if when(*args):
                raise ValueError(f"{name} failed on {args[0] if isinstance(args[0], Path) else 'its input'}")
            return call(*args, **kwargs)

        return name, patched

    cases = (
        (cmd_fit, failing("bpr_fit"), "bpr_fit failed on its input"),
        (cmd_detect, failing("sliding_window_detect_all"), "sliding_window_detect_all failed on its input"),
        (
            cmd_recommend,
            failing("load_factors", lambda path: path.name == "factors_bpr.json"),
            f"load_factors failed on {copy / 'factors_bpr.json'}",
        ),
        (
            cmd_evaluate,
            failing("_read_table", lambda path, *rest: path.name == "recommendations_NMF.tsv"),
            f"_read_table failed on {copy / 'recommendations_NMF.tsv'}",
        ),
    )
    messages = {}
    for stage, (name, patched), expected in cases:
        with monkeypatch.context() as patch:
            patch.setattr(driftrec.pipeline, name, patched)
            for cpus in (1, 2):
                pools = use_cpus(patch, cpus)
                with pytest.raises(ValueError) as err:
                    stage(cfg)
                assert len(pools) == cpus - 1
                messages.setdefault(stage, []).append(str(err.value))
            assert messages[stage] == [expected, expected]
            assert multiprocessing.active_children() == []
            if stage is cmd_fit:
                assert main(["fit", "--config", str(config), "--out", str(copy)]) == 2
                assert capsys.readouterr().err == f"error: {expected}\n"


# Imports numpy before driftrec, sets the caller's pool to 2 threads (on a
# one-CPU host too) and prints it, each job's count and the count after.
BLAS_PROBE = """
import ctypes, os, sys
from pathlib import Path
import numpy as np
libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
lib = ctypes.CDLL(str(libs[0])) if libs else None
if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
    sys.exit("no OpenBLAS thread setter")
lib.scipy_openblas_set_num_threads64_(2)
threads = lib.scipy_openblas_get_num_threads64_

def job(i):
    return threads()

os.sched_getaffinity = lambda pid: set(range(%d))
from driftrec.pipeline import _map_jobs
print(threads(), *_map_jobs(job, [(0,), (1,)]), threads())
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_jobs_run_on_one_blas_thread_whatever_imported_numpy_first(cpus):
    """The jobs are the parallelism: each runs with one BLAS thread,
    inline or on a forked worker, though numpy was imported before
    driftrec with no BLAS variable set; the inline path gives the caller
    its own pool back."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE % cpus], env=env, capture_output=True, text=True)
    if done.stderr.strip() == "no OpenBLAS thread setter":
        pytest.skip("numpy loaded no OpenBLAS with a thread setter")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "1", "1", "2"]


class TestCli:
    def write_config(self, tmp_path, **overrides):
        mapping = small_config(tmp_path / "out", mixed_count=12, bpr_epochs=2, **overrides).to_mapping()
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(mapping))
        return path

    def test_run_all_exit_zero(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["run-all", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_stagewise_invocation(self, tmp_path):
        config = self.write_config(tmp_path)
        for stage in ("synthesize", "train", "detect", "fit", "recommend", "evaluate"):
            assert main([stage, "--config", str(config)]) == 0, stage
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"cpd_table.tsv", "state_count_trend.tsv", "ranking_metrics.tsv", "summary.txt"} <= written

    def test_invalid_config_exits_nonzero_with_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"corpus": FIXTURE, "out_dir": str(tmp_path / "o"), "k": 0}))
        assert main(["synthesize", "--config", str(path)]) == 2
        assert "k: must be >= 1" in capsys.readouterr().err

    def test_config_key_that_is_not_a_string_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("1: 2\n")
        assert main(["synthesize", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown config field(s): 1\n"
        # int and string keys sort together, as strings
        path.write_text("zoom: 3\n1: 2\n")
        assert main(["synthesize", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown config field(s): 1, zoom\n"

    def test_missing_artifact_exits_nonzero_with_file(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["detect", "--config", str(config)]) == 2
        assert "benchmark.tsv" in capsys.readouterr().err

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["synthesize", "--config", str(config), "--seed", "77"]) == 0
        resolved = yaml.safe_load((tmp_path / "out" / "config_resolved.yaml").read_text())
        assert resolved["seed"] == 77
        header = (tmp_path / "out" / "benchmark.tsv").read_text().splitlines()[0]
        assert "seed=77" in header

    def test_out_flag_redirects(self, tmp_path):
        config = self.write_config(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        assert main(["synthesize", "--config", str(config), "--out", str(elsewhere)]) == 0
        assert (elsewhere / "benchmark.tsv").exists()

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit) as err:
            main(["run-all"])
        assert err.value.code == 2


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "exp.yaml"
    config.write_text(yaml.safe_dump(small_config(root / "out", mixed_count=12, bpr_epochs=2).to_mapping()))
    assert main(["run-all", "--config", str(config)]) == 0
    return config, root / "out"


def with_one_more_item(model):
    """A model file's payload over one item more than it had, emission rows renormalized."""
    emit = np.array(model["emit"])
    emit = np.hstack([emit, emit[:, :1]])
    return dict(model, emit=(emit / emit.sum(axis=1, keepdims=True)).tolist(), num_items=emit.shape[1])


def writer_of(name):
    """The stage that writes artifact name."""
    writers = {
        "benchmark": "synthesize", "hmm": "train", "changepoints": "detect", "factors": "fit", "recommendations": "recommend",
    }
    return next(stage for prefix, stage in writers.items() if name.startswith(prefix))


def edited_error(name):
    """What a stage prints for artifact name edited after its stage wrote it."""
    stage = writer_of(name)
    return f"error: {name} is not the file {stage} wrote (its sha256 differs from manifest.tsv's); rerun {stage}\n"


class TestStaleArtifacts:
    """A hand-edited artifact is refused, with exit code 2, before a row of
    it is read: its sha256 no longer matches its manifest.tsv row, and the
    error names the file and the stage that rewrites it.  Each case keeps
    an edit that a check of the rows themselves refused before the manifest
    existed: users missing, extra or out of order, points or ranks out of
    order, items outside the vocabulary, rows that do not form a ranking."""

    def run_edited(self, cli_run, tmp_path, stage, name, edit):
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        lines = (copy / name).read_text().splitlines()
        header, rows = lines[:2], lines[2:]
        (copy / name).write_text("\n".join(header + edit(rows)) + "\n")
        return main([stage, "--config", str(config), "--out", str(copy)])

    def assert_refused(self, cli_run, tmp_path, capsys, stage, name, edit):
        assert self.run_edited(cli_run, tmp_path, stage, name, edit) == 2
        assert capsys.readouterr().err == edited_error(name)

    def test_fit_names_a_missing_user(self, cli_run, tmp_path, capsys):
        name = "changepoints_HMCD-S2.tsv"
        self.assert_refused(cli_run, tmp_path, capsys, "fit", name, lambda rows: rows[:4] + rows[5:])

    def test_recommend_names_an_extra_user(self, cli_run, tmp_path, capsys):
        extra = lambda rows: rows + ["ghost\t40\t20\t-\t-\tHMCD-S2"]  # noqa: E731
        self.assert_refused(cli_run, tmp_path, capsys, "recommend", "changepoints_HMCD-S2.tsv", extra)

    @pytest.mark.parametrize(
        "name, edit",
        [
            # a ranked list for a user the benchmark does not have
            ("recommendations_NMF.tsv", lambda rows: rows + ["ghost\t1\t0\t0.5"]),
            # the first user's detection dropped
            ("changepoints_RP.tsv", lambda rows: rows[1:]),
        ],
        ids=["extra-ranked-user", "missing-detection"],
    )
    def test_evaluate_names_the_user(self, cli_run, tmp_path, capsys, name, edit):
        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", name, edit)

    @pytest.mark.parametrize("stage", ["recommend", "evaluate"])
    @pytest.mark.parametrize("points", ["999", "5,3"], ids=["beyond-T", "descending"])
    def test_points_outside_the_sequence_are_refused(self, cli_run, tmp_path, capsys, stage, points):
        name = "changepoints_HMCD-S2.tsv"
        self.assert_refused(cli_run, tmp_path, capsys, stage, name, self.set_cell(0, 3, lambda rows: points))

    @pytest.mark.parametrize("stage", ["fit", "recommend", "evaluate"])
    def test_more_than_k_points_are_refused(self, cli_run, tmp_path, capsys, stage):
        """A change-point table detected with k = 2, and everything made from
        it, passes the manifest; a stage run with k = 1 refuses the table's
        first row of two points.  The manifest covers files, not the config."""
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        two = tmp_path / "k2.yaml"
        two.write_text(yaml.safe_dump(dict(yaml.safe_load(config.read_text()), k=2)))
        stages = ["detect", "fit", "recommend", "evaluate"]
        for before in stages[: stages.index(stage)]:
            assert main([before, "--config", str(two), "--out", str(copy)]) == 0
        name = "changepoints_HMCD-S2.tsv"
        user = next(row[0] for row in data_rows(copy / name) if "," in row[3])
        assert main([stage, "--config", str(config), "--out", str(copy)]) == 2
        assert capsys.readouterr().err == f"error: {name}: user {user!r} has 2 points, more than k = 1\n"

    @pytest.mark.parametrize(
        "edit",
        [lambda rows: rows[:1] + rows, lambda rows: rows + rows[-1:], lambda rows: [rows[1], rows[0]] + rows[2:]],
        ids=["user-listed-twice", "last-user-listed-again", "two-users-swapped"],
    )
    def test_changepoint_users_must_run_in_benchmark_order(self, cli_run, tmp_path, capsys, edit):
        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", "changepoints_HMCD-S2.tsv", edit)

    def test_interleaved_runs_are_refused(self, cli_run, tmp_path, capsys):
        """A table whose first two users' rows alternate."""
        name = "recommendations_NMF.tsv"
        first, second = list(dict.fromkeys(row[0] for row in data_rows(cli_run[1] / name)))[:2]

        def edit(rows):
            mine = [[row for row in rows if row.split("\t")[0] == user] for user in (first, second)]
            return [row for pair in zip(*mine) for row in pair] + rows[len(mine[0]) + len(mine[1]) :]

        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", name, edit)

    def test_items_outside_the_vocabulary_are_refused(self, cli_run, tmp_path, capsys):
        name = "recommendations_NMF.tsv"
        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", name, self.set_cell(0, 2, lambda rows: "99999"))

    def test_changepoints_of_another_benchmark_are_refused(self, cli_run, tmp_path):
        """Re-synthesizing at another seed and training again keeps the
        positional user ids but leaves the detections of the old benchmark,
        which every stage that reads them refuses."""
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = dataclasses.replace(ExperimentConfig.from_yaml(config), out_dir=str(copy), seed=40)
        cmd_synthesize(cfg)
        cmd_train(cfg)
        found = "changepoints_HMCD-S2.tsv was made from another benchmark.tsv; rerun detect"
        for stage in (cmd_fit, cmd_recommend, cmd_evaluate):
            with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
                stage(cfg)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("factors_nmf.json", lambda f: dict(f, p=f["p"][: len(f["p"]) // 2])),
            ("factors_bpr.json", lambda f: dict(f, p=f["p"] + f["p"][:1])),
            ("factors_smf_s2.json", lambda f: dict(f, q=f["q"][:-1])),
            ("hmm_s2.json", with_one_more_item),
        ],
        ids=["nmf-half-the-users", "bpr-an-extra-user", "smf-an-item-short", "hmm-an-extra-item"],
    )
    def test_recommend_refuses_factors_shaped_for_another_benchmark(self, cli_run, tmp_path, capsys, name, edit):
        """A factor or model file rewritten with rows for other users or
        items is refused by name, never ranked from."""
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        with arrays_as_lists(copy / name) as payload:
            payload.update(edit(payload))
        assert main(["recommend", "--config", str(config), "--out", str(copy)]) == 2
        assert capsys.readouterr().err == edited_error(name)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: [rows[0].replace("\t1\t", "\tbanana\t", 1)] + rows[1:],
            lambda rows: [rows[1], rows[0]] + rows[2:],
        ],
        ids=["non-integer-rank", "swapped-rows"],
    )
    def test_ranks_must_count_up_in_file_order(self, cli_run, tmp_path, capsys, edit):
        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", "recommendations_PopRank.tsv", edit)

    @staticmethod
    def set_cell(row, column, value):
        """An edit that sets cell `column` of data row `row` to value(rows)."""

        def edit(rows):
            cells = rows[row].split("\t")
            cells[column] = value(rows)
            return rows[:row] + ["\t".join(cells)] + rows[row + 1 :]

        return edit

    @pytest.mark.parametrize(
        "row, column, value",
        [
            (0, 3, lambda rows: "banana"),
            (0, 3, lambda rows: "nan"),
            (1, 3, lambda rows: repr(float(rows[0].split("\t")[3]) + 1)),
            (1, 2, lambda rows: rows[0].split("\t")[2]),
        ],
        ids=["non-number-score", "nan-score", "second-outscores-first", "repeated-item"],
    )
    def test_rows_must_form_a_ranking(self, cli_run, tmp_path, capsys, row, column, value):
        name = "recommendations_PopRank.tsv"
        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", name, self.set_cell(row, column, value))

    @pytest.mark.parametrize(
        "edits",
        [
            # user 1's second row out of rank order, and a later row of the same user with a non-integer item
            {(1, 1, 1): "7", (1, 4, 2): "x"},
            # user 1's scores rise, and user 2's first score is not a number
            {(1, 1, 3): "1e9", (2, 0, 3): "banana"},
            # user 2 repeats an item, and user 1's first item lies outside the vocabulary
            {(2, 1, 2): None, (1, 0, 2): "99999"},
        ],
        ids=["rows-in-file-order", "users-in-file-order", "items-before-rankings"],
    )
    def test_the_first_defect_is_named(self, cli_run, tmp_path, capsys, edits):
        """With two defects the file is refused whole, by its digest.  edits
        maps (user, row of that user, column) to a new cell, None for the
        user's first item."""
        name = "recommendations_PopRank.tsv"
        rows = data_rows(cli_run[1] / name)
        per_user = len(rows) // len({row[0] for row in rows})

        def edit(lines):
            for (user, row, column), value in edits.items():
                cells = lines[user * per_user + row].split("\t")
                cells[column] = lines[user * per_user].split("\t")[2] if value is None else value
                lines[user * per_user + row] = "\t".join(cells)
            return lines

        self.assert_refused(cli_run, tmp_path, capsys, "evaluate", name, edit)


def test_a_benchmark_synthesized_again_is_refused_by_every_later_stage(cli_run, tmp_path, capsys):
    """After a finished run, synthesize at another seed: every stage after
    it refuses the artifacts made from the old benchmark, naming the first
    stale one and the stage that remakes it, instead of using them."""
    config, out = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    assert main(["synthesize", "--config", str(config), "--out", str(copy), "--seed", "6"]) == 0
    stale = {"detect": ("hmm_s2.json", "train")}
    for stage in ("detect", "fit", "recommend", "evaluate"):
        name, writer = stale.get(stage, ("changepoints_HMCD-S2.tsv", "detect"))
        assert main([stage, "--config", str(config), "--out", str(copy)]) == 2, stage
        assert capsys.readouterr().err == f"error: {name} was made from another benchmark.tsv; rerun {writer}\n"


_READERS = {
    "benchmark.tsv": ("train", "detect", "fit", "recommend", "evaluate"),
    "hmm_s2.json": ("detect", "recommend"),
    "changepoints_HMCD-S2.tsv": ("fit", "recommend", "evaluate"),
    "factors_smf_s2.json": ("recommend",),
    "recommendations_NMF.tsv": ("evaluate",),
}


@pytest.mark.parametrize("defect", ["edited", "no-row"])
@pytest.mark.parametrize("name", _READERS)
def test_every_reader_refuses_an_artifact_the_manifest_does_not_vouch_for(cli_run, tmp_path, capsys, name, defect):
    """An artifact with a newline appended, which its reader would pass, or
    whose manifest row is gone, is refused by every stage that reads it."""
    config, out = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    if defect == "edited":
        (copy / name).write_text((copy / name).read_text() + "\n")
        expected = edited_error(name)
    else:
        lines = (copy / "manifest.tsv").read_text().splitlines(keepends=True)
        (copy / "manifest.tsv").write_text("".join(line for line in lines if not line.startswith(f"{name}\t")))
        expected = f"error: {name} has no row in manifest.tsv; rerun {writer_of(name)}\n"
    for stage in _READERS[name]:
        assert main([stage, "--config", str(config), "--out", str(copy)]) == 2, stage
        assert capsys.readouterr().err == expected, stage


def test_an_out_dir_without_a_manifest_is_refused_by_every_stage_that_reads(cli_run, tmp_path, capsys):
    config, out = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "manifest.tsv").unlink()
    for stage in _READERS["benchmark.tsv"]:
        assert main([stage, "--config", str(config), "--out", str(copy)]) == 2, stage
        expected = f"error: manifest.tsv is missing from {copy}, so benchmark.tsv cannot be checked; rerun synthesize\n"
        assert capsys.readouterr().err == expected, stage


def write_changepoints(path, rows):
    path.write_text("# config=x seed=0\n# user_id\tT\ttruth\tpredicted\tscores\tmethod\n")
    with open(path, "a") as fh:
        fh.writelines(f"{user}\t{T}\t{truth}\t{points}\t-\tX\n" for user, T, truth, points in rows)


_TWO_USERS = [
    InteractionSequence("a", np.arange(40), truth_change=20),
    InteractionSequence("b", np.arange(30), truth_change=10),
]


@pytest.mark.parametrize(
    "points, found",
    [
        ("5,3", "points [5, 3] must ascend strictly within [1, 29]"),
        ("3,3", "points [3, 3] must ascend strictly within [1, 29]"),
        ("3,30", "points [3, 30] must ascend strictly within [1, 29]"),
        ("0,3", "points entry: must be >= 1, got 0"),
        ("2,3,4", "has 3 points, more than k = 2"),
    ],
)
def test_each_row_of_up_to_k_points_is_checked(tmp_path, points, found):
    """Cutting the sequences at a table's points, as fit and recommend do,
    refuses a row of more than k points, naming the table and the user;
    partition refuses points that do not ascend strictly within [1, T)."""
    write_changepoints(tmp_path / "changepoints_HMCD-S2.tsv", [("a", 40, 20, "5,30"), ("b", 30, 10, points)])
    with pytest.raises(ValueError) as err:
        driftrec.pipeline._segments_by_user(tmp_path, _TWO_USERS, 2, k=2)
    assert str(err.value) in (found, f"changepoints_HMCD-S2.tsv: user 'b' {found}")


def test_a_user_who_has_seen_every_item_is_scored_with_an_empty_list(tmp_path, monkeypatch):
    """Recommend writes no rows for a user who has seen every item, and
    evaluate scores that user as ranking_metrics scores an empty list.

    Two pools of six items; an even playlist cycles through all six of its
    pool, an odd one through three, so a user spliced from two even
    playlists has seen all twelve.  The synthesize stage then sets each
    other user's holdout to the items they have not seen, so the rankings
    score above zero and a list scored for the wrong user would show."""
    corpus = tmp_path / "playlists.txt"
    corpus.write_text(
        "".join(" ".join(f"it{6 * (p >= 20) + j % (6 - 3 * (p % 2))}" for j in range(60)) + "\n" for p in range(40))
    )
    config = tmp_path / "exp.yaml"
    settings = dict(corpus=str(corpus), out_dir=str(tmp_path / "out"), mixed_count=30, min_window=25, pool_split=20)
    settings.update(hidden_state_counts=[2], d=3, l=3, n_grid=[1, 5], hmm_max_iters=5, nmf_max_iters=5, bpr_epochs=1, seed=1)
    config.write_text(yaml.safe_dump(settings))
    out = tmp_path / "out"
    synthesize = driftrec.pipeline.synthesize_mixed

    def unseen_holdouts(corpus, *args, **kwargs):
        m = len(corpus.item_keys)
        return [
            mx
            if len(np.unique(mx.items)) == m
            else dataclasses.replace(mx, holdout=np.resize(np.setdiff1d(np.arange(m), mx.items), 10))
            for mx in synthesize(corpus, *args, **kwargs)
        ]

    monkeypatch.setattr(driftrec.pipeline, "synthesize_mixed", unseen_holdouts)
    assert main(["run-all", "--config", str(config)]) == 0
    mixed, meta = load_benchmark(out / "benchmark.tsv")
    full = {mx.user_id for mx in mixed if len(np.unique(mx.items)) == int(meta["num_items"])}
    assert len(full) == 6
    truth = {mx.user_id: mx.holdout for mx in mixed}
    expected = []
    for label in ExperimentConfig.from_yaml(config).ranker_labels():
        ranked = {mx.user_id: [] for mx in mixed}
        for user_id, _, item, _ in data_rows(out / f"recommendations_{label}.tsv"):
            ranked[user_id].append(int(item))
        assert {user for user, items in ranked.items() if not items} == full, label
        tables = dict(zip(("precision", "recall", "ndcg"), ranking_metrics(ranked, truth, settings["n_grid"])))
        expected += [[label, name, str(N), repr(table[N])] for N in settings["n_grid"] for name, table in tables.items()]
    rows = data_rows(out / "ranking_metrics.tsv")
    assert rows == expected and any(float(row[3]) > 0 for row in rows)


def edit_benchmark_item(column, value):
    """Set the first entry of the first record's truth (column 1), items (column 3) or holdout (column 4)."""

    def edit(text):
        lines = text.splitlines()
        cells = lines[1].split("\t")
        cells[column] = " ".join([value] + cells[column].split()[1:])
        lines[1] = "\t".join(cells)
        return "\n".join(lines) + "\n"

    return edit


@pytest.mark.parametrize("stage", ["train", "detect", "evaluate"])
class TestBenchmarkItems:
    """An edited benchmark.tsv is refused by every stage, by name and with
    the stage that rewrites it, before its records are read.  Where
    load_benchmark, which reads a benchmark file from anywhere, refuses the
    edit itself, its message names the line."""

    def run_edited(self, cli_run, tmp_path, capsys, stage, edit):
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "benchmark.tsv").write_text(edit((copy / "benchmark.tsv").read_text()))
        assert main([stage, "--config", str(config), "--out", str(copy)]) == 2
        assert capsys.readouterr().err == edited_error("benchmark.tsv")
        return copy / "benchmark.tsv"

    @pytest.mark.parametrize("column, part", [(3, "items"), (4, "holdout")])
    def test_negative_item_names_the_line(self, cli_run, tmp_path, capsys, stage, column, part):
        path = self.run_edited(cli_run, tmp_path, capsys, stage, edit_benchmark_item(column, "-1"))
        found = f"benchmark.tsv:2: malformed benchmark row ({part} has item -1; items must lie in [0, inf))"
        with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
            load_benchmark(path)

    @pytest.mark.parametrize("column, part", [(3, "items"), (4, "holdout")])
    def test_item_past_the_vocabulary_names_the_user(self, cli_run, tmp_path, capsys, stage, column, part):
        """load_benchmark checks each column against the header's num_items."""
        m = int(load_benchmark(cli_run[1] / "benchmark.tsv")[1]["num_items"])
        user = data_rows(cli_run[1] / "benchmark.tsv")[0][0]
        path = self.run_edited(cli_run, tmp_path, capsys, stage, edit_benchmark_item(column, str(m)))
        found = f"benchmark.tsv:2: {part} of user {user!r} has item {m}; items must lie in [0, {m})"
        with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
            load_benchmark(path)

    def test_repeated_user_names_both_lines(self, cli_run, tmp_path, capsys, stage):
        users = [row[0] for row in data_rows(cli_run[1] / "benchmark.tsv")]
        renamed = lambda text: text.replace(f"\n{users[1]}\t", f"\n{users[0]}\t", 1)  # noqa: E731
        path = self.run_edited(cli_run, tmp_path, capsys, stage, renamed)
        found = f"benchmark.tsv:3: user {users[0]!r} is listed again (first on line 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
            load_benchmark(path)

    def test_truth_past_the_sequence_names_the_line(self, cli_run, tmp_path, capsys, stage):
        user, _, _, items, _ = data_rows(cli_run[1] / "benchmark.tsv")[0]
        path = self.run_edited(cli_run, tmp_path, capsys, stage, edit_benchmark_item(1, "5000"))
        T = len(items.split())
        found = f"benchmark.tsv:2: malformed benchmark row (truth_change 5000 outside [1, {T}) for user {user})"
        with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
            load_benchmark(path)


_ALWAYS = {
    "config_resolved.yaml", "manifest.tsv", "benchmark.tsv", "vocab.tsv", "hmm_s2.json", "changepoints_HMCD-S2.tsv",
    "cpd_table.tsv", "state_count_trend.tsv", "ranking_metrics.tsv", "summary.txt",
}


@pytest.mark.parametrize(
    "methods, files",
    [
        (["HMCD-S2", "CUSUM", "SW", "RP"], {"changepoints_CUSUM.tsv", "changepoints_SW.tsv", "changepoints_RP.tsv"}),
        (["HMMR-S2"], {"recommendations_HMMR-S2.tsv"}),
        (["BPR-MF"], {"factors_bpr.json", "recommendations_BPR-MF.tsv"}),
    ],
    ids=["detectors-only", "hmmr-without-smf", "bpr-without-nmf"],
)
def test_methods_subset_writes_exactly_its_files(tmp_path, methods, files):
    cfg = small_config(tmp_path / "out", mixed_count=12, bpr_epochs=2, methods=methods)
    cmd_run_all(cfg)
    out = Path(cfg.out_dir)
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(written) == _ALWAYS | files
    rankers = cfg.ranker_labels()
    summary = written["summary.txt"].decode()
    assert ("rankers (" in summary) == bool(rankers)
    assert all(f"  {label} " in summary for label in rankers)
    cmd_run_all(cfg)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_each_stage_hashes_the_config_once(tmp_path, monkeypatch):
    cfg = small_config(tmp_path / "out", mixed_count=12, bpr_epochs=2)
    calls = []
    original = ExperimentConfig.config_hash
    monkeypatch.setattr(ExperimentConfig, "config_hash", lambda self: calls.append(self) or original(self))
    for stage in _STAGES:
        calls.clear()
        stage(cfg)
        assert len(calls) == 1, stage.__name__


def test_fit_without_static_rankers_builds_no_user_matrix(tmp_path, monkeypatch):
    cfg = small_config(tmp_path / "out", mixed_count=12, methods=["HMMR-S2"])
    for stage in _STAGES[:3]:
        stage(cfg)
    calls = []
    monkeypatch.setattr(driftrec.pipeline, "incidence_matrix", lambda *args: calls.append(args))
    assert cmd_fit(cfg) == []
    assert calls == []


def test_fit_builds_the_user_matrix_once_for_nmf_and_bpr(tmp_path, monkeypatch):
    cfg = small_config(tmp_path / "out", mixed_count=12, methods=["NMF", "BPR-MF"], bpr_epochs=1)
    for stage in _STAGES[:3]:
        stage(cfg)
    use_cpus(monkeypatch, 1)
    calls = []
    build = driftrec.pipeline._user_matrix
    monkeypatch.setattr(driftrec.pipeline, "_user_matrix", lambda *args: calls.append(args) or build(*args))
    assert [p.name for p in cmd_fit(cfg)] == ["factors_nmf.json", "factors_bpr.json"]
    assert len(calls) == 1


def edit_line(index, change):
    def edit(text):
        lines = text.splitlines()
        lines[index] = change(lines[index])
        return "\n".join(lines) + "\n"

    return edit


def drop_field(field):
    def edit(text):
        payload = json.loads(text)
        del payload[field]
        return json.dumps(payload)

    return edit


@pytest.mark.parametrize(
    "stage, name, edit",
    [
        ("recommend", "changepoints_HMCD-S2.tsv", edit_line(2, lambda row: row.split("\t")[0])),
        ("fit", "changepoints_HMCD-S2.tsv", edit_line(3, lambda row: row.replace("\t", "\tx", 1))),
        ("evaluate", "recommendations_NMF.tsv", edit_line(2, lambda row: row.rpartition("\t")[0])),
        ("detect", "hmm_s2.json", drop_field("emit")),
        ("detect", "hmm_s2.json", lambda text: text[:40]),
        ("recommend", "factors_smf_s2.json", drop_field("q")),
        ("train", "benchmark.tsv", lambda text: re.sub(r"num_items=\d+ ", "", text, count=1)),
    ],
    ids=["short-cpd-row", "non-integer-T", "short-ranked-row", "model-lacks-emit", "truncated-model",
         "factors-lack-q", "header-lacks-num-items"],
)
def test_malformed_artifact_exits_2_naming_the_file(cli_run, tmp_path, capsys, stage, name, edit):
    """A malformed artifact is refused by its digest, naming the file and
    the stage that rewrites it.  The public loaders' own messages for the
    model and factor defects are tested in tests/test_hmm.py and
    tests/test_factorization.py."""
    config, out = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / name).write_text(edit((copy / name).read_text()))
    assert main([stage, "--config", str(config), "--out", str(copy)]) == 2
    assert capsys.readouterr().err == edited_error(name)

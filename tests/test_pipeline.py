"""Configuration handling, staged artifacts, and CLI behavior."""

import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from driftrec.cli import main
from driftrec.dataset import load_benchmark, to_interaction_sequences
from driftrec.evaluation import ndcg_time_aware, pr_curve, precision_recall_at
from driftrec.pipeline import (
    ExperimentConfig,
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

FIXTURE = str(Path(__file__).parent / "fixtures" / "playlists_200.txt")


def data_rows(path):
    return [line.split("\t") for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]


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
        with pytest.raises(ValueError, match="hidden_state_counts.*ascending"):
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
    out = tmp_path_factory.mktemp("run")
    cfg = small_config(out)
    report = cmd_run_all(cfg)
    return cfg, Path(cfg.out_dir), report


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
            "cpd_table.txt",
            "state_count_trend.tsv",
            "ranking_metrics.tsv",
            "ranking_metrics.txt",
            "pr_curves.tsv",
            "summary.txt",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_every_text_artifact_embeds_hash_and_seed(self, pipeline_run):
        cfg, out, _ = pipeline_run
        for path in sorted(out.glob("*.tsv")) + sorted(out.glob("*.txt")):
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
            rows = [
                line.split("\t")
                for line in (out / f"changepoints_{label}.tsv").read_text().splitlines()
                if line and not line.startswith("#")
            ]
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
            for line in (out / f"recommendations_{label}.tsv").read_text().splitlines():
                if not line or line.startswith("#"):
                    continue
                user_id, rank, item, _ = line.split("\t")
                per_user.setdefault(user_id, []).append((int(rank), int(item)))
            assert set(per_user) == set(seen)
            for user_id, rows in per_user.items():
                assert [r for r, _ in rows] == list(range(1, N + 1))
                items = [i for _, i in rows]
                assert len(set(items)) == N
                assert not (set(items) & seen[user_id])

    def test_report_covers_all_methods(self, pipeline_run):
        cfg, _, report = pipeline_run
        assert report.n_users == cfg.mixed_count
        for label in ("HMCD-S2", "CUSUM", "SW", "RP"):
            assert report.per_method[label].mean_delta >= 0.0
        for label in ("SMF-S2", "HMMR-S2", "NMF", "BPR-MF", "PopRank"):
            metrics = report.per_method[label]
            for N in cfg.n_grid:
                assert 0.0 <= metrics.precision_at[N] <= 1.0
                assert 0.0 <= metrics.ndcg_at[N] <= 1.0
            assert len(metrics.pr_points) == len(cfg.n_grid)
        assert report.parameters["config_hash"] == cfg.config_hash()

    def test_pr_curves_match_recomputation_from_recommendations(self, pipeline_run):
        cfg, out, report = pipeline_run
        _, truth = to_interaction_sequences(load_benchmark(out / "benchmark.tsv")[0])
        rows = data_rows(out / "pr_curves.tsv")
        for label in cfg.ranker_labels():
            ranked = {}
            for user_id, _, item, _ in data_rows(out / f"recommendations_{label}.tsv"):
                ranked.setdefault(user_id, []).append(int(item))
            written = [(int(n), float(p), float(r)) for method, n, p, r in rows if method == label]
            expected = pr_curve(ranked, truth, cfg.n_grid)
            assert written == [(n, p, r) for n, (p, r) in zip(cfg.n_grid, expected)], label
            assert report.per_method[label].pr_points == expected, label

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
    report = cmd_run_all(cfg)
    rows = [
        line.split("\t")
        for line in (Path(cfg.out_dir) / "changepoints_HMCD-S1.tsv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert all(r[3] == "-" for r in rows)
    assert report.per_method["HMCD-S1"].mean_delta > 0.0
    assert 0.0 <= report.per_method["SMF-S1"].precision_at[10] <= 1.0
    assert (Path(cfg.out_dir) / "state_count_trend.tsv").exists()


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
    report = cmd_evaluate(cfg)
    assert set(report.per_method) == set(cfg.methods)


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
        assert (tmp_path / "out" / "cpd_table.txt").exists()

    def test_invalid_config_exits_nonzero_with_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"corpus": FIXTURE, "out_dir": str(tmp_path / "o"), "k": 0}))
        assert main(["synthesize", "--config", str(path)]) == 2
        assert "k: must be >= 1" in capsys.readouterr().err

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


class TestStaleArtifacts:
    """A hand-edited artifact whose users differ from benchmark.tsv's is
    refused by name, with exit code 2, by every stage that reads it."""

    def run_edited(self, cli_run, tmp_path, stage, name, edit):
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        lines = (copy / name).read_text().splitlines()
        header, rows = lines[:2], lines[2:]
        (copy / name).write_text("\n".join(header + edit(rows)) + "\n")
        return main([stage, "--config", str(config), "--out", str(copy)])

    def test_fit_names_a_missing_user(self, cli_run, tmp_path, capsys):
        name = "changepoints_HMCD-S2.tsv"
        dropped = data_rows(cli_run[1] / name)[4][0]
        assert self.run_edited(cli_run, tmp_path, "fit", name, lambda rows: rows[:4] + rows[5:]) == 2
        err = capsys.readouterr().err
        assert f"{name} lacks user {dropped!r} of benchmark.tsv" in err

    def test_recommend_names_an_extra_user(self, cli_run, tmp_path, capsys):
        name = "changepoints_HMCD-S2.tsv"
        extra = lambda rows: rows + ["ghost\t40\t20\t-\t-\tHMCD-S2"]  # noqa: E731
        assert self.run_edited(cli_run, tmp_path, "recommend", name, extra) == 2
        assert f"{name} has user 'ghost' not in benchmark.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            # a ranked list for a user the benchmark does not have
            ("recommendations_NMF.tsv", lambda rows: rows + ["ghost\t1\t0\t0.5"], "has user 'ghost' not in"),
            # the first user's detection dropped
            ("changepoints_RP.tsv", lambda rows: rows[1:], "lacks user {first!r} of"),
        ],
        ids=["extra-ranked-user", "missing-detection"],
    )
    def test_evaluate_names_the_user(self, cli_run, tmp_path, capsys, name, edit, message):
        first = data_rows(cli_run[1] / name)[0][0]
        assert self.run_edited(cli_run, tmp_path, "evaluate", name, edit) == 2
        assert f"{name} {message.format(first=first)} benchmark.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["recommend", "evaluate"])
    @pytest.mark.parametrize("points", ["999", "5,3"], ids=["beyond-T", "descending"])
    def test_points_outside_the_sequence_are_refused(self, cli_run, tmp_path, capsys, stage, points):
        name = "changepoints_HMCD-S2.tsv"
        user = data_rows(cli_run[1] / name)[0][0]

        def edit(rows):
            cells = rows[0].split("\t")
            cells[3] = points
            return ["\t".join(cells)] + rows[1:]

        assert self.run_edited(cli_run, tmp_path, stage, name, edit) == 2
        listed = points.replace(",", ", ")
        assert f"{name}: user {user!r} has points [{listed}]; they must ascend strictly within [" in capsys.readouterr().err

    def test_items_outside_the_vocabulary_are_refused(self, cli_run, tmp_path, capsys):
        name = "recommendations_NMF.tsv"
        user = data_rows(cli_run[1] / name)[0][0]

        def edit(rows):
            cells = rows[0].split("\t")
            cells[2] = "99999"
            return ["\t".join(cells)] + rows[1:]

        assert self.run_edited(cli_run, tmp_path, "evaluate", name, edit) == 2
        assert f"{name}: user {user!r} has item 99999; items must lie in [0, " in capsys.readouterr().err

    def test_changepoints_of_another_benchmark_are_refused(self, cli_run, tmp_path):
        """Re-synthesizing at another seed keeps the positional user ids but
        not each user's length and true change point."""
        config, out = cli_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = dataclasses.replace(ExperimentConfig.from_yaml(config), out_dir=str(copy), seed=40)
        cmd_synthesize(cfg)
        seqs = to_interaction_sequences(load_benchmark(copy / "benchmark.tsv")[0])[0]
        name = "changepoints_HMCD-S2.tsv"
        table = {row[0]: (int(row[1]), int(row[2])) for row in data_rows(out / name)}
        first = next(seq.user_id for seq in seqs if table[seq.user_id] != (len(seq), seq.truth_change))
        for stage in (cmd_fit, cmd_recommend, cmd_evaluate):
            with pytest.raises(ValueError, match=f"{re.escape(name)}: user {first!r} has T, truth"):
                stage(cfg)


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
    "stage, name, edit, detail",
    [
        ("recommend", "changepoints_HMCD-S2.tsv", edit_line(2, lambda row: row.split("\t")[0]), ":3: malformed"),
        ("fit", "changepoints_HMCD-S2.tsv", edit_line(3, lambda row: row.replace("\t", "\tx", 1)), ":4: malformed"),
        ("evaluate", "recommendations_NMF.tsv", edit_line(2, lambda row: row.rpartition("\t")[0]), ":3: malformed"),
        ("detect", "hmm_s2.json", drop_field("emit"), "missing field 'emit'"),
        ("detect", "hmm_s2.json", lambda text: text[:40], "hmm_s2.json: "),
        ("recommend", "factors_smf_s2.json", drop_field("q"), "missing field 'q'"),
        ("train", "benchmark.tsv", lambda text: re.sub(r"num_items=\d+ ", "", text, count=1), "num_items"),
    ],
    ids=["short-cpd-row", "non-integer-T", "short-ranked-row", "model-lacks-emit", "truncated-model",
         "factors-lack-q", "header-lacks-num-items"],
)
def test_malformed_artifact_exits_2_naming_the_file(cli_run, tmp_path, capsys, stage, name, edit, detail):
    config, out = cli_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / name).write_text(edit((copy / name).read_text()))
    assert main([stage, "--config", str(config), "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and detail in err

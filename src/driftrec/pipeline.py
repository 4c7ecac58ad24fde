"""Staged experiment pipeline over the library's detectors and recommenders.

A run turns a playlist corpus into a drift benchmark, trains the sequence
models, applies every detector and recommender named in the configuration,
and renders evaluation reports.  Stages communicate only through files in
the output directory, so each can be rerun or inspected in isolation.
Every artifact embeds the hash of the configuration that produced it plus
the run seed, and reruns with the same configuration are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from driftrec.changepoint import (
    cooccurrence_item_vectors,
    cusum_detect,
    build_segmented_matrix,
    hmcd_detect_all,
    incidence_matrix,
    partition,
    random_partition,
    sliding_window_detect,
    tune_cusum_threshold,
)
from driftrec.dataset import (
    HOLDOUT_SIZE,
    load_benchmark,
    load_corpus,
    save_benchmark,
    synthesize_mixed,
    to_interaction_sequences,
)
from driftrec.evaluation import EvalReport, MethodMetrics, aggregate_cpd, ranking_metrics
from driftrec.factorization import FactorizationConfig, bpr_fit, load_factors, nmf_fit, save_factors
from driftrec.hmm import TrainConfig, baum_welch_train, load_model, save_model, total_log_likelihood
from driftrec.recommend import (
    factors_from_pair,
    hmm_item_factors,
    item_popularity,
    rank_by_scores,
    recommend_from_segments,
)

_BASELINE_DETECTORS = ("CUSUM", "SW", "RP")
_STATIC_RANKERS = ("NMF", "BPR-MF", "PopRank")


def stable_seed(seed: int, label: str) -> int:
    """Derive a per-stage RNG seed from the run seed and a stage label.

    Hash-based so adding or reordering stages never shifts the streams of
    the others.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def method_universe(hidden_state_counts) -> list[str]:
    """All method labels a config with these state counts may name."""
    counts = list(hidden_state_counts)
    return (
        [f"HMCD-S{h}" for h in counts]
        + list(_BASELINE_DETECTORS)
        + [f"SMF-S{h}" for h in counts]
        + [f"HMMR-S{h}" for h in counts]
        + list(_STATIC_RANKERS)
    )


def _check_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {value}")


def _check_ascending_ints(name: str, values) -> list[int]:
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name}: expected a nonempty list of integers, got {values!r}")
    for v in values:
        _check_int(f"{name} entry", v, 1)
    out = [int(v) for v in values]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name}: entries must be strictly ascending, got {out}")
    return out


@dataclass
class ExperimentConfig:
    """Everything one experiment run depends on, in validated form.

    A config file is a plain-text key-value document (YAML mapping) whose
    keys match these field names exactly; unknown keys are rejected with
    the offending names.  methods defaults to every label derivable from
    hidden_state_counts, and min_len to min_window + HOLDOUT_SIZE so any
    kept playlist can serve either role in a mixed pair.
    """

    corpus: str
    out_dir: str
    seed: int = 0
    sample_size: int | None = None
    min_len: int | None = None
    mixed_count: int = 1000
    min_window: int = 10
    pool_split: int | None = None
    hidden_state_counts: list[int] = field(default_factory=lambda: [2, 10])
    k: int = 1
    d: int = 40
    l: int = 10
    n_grid: list[int] = field(default_factory=lambda: list(range(1, 11)))
    methods: list[str] | None = None
    hmm_max_iters: int = 100
    hmm_restarts: int = 1
    hmm_tol: float = 1e-5
    nmf_max_iters: int = 200
    bpr_epochs: int = 100

    def __post_init__(self):
        for name in ("corpus", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"{name}: expected a nonempty path string, got {value!r}")
        _check_int("seed", self.seed, 0)
        for name in ("k", "d", "l", "mixed_count", "min_window", "hmm_max_iters", "hmm_restarts", "nmf_max_iters", "bpr_epochs"):
            _check_int(name, getattr(self, name), 1)
        if isinstance(self.hmm_tol, int) and not isinstance(self.hmm_tol, bool):
            self.hmm_tol = float(self.hmm_tol)
        if not isinstance(self.hmm_tol, float) or not 0.0 < self.hmm_tol < 1.0:
            raise ValueError(f"hmm_tol: expected a float in (0, 1), got {self.hmm_tol!r}")
        for name in ("sample_size", "min_len", "pool_split"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), 1)
        self.hidden_state_counts = _check_ascending_ints("hidden_state_counts", self.hidden_state_counts)
        self.n_grid = _check_ascending_ints("n_grid", self.n_grid)
        universe = method_universe(self.hidden_state_counts)
        if self.methods is None:
            self.methods = list(universe)
        else:
            if not isinstance(self.methods, (list, tuple)) or not self.methods:
                raise ValueError(f"methods: expected a nonempty list of labels, got {self.methods!r}")
            self.methods = [str(m) for m in self.methods]
            for label in self.methods:
                if label not in universe:
                    raise ValueError(f"methods: unknown label {label!r}; allowed: {', '.join(universe)}")
            if len(set(self.methods)) != len(self.methods):
                raise ValueError("methods: duplicate labels")
        if self.min_len is None:
            self.min_len = self.min_window + HOLDOUT_SIZE

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        if not isinstance(mapping, dict):
            raise ValueError("config root must be a key-value mapping")
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = set(mapping) - set(names)
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        missing = [n for n in ("corpus", "out_dir") if n not in mapping]
        if missing:
            raise ValueError(f"missing required config field(s): {', '.join(missing)}")
        return cls(**mapping)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        # libyaml's loader when installed: the same mapping, parsed several times faster
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        return cls.from_mapping(yaml.load(Path(path).read_text(), Loader=loader) or {})

    def to_mapping(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        """Short digest of every field but out_dir.

        out_dir changes where a run happens, not what it computes, so two
        runs differing only in it share a hash.
        """
        payload = self.to_mapping()
        del payload["out_dir"]
        return hashlib.sha256(yaml.safe_dump(payload, sort_keys=True).encode()).hexdigest()[:12]

    def detector_labels(self) -> list[str]:
        """Detectors this run executes; the model-based one runs for every
        state count because downstream stages and the trend report need it."""
        return [f"HMCD-S{h}" for h in self.hidden_state_counts] + [
            m for m in _BASELINE_DETECTORS if m in self.methods
        ]

    def ranker_labels(self) -> list[str]:
        return [m for m in self.methods if m.startswith(("SMF-S", "HMMR-S")) or m in _STATIC_RANKERS]


# ---------------------------------------------------------------------------
# shared plumbing


def _out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = dict(cfg.to_mapping(), config_hash=cfg.config_hash())
    (out / "config_resolved.yaml").write_text(yaml.safe_dump(resolved, sort_keys=True))
    return out


def _header(cfg: ExperimentConfig, extra: str = "") -> str:
    line = f"# config={cfg.config_hash()} seed={cfg.seed}"
    return f"{line} {extra}" if extra else line


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path} (run the stage that produces it first)")
    return path


def _write_rows(path: Path, cfg: ExperimentConfig, columns, rows, extra: str = "") -> None:
    lines = [_header(cfg, extra), "# " + "\t".join(columns)]
    lines.extend("\t".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _parse_rows(path: Path, what: str, parse) -> list:
    """parse(*cells) of every data row; a malformed row names the file and line."""
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip() and not line.startswith("#"):
            try:
                out.append(parse(*line.split("\t")))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed {what} row ({exc})") from exc
    return out


def _load_sequences(out: Path):
    path = _require(out / "benchmark.tsv")
    mixed, meta = load_benchmark(path)
    if not meta.get("num_items", "").isdigit():
        raise ValueError(f"{path}: header lacks an integer num_items")
    seqs, holdout = to_interaction_sequences(mixed)
    return seqs, holdout, int(meta["num_items"])


def _check_users(path: Path, users, seqs) -> None:
    """Reject an artifact whose users differ from benchmark.tsv's, naming the first."""
    expected = {seq.user_id for seq in seqs}
    missing = [seq.user_id for seq in seqs if seq.user_id not in users]
    extra = [u for u in users if u not in expected]
    if missing or extra:
        what = f"lacks user {missing[0]!r} of" if missing else f"has user {extra[0]!r} not in"
        raise ValueError(f"{path.name} {what} benchmark.tsv (stale artifact?)")


def _changepoint_row(user_id, T, truth, predicted, *_):
    return user_id, (int(T), int(truth)), [] if predicted == "-" else [int(p) for p in predicted.split(",")]


def _read_changepoints(path: Path, seqs, interior: bool = True) -> dict[str, list[int]]:
    """user_id -> predicted indices ('-' marks none).  Each row's T and truth
    must be benchmark.tsv's, so a table detected on another benchmark is refused.
    Points must ascend strictly within [1, T), where partition can split at
    them, or within [0, T] when not interior: the RP baseline draws its split
    from [0, T], and displacement scores any of them."""
    expected = {seq.user_id: (len(seq), seq.truth_change) for seq in seqs}
    out = {}
    for user_id, facts, points in _parse_rows(path, "change-point", _changepoint_row):
        if expected.get(user_id, facts) != facts:
            raise ValueError(f"{path.name}: user {user_id!r} has T, truth {facts}; benchmark.tsv has {expected[user_id]}")
        lo, hi = (1, facts[0] - 1) if interior else (0, facts[0])
        if any(not lo <= p <= hi for p in points) or any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(
                f"{path.name}: user {user_id!r} has points {points}; they must ascend strictly within [{lo}, {hi}]"
            )
        out[user_id] = points
    _check_users(path, out, seqs)
    return out


def _segments_by_user(seqs, changepoints, k: int) -> dict[str, list[np.ndarray]]:
    """Partition each sequence at its detected points, padded to k + 1 segments.

    Detectors may return fewer than k points (or none at all, flagged);
    trailing empty segments keep every user's row count identical.
    """
    out = {}
    for seq in seqs:
        segs = partition(seq, changepoints[seq.user_id])
        out[seq.user_id] = segs + [np.array([], dtype=np.int64)] * (k + 1 - len(segs))
    return out


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# stages


def cmd_synthesize(cfg: ExperimentConfig) -> Path:
    """Corpus in, benchmark out: mixed sequences plus the item vocabulary."""
    out = _out(cfg)
    corpus = load_corpus(
        cfg.corpus, min_len=cfg.min_len, sample_size=cfg.sample_size, seed=stable_seed(cfg.seed, "corpus")
    )
    mixed = synthesize_mixed(
        corpus,
        cfg.mixed_count,
        seed=stable_seed(cfg.seed, "synthesize"),
        min_window=cfg.min_window,
        pool_split=cfg.pool_split,
    )
    meta = {
        "config": cfg.config_hash(),
        "seed": cfg.seed,
        "num_items": len(corpus.item_keys),
        "min_window": cfg.min_window,
        "pool_split": "none" if cfg.pool_split is None else cfg.pool_split,
    }
    save_benchmark(out / "benchmark.tsv", mixed, meta)
    _write_rows(
        out / "vocab.tsv",
        cfg,
        ("index", "item_key"),
        [(str(i), key) for i, key in enumerate(corpus.item_keys)],
    )
    return out / "benchmark.tsv"


def cmd_train(cfg: ExperimentConfig) -> list[Path]:
    """Fit one hidden-state model per configured state count.

    Expectation maximization only climbs to a local optimum, so each model
    is the best of hmm_restarts independently seeded runs by final corpus
    log-likelihood.  Ties keep the earliest restart.
    """
    out = _out(cfg)
    seqs, _, m = _load_sequences(out)
    paths = []
    for h in cfg.hidden_state_counts:
        best = None
        for r in range(cfg.hmm_restarts):
            tc = TrainConfig(
                max_iters=cfg.hmm_max_iters,
                log_lik_tol=cfg.hmm_tol,
                seed=stable_seed(cfg.seed, f"train:h{h}:r{r}"),
            )
            model = baum_welch_train(seqs, h, tc, num_items=m)
            ll = total_log_likelihood(model, seqs)
            if best is None or ll > best[0]:
                best = (ll, r, model, tc)
        ll, r, model, tc = best
        path = out / f"hmm_s{h}.json"
        meta = {"config": cfg.config_hash(), "seed": cfg.seed, "h": h, "restart": r, "log_likelihood": ll}
        save_model(path, model, tc, meta=meta)
        paths.append(path)
    return paths


def cmd_detect(cfg: ExperimentConfig) -> list[Path]:
    """Run every configured detector over the benchmark, one report each."""
    out = _out(cfg)
    seqs, _, m = _load_sequences(out)
    columns = ("user_id", "T", "truth", "predicted", "scores", "method")
    paths = []

    def rows_from(label, per_seq):
        rows = []
        for seq, (points, scores) in zip(seqs, per_seq):
            rows.append(
                (
                    seq.user_id,
                    str(len(seq)),
                    str(seq.truth_change),
                    ",".join(str(p) for p in points) if points else "-",
                    ",".join(_fmt(s) for s in scores) if scores else "-",
                    label,
                )
            )
        return rows

    for label in cfg.detector_labels():
        extra = ""
        if label.startswith("HMCD-S"):
            model, _ = load_model(_require(out / f"hmm_s{label[6:]}.json"))
            per_seq = [
                (res.predicted, res.score_per_point)
                for res in hmcd_detect_all(model, seqs, k=cfg.k)
            ]
        elif label == "CUSUM":
            tau = tune_cusum_threshold(seqs)
            extra = f"tau={_fmt(tau)}"
            per_seq = [([cusum_detect(seq, tau)[0]], []) for seq in seqs]
        elif label == "SW":
            vectors = cooccurrence_item_vectors(seqs, m)
            per_seq = [([sliding_window_detect(seq, vectors)[0]], []) for seq in seqs]
        else:
            per_seq = [
                ([random_partition(seq, stable_seed(cfg.seed, f"rp:{seq.user_id}"))], [])
                for seq in seqs
            ]
        path = out / f"changepoints_{label}.tsv"
        _write_rows(path, cfg, columns, rows_from(label, per_seq), extra)
        paths.append(path)
    return paths


def cmd_fit(cfg: ExperimentConfig) -> list[Path]:
    """Factorize the segmented matrices plus the raw matrix for the baselines."""
    out = _out(cfg)
    seqs, _, m = _load_sequences(out)
    provenance = {"config": cfg.config_hash(), "seed": cfg.seed}
    paths = []
    for h in cfg.hidden_state_counts:
        if f"SMF-S{h}" not in cfg.methods:
            continue
        changepoints = _read_changepoints(_require(out / f"changepoints_HMCD-S{h}.tsv"), seqs)
        segmented = build_segmented_matrix(_segments_by_user(seqs, changepoints, cfg.k), m)
        fc = FactorizationConfig(d=cfg.d, max_iters=cfg.nmf_max_iters, seed=stable_seed(cfg.seed, f"nmf:smf-s{h}"))
        pair = nmf_fit(segmented, fc)
        path = out / f"factors_smf_s{h}.json"
        save_factors(path, pair, meta=dict(provenance, model=f"SMF-S{h}"))
        paths.append(path)
    raw = incidence_matrix([seq.items for seq in seqs], m, [f"user {seq.user_id!r}" for seq in seqs])
    if "NMF" in cfg.methods:
        fc = FactorizationConfig(d=cfg.d, max_iters=cfg.nmf_max_iters, seed=stable_seed(cfg.seed, "nmf:raw"))
        pair = nmf_fit(raw, fc)
        path = out / "factors_nmf.json"
        save_factors(path, pair, meta=dict(provenance, model="NMF"))
        paths.append(path)
    if "BPR-MF" in cfg.methods:
        fc = FactorizationConfig(d=cfg.d, max_iters=cfg.bpr_epochs, seed=stable_seed(cfg.seed, "bpr"))
        pair = bpr_fit(raw, fc)
        path = out / "factors_bpr.json"
        save_factors(path, pair, meta=dict(provenance, model="BPR-MF"))
        paths.append(path)
    return paths


def cmd_recommend(cfg: ExperimentConfig) -> list[Path]:
    """Produce a ranked list per user for every configured recommender."""
    out = _out(cfg)
    seqs, _, m = _load_sequences(out)
    popularity = item_popularity(
        incidence_matrix([seq.items for seq in seqs], m, [f"user {seq.user_id!r}" for seq in seqs])
    )
    N = max(cfg.n_grid)
    columns = ("user_id", "rank", "item", "score")
    segments_cache: dict[int, dict] = {}

    def segments_for(h: int) -> dict:
        if h not in segments_cache:
            changepoints = _read_changepoints(_require(out / f"changepoints_HMCD-S{h}.tsv"), seqs)
            segments_cache[h] = _segments_by_user(seqs, changepoints, cfg.k)
        return segments_cache[h]

    paths = []
    for label in cfg.ranker_labels():
        if label.startswith(("SMF-S", "HMMR-S")):
            h = int(label.partition("-S")[2])
            if label.startswith("SMF-S"):
                pair, _ = load_factors(_require(out / f"factors_smf_s{h}.json"))
                factors = factors_from_pair(pair, "nmf")
            else:
                model, _ = load_model(_require(out / f"hmm_s{h}.json"))
                factors = hmm_item_factors(model)
            segments = segments_for(h)
            factors.reserve(cfg.l, segments.values())
            recs = [
                recommend_from_segments(
                    factors, segments[seq.user_id], seq.items, popularity, l=cfg.l, N=N, user_id=seq.user_id
                )
                for seq in seqs
            ]
        elif label == "PopRank":
            recs = [rank_by_scores(popularity, popularity, seq.items, N, user_id=seq.user_id) for seq in seqs]
        else:
            name = "factors_nmf.json" if label == "NMF" else "factors_bpr.json"
            pair, _ = load_factors(_require(out / name))
            recs = [
                rank_by_scores(pair.p[u] @ pair.q.T, popularity, seq.items, N, user_id=seq.user_id)
                for u, seq in enumerate(seqs)
            ]
        rows = [
            (rec.user_id, str(rank), str(int(item)), _fmt(score))
            for rec in recs
            for rank, (item, score) in enumerate(zip(rec.ranked_items, rec.scores), start=1)
        ]
        path = out / f"recommendations_{label}.tsv"
        _write_rows(path, cfg, columns, rows, extra=f"method={label}")
        paths.append(path)
    return paths


def _read_recommendations(path: Path, seqs, m: int) -> dict[str, list[int]]:
    """user_id -> ranked items, each an index in [0, m)."""
    ranked: dict[str, list[int]] = {}
    for user_id, item in _parse_rows(path, "recommendation", lambda user, rank, item, score: (user, int(item))):
        if not 0 <= item < m:
            raise ValueError(f"{path.name}: user {user_id!r} has item {item}; items must lie in [0, {m})")
        ranked.setdefault(user_id, []).append(item)
    _check_users(path, ranked, seqs)
    return ranked


def cmd_evaluate(cfg: ExperimentConfig) -> EvalReport:
    """Aggregate detector displacement and ranking quality into reports."""
    out = _out(cfg)
    seqs, holdout, m = _load_sequences(out)
    per_method: dict[str, MethodMetrics] = {}

    # displacement of the point nearest the truth (earlier on a tie); none counts as the last index
    cpd_inputs = {}
    for label in cfg.detector_labels():
        points = _read_changepoints(_require(out / f"changepoints_{label}.tsv"), seqs, interior=False)
        cpd_inputs[label] = {}
        for seq in seqs:
            pts, truth = points[seq.user_id], seq.truth_change
            cpd_inputs[label][seq.user_id] = (truth, min(pts, key=lambda t: abs(t - truth)) if pts else len(seq) - 1)
    mean_delta = aggregate_cpd(cpd_inputs)
    for label, delta in mean_delta.items():
        per_method[label] = MethodMetrics(mean_delta=delta)
    _write_rows(
        out / "cpd_table.tsv",
        cfg,
        ("method", "mean_delta", "users"),
        [(label, _fmt(mean_delta[label]), str(len(seqs))) for label in cfg.detector_labels()],
    )
    cpd_text = [_header(cfg), f"{'method':<12}{'mean displacement':>20}{'users':>8}"]
    for label in cfg.detector_labels():
        cpd_text.append(f"{label:<12}{mean_delta[label]:>20.6f}{len(seqs):>8}")
    (out / "cpd_table.txt").write_text("\n".join(cpd_text) + "\n")

    # state-count trend over the model-based detector, flagged if broken
    deltas = [mean_delta[f"HMCD-S{h}"] for h in cfg.hidden_state_counts]
    row_ok = [True] + [b >= a for a, b in zip(deltas, deltas[1:])]
    trend_ok = all(row_ok)
    trend_rows = [
        (str(h), _fmt(delta), "yes" if ok else "no")
        for h, delta, ok in zip(cfg.hidden_state_counts, deltas, row_ok)
    ]
    trend_rows.append(("# trend_ok", "yes" if trend_ok else "no", ""))
    _write_rows(out / "state_count_trend.tsv", cfg, ("h", "mean_delta", "non_decreasing"), trend_rows)

    # ranking quality against the held-out tail
    pr_rows, metric_rows, text_lines = [], [], []
    for label in cfg.ranker_labels():
        ranked = _read_recommendations(_require(out / f"recommendations_{label}.tsv"), seqs, m)
        precision_at, recall_at, ndcg_at = ranking_metrics(ranked, holdout, cfg.n_grid)
        points = [(precision_at[N], recall_at[N]) for N in cfg.n_grid]
        per_method[label] = MethodMetrics(
            precision_at=precision_at, recall_at=recall_at, ndcg_at=ndcg_at, pr_points=points
        )
        tables = {"precision": precision_at, "recall": recall_at, "ndcg": ndcg_at}
        for N in cfg.n_grid:
            metric_rows += [(label, name, str(N), _fmt(table[N])) for name, table in tables.items()]
            pr_rows.append((label, str(N), _fmt(precision_at[N]), _fmt(recall_at[N])))
        text_lines += [
            f"{label:<10}{name:<11}" + "".join(f"{table[N]:>10.6f}" for N in cfg.n_grid)
            for name, table in tables.items()
        ]
    _write_rows(out / "ranking_metrics.tsv", cfg, ("method", "metric", "N", "value"), metric_rows)
    _write_rows(out / "pr_curves.tsv", cfg, ("method", "N", "precision", "recall"), pr_rows)
    if text_lines:
        head = f"{'method':<10}{'metric':<11}" + "".join(f"{'N=' + str(N):>10}" for N in cfg.n_grid)
        (out / "ranking_metrics.txt").write_text(
            "\n".join([_header(cfg), head] + text_lines) + "\n"
        )

    report = EvalReport(
        per_method=per_method,
        n_users=len(seqs),
        parameters={
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "num_items": m,
            "k": cfg.k,
            "d": cfg.d,
            "l": cfg.l,
            "n_grid": list(cfg.n_grid),
            "trend_ok": trend_ok,
        },
    )

    summary = [
        _header(cfg),
        f"users={len(seqs)} items={m} mean_length={np.mean([len(s) for s in seqs]):.2f}",
        "detectors (mean displacement):",
    ]
    summary += [f"  {label:<10} {mean_delta[label]:.6f}" for label in cfg.detector_labels()]
    summary.append(
        "state-count trend: "
        + " ".join(f"h={h}:{d:.4f}" for h, d in zip(cfg.hidden_state_counts, deltas))
        + f" trend_ok={'yes' if trend_ok else 'no'}"
    )
    if cfg.ranker_labels():
        top = max(cfg.n_grid)
        summary.append(f"rankers (precision@{top} / ndcg@{top}):")
        summary += [
            f"  {label:<10} {per_method[label].precision_at[top]:.6f} / {per_method[label].ndcg_at[top]:.6f}"
            for label in cfg.ranker_labels()
        ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return report


def cmd_run_all(cfg: ExperimentConfig) -> EvalReport:
    cmd_synthesize(cfg)
    cmd_train(cfg)
    cmd_detect(cfg)
    cmd_fit(cfg)
    cmd_recommend(cfg)
    return cmd_evaluate(cfg)

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
import functools
import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
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
    sliding_window_detect_all,
    tune_cusum_threshold,
)
from driftrec.dataset import (
    HOLDOUT_SIZE,
    _parse_rows,
    load_benchmark,
    load_corpus,
    save_benchmark,
    synthesize_mixed,
    to_interaction_sequences,
)
from driftrec.evaluation import aggregate_cpd, ranking_metrics
from driftrec.factorization import FactorizationConfig, FactorPair, bpr_fit, load_factors, nmf_fit, save_factors
from driftrec.hmm import (
    HmmModel,
    TrainConfig,
    _check_count,
    _check_points,
    _check_real,
    _index_array,
    _joined,
    baum_welch_train,
    load_model,
    save_model,
    total_log_likelihood,
)
from driftrec.recommend import (
    Recommendation,
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
        self.seed = _check_count("seed", self.seed, 0)
        for name in ("k", "d", "l", "mixed_count", "min_window", "hmm_max_iters", "hmm_restarts", "nmf_max_iters", "bpr_epochs"):
            setattr(self, name, _check_count(name, getattr(self, name)))
        self.hmm_tol = _check_real("hmm_tol", self.hmm_tol, "(0, 1)")
        for name in ("sample_size", "min_len", "pool_split"):
            if getattr(self, name) is not None:
                setattr(self, name, _check_count(name, getattr(self, name)))
        for name in ("hidden_state_counts", "n_grid"):
            setattr(self, name, _check_points(name, getattr(self, name), 1, nonempty=True))
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


def _out(cfg: ExperimentConfig) -> tuple[Path, dict]:
    """out_dir, with config_resolved.yaml written, and the stage's provenance."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = {"config": cfg.config_hash(), "seed": cfg.seed}
    resolved = dict(cfg.to_mapping(), config_hash=provenance["config"])
    (out / "config_resolved.yaml").write_text(yaml.safe_dump(resolved, sort_keys=True))
    return out, provenance


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path} (run the stage that produces it first)")
    return path


def _write_lines(path: Path, header: dict, lines) -> None:
    """A '# key=value ...' line from header (provenance first), then lines."""
    path.write_text("\n".join(["# " + " ".join(f"{k}={v}" for k, v in header.items()), *lines]) + "\n")


def _write_rows(path: Path, header: dict, columns, rows) -> None:
    _write_lines(path, header, ["# " + "\t".join(columns), *("\t".join(row) for row in rows)])


def _load_sequences(out: Path):
    """benchmark.tsv's sequences, holdouts and num_items; an item of either
    outside [0, num_items) is refused, naming the user."""
    path = _require(out / "benchmark.tsv")
    mixed, meta = load_benchmark(path)
    if not meta.get("num_items", "").isdigit():
        raise ValueError(f"{path}: header lacks an integer num_items")
    m = int(meta["num_items"])
    for part in ("items", "holdout"):
        arrays = [getattr(mx, part) for mx in mixed]
        _index_array(*_joined(arrays, lambda r: f"{path.name}: user {mixed[r].user_id!r} {part}"), m)
    seqs, holdout = to_interaction_sequences(mixed)
    return seqs, holdout, m


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


def _read_changepoints(path: Path, seqs, k: int, interior: bool = True) -> dict[str, list[int]]:
    """user_id -> predicted indices ('-' marks none).  Each row's T and truth
    must be benchmark.tsv's, so a table detected on another benchmark is refused.
    A row holds at most k points, as every detector writes.  Points must
    ascend strictly within [1, T), where partition can split at them, or
    within [0, T] when not interior: the RP baseline draws its split from
    [0, T], and displacement scores any of them."""
    expected = {seq.user_id: (len(seq), seq.truth_change) for seq in seqs}
    out = {}
    for user_id, facts, points in _parse_rows(path, "change-point", _changepoint_row):
        if expected.get(user_id, facts) != facts:
            raise ValueError(f"{path.name}: user {user_id!r} has T, truth {facts}; benchmark.tsv has {expected[user_id]}")
        lo, hi = (1, facts[0] - 1) if interior else (0, facts[0])
        out[user_id] = _check_points(f"{path.name}: user {user_id!r} points", points, lo, hi)
        if len(points) > k:
            raise ValueError(f"{path.name}: user {user_id!r} has {len(points)} points, more than k = {k}")
    _check_users(path, out, seqs)
    return out


def _segments_by_user(out: Path, seqs, h: int, k: int) -> dict[str, list[np.ndarray]]:
    """Each sequence cut at changepoints_HMCD-S{h}.tsv's points, padded to k + 1 segments.

    Detectors may return fewer than k points (or none at all, flagged);
    trailing empty segments keep every user's row count identical.
    """
    changepoints = _read_changepoints(_require(out / f"changepoints_HMCD-S{h}.tsv"), seqs, k)
    segments = {}
    for seq in seqs:
        segs = partition(seq, changepoints[seq.user_id])
        segments[seq.user_id] = segs + [np.array([], dtype=np.int64)] * (k + 1 - len(segs))
    return segments


def _user_matrix(seqs, m: int) -> np.ndarray:
    """The n x m user-item incidence matrix of the whole sequences."""
    return incidence_matrix([seq.items for seq in seqs], m, [f"user {seq.user_id!r}" for seq in seqs])


def _fmt(value: float) -> str:
    return repr(float(value))


_shared = None  # a forked worker's copy of the stage's shared inputs, set by _init_worker


def _init_worker(shared) -> None:
    global _shared
    _shared = shared


def _run_job(fn, job):
    return fn(_shared, *job)


def _map_jobs(fn, jobs, shared) -> list:
    """[fn(shared, *job) for job in jobs], in job order, on one forked
    worker per available CPU.

    Forked workers inherit shared rather than a pickled copy of it; fn must
    be a module-level function, so it pickles by reference.  With one
    worker the jobs run inline.  The earliest failing job's exception is
    raised here, as inline.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers <= 1:
        return [fn(shared, *job) for job in jobs]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker, initargs=(shared,)) as pool:
        return list(pool.map(functools.partial(_run_job, fn), jobs))


# ---------------------------------------------------------------------------
# stages


def cmd_synthesize(cfg: ExperimentConfig) -> list[Path]:
    """Corpus in, benchmark out: mixed sequences plus the item vocabulary."""
    out, provenance = _out(cfg)
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
    pool_split = "none" if cfg.pool_split is None else cfg.pool_split
    meta = dict(provenance, num_items=len(corpus.item_keys), min_window=cfg.min_window, pool_split=pool_split)
    save_benchmark(out / "benchmark.tsv", mixed, meta)
    _write_rows(
        out / "vocab.tsv",
        provenance,
        ("index", "item_key"),
        [(str(i), key) for i, key in enumerate(corpus.item_keys)],
    )
    return [out / "benchmark.tsv", out / "vocab.tsv"]


def _train_one(shared, h: int, tc: TrainConfig) -> tuple[float, HmmModel]:
    """One EM restart: its corpus log-likelihood and its model."""
    seqs, m = shared
    model = baum_welch_train(seqs, h, tc, num_items=m)
    return total_log_likelihood(model, seqs), model


def cmd_train(cfg: ExperimentConfig) -> list[Path]:
    """Fit one hidden-state model per configured state count.

    Expectation maximization only climbs to a local optimum, so each model
    is the best of hmm_restarts independently seeded runs by final corpus
    log-likelihood.  Ties keep the earliest restart.  The runs share
    nothing and go through _map_jobs.
    """
    out, provenance = _out(cfg)
    seqs, _, m = _load_sequences(out)
    restarts = range(cfg.hmm_restarts)
    em = dict(max_iters=cfg.hmm_max_iters, log_lik_tol=cfg.hmm_tol)
    jobs = [
        (h, TrainConfig(**em, seed=stable_seed(cfg.seed, f"train:h{h}:r{r}")))
        for h in cfg.hidden_state_counts
        for r in restarts
    ]
    results = _map_jobs(_train_one, jobs, (seqs, m))
    paths = []
    for i, h in enumerate(cfg.hidden_state_counts):
        first = i * len(restarts)
        r = max(restarts, key=lambda j: results[first + j][0])  # the earliest on a tie
        ll, model = results[first + r]
        path = out / f"hmm_s{h}.json"
        save_model(path, model, jobs[first + r][1], meta=dict(provenance, h=h, restart=r, log_likelihood=ll))
        paths.append(path)
    return paths


def _detect_one(shared, label: str) -> tuple[float | None, list]:
    """Detector label over every sequence: CUSUM's tuned threshold (None
    for the others) and each sequence's (points, scores)."""
    cfg, out, seqs, m = shared
    if label.startswith("HMCD-S"):
        model, _ = load_model(_require(out / f"hmm_s{label[6:]}.json"))
        return None, [(res.predicted, res.score_per_point) for res in hmcd_detect_all(model, seqs, k=cfg.k)]
    if label == "CUSUM":
        tau = tune_cusum_threshold(seqs)
        return tau, [([cusum_detect(seq, tau)[0]], []) for seq in seqs]
    if label == "SW":
        splits = sliding_window_detect_all(seqs, cooccurrence_item_vectors(seqs, m))
        return None, [([split], []) for split, _ in splits]
    return None, [([random_partition(seq, stable_seed(cfg.seed, f"rp:{seq.user_id}"))], []) for seq in seqs]


def cmd_detect(cfg: ExperimentConfig) -> list[Path]:
    """Run every configured detector over the benchmark, one report each.

    Each detector is one job of _map_jobs; the reports are written here,
    in detector order.
    """
    out, provenance = _out(cfg)
    seqs, _, m = _load_sequences(out)
    columns = ("user_id", "T", "truth", "predicted", "scores", "method")
    labels = cfg.detector_labels()
    results = _map_jobs(_detect_one, [(label,) for label in labels], (cfg, out, seqs, m))
    paths = []
    for label, (tau, per_seq) in zip(labels, results):
        rows = [
            (
                seq.user_id,
                str(len(seq)),
                str(seq.truth_change),
                ",".join(str(p) for p in points) if points else "-",
                ",".join(_fmt(s) for s in scores) if scores else "-",
                label,
            )
            for seq, (points, scores) in zip(seqs, per_seq)
        ]
        path = out / f"changepoints_{label}.tsv"
        _write_rows(path, provenance if tau is None else dict(provenance, tau=_fmt(tau)), columns, rows)
        paths.append(path)
    return paths


def _fit_one(shared, label: str, fc: FactorizationConfig) -> Path:
    """Factorize ranker label's matrix and write its factors file: NMF of
    the HMCD segments for SMF-S{h}, NMF or BPR of the user matrix raw."""
    cfg, out, provenance, seqs, m, raw = shared
    if label.startswith("SMF-S"):
        h = int(label[5:])
        matrix = build_segmented_matrix(_segments_by_user(out, seqs, h, cfg.k), m)
        fit, path = nmf_fit, out / f"factors_smf_s{h}.json"
    else:
        matrix = raw
        fit, path = (nmf_fit, out / "factors_nmf.json") if label == "NMF" else (bpr_fit, out / "factors_bpr.json")
    save_factors(path, fit(matrix, fc), meta=dict(provenance, model=label))
    return path


def cmd_fit(cfg: ExperimentConfig) -> list[Path]:
    """Factorize the segmented matrices plus the raw matrix for the
    baselines, each factorization one job of _map_jobs."""
    out, provenance = _out(cfg)
    seqs, _, m = _load_sequences(out)
    nmf = dict(d=cfg.d, max_iters=cfg.nmf_max_iters)
    jobs = [
        (f"SMF-S{h}", FactorizationConfig(**nmf, seed=stable_seed(cfg.seed, f"nmf:smf-s{h}")))
        for h in cfg.hidden_state_counts
        if f"SMF-S{h}" in cfg.methods
    ]
    if "NMF" in cfg.methods:
        jobs.append(("NMF", FactorizationConfig(**nmf, seed=stable_seed(cfg.seed, "nmf:raw"))))
    if "BPR-MF" in cfg.methods:
        jobs.append(("BPR-MF", FactorizationConfig(d=cfg.d, max_iters=cfg.bpr_epochs, seed=stable_seed(cfg.seed, "bpr"))))
    raw = _user_matrix(seqs, m) if {"NMF", "BPR-MF"} & set(cfg.methods) else None
    return _map_jobs(_fit_one, jobs, (cfg, out, provenance, seqs, m, raw))


def _load_pair(path: Path, m: int, n: int | None = None) -> FactorPair:
    """A factors file's pair, refused unless q has one row per item and, when
    n is given, p one row per benchmark user."""
    pair, _ = load_factors(_require(path))
    for name, rows, want, what in (("q", len(pair.q), m, "items"), ("p", len(pair.p), n, "users")):
        if want is not None and rows != want:
            raise ValueError(f"{path.name}: {name} has {rows} rows; benchmark.tsv has {want} {what} (stale artifact?)")
    return pair


def _recommend_one(shared, label: str) -> Path:
    """Rank every user for ranker label and write its recommendations file:
    SMF-S{h} and HMMR-S{h} from the last HMCD segment, NMF and BPR-MF by
    their factor products, PopRank by popularity."""
    cfg, out, provenance, seqs, m, popularity, segments_of = shared
    N = max(cfg.n_grid)
    if label.startswith(("SMF-S", "HMMR-S")):
        h = int(label.partition("-S")[2])
        if label.startswith("SMF-S"):
            factors = factors_from_pair(_load_pair(out / f"factors_smf_s{h}.json", m), "nmf")
        else:
            path = _require(out / f"hmm_s{h}.json")
            model, _ = load_model(path)
            if model.num_items != m:
                raise ValueError(f"{path.name}: num_items is {model.num_items}; benchmark.tsv has {m} (stale artifact?)")
            factors = hmm_item_factors(model)
        segments = segments_of[h]
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
        pair = _load_pair(out / ("factors_nmf.json" if label == "NMF" else "factors_bpr.json"), m, len(seqs))
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
    _write_rows(path, dict(provenance, method=label), ("user_id", "rank", "item", "score"), rows)
    return path


def cmd_recommend(cfg: ExperimentConfig) -> list[Path]:
    """Produce a ranked list per user for every configured recommender.

    Each ranker is one job of _map_jobs and writes its own recommendations
    file.  The benchmark, the item popularity and each state count's HMCD
    segments are read here, once, before the jobs start.
    """
    out, provenance = _out(cfg)
    seqs, _, m = _load_sequences(out)
    popularity = item_popularity(_user_matrix(seqs, m))
    # one read of each state count's detections, shared by its SMF and HMMR rankers
    segments_of = {
        h: _segments_by_user(out, seqs, h, cfg.k)
        for h in cfg.hidden_state_counts
        if {f"SMF-S{h}", f"HMMR-S{h}"} & set(cfg.methods)
    }
    jobs = [(label,) for label in cfg.ranker_labels()]
    return _map_jobs(_recommend_one, jobs, (cfg, out, provenance, seqs, m, popularity, segments_of))


def _read_recommendations(path: Path, seqs, m: int) -> dict[str, list[int]]:
    """user_id -> ranked items, each an index in [0, m).  A user's rows must
    rank 1, 2, ... in file order, so a list is never scored out of order,
    and form a valid Recommendation: finite scores that never rise, and no
    repeated item."""
    ranked: dict[str, list[int]] = {}
    scores: dict[str, list[str]] = {}

    def row(user, rank, item, score):
        items = ranked.setdefault(user, [])
        items.append(int(item))
        scores.setdefault(user, []).append(score)
        if rank != str(len(items)):
            raise ValueError(f"user {user!r} has rank {rank!r} where rank {len(items)} is due")

    _parse_rows(path, "recommendation", row)
    users = list(ranked)
    _index_array(*_joined([ranked[u] for u in users], lambda r: f"{path.name}: user {users[r]!r}"), m)
    for user, items in ranked.items():
        try:
            Recommendation(user, items, list(map(float, scores[user])))
        except ValueError as exc:
            raise ValueError(f"{path.name}: user {user!r}: {exc}") from None
    _check_users(path, ranked, seqs)
    return ranked


def _evaluate_one(shared, label: str) -> tuple[dict, dict, dict]:
    """Ranker label's mean precision, recall and NDCG, each {N: mean}, from
    its recommendations file against the held-out tails."""
    out, seqs, holdout, m, n_grid = shared
    ranked = _read_recommendations(_require(out / f"recommendations_{label}.tsv"), seqs, m)
    return ranking_metrics(ranked, holdout, n_grid)


def cmd_evaluate(cfg: ExperimentConfig) -> list[Path]:
    """Aggregate detector displacement and ranking quality into one table per fact, plus a summary.

    Each ranker's recommendations are read and scored by one job of
    _map_jobs; the tables and the summary are written here, in ranker order.
    """
    out, provenance = _out(cfg)
    seqs, holdout, m = _load_sequences(out)

    # displacement of the point nearest the truth (earlier on a tie); none counts as the last index
    cpd_inputs = {}
    for label in cfg.detector_labels():
        points = _read_changepoints(_require(out / f"changepoints_{label}.tsv"), seqs, cfg.k, interior=False)
        cpd_inputs[label] = {}
        for seq in seqs:
            pts, truth = points[seq.user_id], seq.truth_change
            cpd_inputs[label][seq.user_id] = (truth, min(pts, key=lambda t: abs(t - truth)) if pts else len(seq) - 1)
    mean_delta = aggregate_cpd(cpd_inputs)
    _write_rows(
        out / "cpd_table.tsv",
        provenance,
        ("method", "mean_delta", "users"),
        [(label, _fmt(mean_delta[label]), str(len(seqs))) for label in cfg.detector_labels()],
    )

    # state-count trend over the model-based detector, flagged if broken
    deltas = [mean_delta[f"HMCD-S{h}"] for h in cfg.hidden_state_counts]
    row_ok = [True] + [b >= a for a, b in zip(deltas, deltas[1:])]
    trend_ok = all(row_ok)
    trend_rows = [
        (str(h), _fmt(delta), "yes" if ok else "no")
        for h, delta, ok in zip(cfg.hidden_state_counts, deltas, row_ok)
    ]
    trend_rows.append(("# trend_ok", "yes" if trend_ok else "no", ""))
    _write_rows(out / "state_count_trend.tsv", provenance, ("h", "mean_delta", "non_decreasing"), trend_rows)

    # ranking quality against the held-out tail
    labels = cfg.ranker_labels()
    results = _map_jobs(_evaluate_one, [(label,) for label in labels], (out, seqs, holdout, m, cfg.n_grid))
    tables_of = {label: dict(zip(("precision", "recall", "ndcg"), tables)) for label, tables in zip(labels, results)}
    metric_rows = [
        (label, name, str(N), _fmt(table[N]))
        for label in labels
        for N in cfg.n_grid
        for name, table in tables_of[label].items()
    ]
    _write_rows(out / "ranking_metrics.tsv", provenance, ("method", "metric", "N", "value"), metric_rows)

    summary = [
        f"users={len(seqs)} items={m} mean_length={np.mean([len(s) for s in seqs]):.2f}",
        "detectors (mean displacement):",
    ]
    summary += [f"  {label:<10} {mean_delta[label]:.6f}" for label in cfg.detector_labels()]
    summary.append(
        "state-count trend: "
        + " ".join(f"h={h}:{d:.4f}" for h, d in zip(cfg.hidden_state_counts, deltas))
        + f" trend_ok={'yes' if trend_ok else 'no'}"
    )
    if labels:
        top = max(cfg.n_grid)
        summary.append(f"rankers (precision@{top} / ndcg@{top}):")
        summary += [
            f"  {label:<10} {tables_of[label]['precision'][top]:.6f} / {tables_of[label]['ndcg'][top]:.6f}"
            for label in labels
        ]
    _write_lines(out / "summary.txt", provenance, summary)
    return [out / name for name in ("cpd_table.tsv", "state_count_trend.tsv", "ranking_metrics.tsv", "summary.txt")]


def cmd_run_all(cfg: ExperimentConfig) -> list[Path]:
    cmd_synthesize(cfg)
    cmd_train(cfg)
    cmd_detect(cfg)
    cmd_fit(cfg)
    cmd_recommend(cfg)
    return cmd_evaluate(cfg)

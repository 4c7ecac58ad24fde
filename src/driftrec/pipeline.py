"""Staged experiment pipeline over the library's detectors and recommenders.

A run turns a playlist corpus into a drift benchmark, trains the sequence
models, applies every detector and recommender named in the configuration,
and renders evaluation reports.  Stages communicate only through files in
the output directory, so each can be rerun or inspected in isolation.
Every artifact but manifest.tsv embeds the hash of the configuration that
produced it plus the run seed, and reruns with the same configuration are
byte-identical.

manifest.tsv in the output directory records what each artifact was made
from: its sha256 digest, the stage that wrote it and the digests of the
artifacts that stage read.  Before its jobs start, a stage checks every
artifact it will read against it, so a file edited by hand, or made from
an input that has since changed, is refused by name with the stage to
rerun.  What passes is byte for byte what its stage wrote from the current
benchmark.tsv, yet fit and recommend still cut every change-point row with
partition, which refuses points that do not ascend strictly within [1, T).
"""

from __future__ import annotations

import ctypes
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
    _read_table,
    load_benchmark,
    load_corpus,
    save_benchmark,
    synthesize_mixed,
)
from driftrec.evaluation import _mean_metrics, _relevance, aggregate_cpd
from driftrec.factorization import FactorizationConfig, bpr_fit, load_factors, nmf_fit, save_factors
from driftrec.hmm import (
    HmmModel,
    TrainConfig,
    _check_count,
    _check_points,
    _check_real,
    baum_welch_train,
    load_model,
    save_model,
    total_log_likelihood,
)
from driftrec.recommend import (
    _BLOCK_ROWS,
    _last_usable_segment,
    _list_popularity,
    _rank_block,
    _score_block,
    factors_from_pair,
    hmm_item_factors,
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
            raise ValueError(f"unknown config field(s): {', '.join(sorted(map(str, unknown)))}")
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


def _write_lines(path: Path, header: dict, lines) -> None:
    """A '# key=value ...' line from header (provenance first), then lines."""
    path.write_text("\n".join(["# " + " ".join(f"{k}={v}" for k, v in header.items()), *lines]) + "\n")


def _write_rows(path: Path, header: dict, columns, rows) -> None:
    _write_lines(path, header, ["# " + "\t".join(columns), *("\t".join(row) for row in rows)])


# the stage that writes each kind of artifact a stage reads, by file name prefix
_WRITERS = (
    ("benchmark", "synthesize"), ("hmm", "train"), ("changepoints", "detect"), ("factors", "fit"),
    ("recommendations", "recommend"),
)


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _manifest(out: Path) -> dict[str, list[str]] | None:
    """manifest.tsv's rows, {artifact: [sha256, stage, inputs]}, or None when there is none."""
    path = out / "manifest.tsv"
    if not path.exists():
        return None
    (names, *cells), _ = _read_table(path, "manifest", 4)
    return {name: list(row) for name, *row in zip(names, *cells)}


def _verify(out: Path, names) -> dict[str, str]:
    """The sha256 digest of each artifact named, checked against manifest.tsv.

    Each artifact must exist (else a FileNotFoundError) and have a row, and
    its digest must be the row's.  Then each artifact a row says its file
    was made from must still have the digest recorded there.  Otherwise a
    ValueError names the file and the stage to rerun: an edited file is
    named before a stale one.  A stage calls this in its own process before
    its jobs start, so a refusal reads the same at any CPU count.
    """
    manifest = _manifest(out)
    digest = functools.cache(lambda name: _digest(out / name))
    for name in names:
        writer = next(stage for prefix, stage in _WRITERS if name.startswith(prefix))
        if not (out / name).exists():
            raise FileNotFoundError(f"missing artifact: {out / name} (run {writer} first)")
        if manifest is None:
            raise ValueError(f"manifest.tsv is missing from {out}, so {name} cannot be checked; rerun {writer}")
        if name not in manifest:
            raise ValueError(f"{name} has no row in manifest.tsv; rerun {writer}")
        recorded, stage, _ = manifest[name]
        if digest(name) != recorded:
            raise ValueError(f"{name} is not the file {stage} wrote (its sha256 differs from manifest.tsv's); rerun {stage}")
    # every file is as its stage wrote it; was each made from the current files?
    for name in names:
        _, stage, inputs = manifest[name]
        for source, _, was in (pair.partition("=") for pair in inputs.split(",") if inputs != "-"):
            if digest(source) != was:
                raise ValueError(f"{name} was made from another {source}; rerun {stage}")
    return {name: digest(name) for name in names}


def _record(out: Path, stage: str, paths: list[Path], inputs: dict[str, str]) -> list[Path]:
    """Put a row for each of paths, written by stage from inputs (digests by
    name), into manifest.tsv, replacing the row it had, and return paths;
    rows are sorted by name."""
    rows = _manifest(out) or {}
    made_from = ",".join(f"{name}={inputs[name]}" for name in sorted(inputs)) or "-"
    for path in paths:
        rows[path.name] = [_digest(path), stage, made_from]
    lines = ["# artifact\tsha256\tstage\tinputs", *("\t".join([name, *rows[name]]) for name in sorted(rows))]
    (out / "manifest.tsv").write_text("\n".join(lines) + "\n")
    return paths


def _stage(cfg: ExperimentConfig, reads) -> tuple[Path, dict, dict[str, str], list, int]:
    """out_dir and provenance (_out), the digests of benchmark.tsv and of
    reads (_verify), and benchmark.tsv's records and num_items."""
    out, provenance = _out(cfg)
    inputs = _verify(out, ["benchmark.tsv", *reads])
    mixed, meta = load_benchmark(out / "benchmark.tsv")
    return out, provenance, inputs, mixed, int(meta["num_items"])


def _read_changepoints(path: Path, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every predicted point ('-' marks none) and the index of its row,
    which is its user's index in benchmark.tsv, as detect writes the rows.
    A row holds at most k points, as every detector writes for the k it
    ran with; a row with more, detected under another config, is refused."""
    (users, _, _, predicted, _, _), _ = _read_table(path, "change-point", 6)
    counts = np.array([0 if p == "-" else p.count(",") + 1 for p in predicted], dtype=np.int64)
    if (counts > k).any():
        r = int(np.argmax(counts > k))
        raise ValueError(f"{path.name}: user {users[r]!r} has {counts[r]} points, more than k = {k}")
    listed = [p for p in predicted if p != "-"]
    points = np.array(",".join(listed).split(",") if listed else [], dtype=np.int64)
    return points, np.repeat(np.arange(len(predicted)), counts)


def _segments_by_user(out: Path, seqs, h: int, k: int) -> dict[str, list[np.ndarray]]:
    """Each sequence cut at changepoints_HMCD-S{h}.tsv's points, padded to k + 1 segments.

    Detectors may return fewer than k points (or none at all, flagged);
    trailing empty segments keep every user's row count identical.
    """
    points, owner = _read_changepoints(out / f"changepoints_HMCD-S{h}.tsv", k)
    cuts = np.split(points, np.searchsorted(owner, np.arange(1, len(seqs))))
    segments = {}
    for seq, cut in zip(seqs, cuts):
        segs = partition(seq, cut.tolist())
        segments[seq.user_id] = segs + [np.array([], dtype=np.int64)] * (k + 1 - len(segs))
    return segments


def _user_matrix(seqs, m: int) -> np.ndarray:
    """The n x m user-item incidence matrix of the whole sequences."""
    return incidence_matrix([seq.items for seq in seqs], m, [f"user {seq.user_id!r}" for seq in seqs])


def _fmt(value: float) -> str:
    return repr(float(value))


_job = None  # a forked worker's (fn, jobs) from _map_jobs, set by _init_worker


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheels load from numpy.libs, opened again
    through ctypes (the same library, already loaded), or None where none
    with a thread setter is found, as with a numpy built against MKL."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def _blas_threads(count: int | None) -> int | None:
    """Set this process's BLAS pool to count threads and return the count
    it had; None, with nothing set, where count is None or _openblas finds
    no setter.  The jobs are the parallelism, one worker per CPU, so each
    runs with one BLAS thread rather than a pool per CPU in every worker."""
    lib = _openblas()
    if count is None or lib is None:
        return None
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    return before


def _init_worker(fn, jobs) -> None:
    global _job
    _job = fn, jobs
    _blas_threads(1)


def _run_job(i: int):
    fn, jobs = _job
    return fn(*jobs[i])


def _map_jobs(fn, jobs, key=lambda job: 0) -> list:
    """[fn(*job) for job in jobs], in job order, on one forked worker per
    available CPU.

    The jobs start in ascending key(job) order, ties in job order: a key
    that puts the longest jobs first lets the short ones fill in behind
    them.  Forked workers inherit fn and jobs, which fork does not pickle,
    so fn may be a closure over its stage's inputs; only job indices go to
    the workers and only results come back, and a result must pickle.
    With one worker the jobs run inline, in the same order.
    The exception of the first failing job in that order is raised here,
    as inline.  Each worker pins its BLAS pool to one thread, and the
    inline path pins the caller's for the jobs' duration (_blas_threads).
    """
    order = sorted(range(len(jobs)), key=lambda i: key(jobs[i]))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers <= 1:
        before = _blas_threads(1)
        try:
            done = [fn(*jobs[i]) for i in order]
        finally:
            _blas_threads(before)
    else:
        # found once, here: a forked worker opening it itself took 2 ms on
        # a 2-core x86 host, against stages of tens of ms
        _openblas()
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker, initargs=(fn, jobs)) as pool:
            done = list(pool.map(_run_job, order))
    by_job = dict(zip(order, done))
    return [by_job[i] for i in range(len(jobs))]


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
    return _record(out, "synthesize", [out / "benchmark.tsv", out / "vocab.tsv"], {})


def cmd_train(cfg: ExperimentConfig) -> list[Path]:
    """Fit one hidden-state model per configured state count.

    Expectation maximization only climbs to a local optimum, so each model
    is the best of hmm_restarts independently seeded runs by final corpus
    log-likelihood.  Ties keep the earliest restart.  The runs share
    nothing and go through _map_jobs, the largest state count first, as
    its E-steps cost the most.
    """
    out, provenance, inputs, seqs, m = _stage(cfg, [])
    restarts = range(cfg.hmm_restarts)
    em = dict(max_iters=cfg.hmm_max_iters, log_lik_tol=cfg.hmm_tol)
    jobs = [
        (h, TrainConfig(**em, seed=stable_seed(cfg.seed, f"train:h{h}:r{r}")))
        for h in cfg.hidden_state_counts
        for r in restarts
    ]

    def restart(h: int, tc: TrainConfig) -> tuple[float, HmmModel]:
        model = baum_welch_train(seqs, h, tc, num_items=m)
        return total_log_likelihood(model, seqs), model

    results = _map_jobs(restart, jobs, key=lambda job: -job[0])
    paths = []
    for i, h in enumerate(cfg.hidden_state_counts):
        first = i * len(restarts)
        r = max(restarts, key=lambda j: results[first + j][0])  # the earliest on a tie
        ll, model = results[first + r]
        path = out / f"hmm_s{h}.json"
        save_model(path, model, jobs[first + r][1], meta=dict(provenance, h=h, restart=r, log_likelihood=ll))
        paths.append(path)
    return _record(out, "train", paths, inputs)


def _detect_start_order(job) -> tuple[bool, int]:
    """SW first, then HMCD by descending state count, then CUSUM and RP: the
    longest detectors first, as measured on the benchmark workloads."""
    label = job[0]
    return label != "SW", -int(label[6:]) if label.startswith("HMCD-S") else 0


def cmd_detect(cfg: ExperimentConfig) -> list[Path]:
    """Run every configured detector over the benchmark, one report each.

    Each detector is one job of _map_jobs and writes its own change-point
    table.
    """
    out, provenance, inputs, seqs, m = _stage(cfg, [f"hmm_s{h}.json" for h in cfg.hidden_state_counts])
    columns = ("user_id", "T", "truth", "predicted", "scores", "method")

    def detect(label: str) -> Path:
        """Detector label's table; CUSUM's header holds its tuned threshold."""
        tau = None
        if label.startswith("HMCD-S"):
            model, _ = load_model(out / f"hmm_s{label[6:]}.json")
            found = [(res.predicted, res.score_per_point) for res in hmcd_detect_all(model, seqs, k=cfg.k)]
        elif label == "CUSUM":
            tau = tune_cusum_threshold(seqs)
            found = [([cusum_detect(seq, tau)[0]], []) for seq in seqs]
        elif label == "SW":
            found = [([split], []) for split, _ in sliding_window_detect_all(seqs, cooccurrence_item_vectors(seqs, m))]
        else:
            found = [([random_partition(seq, stable_seed(cfg.seed, f"rp:{seq.user_id}"))], []) for seq in seqs]
        rows = [
            (
                seq.user_id,
                str(len(seq)),
                str(seq.truth_change),
                ",".join(str(p) for p in points) if points else "-",
                ",".join(_fmt(s) for s in scores) if scores else "-",
                label,
            )
            for seq, (points, scores) in zip(seqs, found)
        ]
        path = out / f"changepoints_{label}.tsv"
        _write_rows(path, provenance if tau is None else dict(provenance, tau=_fmt(tau)), columns, rows)
        return path

    paths = _map_jobs(detect, [(label,) for label in cfg.detector_labels()], key=_detect_start_order)
    return _record(out, "detect", paths, inputs)


def _factors_name(label: str) -> str:
    """Ranker label's factors file: factors_smf_s{h}.json, factors_nmf.json or factors_bpr.json."""
    name = {"NMF": "nmf", "BPR-MF": "bpr"}.get(label) or f"smf_s{label[5:]}"
    return f"factors_{name}.json"


def cmd_fit(cfg: ExperimentConfig) -> list[Path]:
    """Factorize each SMF-S{h}'s matrix of HMCD segments by NMF, and the raw
    user matrix by NMF and BPR-MF for the baselines.  Each factorization is
    one job of _map_jobs and writes its own factors file."""
    nmf = dict(d=cfg.d, max_iters=cfg.nmf_max_iters)
    jobs = [
        (f"SMF-S{h}", FactorizationConfig(**nmf, seed=stable_seed(cfg.seed, f"nmf:smf-s{h}")))
        for h in cfg.hidden_state_counts
        if f"SMF-S{h}" in cfg.methods
    ]
    out, provenance, inputs, seqs, m = _stage(cfg, [f"changepoints_HMCD-S{label[5:]}.tsv" for label, _ in jobs])
    if "NMF" in cfg.methods:
        jobs.append(("NMF", FactorizationConfig(**nmf, seed=stable_seed(cfg.seed, "nmf:raw"))))
    if "BPR-MF" in cfg.methods:
        jobs.append(("BPR-MF", FactorizationConfig(d=cfg.d, max_iters=cfg.bpr_epochs, seed=stable_seed(cfg.seed, "bpr"))))
    raw = _user_matrix(seqs, m) if {"NMF", "BPR-MF"} & set(cfg.methods) else None

    def fit(label: str, fc: FactorizationConfig) -> Path:
        if label.startswith("SMF-S"):
            matrix = build_segmented_matrix(_segments_by_user(out, seqs, int(label[5:]), cfg.k), m)
        else:
            matrix = raw
        path = out / _factors_name(label)
        save_factors(path, (bpr_fit if label == "BPR-MF" else nmf_fit)(matrix, fc), meta=dict(provenance, model=label))
        return path

    return _record(out, "fit", _map_jobs(fit, jobs, key=_fit_start_order), inputs)


def _fit_start_order(job) -> bool:
    """BPR-MF first, then the NMF fits in label order: the longest job first.

    On the unscaled acceptance config (seed 39, 2 cores, one BLAS thread)
    the jobs take 2.6-3.1 s (BPR-MF), 1.8 s (SMF-S10) and 0.8 s (NMF)
    inline.  In label order BPR-MF started after NMF on the second worker;
    started first, cmd_fit took 3.1-3.2 s against 3.8-3.9 s (medians of 3
    alternating calls).  On the benchmark workloads SMF-S10 is the longest
    job and the same two jobs share a worker in either order, so fit_s
    does not move.
    """
    return job[0] != "BPR-MF"


def cmd_recommend(cfg: ExperimentConfig) -> list[Path]:
    """Produce a ranked list per user for every configured recommender.

    Each ranker is one job of _map_jobs and writes its own recommendations
    file.  The benchmark, the item popularity and each state count's last
    HMCD segments are read here, once, before the jobs start.
    """
    labels = cfg.ranker_labels()
    segmented = [h for h in cfg.hidden_state_counts if {f"SMF-S{h}", f"HMMR-S{h}"} & set(labels)]
    models = [
        f"hmm_s{label[6:]}.json" if label.startswith("HMMR-S") else _factors_name(label)
        for label in labels
        if label != "PopRank"
    ]
    out, provenance, inputs, seqs, m = _stage(cfg, [*(f"changepoints_HMCD-S{h}.tsv" for h in segmented), *models])
    popularity = _list_popularity([seq.items for seq in seqs], m)
    # each state count's last usable segments, shared by its SMF and HMMR rankers
    last_of = {h: [_last_usable_segment(s)[0] for s in _segments_by_user(out, seqs, h, cfg.k).values()] for h in segmented}

    def recommend(label: str) -> Path:
        """Rank every user for ranker label, _BLOCK_ROWS users at a time, and
        write its recommendations file.  A block's scores are its users'
        score_by_segment rows for SMF-S{h} and HMMR-S{h}, scored together by
        _score_block from each user's last usable HMCD segment; their factor
        products for NMF and BPR-MF; the popularity row for PopRank."""
        if label.startswith(("SMF-S", "HMMR-S")):
            h = int(label.partition("-S")[2])
            if label.startswith("SMF-S"):
                factors = factors_from_pair(load_factors(out / _factors_name(label))[0], "nmf")
            else:
                factors = hmm_item_factors(load_model(out / f"hmm_s{h}.json")[0])
            last = last_of[h]

            def block(a, b):
                return _score_block(factors, last[a:b], cfg.l)

        elif label == "PopRank":

            def block(a, b):
                return np.broadcast_to(popularity, (b - a, m))

        else:
            pair, _ = load_factors(out / _factors_name(label))

            def block(a, b):
                # one gemv per user, as p[u] @ q.T runs; a block's gemm may sum
                # in another order and differ in the last bit
                return np.matmul(pair.p[a:b, None, :], pair.q.T)[:, 0]

        lines = ["# user_id\trank\titem\tscore"]
        for a in range(0, len(seqs), _BLOCK_ROWS):
            users = seqs[a : a + _BLOCK_ROWS]
            rows = _rank_block(block(a, a + len(users)), popularity, [seq.items for seq in users], max(cfg.n_grid))
            lines += [
                f"{seq.user_id}\t{rank}\t{item}\t{score!r}"
                for seq, (items, scores) in zip(users, rows)
                for rank, (item, score) in enumerate(zip(items, scores), start=1)
            ]
        path = out / f"recommendations_{label}.tsv"
        _write_lines(path, dict(provenance, method=label), lines)
        return path

    return _record(out, "recommend", _map_jobs(recommend, [(label,) for label in labels]), inputs)


def cmd_evaluate(cfg: ExperimentConfig) -> list[Path]:
    """Aggregate detector displacement and ranking quality into one table per fact, plus a summary.

    Each ranker's recommendations are read and scored by one job of
    _map_jobs; the tables and the summary are written here, in ranker order.
    """
    labels = cfg.ranker_labels()
    detections = [f"changepoints_{label}.tsv" for label in cfg.detector_labels()]
    out, provenance, inputs, seqs, m = _stage(cfg, [*detections, *(f"recommendations_{label}.tsv" for label in labels)])

    # displacement of the point nearest the truth (earlier on a tie); none counts as the last index
    users = [seq.user_id for seq in seqs]
    truths = np.array([seq.truth_change for seq in seqs], dtype=np.int64)
    last_index = np.array([len(seq) - 1 for seq in seqs], dtype=np.int64)
    cpd_inputs = {}
    for label in cfg.detector_labels():
        points, owner = _read_changepoints(out / f"changepoints_{label}.tsv", cfg.k)
        nearest = np.lexsort((np.abs(points - truths[owner]), owner))
        nearest = nearest[np.diff(owner[nearest], prepend=-1) != 0]
        predicted = last_index.copy()
        predicted[owner[nearest]] = points[nearest]
        cpd_inputs[label] = dict(zip(users, zip(truths.tolist(), predicted.tolist())))
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

    # ranking quality against the held-out tail; the metrics run over users
    # in sorted order, and metric_row[user] is the user's place there
    by_user = sorted(range(len(seqs)), key=lambda i: users[i])
    metric_row = {users[i]: row for row, i in enumerate(by_user)}
    relevance = _relevance([seqs[i].holdout for i in by_user])

    def score(label: str) -> tuple[dict, dict, dict]:
        """Ranker label's mean precision, recall and NDCG, each {N: mean}, from
        its recommendations file against the held-out tails.  Each user's rows
        run together, ranked 1, 2, ..., as recommend writes them; a user who
        has seen every item has no run."""
        (ids, ranks, items, _), _ = _read_table(out / f"recommendations_{label}.tsv", "recommendation", 4)
        starts = np.flatnonzero([user != before for user, before in zip(ids, [None, *ids])])
        owner = np.array([metric_row[ids[a]] for a in starts], dtype=np.int64).repeat(np.diff(starts, append=len(ids)))
        ranks, items = np.array(ranks, dtype=np.int64), np.array(items, dtype=np.int64)
        top = ranks <= cfg.n_grid[-1]
        ranked = np.full((len(metric_row), cfg.n_grid[-1]), -1, dtype=np.int64)
        ranked[owner[top], ranks[top] - 1] = items[top]
        return _mean_metrics(ranked, relevance, cfg.n_grid)

    results = _map_jobs(score, [(label,) for label in labels])
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
    paths = [out / name for name in ("cpd_table.tsv", "state_count_trend.tsv", "ranking_metrics.tsv", "summary.txt")]
    return _record(out, "evaluate", paths, inputs)


def cmd_run_all(cfg: ExperimentConfig) -> list[Path]:
    cmd_synthesize(cfg)
    cmd_train(cfg)
    cmd_detect(cfg)
    cmd_fit(cfg)
    cmd_recommend(cfg)
    return cmd_evaluate(cfg)

"""Spans around the calls into driftrec's modules, kept in memory.

A Tracer replaces each traced function with a wrapper in every driftrec
module that binds it, so a call is recorded wherever the caller looks the
name up (driftrec.pipeline.baum_welch_train, driftrec.changepoint.
viterbi_decode, driftrec.recommend.score_by_segment, ...).  Each call
becomes one span: name, start, end and the index of the enclosing span.
Self time is a span's duration minus the durations of its children.  No
code under src/ changes; uninstall() puts every original back.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

STAGES = ("synthesize", "train", "detect", "fit", "recommend", "evaluate")

TRACED = {
    "hmm": (
        "baum_welch_train", "total_log_likelihood", "viterbi_decode", "save_model", "load_model",
    ),
    "changepoint": (
        "hmcd_detect", "partition", "build_segmented_matrix", "cusum_detect", "tune_cusum_threshold",
        "sliding_window_detect", "random_partition", "cooccurrence_item_vectors",
    ),
    "factorization": ("nmf_fit", "bpr_fit", "frobenius_objective", "save_factors", "load_factors"),
    "recommend": (
        "hmm_item_factors", "score_by_segment", "item_popularity", "_rank", "rank_by_scores",
        "recommend_from_segments", "smf_recommend", "hmmr_recommend", "pop_rank", "factors_from_pair",
    ),
    "dataset": ("load_corpus", "synthesize_mixed", "save_benchmark", "load_benchmark", "to_interaction_sequences"),
    "evaluation": ("aggregate_cpd", "precision_recall_at", "ndcg_time_aware", "pr_curve"),
    "pipeline": tuple(f"cmd_{stage}" for stage in STAGES),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            i = len(start)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs) if hook is None else hook(fn, args, kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            return out

        return traced

    # -- hooks that read iteration counts and flags from results -----------

    def _baum_welch(self, fn, args, kwargs):
        if kwargs.get("return_history"):
            model, history = fn(*args, **kwargs)
        else:
            model, history = fn(*args, **dict(kwargs, return_history=True))
        from driftrec.hmm import TrainConfig

        corpus = args[0] if args else kwargs["corpus"]
        cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or TrainConfig()
        lengths = np.array([len(seq) for seq in corpus])
        c = self.counters
        c["em_calls"] += 1
        c["em_iters"] += len(history)
        c["em_maxed"] += len(history) >= cfg.max_iters
        c["pad_live"] += float(lengths.sum())
        c["pad_cells"] += float(len(lengths) * lengths.max())
        return (model, history) if kwargs.get("return_history") else model

    def _nmf(self, fn, args, kwargs):
        if kwargs.get("return_history"):
            pair, history = fn(*args, **kwargs)
        else:
            pair, history = fn(*args, **dict(kwargs, return_history=True))
        self.counters["nmf_sweeps"] += len(history) - 1
        return (pair, history) if kwargs.get("return_history") else pair

    def _bpr(self, fn, args, kwargs):
        from driftrec.factorization import FactorizationConfig

        cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or FactorizationConfig()
        self.counters["bpr_epochs"] += cfg.max_iters
        return fn(*args, **kwargs)

    def _hmcd(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counters["no_change"] += out.no_change
        return out

    def _segments(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counters["fallback"] += out.used_fallback
        return out

    # -- installing --------------------------------------------------------

    def install(self) -> "Tracer":
        import driftrec.cli  # loads every driftrec module

        hooks = {
            "baum_welch_train": self._baum_welch,
            "nmf_fit": self._nmf,
            "bpr_fit": self._bpr,
            "hmcd_detect": self._hmcd,
            "recommend_from_segments": self._segments,
        }
        modules = [m for key, m in sys.modules.items() if key == "driftrec" or key.startswith("driftrec.")]
        stages = driftrec.cli._STAGES  # the CLI dispatches through this table
        for layer, funcs in TRACED.items():
            home = sys.modules[f"driftrec.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                label = f"pipeline.{func[4:]}" if layer == "pipeline" else f"{layer}.{func}"
                wrapper = self._wrap(label, original, hooks.get(func))
                for module in modules:
                    if getattr(module, func, None) is original:
                        self._patched.append((module, func, original))
                        setattr(module, func, wrapper)
                for key, value in list(stages.items()):
                    if value is original:
                        self._patched.append((stages, key, original))
                        stages[key] = wrapper
        return self

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child, parent

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, s, e, p) in enumerate(zip(self.names, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")


def calibrate_span_cost(samples: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, on this host."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    wrapped = tracer._wrap("x", noop)
    t0 = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (perf_counter() - t0 - bare) / samples)


def unaccounted_frac(tracer: Tracer, stage_walls: list[float]) -> float:
    """Largest share of a stage's wall time its spans' self times miss.

    stage_walls are the stage times the caller measured around each traced
    `driftrec <stage>` command, in order.  The self times of a command's
    span and all its descendants should add up to that time.
    """
    dur, self_s, parent = tracer.arrays()
    subtree = self_s.copy()
    for i in range(len(parent) - 1, -1, -1):
        if parent[i] >= 0:
            subtree[parent[i]] += subtree[i]
    roots = [i for i, name in enumerate(tracer.names) if name == "cli.main"]
    if len(roots) != len(stage_walls):
        return 1.0
    return max((abs(wall - subtree[i]) / wall for i, wall in zip(roots, stage_walls)), default=0.0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run.

    A layer's self time sums the self times of all its spans.  Its share
    counts only spans inside a `driftrec <stage>` command, as a share of
    those commands' time, so it compares with an untraced run's stages.
    """
    dur, self_s, parent = tracer.arrays()
    names = np.array(tracer.names, dtype=object)
    total = defaultdict(float)
    calls = defaultdict(int)
    for name, d in zip(tracer.names, dur):
        total[name] += d
        calls[name] += 1
    c = tracer.counters

    def mean_ms(name):
        return 1000.0 * total[name] / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {
        "hmm.baum_welch_train.s": total["hmm.baum_welch_train"],
        "hmm.em_iters": c["em_iters"],
        "hmm.em_iter_ms": 1000.0 * ratio(total["hmm.baum_welch_train"], c["em_iters"]),
        "hmm.em_maxed_frac": ratio(c["em_maxed"], c["em_calls"]),
        "hmm.total_log_likelihood.s": total["hmm.total_log_likelihood"],
        "hmm.pad_efficiency": ratio(c["pad_live"], c["pad_cells"]),
        "hmm.viterbi_decode.calls": calls["hmm.viterbi_decode"],
        "hmm.viterbi_decode.ms": mean_ms("hmm.viterbi_decode"),
        "hmm.model_io.s": total["hmm.save_model"] + total["hmm.load_model"],
        "changepoint.hmcd_detect.ms": mean_ms("changepoint.hmcd_detect"),
        "changepoint.no_change_frac": ratio(c["no_change"], calls["changepoint.hmcd_detect"]),
        "changepoint.sliding_window_detect.ms": mean_ms("changepoint.sliding_window_detect"),
        "changepoint.cooccurrence_item_vectors.s": total["changepoint.cooccurrence_item_vectors"],
        "changepoint.build_segmented_matrix.s": total["changepoint.build_segmented_matrix"],
        "changepoint.tune_cusum_threshold.s": total["changepoint.tune_cusum_threshold"],
        "factorization.bpr_fit.s": total["factorization.bpr_fit"],
        "factorization.bpr_epoch_s": ratio(total["factorization.bpr_fit"], c["bpr_epochs"]),
        "factorization.nmf_sweeps": c["nmf_sweeps"],
        "factorization.nmf_sweep_ms": 1000.0 * ratio(total["factorization.nmf_fit"], c["nmf_sweeps"]),
        "factorization.frobenius_objective.s": total["factorization.frobenius_objective"],
        "factorization.factors_io.s": total["factorization.save_factors"] + total["factorization.load_factors"],
        "recommend.score_by_segment.calls": calls["recommend.score_by_segment"],
        "recommend.score_by_segment.ms": mean_ms("recommend.score_by_segment"),
        "recommend.hmm_item_factors.calls": calls["recommend.hmm_item_factors"],
        "recommend.rank.ms": mean_ms("recommend._rank"),
        "recommend.fallback_frac": ratio(c["fallback"], calls["recommend.recommend_from_segments"]),
        "dataset.load_benchmark.calls": calls["dataset.load_benchmark"],
        "dataset.load_benchmark.s": total["dataset.load_benchmark"],
        "dataset.synthesize_mixed.s": total["dataset.synthesize_mixed"],
        "evaluation.calls": sum(n for name, n in calls.items() if name.startswith("evaluation.")),
    }
    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names], dtype=object)
    for stage in STAGES:
        m[f"pipeline.{stage}.self_s"] = float(self_s[names == f"pipeline.{stage}"].sum())
    root = np.arange(len(parent))
    for i, p in enumerate(parent):
        if p >= 0:
            root[i] = root[p]
    in_stage = names[root] == "cli.main" if len(root) else np.zeros(0, dtype=bool)
    stage_total = float(self_s[in_stage].sum())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(self_s[layer_of == layer].sum())
        m[f"{layer}.share"] = ratio(float(self_s[in_stage & (layer_of == layer)].sum()), stage_total)
    m["evaluation.s"] = m["evaluation.self_s"]
    m["trace.spans"] = len(dur)
    m["trace.min_self_s"] = float(self_s.min()) if len(self_s) else 0.0
    return m

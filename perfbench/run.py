"""driftrec benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 8 --trace 0

Each workload runs the six `driftrec <stage>` commands in rounds, and
between the rounds serves its users' histories one at a time from the
trained model, for --seconds in all; every answer must equal the batch
stages' row (see perfbench/README.md):
  acceptance  the acceptance experiment's corpus and config, scaled to
              fixed work
  wide        a generated ~2k-item corpus with heavy-tailed lengths

With --trace 0 the result holds the end-to-end metrics, with --trace 1
the per-layer metrics from spans around the calls into each module.  The
last line of standard output is the result; a context line precedes it.
"""

from __future__ import annotations

import os

# One BLAS thread: the pipeline runs single-threaded (threads: 1), and a
# second BLAS thread on a 2-core host only adds run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("acceptance", "wide")
SETUP_REPEATS = 21


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED: {what}", file=sys.stderr)
        return ok


def import_driftrec():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "driftrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no driftrec sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import driftrec
    import driftrec.cli

    if Path(driftrec.__file__).resolve().parent != (SRC / "driftrec").resolve():
        raise SystemExit(f"error: imported driftrec from {driftrec.__file__}, not {SRC}")


def run_stages(config: Path, stages, tally: Tally) -> list[tuple[str, float]]:
    """Run `driftrec <stage> --config ...` once for each stage, in order;
    returns (stage, seconds) per command.

    A repeated command rereads the same artifacts and rewrites them
    byte for byte, so every round measures the same work.
    """
    import driftrec.cli

    executions = []
    for stage in stages:
        # each command starts with a clean heap, as a fresh process would
        gc.collect()
        t0 = perf_counter()
        try:
            code = driftrec.cli.main([stage, "--config", str(config)])
        except Exception:
            traceback.print_exc()
            code = -1
        executions.append((stage, perf_counter() - t0))
        if not tally.record(code == 0, f"driftrec {stage} exited with {code}"):
            raise SystemExit("error: a stage failed; no result")
    return executions


def rounds(repeats: dict[str, int]) -> list[list[str]]:
    """The stage commands of each round, in the pipeline's order: round r
    runs every stage with more than r repeats (one if absent)."""
    count = max([1, *repeats.values()])
    return [[s for s in spans.STAGES if repeats.get(s, 1) > r] for r in range(count)]


def stage_medians(executions) -> dict[str, float]:
    """Per stage, the median time of its commands: a command slowed by the
    host's other load moves the median less than the mean."""
    return {stage: statistics.median(t for s, t in executions if s == stage) for stage in spans.STAGES}


# ---------------------------------------------------------------------------
# serving


class Server:
    """Answers one history at a time from a job's model and SMF factors.

    A request runs hmcd_detect, partition, then SMF and HMMR ranking from
    the last segment, exactly as the detect and recommend stages do for
    one user, so its lists must match theirs.
    """

    def __init__(self, out: Path, cfg, seqs, m: int):
        from driftrec import factorization, hmm, recommend

        h = max(cfg.hidden_state_counts)
        self.model, _ = hmm.load_model(out / f"hmm_s{h}.json")
        pair, _ = factorization.load_factors(out / f"factors_smf_s{h}.json")
        self.smf = recommend.factors_from_pair(pair, "nmf")
        incidence = np.zeros((len(seqs), m))
        for r, seq in enumerate(seqs):
            incidence[r, seq.items] = 1.0
        self.popularity = recommend.item_popularity(incidence)
        self.k, self.l, self.N, self.m = cfg.k, cfg.l, max(cfg.n_grid), m

    def handle(self, seq):
        from driftrec import changepoint, recommend

        detected = changepoint.hmcd_detect(self.model, seq, k=self.k)
        segments = changepoint.partition(seq, detected.predicted)
        segments += [np.array([], dtype=np.int64)] * (self.k + 1 - len(segments))
        smf = recommend.recommend_from_segments(
            self.smf, segments, seq.items, self.popularity, l=self.l, N=self.N, user_id=seq.user_id
        )
        hmmr = recommend.hmmr_recommend(
            self.model, segments, seq.items, self.popularity, l=self.l, N=self.N, user_id=seq.user_id
        )
        return (
            tuple(detected.predicted),
            (tuple(smf.ranked_items), tuple(smf.scores)),
            (tuple(hmmr.ranked_items), tuple(hmmr.scores)),
        )

    def problem(self, seq, answer) -> str | None:
        points, *lists = answer
        problem = check.changepoint_problem("HMCD-S", list(points), len(seq), self.k)
        for items, scores in lists:
            problem = problem or check.ranked_list_problem(list(items), list(scores), seq.items, self.m, self.N)
        return problem


class ServeLoop:
    """Closed loop, one client: the next history is sent when one returns.

    It runs in slices between the stage rounds, so that its latencies
    sample the whole run, as the stage medians do; the host's speed
    changes over seconds.  It cycles through the requests; every answer
    of the first pass is checked, and every later answer must repeat it.
    """

    def __init__(self, server: Server, requests: list, tally: Tally):
        self.server, self.requests, self.tally = server, requests, tally
        self.answers, self.latencies, self.wall = [], [], 0.0

    def run(self, seconds: float, whole_pass: bool = False) -> None:
        """Serve for `seconds`; with whole_pass, on until the first pass is done."""
        n = len(self.requests)
        gc.collect()
        t0 = perf_counter()
        while perf_counter() - t0 < seconds or (whole_pass and len(self.latencies) < n):
            i = len(self.latencies)
            seq = self.requests[i % n]
            ts = perf_counter()
            try:
                answer = self.server.handle(seq)
            except Exception:
                traceback.print_exc()
                answer = None
            self.latencies.append(perf_counter() - ts)
            if i < n:
                self.answers.append(answer)
                problem = "raised" if answer is None else self.server.problem(seq, answer)
                self.tally.record(problem is None, f"request {seq.user_id}: {problem}")
            else:
                self.tally.record(answer == self.answers[i % n], f"request {seq.user_id}: answer changed")
        self.wall += perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Run:
    setup_s: list
    executions: list  # (stage, seconds) per command, in order; the first six are one job
    latencies: list
    serve_wall: float
    hmcd_delta: float
    smf_p10: float
    claims_failed: list
    shape: dict
    artifact_bytes: int


def setup(workload: str, scale: inputs.Scale, seed: int, work: Path):
    """Write the inputs, validate the config and index the corpus, as the
    synthesize stage will; returns (config path, config)."""
    from driftrec import dataset
    from driftrec.pipeline import ExperimentConfig

    config = inputs.write_experiment(workload, scale, seed, work)
    cfg = ExperimentConfig.from_yaml(config)
    dataset.load_corpus(cfg.corpus, min_len=cfg.min_len)
    return config, cfg


def load_job(cfg):
    from driftrec import dataset

    out = Path(cfg.out_dir)
    mixed, meta = dataset.load_benchmark(out / "benchmark.tsv")
    seqs, _ = dataset.to_interaction_sequences(mixed)
    return out, seqs, int(meta["num_items"])


def describe(seqs, m: int) -> dict:
    lengths = [len(s) for s in seqs]
    return {"n": len(seqs), "m": m, "mean_len": round(float(np.mean(lengths)), 2), "max_len": max(lengths)}


def check_served_against_batch(out: Path, cfg, served, answers, tally: Tally) -> None:
    """A served answer must equal the detect and recommend stages' rows."""
    h = max(cfg.hidden_state_counts)
    labels = (f"SMF-S{h}", f"HMMR-S{h}")
    points = {row[0]: row[3] for row in check.data_rows(out / f"changepoints_HMCD-S{h}.tsv")}
    lists: dict[tuple[str, str], list] = {}
    for label in labels:
        for user, _, item, score in check.data_rows(out / f"recommendations_{label}.tsv"):
            lists.setdefault((label, user), []).append((int(item), score))
    for seq, answer in zip(served, answers):
        if answer is None:
            continue
        same = (",".join(map(str, answer[0])) or "-") == points[seq.user_id]
        for label, (items, scores) in zip(labels, answer[1:]):
            same = same and lists[(label, seq.user_id)] == [(i, repr(float(s))) for i, s in zip(items, scores)]
        tally.record(same, f"served answer for {seq.user_id} differs from the batch stages")


def run_workload(workload, scale, seed, seconds, work, tally, tracer) -> Run:
    """Setup makes the inputs and is timed on its own, SETUP_REPEATS times.
    The body runs the stage commands in rounds, serves for `seconds` in
    one slice after each round, then checks the tables.  A tracer records
    the first round, which is one job, and the serving."""
    setup_s = []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        config, cfg = setup(workload, scale, seed, work / f"setup{i}")
        setup_s.append(perf_counter() - t0)
    traced = tracer or contextlib.nullcontext()
    executions, loop = [], None
    plan = rounds(scale.repeats)
    for r, stages in enumerate(plan):
        with traced if r == 0 else contextlib.nullcontext():
            executions += run_stages(config, stages, tally)
        if loop is None:
            out, seqs, m = load_job(cfg)
            served = seqs[: scale.serve_users]
            loop = ServeLoop(Server(out, cfg, seqs, m), served, tally)
        with traced:
            loop.run(seconds / len(plan), whole_pass=r == len(plan) - 1)
    check.check_tables(out, cfg, seqs, m, tally)
    check_served_against_batch(out, cfg, served, loop.answers, tally)
    h = max(cfg.hidden_state_counts)
    q = check.quality(out, cfg)
    return Run(
        setup_s=setup_s,
        executions=executions,
        latencies=loop.latencies,
        serve_wall=loop.wall,
        hmcd_delta=q["delta"][f"HMCD-S{h}"],
        smf_p10=q["at10"][(f"SMF-S{h}", "precision")],
        claims_failed=check.claim_failures(q, cfg.hidden_state_counts) if workload == "acceptance" else [],
        shape=describe(seqs, m),
        artifact_bytes=sum(f.stat().st_size for f in out.iterdir()),
    )


# ---------------------------------------------------------------------------
# metrics and output


def end_to_end(run: Run) -> dict[str, float]:
    lat_ms = np.array(run.latencies) * 1000.0
    stage_s = stage_medians(run.executions)
    m = {"setup_s": statistics.median(run.setup_s), "run_s": sum(stage_s.values())}
    for stage in ("train", "detect", "fit", "recommend", "evaluate"):
        m[f"{stage}_s"] = stage_s[stage]
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["latency_p50_ms"] = float(np.percentile(lat_ms, 50))
    m["latency_p99_ms"] = float(np.percentile(lat_ms, 99))
    m["throughput_rps"] = len(run.latencies) / run.serve_wall
    return m


UNITS = {
    "peak_rss_mb": "MB",
    "quality.hmcd_delta": "items",
    "quality.smf_p10": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("frac") or name.endswith("share") or name.endswith("efficiency"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def per_layer(run: Run, tracer: spans.Tracer, tally: Tally) -> dict[str, float]:
    m = spans.layer_metrics(tracer)
    job = run.executions[: len(spans.STAGES)]
    m["trace.unaccounted_frac"] = spans.unaccounted_frac(tracer, [t for _, t in job])
    tally.record(m["trace.min_self_s"] > -1e-6, "a span's children outlast it")
    tally.record(m["trace.unaccounted_frac"] < 0.01, "spans miss over 1% of a stage's time")
    m["pipeline.artifact_bytes"] = float(run.artifact_bytes)
    m["trace.run_s"] = sum(t for _, t in job)
    m["trace.latency_p50_ms"] = float(np.percentile(np.array(run.latencies) * 1000.0, 50))
    m["trace.overhead_est_s"] = m["trace.spans"] * spans.calibrate_span_cost()
    m["quality.hmcd_delta"] = run.hmcd_delta
    m["quality.smf_p10"] = run.smf_p10
    m["quality.claims_failed"] = float(len(run.claims_failed))
    return m


def count_loc(package: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="bench", choices=("bench", "tiny", "full"),
        help="input sizes: bench (default), tiny (smoke test), full (acceptance only: the unscaled experiment)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    scales = inputs.SCALES[args.workload]
    if args.scale not in scales:
        parser.error(f"workload {args.workload} has no {args.scale} scale")
    scale = scales[args.scale]

    import_driftrec()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    tracer = spans.Tracer() if args.trace else None
    try:
        run = run_workload(args.workload, scale, args.seed, args.seconds, work, tally, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer:
        metrics = per_layer(run, tracer, tally)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.tsv.gz")
    else:
        metrics = end_to_end(run)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "driftrec_loc": count_loc(SRC / "driftrec"),
        "inputs": run.shape,
        "commands": len(run.executions),
        "served": len(run.latencies),
        "stage_s": stage_medians(run.executions),
        "commands_s": [[stage, round(t, 4)] for stage, t in run.executions],
        "hmcd_delta": run.hmcd_delta,
        "smf_p10": run.smf_p10,
        "claims_failed": run.claims_failed,
    }
    print(json.dumps({"context": context}))
    for name, value in metrics.items():
        print(f"{name:<42} {value:>14.6f} {unit(name)}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": unit(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

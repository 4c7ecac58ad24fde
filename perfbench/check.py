"""Correctness checks on what the program produced.

Two kinds of check live here.  Output checks (well-formed change points
and ranked lists, served results equal to the batch stage's results) count
as failed operations when they fail.  Claim checks compare methods the way
the paper does; they depend on where EM lands for a given seed, so they
are reported as a count and never counted as failures.
"""

from __future__ import annotations

import math
from pathlib import Path


def data_rows(path: Path) -> list[list[str]]:
    return [
        line.split("\t")
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def point_range(label: str, T: int) -> tuple[int, int]:
    """Documented [low, high] of a detector's predicted index.

    Model-based and sliding-window points split the sequence, so they lie
    in [1, T); CUSUM falls back to the last index and may fire at 0; the
    random partition is uniform over [0, T].
    """
    if label == "RP":
        return 0, T
    if label == "CUSUM":
        return 0, T - 1
    return 1, T - 1


def ranked_list_problem(items, scores, seen, m: int, N: int) -> str | None:
    """Why a ranked list is malformed, or None when it is well-formed."""
    unseen = m - len(set(int(i) for i in seen))
    if len(items) != min(N, unseen):
        return f"{len(items)} items, expected {min(N, unseen)}"
    if len(set(items)) != len(items):
        return "duplicate items"
    if any(not 0 <= i < m for i in items):
        return "item outside the vocabulary"
    if set(items) & set(int(i) for i in seen):
        return "recommends an item the user has seen"
    if any(b > a for a, b in zip(scores, scores[1:])):
        return "scores increase"
    if any(not math.isfinite(s) for s in scores):
        return "non-finite score"
    return None


def changepoint_problem(label: str, points, T: int, k: int) -> str | None:
    low, high = point_range(label, T)
    if any(not low <= p <= high for p in points):
        return f"point outside [{low}, {high}]"
    if label.startswith("HMCD-S") and (len(points) > k or points != sorted(set(points))):
        return "more than k points or not strictly ascending"
    return None


def check_tables(out: Path, cfg, seqs, m: int, tally) -> None:
    """Check every change-point and recommendation table of one job."""
    by_user = {seq.user_id: seq for seq in seqs}
    for label in cfg.detector_labels():
        path = out / f"changepoints_{label}.tsv"
        problem = None
        rows = data_rows(path) if path.exists() else []
        if len(rows) != len(seqs):
            problem = f"{len(rows)} rows for {len(seqs)} users"
        for user, T, _, predicted, *_ in rows:
            points = [] if predicted == "-" else [int(p) for p in predicted.split(",")]
            problem = problem or changepoint_problem(label, points, int(T), cfg.k)
        tally.record(problem is None, f"{path.name}: {problem}")
    N = max(cfg.n_grid)
    for label in cfg.ranker_labels():
        path = out / f"recommendations_{label}.tsv"
        lists: dict[str, list[tuple[int, float]]] = {}
        for user, rank, item, score in data_rows(path) if path.exists() else []:
            lists.setdefault(user, []).append((int(item), float(score)))
        problem = None if set(lists) == set(by_user) else "users missing"
        for user, ranked in lists.items():
            if problem is None:
                seq = by_user[user]
                problem = ranked_list_problem([i for i, _ in ranked], [s for _, s in ranked], seq.items, m, N)
                problem = problem and f"user {user}: {problem}"
        tally.record(problem is None, f"{path.name}: {problem}")
    for name in ("cpd_table.tsv", "ranking_metrics.tsv", "summary.txt"):
        tally.record((out / name).exists(), f"{name} missing")


def quality(out: Path, cfg) -> dict:
    """Mean displacement per detector and P@10 / NDCG@10 per ranker."""
    delta = {row[0]: float(row[1]) for row in data_rows(out / "cpd_table.tsv")}
    at10 = {
        (label, metric): float(value)
        for label, metric, N, value in data_rows(out / "ranking_metrics.tsv")
        if N == "10"
    }
    return {"delta": delta, "at10": at10}


def claim_failures(q: dict, hidden_state_counts) -> list[str]:
    """The acceptance suite's comparisons that do not hold on this run."""
    delta, at10 = q["delta"], q["at10"]
    failed = []
    for rival in ("CUSUM", "SW", "RP"):
        if not delta["HMCD-S2"] < delta[rival]:
            failed.append(f"HMCD-S2 {delta['HMCD-S2']:.3f} not below {rival} {delta[rival]:.3f}")
    trend = [delta[f"HMCD-S{h}"] for h in hidden_state_counts]
    if any(b < a for a, b in zip(trend, trend[1:])):
        failed.append(f"state-count trend broken: {trend}")
    top = max(hidden_state_counts)
    for ours in (f"SMF-S{top}", f"HMMR-S{top}"):
        for theirs in ("NMF", "BPR-MF", "PopRank"):
            for metric in ("precision", "ndcg"):
                if not at10[(ours, metric)] > at10[(theirs, metric)]:
                    failed.append(f"{ours} {metric}@10 not above {theirs}")
    return failed


"""Seeded inputs for the benchmark workloads.

Everything the program sees is made here from the workload seed: playlist
corpora in the one-playlist-per-line format and experiment configs.  The
same seed always gives the same files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

FIXTURE = Path("tests/fixtures/playlists_200.txt")

# The acceptance experiment of tests/test_acceptance.py; corpus, seed and
# out_dir are filled in per run.
EXPERIMENT = dict(
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

# A relative tolerance EM never reaches, so every restart runs exactly
# hmm_max_iters iterations and training does the same work on every seed.
FIXED_ITERS_TOL = 1e-12


@dataclass(frozen=True)
class BandCorpus:
    """Band-scheme playlists over one shared vocabulary.

    Playlist i draws its items without replacement from a band that slides
    across the vocabulary, as tests/fixtures/make_playlists.py does, but
    with a single pool, so any two playlists may share items.  Lengths are
    min_len plus a Lomax (Pareto II) tail of shape 1.5 scaled by tail,
    capped at max_len, taken at evenly spaced quantiles so every seed gets
    the same multiset of lengths in a different order; a band is widened
    to the playlist's length.
    """

    playlists: int
    vocab: int
    band: int
    min_len: int
    tail: float
    max_len: int

    def lines(self, rng: np.random.Generator) -> list[str]:
        quantiles = (np.arange(self.playlists) + 0.5) / self.playlists
        tail = self.tail * ((1.0 - quantiles) ** (-1.0 / 1.5) - 1.0)
        lengths = np.minimum(self.max_len, self.min_len + tail.astype(int))
        out = []
        for i, length in enumerate(rng.permutation(lengths)):
            width = max(self.band, int(length))
            offset = round(i * (self.vocab - width) / (self.playlists - 1))
            picks = rng.choice(np.arange(offset, offset + width), size=int(length), replace=False)
            out.append(" ".join(f"w{j:04d}" for j in picks))
        return out


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload at one scale.

    The body runs the six stage commands in rounds, repeats[stage] times
    each (once if absent), and serves the job's first serve_users users
    one history at a time in slices between the rounds.  Stages repeat so
    that each stage time is a median of commands spread over the run,
    which evens out the host's speed changes.
    """

    config: dict
    corpus: BandCorpus | None = None
    repeats: dict = field(default_factory=dict)
    serve_users: int = 0


_WIDE_METHODS = ["HMCD-S10", "CUSUM", "SW", "RP", "SMF-S10", "HMMR-S10", "NMF", "BPR-MF", "PopRank"]
_WIDE_CORPUS = BandCorpus(playlists=500, vocab=2000, band=80, min_len=35, tail=40.0, max_len=140)
_TINY = dict(d=8, hmm_restarts=1, hmm_max_iters=2, hmm_tol=FIXED_ITERS_TOL, nmf_max_iters=5, bpr_epochs=1)

SCALES: dict[str, dict[str, Scale]] = {
    "acceptance": {
        "full": Scale(config=dict(EXPERIMENT), serve_users=1000),
        "bench": Scale(
            config=dict(
                EXPERIMENT,
                hmm_restarts=2,
                hmm_max_iters=40,
                hmm_tol=FIXED_ITERS_TOL,
                nmf_max_iters=40,
                bpr_epochs=1,
            ),
            repeats=dict(detect=3, fit=2, recommend=2, evaluate=3),
            serve_users=1000,
        ),
        "tiny": Scale(config=dict(EXPERIMENT, mixed_count=40, **_TINY), serve_users=20),
    },
    "wide": {
        "bench": Scale(
            config=dict(
                mixed_count=500,
                min_window=25,
                hidden_state_counts=[10],
                d=40,
                l=20,
                methods=_WIDE_METHODS,
                hmm_max_iters=20,
                hmm_tol=FIXED_ITERS_TOL,
                nmf_max_iters=40,
                bpr_epochs=1,
            ),
            corpus=_WIDE_CORPUS,
            repeats=dict(train=3, detect=3, fit=2, recommend=2, evaluate=3),
            serve_users=300,
        ),
        "tiny": Scale(
            config=dict(mixed_count=30, min_window=25, hidden_state_counts=[10], l=20, methods=_WIDE_METHODS, **_TINY),
            corpus=BandCorpus(playlists=40, vocab=200, band=80, min_len=35, tail=40.0, max_len=120),
            serve_users=30,
        ),
    },
}


def write_experiment(workload: str, scale: Scale, seed: int, work: Path) -> Path:
    """Write the corpus and config of one experiment; returns the config path.

    The acceptance workload reads the committed two-pool fixture; the
    others get a band corpus generated from the seed.
    """
    work.mkdir(parents=True, exist_ok=True)
    if scale.corpus is None:
        if not FIXTURE.is_file():
            raise FileNotFoundError(f"missing corpus fixture {FIXTURE}")
        corpus = FIXTURE.resolve()
    else:
        corpus = work / "corpus.txt"
        rng = np.random.default_rng([seed, 0xC0])
        corpus.write_text("\n".join(scale.corpus.lines(rng)) + "\n")
    config = dict(scale.config, corpus=str(corpus), out_dir=str(work / "out"), seed=seed)
    path = work / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True))
    return path

"""
Running the staged experiment pipeline from a config file
=========================================================

The library ships a command-line front end that runs the whole
benchmark: synthesize mixed sequences, train models, detect change
points, factorize, recommend, evaluate.  Each stage writes its artifacts
to the output directory and later stages read them back, so stages can
also be re-run individually.  This script prepares a corpus and a config
file in a scratch directory, drives the CLI in process, and removes the
directory at the end.
"""

import tempfile
from pathlib import Path

import numpy as np

from driftrec.cli import main

workspace = tempfile.TemporaryDirectory(prefix="driftrec_demo_")
scratch = Path(workspace.name)
rng = np.random.default_rng(3)

# ------------------------------------------------------------------
# 1. Write a playlist corpus: 40 playlists over one vocabulary, then 40
#    over a disjoint one.  Playlists draw from overlapping 30-item bands
#    so that neighboring playlists share items.
# ------------------------------------------------------------------
lines = []
for pool, prefix in ((0, "x"), (1, "y")):
    for i in range(40):
        offset = round(i * 70 / 39)
        band = np.arange(offset, offset + 30)
        picks = rng.choice(band, size=24, replace=False)
        lines.append(" ".join(f"{prefix}{p:03d}" for p in picks))
corpus_path = scratch / "playlists.txt"
corpus_path.write_text("\n".join(lines) + "\n")

# ------------------------------------------------------------------
# 2. Write the experiment config.  Field names mirror ExperimentConfig;
#    anything omitted keeps its default, anything unknown is rejected.
# ------------------------------------------------------------------
config_path = scratch / "experiment.yaml"
config_path.write_text(
    f"""corpus: {corpus_path}
out_dir: {scratch / 'out'}
seed: 2
mixed_count: 150
min_window: 12
pool_split: 40
hidden_state_counts: [2, 5]
k: 1
d: 16
l: 10
n_grid: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
hmm_restarts: 5
bpr_epochs: 5
"""
)

# ------------------------------------------------------------------
# 3. Run every stage.  run-all is equivalent to invoking the six stages
#    one at a time; --seed or --out on the command line would override
#    the config file.
# ------------------------------------------------------------------
code = main(["run-all", "--config", str(config_path)])
assert code == 0, f"pipeline exited with {code}"

# ------------------------------------------------------------------
# 4. Every artifact embeds the config hash and seed on its first line,
#    so results can always be traced back to the run that made them.
# ------------------------------------------------------------------
out = scratch / "out"
print("\nartifacts written:")
for p in sorted(out.iterdir()):
    print(f"  {p.name}")

print("\n" + (out / "summary.txt").read_text())
workspace.cleanup()

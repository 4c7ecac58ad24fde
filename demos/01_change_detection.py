"""
Detecting a taste change in one listening sequence
==================================================

A user listens to one style of music, then switches to another.  This
script builds such sequences from two disjoint item pools, fits a
two-state hidden Markov model to a small corpus of them, and reads the
change point off the decoded state path.  The same sequences go through
the three reference detectors for comparison.
"""

import numpy as np

from driftrec import (
    InteractionSequence,
    TrainConfig,
    baum_welch_train,
    cooccurrence_item_vectors,
    cusum_detect,
    displacement_error,
    hmcd_detect,
    random_partition,
    sliding_window_detect_all,
    tune_cusum_threshold,
    viterbi_decode,
)

rng = np.random.default_rng(7)

# ------------------------------------------------------------------
# 1. Synthesize a corpus: items 0..19 are one taste, 20..39 the other.
#    Each user plays 30-50 items from the first pool, then 30-50 from
#    the second.  The index of the first second-pool item is the truth.
# ------------------------------------------------------------------
corpus = []
for u in range(60):
    w1 = int(rng.integers(30, 51))
    w2 = int(rng.integers(30, 51))
    items = np.concatenate([rng.integers(0, 20, w1), rng.integers(20, 40, w2)])
    corpus.append(InteractionSequence(user_id=f"user{u:02d}", items=items, truth_change=w1))

# ------------------------------------------------------------------
# 2. Fit a 2-state model by expectation-maximization.  Each state should
#    claim one pool; the learned transition matrix stays heavy on the
#    diagonal because switches are rare within a sequence.
# ------------------------------------------------------------------
model = baum_welch_train(corpus, h=2, cfg=TrainConfig(max_iters=50, seed=0), num_items=40)
print("learned transition matrix:")
print(np.round(model.trans, 3))

# ------------------------------------------------------------------
# 3. Decode one sequence and place the change point.  The decoded path
#    switches state exactly where the item pool switches.
# ------------------------------------------------------------------
seq = corpus[0]
path = viterbi_decode(model, seq).states
print(f"\nuser {seq.user_id}: true change at {seq.truth_change}")
print("decoded path switches at:", int(np.flatnonzero(np.diff(path))[0]) + 1)

result = hmcd_detect(model, seq, k=1)
print("model-based detector says:", result.predicted)

# ------------------------------------------------------------------
# 4. Compare against the reference detectors over the whole corpus.
#    CUSUM tracks a running popularity statistic, the sliding-window
#    detector splits on co-consumption distance, and the random
#    partition is the no-information floor.  The window detector has
#    little to work with here: every user consumes every item, so
#    audience vectors barely separate the pools.
# ------------------------------------------------------------------
tau = tune_cusum_threshold(corpus)
vectors = cooccurrence_item_vectors(corpus, m=40)

window_splits = sliding_window_detect_all(corpus, vectors)

errors = {"model": [], "cusum": [], "window": [], "random": []}
for i, seq in enumerate(corpus):
    truth = seq.truth_change
    detected = hmcd_detect(model, seq, k=1)
    predicted = detected.predicted[0] if detected.predicted else len(seq) - 1
    errors["model"].append(displacement_error(truth, predicted))
    errors["cusum"].append(displacement_error(truth, cusum_detect(seq, tau)[0]))
    errors["window"].append(displacement_error(truth, window_splits[i][0]))
    errors["random"].append(displacement_error(truth, random_partition(seq, rng_seed=i)))

print("\nmean displacement from the true change point:")
for name, errs in errors.items():
    print(f"  {name:>7s}: {np.mean(errs):6.2f}")

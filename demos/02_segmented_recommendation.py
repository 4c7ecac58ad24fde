"""
Recommending from the current taste segment
===========================================

After a taste change, a user's full history is a misleading training
signal: half of it describes preferences they have moved on from.  This
script splits each history at its detected change point, factorizes the
per-segment incidence matrix, and ranks candidate items for the segment
the user is currently in.  A whole-history factorization and a raw
popularity ranking serve as reference points.
"""

import numpy as np

from driftrec import (
    FactorizationConfig,
    InteractionSequence,
    TrainConfig,
    baum_welch_train,
    build_segmented_matrix,
    factors_from_pair,
    hmcd_detect_all,
    item_popularity,
    nmf_fit,
    partition,
    precision_recall_at,
    rank_by_scores,
    recommend_from_segments,
)

rng = np.random.default_rng(21)
M_ITEMS = 60

# ------------------------------------------------------------------
# 1. Build sequences with a mid-stream taste change.  The first pool is
#    items 0..29, the second 30..59, and each draw is biased toward a
#    per-user favorite neighborhood so users are distinguishable.  The
#    last 10 second-pool plays are held out as evaluation truth.
# ------------------------------------------------------------------
def biased_draw(lo, hi, center, size):
    raw = np.clip(np.round(rng.normal(center, 5.0, size)), lo, hi - 1)
    return raw.astype(np.int64)

corpus, holdouts = [], {}
for u in range(80):
    c1 = int(rng.integers(5, 25))
    c2 = int(rng.integers(35, 55))
    w1 = biased_draw(0, 30, c1, int(rng.integers(30, 45)))
    w2 = biased_draw(30, 60, c2, int(rng.integers(40, 55)))
    uid = f"user{u:02d}"
    corpus.append(InteractionSequence(user_id=uid, items=np.concatenate([w1, w2[:-10]]), truth_change=len(w1)))
    holdouts[uid] = [int(i) for i in w2[-10:]]

# ------------------------------------------------------------------
# 2. Detect each user's change point with a 2-state model, split the
#    histories there, and stack the pieces into a segmented incidence
#    matrix: one row per (user, segment) instead of one row per user.
# ------------------------------------------------------------------
model = baum_welch_train(corpus, h=2, cfg=TrainConfig(max_iters=50, seed=1), num_items=M_ITEMS)
points = {res.user_id: res.predicted for res in hmcd_detect_all(model, corpus, k=1)}

segments_by_user = {}
for seq in corpus:
    segs = partition(seq, points[seq.user_id])
    while len(segs) < 2:  # a switchless path still owes a second row
        segs.append(np.array([], dtype=np.int64))
    segments_by_user[seq.user_id] = segs
segmented = build_segmented_matrix(segments_by_user, M_ITEMS)
print(f"segmented matrix: {segmented.shape[0]} rows "
      f"({len(corpus)} users x {segmented.shape[0] // len(corpus)} segments)")

# ------------------------------------------------------------------
# 3. Factorize and recommend.  The segment-aware ranker scores items by
#    similarity to the user's most recent segment only; the raw
#    factorization sees the whole history at once.
# ------------------------------------------------------------------
pair_seg = nmf_fit(segmented, FactorizationConfig(d=16, max_iters=150, seed=2))
factors = factors_from_pair(pair_seg, "nmf")

whole = np.zeros((len(corpus), M_ITEMS))
for r, seq in enumerate(corpus):
    whole[r, seq.items] = 1.0
pair_raw = nmf_fit(whole, FactorizationConfig(d=16, max_iters=150, seed=2))
popularity = item_popularity(whole)

N = 10
precisions = {"segment-aware": [], "whole-history": [], "popularity": []}
for r, seq in enumerate(corpus):
    segments = segments_by_user[seq.user_id]
    rec = recommend_from_segments(factors, segments, seq.items, popularity, l=8, N=N, user_id=seq.user_id)
    truth = holdouts[seq.user_id]
    precisions["segment-aware"].append(precision_recall_at(rec.ranked_items, truth, N)[0])

    scores = pair_raw.p[r] @ pair_raw.q.T
    rec = rank_by_scores(scores, popularity, seq.items, N, user_id=seq.user_id)
    precisions["whole-history"].append(precision_recall_at(rec.ranked_items, truth, N)[0])

    rec = rank_by_scores(popularity, popularity, seq.items, N, user_id=seq.user_id)
    precisions["popularity"].append(precision_recall_at(rec.ranked_items, truth, N)[0])

print(f"\nmean precision@{N} against the held-out future plays:")
for name, vals in precisions.items():
    print(f"  {name:>14s}: {np.mean(vals):.3f}")

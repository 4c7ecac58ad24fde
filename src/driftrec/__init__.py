"""Preference-drift detection and drift-aware recommendation over interaction sequences.

The pipeline runs its jobs on one forked worker per CPU, each job with
one BLAS thread whatever imported numpy first (pipeline._blas_threads).
Where no OpenBLAS thread setter is found, as with a numpy built against
MKL, nothing is set, and each worker may start a BLAS thread per CPU
unless OMP_NUM_THREADS or MKL_NUM_THREADS is 1 before numpy is imported.
"""

from driftrec.changepoint import (
    ChangePointResult,
    build_segmented_matrix,
    cooccurrence_item_vectors,
    cusum_detect,
    displacement_error,
    hmcd_detect,
    hmcd_detect_all,
    partition,
    random_partition,
    sliding_window_detect,
    sliding_window_detect_all,
    tune_cusum_threshold,
)
from driftrec.dataset import (
    HOLDOUT_SIZE,
    MixedSequence,
    PlaylistCorpus,
    load_benchmark,
    load_corpus,
    save_benchmark,
    synthesize_mixed,
    to_interaction_sequences,
)
from driftrec.evaluation import (
    aggregate_cpd,
    ndcg_time_aware,
    pr_curve,
    precision_recall_at,
)
from driftrec.factorization import (
    FactorizationConfig,
    FactorPair,
    bpr_fit,
    load_factors,
    nmf_fit,
    save_factors,
)
from driftrec.hmm import (
    DecodedPath,
    HmmModel,
    InteractionSequence,
    TrainConfig,
    baum_welch_train,
    load_model,
    save_model,
    total_log_likelihood,
    viterbi_decode,
    viterbi_decode_all,
)
from driftrec.recommend import (
    ItemFactors,
    Recommendation,
    factors_from_pair,
    hmm_item_factors,
    hmmr_recommend,
    item_popularity,
    rank_by_scores,
    recommend_from_segments,
    score_by_segment,
)

__all__ = [
    "HOLDOUT_SIZE",
    "ChangePointResult",
    "DecodedPath",
    "FactorPair",
    "FactorizationConfig",
    "HmmModel",
    "InteractionSequence",
    "ItemFactors",
    "MixedSequence",
    "PlaylistCorpus",
    "Recommendation",
    "TrainConfig",
    "aggregate_cpd",
    "baum_welch_train",
    "bpr_fit",
    "build_segmented_matrix",
    "cooccurrence_item_vectors",
    "cusum_detect",
    "displacement_error",
    "factors_from_pair",
    "hmcd_detect",
    "hmcd_detect_all",
    "hmm_item_factors",
    "hmmr_recommend",
    "item_popularity",
    "load_benchmark",
    "load_corpus",
    "load_factors",
    "load_model",
    "ndcg_time_aware",
    "nmf_fit",
    "partition",
    "pr_curve",
    "precision_recall_at",
    "rank_by_scores",
    "random_partition",
    "recommend_from_segments",
    "save_benchmark",
    "save_factors",
    "save_model",
    "score_by_segment",
    "sliding_window_detect",
    "sliding_window_detect_all",
    "synthesize_mixed",
    "to_interaction_sequences",
    "total_log_likelihood",
    "tune_cusum_threshold",
    "viterbi_decode",
    "viterbi_decode_all",
]

__version__ = "0.1.0"

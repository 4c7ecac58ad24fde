"""Every public entry point refuses each kind of invalid input with a
ValueError that names the field: counts (a bool, a float, too small),
tolerances and rates (NaN), item indices (fractional, out of range),
ascending points, config fields, array shapes and empty inputs."""

import base64
import json
import math
import re

import numpy as np
import pytest

from driftrec import (
    ChangePointResult,
    FactorizationConfig,
    HmmModel,
    InteractionSequence,
    ItemFactors,
    MixedSequence,
    Recommendation,
    PlaylistCorpus,
    FactorPair,
    TrainConfig,
    aggregate_cpd,
    baum_welch_train,
    build_segmented_matrix,
    cooccurrence_item_vectors,
    cusum_detect,
    hmcd_detect_all,
    load_corpus,
    load_factors,
    load_benchmark,
    load_model,
    ndcg_time_aware,
    nmf_fit,
    partition,
    precision_recall_at,
    random_partition,
    rank_by_scores,
    recommend_from_segments,
    save_benchmark,
    save_factors,
    save_model,
    score_by_segment,
    sliding_window_detect,
    sliding_window_detect_all,
    synthesize_mixed,
    tune_cusum_threshold,
)
from driftrec.changepoint import incidence_matrix
from driftrec.evaluation import ranking_metrics
from driftrec.pipeline import ExperimentConfig

NAN = math.nan


def seq(items=(0, 1, 2, 1), truth=None):
    return InteractionSequence(user_id="u", items=np.array(items), truth_change=truth)


def model():
    return HmmModel(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), emit=np.full((2, 3), 1 / 3))


def factors():
    return ItemFactors(vectors=np.eye(4), source="nmf")


def corpus():
    """Four playlists of 30 items each, to split into pools."""
    return PlaylistCorpus([np.arange(30)] * 4, [str(i) for i in range(30)])


def mixed(**fields):
    base = dict(user_id="u", items=np.arange(12), truth_change=2, source_ids=(0, 1), holdout=np.arange(10))
    return MixedSequence(**dict(base, **fields))


CASES = {
    # counts
    "TrainConfig.max_iters-bool": (lambda: TrainConfig(max_iters=True), "max_iters"),
    "TrainConfig.max_iters-float": (lambda: TrainConfig(max_iters=2.5), "max_iters"),
    "TrainConfig.max_iters-zero": (lambda: TrainConfig(max_iters=0), "max_iters"),
    "baum_welch_train.h-bool": (lambda: baum_welch_train([seq()], True), "h"),
    "baum_welch_train.num_items-bool": (lambda: baum_welch_train([seq()], 2, num_items=True), "num_items"),
    "baum_welch_train.num_items-float": (lambda: baum_welch_train([seq()], 2, num_items=3.5), "num_items"),
    "cooccurrence_item_vectors.m-bool": (lambda: cooccurrence_item_vectors([seq()], True), "m"),
    "cooccurrence_item_vectors.m-float": (lambda: cooccurrence_item_vectors([seq()], 2.5), "m"),
    "FactorizationConfig.d-bool": (lambda: FactorizationConfig(d=True), "d"),
    "FactorizationConfig.max_iters-float": (lambda: FactorizationConfig(max_iters=3.0), "max_iters"),
    "hmcd_detect_all.k-float": (lambda: hmcd_detect_all(model(), [seq()], k=1.5), "k"),
    "tune_cusum_threshold.grid_size-bool": (lambda: tune_cusum_threshold([seq(truth=2)], grid_size=True), "grid_size"),
    "random_partition.rng_seed-negative": (lambda: random_partition(seq(), -1), "rng_seed"),
    "random_partition.rng_seed-float": (lambda: random_partition(seq(), 1.5), "rng_seed"),
    "score_by_segment.l-bool": (lambda: score_by_segment(factors(), [0], l=True), "l"),
    "recommend_from_segments.l-zero": (
        lambda: recommend_from_segments(factors(), [[0]], [0], np.ones(4), l=0), "l"
    ),
    "ItemFactors.neighbors.width-zero": (lambda: factors().neighbors(0), "width"),
    "ItemFactors.neighbors.width-negative": (lambda: factors().neighbors(-3), "width"),
    "ItemFactors.neighbors.width-bool": (lambda: factors().neighbors(True), "width"),
    "ItemFactors.neighbors.width-float": (lambda: factors().neighbors(2.5), "width"),
    "rank_by_scores.N-float": (lambda: rank_by_scores(np.ones(4), np.ones(4), [0], N=2.0), "N"),
    "precision_recall_at.N-bool": (lambda: precision_recall_at([1], [1], True), "N"),
    "ndcg_time_aware.N-zero": (lambda: ndcg_time_aware([1], [1], 0), "N"),
    "load_corpus.min_len-float": (lambda: load_corpus("unread.txt", min_len=0.5), "min_len"),
    "synthesize_mixed.count-bool": (lambda: synthesize_mixed(None, True), "count"),
    "synthesize_mixed.min_window-float": (lambda: synthesize_mixed(None, 5, min_window=2.5), "min_window"),
    "synthesize_mixed.pool_split-bool": (lambda: synthesize_mixed(corpus(), 5, pool_split=True), "pool_split"),
    "synthesize_mixed.pool_split-float": (lambda: synthesize_mixed(corpus(), 5, pool_split=2.5), "pool_split"),
    "ExperimentConfig.k-float": (lambda: ExperimentConfig(corpus="c", out_dir="o", k=1.0), "k"),
    "InteractionSequence.truth_change-float": (lambda: seq([0, 1, 2, 3], truth=2.7), "truth_change"),
    "InteractionSequence.truth_change-bool": (lambda: seq(truth=True), "truth_change"),
    "InteractionSequence.truth_change-at-T": (lambda: seq([0, 1, 2, 3], truth=4), "truth_change"),
    "MixedSequence.truth_change-missing": (lambda: mixed(truth_change=None), "truth_change"),
    # tolerances and rates
    "TrainConfig.log_lik_tol-nan": (lambda: TrainConfig(log_lik_tol=NAN), "log_lik_tol"),
    "TrainConfig.emission_floor-nan": (lambda: TrainConfig(emission_floor=NAN), "emission_floor"),
    "FactorizationConfig.learning_rate-nan": (lambda: FactorizationConfig(learning_rate=NAN), "learning_rate"),
    "FactorizationConfig.regularization-nan": (lambda: FactorizationConfig(regularization=NAN), "regularization"),
    "FactorizationConfig.convergence_tol-nan": (lambda: FactorizationConfig(convergence_tol=NAN), "convergence_tol"),
    "FactorizationConfig.regularization-bool": (lambda: FactorizationConfig(regularization=False), "regularization"),
    "ExperimentConfig.hmm_tol-nan": (lambda: ExperimentConfig(corpus="c", out_dir="o", hmm_tol=NAN), "hmm_tol"),
    "cusum_detect.tau-nan": (lambda: cusum_detect(seq(), NAN), "tau"),
    # item indices
    "InteractionSequence.items-fractional": (lambda: seq([0, 0.5]), "items"),
    "MixedSequence.items-negative": (lambda: mixed(items=[3, -1, 2]), "items"),
    "MixedSequence.holdout-fractional": (lambda: mixed(holdout=np.arange(10) + 0.5), "holdout"),
    "PlaylistCorpus.item_keys-repeated": (lambda: PlaylistCorpus([np.array([0, 5])], ["a", "a"]), "item_keys"),
    "PlaylistCorpus.item_keys-not-strings": (lambda: PlaylistCorpus([np.array([0])], [3]), "item_keys"),
    "PlaylistCorpus.playlists-fractional": (
        lambda: PlaylistCorpus([np.array([0, 1]), np.array([0.5, -2])], ["a", "b"]), "playlist 1"
    ),
    "PlaylistCorpus.playlists-out-of-range": (lambda: PlaylistCorpus([np.array([0, 5])], ["a", "b"]), "playlist 0"),
    "incidence_matrix-fractional": (lambda: incidence_matrix([[0], [0.7]], 3, ["row a", "row b"]), "row b"),
    "score_by_segment.segment-out-of-range": (lambda: score_by_segment(factors(), [1, 4], l=1), "segment"),
    "rank_by_scores.training_items-out-of-range": (
        lambda: rank_by_scores(np.ones(4), np.ones(4), [9], N=2), "training_items"
    ),
    "sliding_window_detect.item_vectors-nan": (
        lambda: sliding_window_detect(seq([0, 1, 2]), np.array([[0.0], [NAN], [1.0]])), "item_vectors"
    ),
    "sliding_window_detect.item_vectors-1-D": (lambda: sliding_window_detect(seq([0, 1]), np.ones(3)), "item_vectors"),
    "sliding_window_detect_all.item_vectors-nan": (
        lambda: sliding_window_detect_all([seq([0, 2]), seq([1, 2])], np.array([[0.0], [NAN], [1.0]])), "item_vectors"
    ),
    "sliding_window_detect_all.item_vectors-1-D": (
        lambda: sliding_window_detect_all([seq([0, 1])], np.ones(3)), "item_vectors"
    ),
    "sliding_window_detect_all.items-out-of-range": (
        lambda: sliding_window_detect_all(
            [seq([0, 1]), InteractionSequence(user_id="u2", items=np.array([2, 3]))], np.ones((3, 2))
        ),
        "sequence 'u2'",
    ),
    "sliding_window_detect_all.corpus-empty": (lambda: sliding_window_detect_all([], np.ones((3, 2))), "corpus"),
    # ascending points
    "ChangePointResult.predicted-bool": (
        lambda: ChangePointResult(user_id="u", predicted=[True], score_per_point=[1.0]), "predicted"
    ),
    "partition.points-fractional": (lambda: partition(seq(), [1.5]), "points"),
    "partition.points-beyond-T": (lambda: partition(seq(), [4]), "points"),
    "ranking_metrics.n_grid-float": (lambda: ranking_metrics({"u": [1]}, {"u": [1]}, [1, 2.5]), "n_grid"),
    "ExperimentConfig.n_grid-bool": (lambda: ExperimentConfig(corpus="c", out_dir="o", n_grid=[True, 2]), "n_grid"),
    # configs
    "ExperimentConfig.corpus-int": (lambda: ExperimentConfig(corpus=5, out_dir="o"), "corpus"),
    "ExperimentConfig.methods-string": (lambda: ExperimentConfig(corpus="c", out_dir="o", methods="SW"), "methods"),
    "ExperimentConfig.methods-repeated": (
        lambda: ExperimentConfig(corpus="c", out_dir="o", methods=["SW", "SW"]), "methods"
    ),
    "ExperimentConfig.n_grid-int": (lambda: ExperimentConfig(corpus="c", out_dir="o", n_grid=5), "n_grid"),
    "ExperimentConfig.from_mapping-list": (lambda: ExperimentConfig.from_mapping(["a"]), "config root"),
    # shapes
    "HmmModel.emit-rows": (
        lambda: HmmModel(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), emit=np.full((3, 3), 1 / 3)), "emit"
    ),
    "FactorPair.q-1-D": (lambda: FactorPair(p=np.ones((2, 2)), q=np.ones(3)), "q"),
    "FactorPair.p-width": (lambda: FactorPair(p=np.ones((2, 3)), q=np.ones((3, 2))), "p"),
    "nmf_fit.M-1-D": (lambda: nmf_fit(np.ones(4)), "matrix"),
    "ItemFactors.vectors-1-D": (lambda: ItemFactors(vectors=np.ones(4), source="nmf"), "vectors"),
    # other refusals
    "Recommendation.scores-misaligned": (
        lambda: Recommendation(user_id="u", ranked_items=[1, 2], scores=[1.0]), "ranked_items"
    ),
    "rank_by_scores.scores-2-D": (lambda: rank_by_scores(np.ones((2, 4)), np.ones(4), [0], N=2), "scores"),
    "build_segmented_matrix.segments_by_user-empty": (lambda: build_segmented_matrix({}, 3), "segments_by_user"),
    "tune_cusum_threshold.corpus-empty": (lambda: tune_cusum_threshold([]), "corpus"),
    "synthesize_mixed.pool_split-at-end": (lambda: synthesize_mixed(corpus(), 5, pool_split=4), "pool_split"),
    "synthesize_mixed.pool_split-past-end": (lambda: synthesize_mixed(corpus(), 5, pool_split=5), "pool_split"),
    "aggregate_cpd.per_method-empty": (lambda: aggregate_cpd({}), "per_method"),
    "aggregate_cpd.per_method-no-users": (lambda: aggregate_cpd({"A": {}}), "per_method"),
}


@pytest.mark.parametrize("call, field", CASES.values(), ids=CASES.keys())
def test_invalid_input_names_the_field(call, field):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(field + " ") or str(err.value).startswith(field + ":"), str(err.value)


LOADERS = {
    "load_model": (lambda path: save_model(path, model()), load_model, "emit"),
    "load_factors": (lambda path: save_factors(path, FactorPair(p=np.ones((2, 2)), q=np.ones((3, 2)))), load_factors, "q"),
}
STORED_ARRAY_DEFECTS = {
    "bad-base64": (lambda a: dict(a, data="not base64!"), "data is not base64 text"),
    "wrong-byte-count": (
        lambda a: dict(a, data=base64.b64encode(base64.b64decode(a["data"])[:-4]).decode()), "data holds"
    ),
    "shape-non-integer": (lambda a: dict(a, shape=[a["shape"][0], 1.5]), "shape entry: expected an integer"),
    "shape-negative": (lambda a: dict(a, shape=[-a["shape"][0], a["shape"][1]]), "shape entry: must be >= 0"),
    "shape-missing": (lambda a: {"data": a["data"]}, "expected an object with fields 'shape' and 'data'"),
    "shape-not-a-list": (lambda a: dict(a, shape=a["shape"][0]), "shape must be a list of integers"),
}


@pytest.mark.parametrize("defect", STORED_ARRAY_DEFECTS)
@pytest.mark.parametrize("loader", LOADERS)
def test_malformed_stored_array_names_the_file_and_the_field(tmp_path, loader, defect):
    save, load, field = LOADERS[loader]
    edit, detail = STORED_ARRAY_DEFECTS[defect]
    path = tmp_path / f"{loader}.json"
    save(path)
    payload = json.loads(path.read_text())
    payload[field] = edit(payload[field])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {field}"), str(err.value)
    assert detail in str(err.value)


@pytest.mark.parametrize("loader", LOADERS)
def test_file_holding_a_json_list_names_the_file(tmp_path, loader):
    path = tmp_path / f"{loader}.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a driftrec-\w+-v2 file$"):
        LOADERS[loader][1](path)


def test_item_vectors_are_checked_only_where_the_sequence_reads_them():
    vectors = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [NAN, NAN]])
    assert sliding_window_detect(seq([0, 1, 2, 2]), vectors) == (2, False)
    with pytest.raises(ValueError, match=r"^item_vectors entry \(3, 0\) is nan; entries must be finite$"):
        sliding_window_detect(seq([0, 3, 2]), vectors)


def test_normalized_values_are_plain_python_numbers():
    cfg = TrainConfig(max_iters=np.int64(7), log_lik_tol=np.float32(0.5))
    assert type(cfg.max_iters) is int and type(cfg.log_lik_tol) is float
    exp = ExperimentConfig(corpus="c", out_dir="o", d=np.int32(4), n_grid=np.arange(1, 4))
    assert exp.d == 4 and type(exp.d) is int
    assert exp.n_grid == [1, 2, 3] and all(type(n) is int for n in exp.n_grid)


@pytest.mark.parametrize("part", ["items", "holdout"])
def test_benchmark_item_past_the_vocabulary_names_the_file_line_and_user(tmp_path, part):
    path = tmp_path / "bench.tsv"
    size = len(getattr(mixed(), part))
    past = {part: np.arange(15 - size, 15)}
    save_benchmark(path, [mixed(user_id="u0"), mixed(user_id="u1", **past)], {"num_items": 14})
    with pytest.raises(ValueError, match=rf"^bench\.tsv:3: {part} of user 'u1' has item 14; items must lie in \[0, 14\)$"):
        load_benchmark(path)
    save_benchmark(path, [mixed(user_id="u0"), mixed(user_id="u1", **past)], {"num_items": 15})
    assert [mx.user_id for mx in load_benchmark(path)[0]] == ["u0", "u1"]


@pytest.mark.parametrize(
    "value, detail",
    [
        ("abc", "invalid literal for int() with base 10: 'abc'"),
        ("", "invalid literal for int() with base 10: ''"),
        ("-1", "num_items: must be >= 0, got -1"),
    ],
)
def test_malformed_benchmark_num_items_names_the_file_and_header(tmp_path, value, detail):
    path = tmp_path / "bench.tsv"
    save_benchmark(path, [mixed(user_id="u0")], {"num_items": value})
    with pytest.raises(ValueError, match=rf"^bench\.tsv:1: malformed benchmark header \({re.escape(detail)}\)$"):
        load_benchmark(path)

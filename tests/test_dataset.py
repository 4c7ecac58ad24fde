import json
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

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


def write_lines(tmp_path, lines, name="corpus.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def make_corpus(playlists):
    arrays = [np.array(pl, dtype=np.int64) for pl in playlists]
    m = int(max(pl.max() for pl in arrays)) + 1
    return PlaylistCorpus(playlists=arrays, item_keys=[f"k{i}" for i in range(m)])


class TestLoadCorpus:
    def test_small_file_fully_loaded(self, tmp_path):
        path = write_lines(tmp_path, ["a b c", "b c d", "a d"])
        corpus = load_corpus(path, min_len=1, sample_size=3, seed=0)
        assert len(corpus.playlists) == 3
        assert len(corpus.item_keys) == 4

    def test_repeated_items_share_one_index(self, tmp_path):
        path = write_lines(tmp_path, ["a b a c", "b b", "c a c a b c"])
        corpus = load_corpus(path)
        assert [pl.tolist() for pl in corpus.playlists] == [[0, 1, 0, 2], [1, 1], [2, 0, 2, 0, 1, 2]]
        assert corpus.item_keys == ["a", "b", "c"]

    def test_min_len_filters_short_playlists(self, tmp_path):
        path = write_lines(tmp_path, ["a b c d e", "a b c d"])
        corpus = load_corpus(path, min_len=5)
        assert len(corpus.playlists) == 1

    def test_oversized_sample_keeps_all_with_warning(self, tmp_path):
        path = write_lines(tmp_path, ["a b", "c d"])
        with pytest.warns(UserWarning, match="keeping all"):
            corpus = load_corpus(path, sample_size=10)
        assert len(corpus.playlists) == 2

    def test_sampling_is_deterministic(self, tmp_path):
        path = write_lines(tmp_path, [f"x{i} y{i} z{i}" for i in range(50)])
        a = load_corpus(path, sample_size=20, seed=7)
        b = load_corpus(path, sample_size=20, seed=7)
        assert len(a.playlists) == 20
        for pa, pb in zip(a.playlists, b.playlists):
            np.testing.assert_array_equal(pa, pb)
        assert a.item_keys == b.item_keys

    def test_vocabulary_round_trip(self, tmp_path):
        path = write_lines(tmp_path, ["beta alpha beta", "gamma alpha"])
        corpus = load_corpus(path)
        # first-appearance order
        assert corpus.item_keys == ["beta", "alpha", "gamma"]
        np.testing.assert_array_equal(corpus.playlists[0], [0, 1, 0])

    def test_blank_lines_never_become_playlists(self, tmp_path):
        path = write_lines(tmp_path, ["a b", "", "c d"])
        corpus = load_corpus(path, min_len=1)
        assert len(corpus.playlists) == 2

    def test_error_when_nothing_qualifies(self, tmp_path):
        path = write_lines(tmp_path, ["a b"])
        with pytest.raises(ValueError, match="length >= 5"):
            load_corpus(path, min_len=5)

    def test_directory_slice_layout(self, tmp_path):
        payload = {
            "info": {"slice": "0-999"},
            "playlists": [
                {
                    "pid": 0,
                    "tracks": [
                        {"album_uri": "spotify:album:A", "track_uri": "t1"},
                        {"album_uri": "spotify:album:B", "track_uri": "t2"},
                    ],
                },
                {"pid": 1, "tracks": [{"album_uri": "spotify:album:B"}]},
            ],
        }
        (tmp_path / "mpd.slice.0-999.json").write_text(json.dumps(payload))
        corpus = load_corpus(tmp_path)
        assert len(corpus.playlists) == 2
        assert corpus.item_keys == ["spotify:album:A", "spotify:album:B"]
        np.testing.assert_array_equal(corpus.playlists[1], [1])

    def test_directory_with_bad_json_names_file(self, tmp_path):
        (tmp_path / "mpd.slice.bad.json").write_text("{nope")
        with pytest.raises(ValueError, match="mpd.slice.bad.json"):
            load_corpus(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .json"):
            load_corpus(tmp_path)


class TestSynthesize:
    def test_forced_windows_arithmetic(self):
        # |p1| = 2 with min_window 2 forces w1 = 2; |p2| = 12 forces w2 = 12
        corpus = make_corpus([[1, 2], list(range(3, 15))])
        mixed = synthesize_mixed(corpus, count=1, seed=0, min_window=2)
        mx = mixed[0]
        assert mx.truth_change == 2
        np.testing.assert_array_equal(mx.items, [1, 2, 3, 4])
        np.testing.assert_array_equal(mx.holdout, list(range(5, 15)))
        assert mx.source_ids in ((0, 1), (1, 0))

    def test_observed_plus_holdout_reconstructs_windows(self):
        rng = np.random.default_rng(3)
        corpus = make_corpus(
            [rng.integers(0, 40, size=int(rng.integers(12, 40))).tolist() for _ in range(8)]
        )
        for mx in synthesize_mixed(corpus, count=60, seed=1, min_window=3):
            w1 = mx.truth_change
            w2 = len(mx.items) - w1 + HOLDOUT_SIZE
            p1, p2 = mx.source_ids
            full = np.concatenate([mx.items, mx.holdout])
            np.testing.assert_array_equal(
                full,
                np.concatenate([corpus.playlists[p1][:w1], corpus.playlists[p2][:w2]]),
            )

    def test_window_bounds_and_distinct_sources(self):
        rng = np.random.default_rng(5)
        corpus = make_corpus(
            [rng.integers(0, 30, size=int(rng.integers(10, 50))).tolist() for _ in range(10)]
        )
        for mx in synthesize_mixed(corpus, count=80, seed=2, min_window=4):
            p1, p2 = mx.source_ids
            assert p1 != p2
            assert 4 <= mx.truth_change <= len(corpus.playlists[p1])
            w2 = len(mx.items) - mx.truth_change + HOLDOUT_SIZE
            assert 4 + HOLDOUT_SIZE <= w2 <= len(corpus.playlists[p2])

    def test_deterministic_given_seed(self):
        corpus = make_corpus([list(range(30)), list(range(30, 60)), list(range(60, 90))])
        a = synthesize_mixed(corpus, count=20, seed=9)
        b = synthesize_mixed(corpus, count=20, seed=9)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.items, mb.items)
            np.testing.assert_array_equal(ma.holdout, mb.holdout)
            assert ma.truth_change == mb.truth_change
            assert ma.source_ids == mb.source_ids

    def test_error_when_playlists_too_short(self):
        corpus = make_corpus([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="length >="):
            synthesize_mixed(corpus, count=1, min_window=10)

    def test_change_point_approximately_uniform(self):
        rng = np.random.default_rng(11)
        corpus = make_corpus([rng.integers(0, 99, size=80).tolist() for _ in range(6)])
        mixed = synthesize_mixed(corpus, count=5000, seed=13, min_window=10)
        lams = np.array([mx.truth_change for mx in mixed])
        support = np.arange(10, 81)
        groups = np.array_split(support, 10)
        observed = np.array([np.isin(lams, g).sum() for g in groups])
        expected = np.array([len(g) / len(support) * len(lams) for g in groups])
        result = scipy_stats.chisquare(observed, f_exp=expected)
        assert result.pvalue > 0.01


class TestRepackaging:
    def test_empty_list(self):
        seqs, holdout = to_interaction_sequences([])
        assert seqs == [] and holdout == {}

    def test_single(self):
        mx = MixedSequence(
            user_id="u0",
            items=np.arange(12),
            truth_change=5,
            source_ids=(0, 1),
            holdout=np.arange(100, 110),
        )
        seqs, holdout = to_interaction_sequences([mx])
        assert len(seqs) == 1 and seqs[0] is mx
        assert seqs[0].user_id == "u0"
        assert seqs[0].truth_change == 5
        np.testing.assert_array_equal(seqs[0].items, mx.items)
        np.testing.assert_array_equal(holdout["u0"], mx.holdout)

    def test_many_lossless(self):
        rng = np.random.default_rng(17)
        corpus = make_corpus([rng.integers(0, 20, size=25).tolist() for _ in range(5)])
        mixed = synthesize_mixed(corpus, count=15, seed=3)
        seqs, holdout = to_interaction_sequences(mixed)
        assert len(seqs) == 15 and len(holdout) == 15
        for mx, s in zip(mixed, seqs):
            assert s.user_id == mx.user_id
            np.testing.assert_array_equal(s.items, mx.items)
            np.testing.assert_array_equal(holdout[mx.user_id], mx.holdout)


class TestBenchmarkFile:
    def _mixed(self):
        corpus = make_corpus([list(range(25)), list(range(25, 50)), list(range(50, 75))])
        return synthesize_mixed(corpus, count=10, seed=21)

    def test_round_trip_preserves_everything(self, tmp_path):
        mixed = self._mixed()
        path = tmp_path / "bench.tsv"
        meta = {"seed": "21", "count": "10", "config": "deadbeef"}
        save_benchmark(path, mixed, meta)
        loaded, loaded_meta = load_benchmark(path)
        assert loaded_meta == meta
        for orig, back in zip(mixed, loaded):
            assert orig.user_id == back.user_id
            assert orig.truth_change == back.truth_change
            assert orig.source_ids == back.source_ids
            np.testing.assert_array_equal(orig.items, back.items)
            np.testing.assert_array_equal(orig.holdout, back.holdout)

    def test_rewriting_loaded_benchmark_is_byte_identical(self, tmp_path):
        mixed = self._mixed()
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        save_benchmark(first, mixed, {"seed": "21"})
        loaded, meta = load_benchmark(first)
        save_benchmark(second, loaded, meta)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("not a benchmark\n")
        with pytest.raises(ValueError, match="not a driftrec benchmark"):
            load_benchmark(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("# driftrec-benchmark-v1 seed=1\nu0\tbroken\n")
        with pytest.raises(ValueError, match=":2"):
            load_benchmark(path)

    def test_malformed_row_names_the_file_alone(self, tmp_path):
        path = tmp_path / "sub" / "x.tsv"
        path.parent.mkdir()
        path.write_text("# driftrec-benchmark-v1 seed=1\nu0\tbroken\n")
        with pytest.raises(ValueError) as exc:
            load_benchmark(path)
        assert str(exc.value).startswith("x.tsv:2: malformed benchmark row (expected 5 tab-separated fields, got 2)")

    def test_repeated_user_is_refused_naming_both_lines(self, tmp_path):
        mixed = self._mixed()
        mixed[3].user_id = mixed[1].user_id
        path = tmp_path / "bench.tsv"
        save_benchmark(path, mixed, {"seed": "21"})
        with pytest.raises(ValueError) as exc:
            load_benchmark(path)
        assert str(exc.value) == f"bench.tsv:5: user {mixed[1].user_id!r} is listed again (first on line 3)"

    def test_irregular_spacing_reads_row_by_row_to_the_same_records(self, tmp_path):
        """Items not written one space apart cannot be read in one conversion
        of the column; they are read row by row, to the same records."""
        mixed = self._mixed()
        path = tmp_path / "bench.tsv"
        save_benchmark(path, mixed, {"seed": "21"})
        lines = path.read_text().splitlines()
        # line index: (column, what separates its items), each with a leading and a trailing space
        for index, (column, sep) in {1: (3, "  "), 4: (4, " \x1f"), 7: (3, " +")}.items():
            fields = lines[index].split("\t")
            fields[column] = " " + fields[column].replace(" ", sep) + " "
            lines[index] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        loaded, _ = load_benchmark(path)
        for orig, back in zip(mixed, loaded):
            np.testing.assert_array_equal(orig.items, back.items)
            np.testing.assert_array_equal(orig.holdout, back.holdout)

    @pytest.mark.parametrize(
        "token, detail",
        [
            ("-3", "items has item -3"),
            ("3.0", "invalid literal for int() with base 10: '3.0'"),
            ("1-2", "invalid literal for int() with base 10: '1-2'"),
            ("99999999999999999999", "too large"),
        ],
    )
    def test_malformed_item_names_its_line(self, tmp_path, token, detail):
        """A row the one-conversion read refuses is parsed alone, so the
        error names its line; a value past int64 included."""
        path = tmp_path / "bench.tsv"
        save_benchmark(path, self._mixed(), {"seed": "21"})
        lines = path.read_text().splitlines()
        fields = lines[3].split("\t")
        fields[3] += " " + token
        lines[3] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf":4: malformed benchmark row \(.*{re.escape(detail)}"):
            load_benchmark(path)


class TestMixedSequenceType:
    def test_rejects_short_holdout(self):
        with pytest.raises(ValueError):
            MixedSequence(
                user_id="u",
                items=np.arange(5),
                truth_change=2,
                source_ids=(0, 1),
                holdout=np.arange(3),
            )

    def test_rejects_zero_change(self):
        with pytest.raises(ValueError):
            MixedSequence(
                user_id="u",
                items=np.arange(12),
                truth_change=0,
                source_ids=(0, 1),
                holdout=np.arange(10),
            )

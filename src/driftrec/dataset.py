"""Playlist corpus ingestion and the mixed-playlist benchmark.

A corpus is read either from a one-playlist-per-line text file or from a
directory of JSON slice files in the public million-playlist layout.
Benchmark sequences splice a random-length prefix of one playlist onto a
random-length prefix of another, so the splice index is a known ground
truth change point, and the final ten items of the second window are held
out as ranking test data.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hmm import InteractionSequence, _check_count, _index_array, _joined

HOLDOUT_SIZE = 10


@dataclass
class PlaylistCorpus:
    """Sampled playlists as contiguous item indices; item_keys[i] is item i's key.

    The keys are distinct strings, and every playlist is an index array in
    [0, len(item_keys)).
    """

    playlists: list[np.ndarray]
    item_keys: list[str]

    def __post_init__(self):
        keys = self.item_keys
        if not all(isinstance(key, str) for key in keys) or len(set(keys)) != len(keys):
            raise ValueError("item_keys must be distinct strings")
        _index_array(*_joined(self.playlists, lambda r: f"playlist {r}"), len(self.item_keys))


@dataclass(kw_only=True)
class MixedSequence(InteractionSequence):
    """One synthesized two-taste sequence with known change point.

    truth_change is the length of the first playlist's window: the index
    of the first item that came from the second playlist, so it is required.
    source_ids are the two playlists' corpus positions, and holdout keeps
    the last ten items of the second window, in order, removed from items.
    """

    source_ids: tuple[int, int]
    holdout: np.ndarray

    def __post_init__(self):
        if self.truth_change is None:
            raise ValueError(f"truth_change: required for benchmark user {self.user_id}")
        super().__post_init__()
        self.holdout = _index_array(self.holdout, "holdout")
        if len(self.holdout) != HOLDOUT_SIZE:
            raise ValueError(f"holdout must hold exactly {HOLDOUT_SIZE} items")


def _read_line_format(path: Path) -> list[list[str]]:
    playlists = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            keys = line.split()
            if keys:
                playlists.append(keys)
    return playlists


def _read_slice_directory(path: Path) -> list[list[str]]:
    files = sorted(path.glob("*.json"))
    if not files:
        raise ValueError(f"{path}: no .json slice files found")
    playlists = []
    for file in files:
        try:
            payload = json.loads(file.read_text(encoding="utf-8"))
            for playlist in payload["playlists"]:
                keys = [track["album_uri"] for track in playlist["tracks"]]
                if keys:
                    playlists.append(keys)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"{file}: malformed playlist slice: {exc}") from exc
    return playlists


def load_corpus(
    path: str | Path, min_len: int = 1, sample_size: int | None = None, seed: int = 0
) -> PlaylistCorpus:
    """Read, filter, and sample playlists, then index their items.

    Playlists shorter than min_len are dropped before sampling.  Sampling
    is uniform without replacement and keeps file order; the vocabulary is
    built from the sampled playlists only, in first-appearance order.
    Asking for more playlists than exist keeps them all with a warning.
    """
    path = Path(path)
    _check_count("min_len", min_len)
    _check_count("seed", seed, 0)
    if sample_size is not None:
        _check_count("sample_size", sample_size)
    raw = _read_slice_directory(path) if path.is_dir() else _read_line_format(path)
    kept = [keys for keys in raw if len(keys) >= min_len]
    if not kept:
        raise ValueError(f"{path}: no playlist of length >= {min_len}")
    if sample_size is None or sample_size > len(kept):
        if sample_size is not None:
            warnings.warn(
                f"requested {sample_size} playlists but only {len(kept)} qualify; keeping all"
            )
        chosen = range(len(kept))
    else:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(kept), size=sample_size, replace=False))
    sample = [kept[i] for i in chosen]

    vocab: dict[str, int] = {}
    playlists = [np.array([vocab.setdefault(key, len(vocab)) for key in pl], dtype=np.int64) for pl in sample]
    # a dict keeps insertion order, so its keys are the items in index order
    return PlaylistCorpus(playlists=playlists, item_keys=list(vocab))


def synthesize_mixed(
    corpus: PlaylistCorpus,
    count: int,
    seed: int = 0,
    min_window: int = 10,
    pool_split: int | None = None,
) -> list[MixedSequence]:
    """Splice prefix windows of random playlist pairs into drift sequences.

    For each output: two distinct playlists are drawn uniformly; window
    sizes are w1 uniform on [min_window, |p1|] and w2 uniform on
    [min_window + 10, |p2|]; the observed sequence is the first w1 items
    of p1 followed by the first w2 - 10 items of p2, the change point is
    w1, and the last 10 items of the p2 window are held out.

    With pool_split set, the first playlist comes from corpus positions
    [0, pool_split) and the second from [pool_split, end), so a corpus
    laid out as two blocks yields only cross-block pairs.
    """
    _check_count("count", count)
    _check_count("min_window", min_window)
    _check_count("seed", seed, 0)
    lengths = np.array([len(pl) for pl in corpus.playlists])
    first_ok = np.flatnonzero(lengths >= min_window)
    second_ok = np.flatnonzero(lengths >= min_window + HOLDOUT_SIZE)
    if pool_split is not None:
        if not _check_count("pool_split", pool_split) < len(corpus.playlists):
            raise ValueError("pool_split must split the corpus into two nonempty blocks")
        first_ok = first_ok[first_ok < pool_split]
        second_ok = second_ok[second_ok >= pool_split]
    if len(first_ok) < 1 or len(second_ok) < 1 or (len(first_ok) == 1 and len(second_ok) == 1 and first_ok[0] == second_ok[0]):
        raise ValueError(
            f"need one playlist of length >= {min_window} and a distinct one of "
            f"length >= {min_window + HOLDOUT_SIZE}"
        )
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        while True:
            p1 = int(first_ok[rng.integers(len(first_ok))])
            p2 = int(second_ok[rng.integers(len(second_ok))])
            if p1 != p2:
                break
        w1 = int(rng.integers(min_window, lengths[p1] + 1))
        w2 = int(rng.integers(min_window + HOLDOUT_SIZE, lengths[p2] + 1))
        window2 = corpus.playlists[p2][:w2]
        out.append(
            MixedSequence(
                user_id=f"u{i:05d}",
                items=np.concatenate([corpus.playlists[p1][:w1], window2[:-HOLDOUT_SIZE]]),
                truth_change=w1,
                source_ids=(p1, p2),
                holdout=window2[-HOLDOUT_SIZE:].copy(),
            )
        )
    return out


def to_interaction_sequences(
    mixed: list[MixedSequence],
) -> tuple[list[MixedSequence], dict[str, np.ndarray]]:
    """The records themselves, which are sequences, and each user's holdout."""
    return list(mixed), {mx.user_id: mx.holdout for mx in mixed}


def save_benchmark(path: str | Path, mixed: list[MixedSequence], meta: dict) -> None:
    """Write the benchmark as columnar text with a metadata header.

    The header carries the provenance key=value pairs (seed, parameters,
    config hash); records are one sequence per line.  Integer items make
    the round trip bit-exact.
    """
    lines = [
        "# driftrec-benchmark-v1 "
        + " ".join(f"{key}={meta[key]}" for key in sorted(meta))
    ]
    for mx in mixed:
        lines.append(
            "\t".join(
                [
                    mx.user_id,
                    str(mx.truth_change),
                    f"{mx.source_ids[0]},{mx.source_ids[1]}",
                    " ".join(str(int(i)) for i in mx.items),
                    " ".join(str(int(i)) for i in mx.holdout),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _malformed(path, what: str, line: int, detail) -> ValueError:
    """The error for a bad row, naming the table by its file name."""
    return ValueError(f"{Path(path).name}:{line}: malformed {what} row ({detail})")


def _read_table(path, what: str, width: int) -> tuple[list[list[str]], list[int]]:
    """The columns of a table's tab-separated data rows, from one split of
    its text, and each row's line number.  Blank and '#' lines are skipped;
    a row without exactly width fields is refused, naming the file and line."""
    lines = Path(path).read_text().splitlines()
    numbers = [n for n, line in enumerate(lines, start=1) if line.strip() and not line.startswith("#")]
    rows = [lines[n - 1] for n in numbers]
    fields = [row.count("\t") + 1 for row in rows]
    if fields.count(width) != len(rows):
        r = next(r for r, count in enumerate(fields) if count != width)
        raise _malformed(path, what, numbers[r], f"expected {width} tab-separated fields, got {fields[r]}")
    cells = "\t".join(rows).split("\t") if rows else []
    return [cells[j::width] for j in range(width)], numbers


def _int_lists(cells) -> list[np.ndarray] | None:
    """Each cell's space-separated integers, from one conversion of the
    whole column, or None unless every cell is a list of plain decimal
    numbers, one space apart, that fit int64."""
    text = " ".join(cells).encode()
    # digits and spaces only: fromstring would read a sign or another
    # separator where the row-by-row parse refuses it
    if not text or text.translate(None, b"0123456789 "):
        return None
    ends = np.cumsum([cell.count(" ") + 1 for cell in cells]).tolist()
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    # fromstring skips an empty entry and saturates a value past int64
    if len(values) != ends[-1] or values.max() == np.iinfo(np.int64).max:
        return None
    # a copy per cell, as a row-by-row parse makes: views would keep the
    # whole column alive, which raised the benchmark's peak RSS by about 1 MB
    return [values[a:b].copy() for a, b in zip([0, *ends], ends)]


def load_benchmark(path: str | Path) -> tuple[list[MixedSequence], dict]:
    """The benchmark's records and its header's key=value pairs.  The items
    and the holdout column are each converted in one call; a column that is
    not all plain digit lists is parsed row by row, so an error names the
    line of the first bad row.  Each column is then checked in one call
    against the header's num_items, when it has one: an item past the
    vocabulary is refused, naming the file, the line and the user.  A user
    id listed twice is refused, naming both lines."""
    with open(path) as fh:
        header = fh.readline()
    if not header.startswith("# driftrec-benchmark-v1"):
        raise ValueError(f"{path}: not a driftrec benchmark file")
    meta = dict(token.partition("=")[::2] for token in header.split()[2:])
    columns, lines = _read_table(path, "benchmark", 5)
    items, holdouts = _int_lists(columns[3]), _int_lists(columns[4])
    mixed = []
    for r, (line, user_id, truth, sources, observed, holdout) in enumerate(zip(lines, *columns)):
        try:
            s1, _, s2 = sources.partition(",")
            mixed.append(
                MixedSequence(
                    user_id=user_id,
                    items=np.array(observed.split(), dtype=np.int64) if items is None else items[r],
                    truth_change=int(truth),
                    source_ids=(int(s1), int(s2)),
                    holdout=np.array(holdout.split(), dtype=np.int64) if holdouts is None else holdouts[r],
                )
            )
        except (ValueError, TypeError, OverflowError) as exc:
            raise _malformed(path, "benchmark", line, exc) from exc
    if "num_items" in meta:
        name = Path(path).name
        try:
            m = _check_count("num_items", int(meta["num_items"]), minimum=0)
        except ValueError as exc:
            raise ValueError(f"{name}:1: malformed benchmark header ({exc})") from exc
        for part in ("items", "holdout"):
            column = [getattr(mx, part) for mx in mixed]
            where = _joined(column, lambda r: f"{name}:{lines[r]}: {part} of user {columns[0][r]!r}")
            _index_array(*where, m)
    first: dict[str, int] = {}
    for line, user_id in zip(lines, columns[0]):
        if first.setdefault(user_id, line) != line:
            raise ValueError(f"{Path(path).name}:{line}: user {user_id!r} is listed again (first on line {first[user_id]})")
    return mixed, meta

"""Names looked up as strings.  The benchmark tracer in perfbench/spans.py
wraps driftrec functions by name, so a deleted or renamed one would break
`perfbench/run.py --trace 1`; the benchmark's serving path in
perfbench/run.py calls module attributes that no import checks until it
runs; a stale entry in `driftrec.__all__` would break `from driftrec import *`."""

import ast
import importlib
import importlib.util
from pathlib import Path

import yaml

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"
SAME_OUTPUTS = PERFBENCH.parent / "tools" / "same_outputs.py"
FIXTURE = PERFBENCH.parent / "tests" / "fixtures" / "playlists_200.txt"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_its_module():
    traced = load_module("perfbench_spans", SPANS).TRACED
    missing = [
        f"driftrec.{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"driftrec.{layer}"), name, None))
    ]
    assert missing == []


def test_every_module_attribute_the_benchmark_reads_exists():
    tree = ast.parse(RUN.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "driftrec"
        for alias in node.names
    }
    assert {"hmm", "changepoint", "factorization", "recommend", "dataset"} <= modules
    reads = sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    )
    assert ("recommend", "item_popularity") in reads
    missing = [
        f"driftrec.{module}.{name}"
        for module, name in reads
        if not callable(getattr(importlib.import_module(f"driftrec.{module}"), name, None))
    ]
    assert missing == []


def test_every_exported_name_resolves_on_the_package():
    package = importlib.import_module("driftrec")
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_first_difference_names_each_side_and_compares_shared_files(tmp_path):
    first_difference = load_module("same_outputs", SAME_OUTPUTS).first_difference
    rev, tree = tmp_path / "rev", tmp_path / "tree"
    for side, names in ((rev, ["a.tsv", "b.tsv", "gone.txt"]), (tree, ["a.tsv", "b.tsv", "new.tsv"])):
        side.mkdir()
        for name in names:
            (side / name).write_text(name)
    assert first_difference(rev, rev) is None
    assert first_difference(rev, tree) == "only at REV: gone.txt; only in the tree: new.tsv; the 2 shared files are identical"
    (tree / "b.tsv").write_text("changed")
    assert first_difference(rev, tree) == "only at REV: gone.txt; only in the tree: new.tsv; bytes differ: b.tsv"
    (tree / "new.tsv").unlink()
    (tree / "gone.txt").write_text("gone.txt")
    assert first_difference(rev, tree) == "bytes differ: b.tsv"


def test_api_change_lists_the_names_all_loses_and_gains(tmp_path):
    same_outputs = load_module("same_outputs", SAME_OUTPUTS)
    rev, tree = tmp_path / "rev.py", tmp_path / "tree.py"
    rev.write_text('import os\n__all__ = [\n    "A",\n    "Gone",\n    "B",\n]\n')
    tree.write_text('__version__ = "1"\n__all__ = ["A", "B", "New"]\n')
    assert same_outputs.exported(rev) == {"A", "B", "Gone"}
    assert same_outputs.api_change(same_outputs.exported(rev), same_outputs.exported(tree)) == (
        "driftrec.__all__: loses Gone; gains New"
    )
    assert same_outputs.api_change({"A"}, {"A"}) == "driftrec.__all__: loses nothing; gains nothing"
    assert same_outputs.api_change({"A", "B"}, {"A"}) == "driftrec.__all__: loses B; gains nothing"
    package = same_outputs.exported(SAME_OUTPUTS.parent.parent / "src" / "driftrec" / "__init__.py")
    assert package == set(importlib.import_module("driftrec").__all__)


def test_rerun_into_the_same_work_dir_replaces_each_out_dir(tmp_path):
    """A second run with the same --work DIR compares only the new files."""
    run_jobs = load_module("same_outputs", SAME_OUTPUTS).run_jobs
    config = tmp_path / "jobs" / "tiny" / "tiny.yaml"
    config.parent.mkdir(parents=True)
    settings = dict(
        corpus=str(FIXTURE), out_dir=str(config.parent / "out"), mixed_count=8, min_window=25, pool_split=100,
        hidden_state_counts=[2], d=4, n_grid=[1, 5], hmm_max_iters=2, nmf_max_iters=2, bpr_epochs=1,
    )
    config.write_text(yaml.safe_dump(settings))
    results = tmp_path / "tree"
    results.mkdir()
    run_jobs(PERFBENCH.parent, {"tiny": config}, results)
    first = sorted(p.relative_to(results) for p in results.rglob("*"))
    (results / "tiny" / "stale.tsv").write_text("left by an earlier run")
    run_jobs(PERFBENCH.parent, {"tiny": config}, results)
    assert sorted(p.relative_to(results) for p in results.rglob("*")) == first
    assert not (results / "tiny" / "out").exists()


def test_same_outputs_runs_both_bench_jobs_at_each_seed_and_the_unscaled_job_once():
    job_list = load_module("same_outputs", SAME_OUTPUTS).job_list
    assert job_list("1") == [("acceptance", "bench", 1), ("wide", "bench", 1), ("acceptance", "full", 39)]
    assert job_list("1,2,3") == [
        ("acceptance", "bench", 1),
        ("wide", "bench", 1),
        ("acceptance", "bench", 2),
        ("wide", "bench", 2),
        ("acceptance", "bench", 3),
        ("wide", "bench", 3),
        ("acceptance", "full", 39),
    ]

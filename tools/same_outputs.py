"""Check that the working tree writes the same out_dir bytes as a revision.

    python tools/same_outputs.py REV [--seeds 1,2,3] [--work DIR]

Runs `driftrec run-all` on the benchmark's acceptance and wide jobs at
each of --seeds (default 1; configs written by perfbench/inputs.py) and on
the unscaled acceptance config at seed 39.  Each job runs once with REV's
sources and once with the working tree's, both from the same checkout path and into
the same out_dir, because the corpus path enters the config hash and
config_resolved.yaml records out_dir.  Every out_dir file is then compared
byte for byte.  For each job that differs, prints the files found only at
REV, those found only in the working tree, and the first shared file whose
bytes differ; exits 1 on any difference, else 0.  Also prints the line
count of src/driftrec at REV and in the working tree, counted as the
benchmark's driftrec_loc counts it, and the names driftrec.__all__ loses
and gains from REV to the working tree.  With --seeds 1,2,3,4,5, eleven
jobs, both sides took about 55 s on 2 cores.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def job_list(seeds: str) -> list[tuple[str, str, int]]:
    """(workload, scale, seed) of each job: both bench workloads at each of
    the comma-separated seeds, then the unscaled acceptance config at seed 39."""
    bench = [(workload, "bench", int(seed)) for seed in seeds.split(",") for workload in ("acceptance", "wide")]
    return bench + [("acceptance", "full", 39)]


def load_perfbench():
    """perfbench's inputs module, which writes the job configs, and its run
    module, whose count_loc gives driftrec_loc."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import inputs
    import run

    return inputs, run


def populate(checkout: Path, rev: str | None) -> None:
    """Fill checkout with REV's tracked files, or with the working tree's
    tracked and untracked, not ignored, files when rev is None."""
    shutil.rmtree(checkout, ignore_errors=True)
    checkout.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive, check=True)
        return
    listed = subprocess.run(
        ["git", "-C", str(REPO), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = REPO / name
        if source.is_file():
            (checkout / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, checkout / name)


def exported(init: Path) -> set[str]:
    """The names in the one __all__ list of the package file init, read with
    ast so the package is not imported."""
    (names,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    return set(names)


def api_change(rev_names: set[str], tree_names: set[str]) -> str:
    """What driftrec.__all__ loses and gains from REV to the tree."""
    lost, gained = (", ".join(sorted(names)) or "nothing" for names in (rev_names - tree_names, tree_names - rev_names))
    return f"driftrec.__all__: loses {lost}; gains {gained}"


def run_jobs(checkout: Path, configs: dict, results: Path) -> None:
    """run-all each job's config with checkout's sources, then move its
    out_dir to results/<job>, replacing what an earlier run left there."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for job, config in configs.items():
        print(f"  run-all {job}", flush=True)
        subprocess.run(
            [sys.executable, "-m", "driftrec.cli", "run-all", "--config", str(config)],
            cwd=checkout, env=env, check=True,
        )
        shutil.rmtree(results / job, ignore_errors=True)
        shutil.move(str(config.parent / "out"), str(results / job))


def first_difference(a: Path, b: Path) -> str | None:
    """None when out_dir a (REV's) and b (the tree's) hold the same files with
    the same bytes.  Else the files found only at REV, those found only in
    the tree, and the first shared file whose bytes differ, or how many
    shared files are identical."""
    files_a, files_b = ({str(p.relative_to(d)) for p in d.rglob("*") if p.is_file()} for d in (a, b))
    shared = sorted(files_a & files_b)
    differing = next((rel for rel in shared if (a / rel).read_bytes() != (b / rel).read_bytes()), None)
    if files_a == files_b and differing is None:
        return None
    found = [
        f"only {side}: {', '.join(sorted(names))}"
        for side, names in (("at REV", files_a - files_b), ("in the tree", files_b - files_a))
        if names
    ]
    found.append(f"bytes differ: {differing}" if differing else f"the {len(shared)} shared files are identical")
    return "; ".join(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds of the bench jobs (default: 1)")
    parser.add_argument("--work", help="scratch directory (default: a new temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    jobs = job_list(args.seeds)
    work = Path(args.work or tempfile.mkdtemp(prefix="same_outputs-")).resolve()
    checkout = work / "checkout"
    inputs, run = load_perfbench()
    try:
        results, loc, names = {}, {}, {}
        for side, rev in (("rev", args.rev), ("tree", None)):
            print(f"{side}: {rev or 'working tree'}", flush=True)
            populate(checkout, rev)
            loc[side] = run.count_loc(checkout / "src" / "driftrec")
            names[side] = exported(checkout / "src" / "driftrec" / "__init__.py")
            configs = {}
            cwd = Path.cwd()
            os.chdir(checkout)  # inputs.FIXTURE is relative to the checkout root
            try:
                for workload, scale, seed in jobs:
                    job = f"{workload}-{scale}-s{seed}"
                    configs[job] = inputs.write_experiment(
                        workload, inputs.SCALES[workload][scale], seed, work / "jobs" / job
                    )
            finally:
                os.chdir(cwd)
            results[side] = work / side
            results[side].mkdir(parents=True, exist_ok=True)
            run_jobs(checkout, configs, results[side])
        print(f"src/driftrec: {loc['rev']} lines at {args.rev}, {loc['tree']} in the working tree")
        print(api_change(names["rev"], names["tree"]))
        status = 0
        for workload, scale, seed in jobs:
            job = f"{workload}-{scale}-s{seed}"
            diff = first_difference(results["rev"] / job, results["tree"] / job)
            if diff is not None:
                print(f"DIFFERENT {job}: {diff}")
                status = 1
            else:
                count = sum(1 for p in (results["tree"] / job).rglob("*") if p.is_file())
                print(f"identical {job}: {count} files")
        return status
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

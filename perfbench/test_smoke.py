"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in spec}
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


def test_out_dir_holds_no_wall_clock_data(tmp_path, monkeypatch):
    """A job's artifacts are byte-identical untraced and traced, so neither
    the benchmark nor its spans write timings into the experiment's out_dir."""
    monkeypatch.chdir(ROOT)
    import inputs
    import run
    import spans

    run.import_driftrec()
    config = inputs.write_experiment("acceptance", inputs.SCALES["acceptance"]["tiny"], 5, tmp_path)
    out = tmp_path / "out"

    def snapshot():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    tally = run.Tally()
    run.run_stages(config, spans.STAGES, tally)
    untraced = snapshot()
    with spans.Tracer():
        run.run_stages(config, [*spans.STAGES, "evaluate"], tally)
    assert tally.failed == 0
    assert snapshot() == untraced

"""Names looked up as strings.  The benchmark tracer in perfbench/spans.py
wraps driftrec functions by name, so a deleted or renamed one would break
`perfbench/run.py --trace 1`; a stale entry in `driftrec.__all__` would
break `from driftrec import *`."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_its_module():
    traced = load_spans().TRACED
    missing = [
        f"driftrec.{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"driftrec.{layer}"), name, None))
    ]
    assert missing == []



def test_every_exported_name_resolves_on_the_package():
    package = importlib.import_module("driftrec")
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)

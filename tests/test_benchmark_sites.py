"""The benchmark's traced runs wrap package names from outside
(perfbench/spans.py, PATCHES).  A name it wraps must stay where it looks
for it, or the traced benchmark fails; this checks that from tier 1."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_patch_sites_exist():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in spans.PATCHES if attr not in vars(owner)]
    assert spans.PATCHES and not missing, missing

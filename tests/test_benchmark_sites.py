"""The benchmark (perfbench/) drives the package from outside.  Its traced
runs wrap package names (perfbench/spans.py, PATCHES), and its workloads
(perfbench/workloads.py) call the package and read the attributes of
what it returns.  A name either uses must stay where it looks for it, or
the benchmark fails; this checks both from tier 1."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module registered in sys.modules, which its
    dataclasses need while the module executes."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_sites_exist():
    spans = _load("spans")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in spans.PATCHES if attr not in vars(owner)]
    assert spans.PATCHES and not missing, missing


def test_benchmark_smoke_ops_pass(tmp_path):
    """One untraced smoke-size operation of every workload, correctness
    checks included, fails nothing."""
    workloads = _load("workloads")
    errors = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        op = workloads.make_workload(name, 1, str(workdir),
                                     smoke=True).run_op(0)
        if op.failed or not op.attempted:
            errors[name] = op.errors
    assert not errors, errors


def test_benchmark_traced_smoke_ops_pass(tmp_path):
    """One traced smoke-size operation of every workload fails nothing,
    so the tracer's hooks still read what the package passes them, and
    its per-layer metrics count the Riemann solves and profile builds
    that its spans wrapped."""
    spans, workloads = _load("spans"), _load("workloads")
    errors = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        work = workloads.make_workload(name, 1, str(workdir), smoke=True)
        tracer = spans.Tracer()
        op = work.run_op(0, tracer=tracer)
        if op.failed or not op.attempted:
            errors[name] = op.errors
            continue
        metrics = spans.layer_metrics(tracer, op.wall_s, work.parse_s)
        assert metrics["riemann.calls"][0] > 0, name
        assert metrics["profile.calls"][0] > 0, name
    assert not errors, errors

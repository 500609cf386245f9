"""The benchmark's own tests, at smoke sizes: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shockwave_lab import solver  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_meets_output_contract(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in last["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    values = {name: m["value"] for name, m in last["metrics"].items()}
    if trace:
        assert values["trace.coverage"] >= 95.0
        assert values["solver.steps"] == (values["solver.steps_viscous"]
                                          + values["solver.steps_hyperbolic"]
                                          + values["solver.steps_clipped"])
        assert (values["solver.steps"] == 0) == (workload == "datum-sweep")
    else:
        assert all(v > 0 for v in values.values())


def test_command_line_lists_every_workload():
    assert run.WORKLOADS == workloads.WORKLOADS


def test_inputs_follow_the_seed():
    assert (workloads.experiment_config_text(5, 1.0, 0.1)
            == workloads.experiment_config_text(5, 1.0, 0.1))
    assert (workloads.experiment_config_text(5, 1.0, 0.1)
            != workloads.experiment_config_text(6, 1.0, 0.1))
    batch = workloads.sweep_cases(5, 0, 7)
    assert batch == workloads.sweep_cases(5, 0, 7)
    assert batch != workloads.sweep_cases(6, 0, 7)
    assert min(c.chi1 / c.v_m for c in batch) == pytest.approx(1e-3)
    assert min(c.chi2 / c.v_m for c in batch) == pytest.approx(1e-3)


def test_stepper_check_fails_a_state_that_does_not_evolve(tmp_path, monkeypatch):
    work = workloads.make_workload("stability", 1, str(tmp_path), smoke=True)
    good = work.run_op(0)
    assert good.failed == 0, good.errors
    assert good.checks["stepper.reference_error"] < 1e-4

    def frozen(gas, state, dt, grid):
        return solver.FieldState(state.t + dt, state.v, state.u)

    monkeypatch.setattr(solver, "rk4_step", frozen)
    bad = work.run_op(1)
    assert bad.failed == 1
    assert bad.checks["stepper.reference_error"] > 1.0
    assert any("ODE reference" in e for e in bad.errors)


def test_failed_ops_are_left_out_of_wall_time():
    ok = workloads.OpResult(2.0, 1, 0)
    ops = [(ok, None, 0.5), (workloads.OpResult(None, 1, 1), None, 0.7),
           (workloads.OpResult(0.1, 1, 1), None, 0.9), (ok, None, 0.6)]
    assert run.clean_samples(ops) == ([2.0, 2.0], [0.5, 0.6])


def test_self_time_is_duration_minus_child_cover():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    tr.enter("a.outer")
    tr.enter("b.inner")
    tr.exit()
    tr.exit()
    assert tr.total("a.outer") == 9.0
    assert tr.self_time("a.outer") == 8.0
    assert tr.self_time("b.inner") == 1.0
    assert tr.calls("b.inner", parent="a.outer") == 1
    (inner, outer) = tr.spans
    assert inner[4] == outer[0] and outer[4] is None


def test_tracer_restores_every_call_site():
    originals = [vars(owner)[attr] for owner, attr, _ in spans.PATCHES]
    with spans.Tracer().installed():
        assert solver.rk4_step is not originals[
            [a for _, a, _ in spans.PATCHES].index("rk4_step")]
    assert [vars(owner)[attr] for owner, attr, _ in spans.PATCHES] == originals


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(9) is None
    assert spans.tail_percentile(40) == 75
    assert spans.tail_percentile(201) == 95
    assert spans.tail_percentile(1000) == 99


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "stability", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

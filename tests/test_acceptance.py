"""Acceptance gate: every criterion at its stated tolerance.

One machine-readable line is printed per criterion:
    <name>,<measured>,<threshold>,<PASS|FAIL>
Criteria 6-8 share a single stability run (module-scoped fixture).
"""

import dataclasses
import math

import pytest

from shockwave_lab import run_simulation, verify
from shockwave_lab.config import TimeSpec


def _check(results):
    for r in results:
        print(verify.format_result(r))
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed criteria: {failed}"


def test_criterion_1_riemann_exactness():
    _check(verify.suite_riemann())


def test_criterion_2_profile_fidelity():
    _check(verify.suite_profile())


def test_criterion_3_shift_correctness():
    _check(verify.suite_shifts())


def test_criterion_4_w_decay():
    _check(verify.suite_wdecay())


def test_criterion_5_scheme_convergence():
    _check(verify.suite_convergence())


@pytest.fixture(scope="module")
def stability_results():
    return verify.suite_stability()


def test_criterion_6_composite_stability(stability_results):
    _check([r for r in stability_results if r.name.startswith("stability.")])


def test_criterion_7_energy_structure(stability_results):
    _check([r for r in stability_results if r.name.startswith("energy.")])


def test_criterion_8_effective_velocity_consistency(stability_results):
    _check([r for r in stability_results if r.name.startswith("psi.")])


def test_stability_v_min_verdict_uses_its_own_bound():
    """A v_max excursion fails stability.v_max only, not stability.v_min."""
    cfg = dataclasses.replace(
        verify.stability_config(),
        time=TimeSpec(t_final=0.05, record_dt=0.025, snapshot_times=(0.05,)))
    result = run_simulation(cfg)
    hi_bound = 1.5 * max(result.two_shock.left.v, result.two_shock.right.v)
    result.series.records[-1].v_max = hi_bound + 1.0
    verdicts = {r.name: r.passed for r in verify.suite_stability(result)}
    assert verdicts["stability.v_min"] is True
    assert verdicts["stability.v_max"] is False


def test_psi_order_without_a_later_snapshot_is_a_failed_nan():
    """No snapshot after t = 0 leaves psi.consistency_order nothing to
    measure: it fails with nan at its own threshold, and every other
    criterion is still reported."""
    cfg = dataclasses.replace(
        verify.stability_config(),
        time=TimeSpec(t_final=0.5, record_dt=0.25, snapshot_times=(0.0,)))
    results = {r.name: r for r in verify.suite_stability(run_simulation(cfg))}
    psi = results["psi.consistency_order"]
    assert math.isnan(psi.measured)
    assert psi.threshold == ">=1.7"
    assert psi.passed is False
    assert list(results) == [
        "stability.sup_v_ratio", "stability.sup_u_ratio", "stability.v_min",
        "stability.v_max", "energy.bound_ratio", "energy.min_f",
        "energy.pointwise_violation", "psi.consistency_order",
        "stability.runtime_s"]
    assert results["energy.min_f"].passed
    assert results["energy.pointwise_violation"].passed

"""Acceptance gate: every criterion at its stated tolerance.

One machine-readable line is printed per criterion:
    <name>,<measured>,<threshold>,<PASS|FAIL>
Each suite runs through verify.run_suite, so its runtime line is gated
too.  Criteria 6-8 share a single stability run (module-scoped fixture).
Each test pins the names and threshold texts of its lines in order, so
a loosened bound fails here.

The lines that do not time the machine, the stability run's diag.csv and
snapshots and the CSVs of the other commands on the stability config
must also equal, byte for byte, the committed fixture of
refactor_fixture.py, so a change that moves any bit of them fails here.
"""

import dataclasses
import math

import pytest

import refactor_fixture
from shockwave_lab import run_simulation, verify
from shockwave_lab.config import TimeSpec

FIXTURE_LINES, FIXTURE_DIAG, FIXTURE_MANIFEST = refactor_fixture.load()


def _check(results, lines):
    for r in results:
        print(verify.format_result(r))
    assert [(r.name, r.threshold) for r in results] == lines
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed criteria: {failed}"
    moved = [f"{line} != fixture {FIXTURE_LINES[line.split(',', 1)[0]]}"
             for line in refactor_fixture.verify_lines(results)
             if line != FIXTURE_LINES[line.split(",", 1)[0]]]
    assert not moved, f"verify lines differ from the fixture: {moved}"


def _suite(name):
    return verify.run_suite(name)[0]


def test_criterion_1_riemann_exactness():
    _check(_suite("riemann"), [
        ("riemann.rh_residual", "<=1e-12*scale"),
        ("riemann.vm_roundtrip", "<=1e-10"),
        ("riemann.entropy_margin", ">0"),
        ("riemann.runtime_s", "<5")])


def test_criterion_2_profile_fidelity():
    _check(_suite("profile"), [
        ("profile.residual_order", "2.0+-0.3"),
        ("profile.c_plus_fit_relerr", "<=0.02"),
        ("profile.c_minus_fit_relerr", "<=0.02"),
        ("profile.runtime_s", "<10")])


def test_criterion_3_shift_correctness():
    _check(_suite("shifts"), [
        ("shifts.zero_mass_residual", "<=1e-8*scale"),
        ("shifts.runtime_s", "<30")])


def test_criterion_4_w_decay():
    _check(_suite("wdecay"), [
        ("wdecay.rate", ">=1.125"),
        ("wdecay.beta_gain", ">=11.0854"),
        ("wdecay.runtime_s", "<60")])


def test_criterion_5_scheme_convergence():
    _check(_suite("convergence"), [
        ("convergence.order", "2.0+-0.3"),
        ("convergence.speed_relerr", "<=0.01"),
        ("convergence.runtime_s", "<120")])


@pytest.fixture(scope="module")
def stability_run():
    """The stability suite's lines and the T = 50 run they measure."""
    runs = []

    def kept(cfg):
        runs.append(run_simulation(cfg))
        return runs[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "run_simulation", kept)
        results = _suite("stability")
    return results, runs[0]


@pytest.fixture(scope="module")
def stability_results(stability_run):
    return stability_run[0]


def test_criterion_6_composite_stability(stability_results):
    _check([r for r in stability_results if r.name.startswith("stability.")], [
        ("stability.sup_v_ratio", "<=0.2"),
        ("stability.sup_u_ratio", "<=0.2"),
        ("stability.v_min", ">=0.5"),
        ("stability.v_max", "<=3"),
        ("stability.runtime_s", "<600")])


def test_criterion_7_energy_structure(stability_results):
    _check([r for r in stability_results if r.name.startswith("energy.")], [
        ("energy.bound_ratio", "<=3"),
        ("energy.min_f", ">0"),
        ("energy.pointwise_violation", "<=1e-12")])


def test_criterion_8_effective_velocity_consistency(stability_results):
    _check([r for r in stability_results if r.name.startswith("psi.")], [
        ("psi.consistency_order", ">=1.7")])


def test_fixture_environment_is_this_one():
    """The fixture's bytes hold for the numpy, scipy and platform it was
    made on; on others, regenerate it at the parent commit first."""
    made = {k: FIXTURE_MANIFEST[k] for k in ("numpy", "scipy", "platform")}
    assert made == refactor_fixture.environment(), (
        f"fixture made with {made}; regenerate it with "
        f"{refactor_fixture.REGENERATE}")


def test_stability_run_matches_fixture(stability_run, tmp_path):
    """The T = 50 run's diag.csv, byte for byte, and its snapshots."""
    refactor_fixture.write_run(stability_run[1], tmp_path)
    diff = refactor_fixture.first_csv_difference(
        (tmp_path / "diag.csv").read_text(), FIXTURE_DIAG)
    assert diff is None, f"diag.csv differs from the fixture: {diff}"
    names = refactor_fixture.SNAPSHOT_FILES
    got = refactor_fixture.digests(tmp_path, names)
    moved = [n for n in names if got[n] != FIXTURE_MANIFEST["sha256"][n]]
    assert not moved, f"snapshots differ from the fixture: {moved}"


def test_commands_match_fixture(tmp_path):
    """The riemann, profile and shifts CSVs of the stability config."""
    refactor_fixture.write_commands(verify.stability_config(), tmp_path)
    names = refactor_fixture.COMMAND_FILES
    got = refactor_fixture.digests(tmp_path, names)
    moved = [n for n in names if got[n] != FIXTURE_MANIFEST["sha256"][n]]
    assert not moved, f"CSVs differ from the fixture: {moved}"


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
        "energy.pointwise_violation", "psi.consistency_order"]
    assert results["energy.min_f"].passed
    assert results["energy.pointwise_violation"].passed

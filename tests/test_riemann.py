import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockwave_lab import (BracketError, EndState, GasModel,
                           NoTwoShockSolution, char_speeds,
                           entropy_margins, hugoniot_u, in_ss_region,
                           rh_residuals, solve_intermediate)
from shockwave_lab.riemann import VM_XTOL, _bisect_secant

SQ3 = np.sqrt(3.0)


def test_eos_unit_volume(gas):
    eos = (gas.pressure(1.0), gas.dpressure(1.0), gas.d2pressure(1.0))
    assert eos == (1.0, -2.0, 6.0)


def test_eos_hand_value(gas):
    p, p1, p2 = gas.pressure(2.0), gas.dpressure(2.0), gas.d2pressure(2.0)
    assert p == pytest.approx(0.25, rel=1e-15)
    assert p1 == pytest.approx(-0.25, rel=1e-15)
    assert p2 == pytest.approx(0.375, rel=1e-15)


def test_eos_signs_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        gas = GasModel(a=rng.uniform(0.5, 2.0), gamma=rng.uniform(1.1, 3.0))
        v = rng.uniform(0.05, 10.0)
        p, p1, p2 = gas.pressure(v), gas.dpressure(v), gas.d2pressure(v)
        assert p > 0.0 and p1 < 0.0 and p2 > 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_eos_domain_error(gas, bad):
    with pytest.raises(ValueError):
        char_speeds(gas, bad)
    with pytest.raises(ValueError):
        hugoniot_u(gas, EndState(2.0, 0.0), bad)


def test_char_speeds_values(gas):
    l1, l2 = char_speeds(gas, 1.0)
    assert l1 == pytest.approx(-np.sqrt(2.0), rel=1e-12)
    l1, l2 = char_speeds(gas, 2.0)
    assert (l1, l2) == pytest.approx((-0.5, 0.5), rel=1e-12)


def test_char_speeds_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        gas = GasModel(a=rng.uniform(0.5, 2.0), gamma=rng.uniform(1.1, 3.0))
        l1, l2 = char_speeds(gas, rng.uniform(0.1, 5.0))
        assert l1 + l2 == 0.0


def test_hugoniot_zero_strength(gas):
    base = EndState(2.0, 0.3)
    assert hugoniot_u(gas, base, 2.0) == base.u


def test_hugoniot_hand_values(gas):
    assert hugoniot_u(gas, EndState(2.0, 0.0), 1.0) == pytest.approx(
        -SQ3 / 2.0, rel=1e-12)
    u_m = -SQ3 / 2.0
    assert hugoniot_u(gas, EndState(1.0, u_m), 2.0) == pytest.approx(
        -SQ3, rel=1e-12)


def test_hugoniot_below_base(gas):
    base = EndState(1.5, 0.2)
    for v in (0.3, 0.9, 1.5, 2.5, 7.0):
        assert hugoniot_u(gas, base, v) <= base.u


def test_in_ss_canonical(gas):
    left = EndState(2.0, 0.0)
    assert in_ss_region(gas, left, EndState(2.0, -SQ3))


def test_in_ss_boundary_and_above(gas):
    left = EndState(2.0, 0.0)
    assert not in_ss_region(gas, left, left)
    assert not in_ss_region(gas, left, EndState(2.0, 0.5))


def test_solve_intermediate_canonical(gas, two_shock):
    ts = two_shock
    assert ts.mid.v == pytest.approx(1.0, rel=1e-12)
    assert ts.mid.u == pytest.approx(-SQ3 / 2.0, rel=1e-12)
    assert ts.s1 == pytest.approx(-SQ3 / 2.0, rel=1e-12)
    assert ts.s2 == pytest.approx(SQ3 / 2.0, rel=1e-12)
    assert ts.chi1 == pytest.approx(1.0, rel=1e-12)
    assert ts.chi2 == pytest.approx(1.0, rel=1e-12)
    # entropy ordering with the hand values lambda1(2) = -0.5, lambda1(1) = -sqrt(2)
    assert -0.5 > ts.s1 > -np.sqrt(2.0)


def test_solve_intermediate_degenerate(gas):
    left = EndState(2.0, 0.0)
    with pytest.raises(NoTwoShockSolution):
        solve_intermediate(gas, left, left)


def _random_ss_case(rng):
    gas = GasModel(a=rng.uniform(0.5, 2.0), gamma=rng.uniform(1.1, 3.0))
    v_m = rng.uniform(0.4, 2.5)
    chi1 = rng.uniform(0.05, 3.0)
    chi2 = rng.uniform(0.05, 3.0)
    left = EndState(v_m + chi1, rng.uniform(-1.0, 1.0))
    u_m = hugoniot_u(gas, left, v_m)
    mid = EndState(v_m, u_m)
    right = EndState(v_m + chi2, hugoniot_u(gas, mid, v_m + chi2))
    return gas, left, mid, right


def test_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        gas, left, mid, right = _random_ss_case(rng)
        assert in_ss_region(gas, left, right)
        ts = solve_intermediate(gas, left, right)
        assert abs(ts.mid.v - mid.v) <= 1e-10 * mid.v
        assert abs(ts.mid.u - mid.u) <= 1e-10 * max(1.0, abs(mid.u))


def test_rh_exactness_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        gas, left, _, right = _random_ss_case(rng)
        ts = solve_intermediate(gas, left, right)
        scale = max(1.0, abs(left.u), abs(right.u))
        assert max(abs(r) for r in rh_residuals(gas, ts)) <= 1e-12 * scale


def test_lax_entropy_strict_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        gas, left, _, right = _random_ss_case(rng)
        m1, m2 = entropy_margins(gas, solve_intermediate(gas, left, right))
        assert min(m1) > 0.0 and min(m2) > 0.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True),
       alpha=st.floats(0.0, 2.0),
       a=st.floats(0.3, 3.0),
       v_m=st.floats(0.3, 3.0),
       log_chi1=st.floats(math.log(1e-3), math.log(5.0)),
       log_chi2=st.floats(math.log(1e-3), math.log(5.0)))
def test_round_trip_and_exactness_across_ss_region(gamma, alpha, a, v_m,
                                                   log_chi1, log_chi2):
    """A datum built on the shock curves through v_m, with chi_i / v_m
    from 1e-3 to 5, solves back to v_m with RH residuals at rounding
    level and strictly positive entropy margins."""
    gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    left = EndState(v_m * (1.0 + math.exp(log_chi1)), 0.0)
    mid = EndState(v_m, float(hugoniot_u(gas, left, v_m)))
    v_plus = v_m * (1.0 + math.exp(log_chi2))
    right = EndState(v_plus, float(hugoniot_u(gas, mid, v_plus)))
    ts = solve_intermediate(gas, left, right)
    assert abs(ts.mid.v - v_m) <= 1e-10 * v_m
    assert abs(ts.mid.u - mid.u) <= 1e-10 * max(1.0, abs(mid.u))
    scale = max(1.0, abs(left.u), abs(right.u))
    assert max(abs(r) for r in rh_residuals(gas, ts)) <= 1e-12 * scale
    m1, m2 = entropy_margins(gas, ts)
    assert min(*m1, *m2) > 0.0


def _scalar_scan_solution(gas, left, right):
    """(v_m, u_m, s1, s2) of solve_intermediate with its bracket scan written
    out as 64 scalar residual calls, the scan the array evaluation
    replaced, kept as its oracle."""
    vmax = min(left.v, right.v)
    eps = 1e-8 * vmax

    def resid(vm):
        mid = EndState(float(vm), float(hugoniot_u(gas, left, vm)))
        return float(hugoniot_u(gas, mid, right.v)) - right.u

    grid = np.geomspace(eps, vmax - eps, 64)
    vals = [resid(v) for v in grid]
    k = next(i for i in range(63) if vals[i] * vals[i + 1] <= 0.0)
    vm = _bisect_secant(resid, float(grid[k]), float(grid[k + 1]),
                        vals[k], vals[k + 1], xtol=VM_XTOL * max(1.0, vmax))
    pl, pm, pr = gas.pressure(left.v), gas.pressure(vm), gas.pressure(right.v)
    return (vm, float(hugoniot_u(gas, left, vm)),
            -math.sqrt(-(pm - pl) / (vm - left.v)),
            math.sqrt(-(pr - pm) / (right.v - vm)))


def _scan_draws():
    """(gas, left, right) of 200 random SS data, with chi_i / v_m
    log-uniform in [1e-3, 5]."""
    rng = np.random.default_rng(16)
    for _ in range(200):
        gas = GasModel(a=rng.uniform(0.3, 3.0), gamma=rng.uniform(1.001, 3.0))
        v_m = rng.uniform(0.3, 3.0)
        chi1, chi2 = v_m * np.exp(rng.uniform(math.log(1e-3), math.log(5.0), 2))
        left = EndState(v_m + chi1, rng.uniform(-1.0, 1.0))
        mid = EndState(v_m, float(hugoniot_u(gas, left, v_m)))
        right = EndState(v_m + chi2, float(hugoniot_u(gas, mid, v_m + chi2)))
        yield gas, left, right


def test_array_scan_matches_scalar_scan_bitwise():
    """Over 200 random SS data, with chi_i / v_m log-uniform in
    [1e-3, 5], the array bracket scan gives the scalar scan's mid state
    and speeds bit for bit."""
    for gas, left, right in _scan_draws():
        ts = solve_intermediate(gas, left, right)
        got = (ts.mid.v, ts.mid.u, ts.s1, ts.s2)
        want = _scalar_scan_solution(gas, left, right)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _hugoniot_branch_volume(gas, base, u_level, branch):
    """Volume on the S1 (branch 1, v < base.v) or S2 (branch 2) curve
    through base at u_level < base.u, by bracket expansion and root find
    on the checked hugoniot_u: the oracle of in_ss_region."""
    def f(v):
        return float(hugoniot_u(gas, base, np.float64(v))) - u_level

    f_base = base.u - u_level
    end, f_end = base.v, f_base
    while not f_end < 0.0:
        end *= 0.5 if branch == 1 else 2.0
        f_end = f(end)
    lo, hi, flo, fhi = ((end, base.v, f_end, f_base) if branch == 1
                        else (base.v, end, f_base, f_end))
    return _bisect_secant(f, lo, hi, flo, fhi, xtol=1e-13 * max(1.0, hi))


def _reached_u(gas, left, v_m, v_plus):
    """u at v_plus reached from left along S1 to v_m, then along S2."""
    mid = EndState(v_m, float(hugoniot_u(gas, left, v_m)))
    return float(hugoniot_u(gas, mid, v_plus))


def test_in_ss_region_matches_branch_volume_oracle():
    """Right states at relative distances 1e-15 to 1 above and below the
    shock locus through random left states: outside a 1e-12 band around
    the locus, in_ss_region equals v_S1 < v_plus < v_S2 at the level
    u_plus; a state exactly on the locus is not inside; and an inside
    datum with chi_i / v_m >= 1e-3 solves.  The reached u increases in
    v_m, so chi_i / v_m >= 1e-3, i.e. v_m <= min(v_minus, v_plus) / 1.001,
    holds iff the u reached through that v_m is >= u_plus."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        gas = GasModel(a=rng.uniform(0.3, 3.0), gamma=rng.uniform(1.001, 3.0))
        left = EndState(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        v_plus = left.v * math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        u_curve = float(hugoniot_u(gas, left, v_plus))
        assert not in_ss_region(gas, left, EndState(v_plus, u_curve))
        dist = 10.0 ** rng.uniform(-15.0, 0.0)
        for sign in (-1.0, 1.0):
            right = EndState(v_plus,
                             u_curve + sign * dist * max(1.0, abs(u_curve)))
            inside = in_ss_region(gas, left, right)
            if dist > 1e-12:
                assert inside == (
                    right.u < left.u
                    and _hugoniot_branch_volume(gas, left, right.u, 1)
                    < v_plus < _hugoniot_branch_volume(gas, left, right.u, 2))
            v_floor = min(left.v, v_plus) / 1.001
            if inside and _reached_u(gas, left, v_floor, v_plus) >= right.u:
                solve_intermediate(gas, left, right)


def test_speed_formula_equivalence_random():
    """s^2 = -dp/dv agrees with the value implied by the shock curve."""
    rng = np.random.default_rng(10)
    for _ in range(50):
        gas, left, _, right = _random_ss_case(rng)
        ts = solve_intermediate(gas, left, right)
        for s, a, b in ((ts.s1, ts.left, ts.mid), (ts.s2, ts.mid, ts.right)):
            du = b.u - a.u
            dv = b.v - a.v
            assert abs(s * s - (du / dv) ** 2) <= 1e-12 * max(1.0, s * s)


def test_scan_at_large_gamma_solves_without_overflow():
    """v_m**-gamma overflows at the small end of the v_m scan (gamma = 50),
    and 2**-gamma also underflows to 0 (gamma = 1075): the datum still
    solves, with RH residuals at rounding level, strict entropy margins
    and no RuntimeWarning."""
    left, right = EndState(2.0, 0.0), EndState(2.0, -1.0)
    for gamma in (50.0, 1075.0):
        gas = GasModel(a=1.0, gamma=gamma, alpha=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ts = solve_intermediate(gas, left, right)
        assert max(abs(r) for r in rh_residuals(gas, ts)) <= 1e-12
        m1, m2 = entropy_margins(gas, ts)
        assert min(*m1, *m2) > 0.0


@pytest.mark.parametrize("v_m, v_plus, regime", [
    (1.0, 1.0 + 1e-9, "weaker shock's strength is below"),
    (1e-9, 2.0, "v_m is below"),
], ids=("weak", "strong"))
def test_scan_failure_names_its_regime(gas, v_m, v_plus, regime):
    """Constructive data inside SS whose v_m lies beyond the scan, within
    1e-8 * min(v_minus, v_plus) of its top (weak) or below its bottom
    (strong): the BracketError says which."""
    left = EndState(2.0, 0.0)
    right = EndState(v_plus, _reached_u(gas, left, v_m, v_plus))
    assert in_ss_region(gas, left, right)
    with pytest.raises(BracketError, match=regime):
        solve_intermediate(gas, left, right)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_volumes_are_named_without_warnings(gas):
    """An end volume whose pressure a*v**-gamma overflows float64 reads as
    not inside SS, and the Riemann solve and the shock locus raise an
    OverflowError naming it, with no RuntimeWarning."""
    tiny, fine = EndState(1e-200, 0.0), EndState(2.0, 0.0)
    assert not in_ss_region(gas, tiny, EndState(1e-200, -1.0))
    text = "= 1e-200: the pressure a*v**-gamma overflows float64 at gamma = 2"
    for left, right, name in ((tiny, EndState(1e-200, -1.0), "left.v"),
                              (fine, EndState(1e-200, -1.0), "right.v")):
        with pytest.raises(OverflowError, match=re.escape(f"{name} {text}")):
            solve_intermediate(gas, left, right)
    with pytest.raises(OverflowError, match=re.escape(f"base.v {text}")):
        hugoniot_u(gas, tiny, 1e-201)

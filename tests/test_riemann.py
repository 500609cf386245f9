import warnings

import numpy as np
import pytest

from shockwave_lab import (BracketError, EndState, GasModel,
                           NoTwoShockSolution, char_speeds,
                           entropy_margins, hugoniot_u, in_ss_region,
                           rh_residuals, solve_intermediate)

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


def test_bracket_expansion_stops_before_overflow():
    """With v**-gamma underflowing to 0, the S2 curve is flat at u = u_left;
    the bracket scan must give up while its volume is still finite."""
    gas = GasModel(a=1.0, gamma=1075.0, alpha=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BracketError, match="S2 branch"):
            in_ss_region(gas, EndState(2.0, 0.0), EndState(2.0, -1.0))

import numpy as np
import pytest

from shockwave_lab import (DegenerateWaveError, EndState, TailTruncatedWarning,
                           decay_rates, integrate_profile, profile_rhs,
                           sample_uniform)
from shockwave_lab.verify import _steady_residual_l2, measured_tail_rates

SQ3 = np.sqrt(3.0)
C_PLUS = 2.5 / SQ3     # 1.443376 at the canonical middle state
C_MINUS = 2.0 / SQ3    # 1.154701 at the canonical left state


def test_rhs_fixed_point_left(gas):
    assert profile_rhs(gas, -SQ3 / 2.0, 2.0, 2.0) == 0.0


def test_rhs_fixed_point_right(gas, two_shock):
    # vanishes at v_m through the RH relation of the solved datum
    assert abs(profile_rhs(gas, two_shock.s1, 2.0, 1.0)) <= 1e-12


def test_rhs_hand_value(gas):
    val = profile_rhs(gas, -0.8660254037844386, 2.0, 1.5)
    assert val == pytest.approx(-0.312731, abs=5e-7)


def test_rhs_sign_between_endpoints(gas, two_shock):
    v = np.linspace(1.001, 1.999, 200)
    g1 = profile_rhs(gas, two_shock.s1, 2.0, v)
    assert np.all(g1 < 0.0)


def test_rhs_domain_error(gas):
    with pytest.raises(ValueError):
        profile_rhs(gas, -1.0, 2.0, -0.5)


def test_normalization_and_monotonicity(profiles):
    p1, p2 = profiles
    assert p1.evaluate(0.0)[0] == pytest.approx(1.5, rel=1e-14)
    assert p2.evaluate(0.0)[0] == pytest.approx(1.5, rel=1e-14)
    assert np.all(np.diff(p1.v_table) < 0.0)
    assert np.all(np.diff(p2.v_table) > 0.0)


def test_endpoint_gap(profiles):
    for p in profiles:
        assert abs(p.v_table[0] - p.state_l.v) <= 1e-10
        assert abs(p.v_table[-1] - p.state_r.v) <= 1e-10


def test_far_tail_limits(profiles):
    p1, _ = profiles
    assert p1.evaluate(-1e6)[0] == p1.state_l.v
    assert p1.evaluate(1e6)[0] == p1.state_r.v
    assert p1.evaluate(-1e6)[1] == p1.state_l.u
    assert p1.evaluate(1e6)[1] == pytest.approx(p1.state_r.u, abs=1e-14)


def test_ux_nonpositive_everywhere(profiles):
    xi = np.linspace(-60.0, 60.0, 10000)
    for p in profiles:
        _, _, _, ux = p.evaluate(xi)
        assert np.all(ux <= 0.0)


def test_decay_rates_analytic(gas, two_shock):
    c_minus, c_plus = decay_rates(gas, two_shock.left, two_shock.mid, two_shock.s1)
    assert c_plus == pytest.approx(C_PLUS, rel=1e-12)
    assert c_minus == pytest.approx(C_MINUS, rel=1e-12)


def test_decay_rates_measured_fit(profiles):
    """Independent oracle: least-squares slope of log|V - v_end| on the tails."""
    p1, _ = profiles
    c_minus_fit, c_plus_fit = measured_tail_rates(p1)
    assert c_plus_fit == pytest.approx(C_PLUS, rel=0.02)
    assert c_minus_fit == pytest.approx(C_MINUS, rel=0.02)


def test_decay_rates_degenerate(gas):
    state = EndState(1.0, 0.0)
    with pytest.raises(DegenerateWaveError):
        decay_rates(gas, state, state, -1.0)


def test_zero_strength_rejected(gas):
    state = EndState(1.0, 0.0)
    with pytest.raises((DegenerateWaveError, ValueError)):
        integrate_profile(gas, state, state, -1.0, 1)


def test_steady_residual_second_order(gas, two_shock):
    hs = np.array([0.1, 0.05, 0.025])
    res = [_steady_residual_l2(gas, two_shock.left, two_shock.mid,
                               two_shock.s1, h) for h in hs]
    order = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert 1.7 <= order <= 2.3


def test_sample_uniform_spacing_and_values(gas, two_shock):
    h = 0.05
    xi, V, U = sample_uniform(gas, two_shock.left, two_shock.mid,
                              two_shock.s1, h)
    assert np.allclose(np.diff(xi), h, rtol=0, atol=1e-12)
    i0 = int(np.where(xi == 0.0)[0][0])
    assert V[i0] == pytest.approx(1.5, rel=1e-14)
    # mass relation holds exactly
    assert np.allclose(U, two_shock.left.u - two_shock.s1 * (V - two_shock.left.v),
                       rtol=0, atol=1e-14)


def test_translation_consistency(gas, two_shock, profiles):
    """Re-normalizing to V(0) = V(delta) shifts the profile by delta."""
    p1, _ = profiles
    delta = 0.37
    v_at_delta = p1.evaluate(delta)[0]
    shifted = integrate_profile(gas, two_shock.left, two_shock.mid,
                                two_shock.s1, 1, start_volume=v_at_delta)
    xi = np.linspace(-8.0, 8.0, 321)
    v_ref = p1.evaluate(xi + delta)[0]
    v_new = shifted.evaluate(xi)[0]
    assert np.max(np.abs(v_new - v_ref)) <= 1e-8


def test_tail_truncated_flag(gas, two_shock):
    with pytest.warns(TailTruncatedWarning):
        p = integrate_profile(gas, two_shock.left, two_shock.mid,
                              two_shock.s1, 1, xi_max=3.0)
    assert p.truncated


def test_family_validation(gas, two_shock):
    with pytest.raises(ValueError):
        integrate_profile(gas, two_shock.left, two_shock.mid, two_shock.s1, 2)
    with pytest.raises(ValueError):
        integrate_profile(gas, two_shock.mid, two_shock.right, two_shock.s2, 1)


def test_vx_matches_rhs_inside_table(gas, profiles):
    p1, _ = profiles
    xi = np.linspace(-5.0, 5.0, 101)
    V, _, vx, _ = p1.evaluate(xi)
    g = profile_rhs(gas, p1.s, p1.state_l.v, V)
    assert np.max(np.abs(vx - g)) <= 1e-10


def test_alpha_positive_profile():
    """Viscosity exponent > 0 exercises the general mu(v) branch."""
    from shockwave_lab import GasModel, hugoniot_u, solve_intermediate
    gas = GasModel(a=1.0, gamma=2.0, alpha=0.5)
    left = EndState(2.0, 0.0)
    u_m = hugoniot_u(gas, left, 1.0)
    u_p = hugoniot_u(gas, EndState(1.0, u_m), 2.0)
    ts = solve_intermediate(gas, left, EndState(2.0, u_p))
    p1 = integrate_profile(gas, ts.left, ts.mid, ts.s1, 1)
    assert np.all(np.diff(p1.v_table) < 0.0)
    c_minus_fit, c_plus_fit = measured_tail_rates(p1)
    assert c_plus_fit == pytest.approx(p1.c_plus, rel=0.02)
    assert c_minus_fit == pytest.approx(p1.c_minus, rel=0.02)

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import shockwave_lab
from oracles import hermite_spline, profile_rhs, v_table
from shockwave_lab import (DegenerateWaveError, EndState, GasModel,
                           build_profiles, decay_rates, integrate_profile,
                           sample_uniform)
from shockwave_lab import profile as profile_mod
from shockwave_lab.config import RiemannSpec
from shockwave_lab.riemann import pressure_increment
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
    assert np.all(np.diff(v_table(p1)) < 0.0)
    assert np.all(np.diff(v_table(p2)) > 0.0)


def test_endpoint_gap(profiles):
    for p in profiles:
        v = v_table(p)
        assert abs(v[0] - p.state_l.v) <= 1e-10
        assert abs(v[-1] - p.state_r.v) <= 1e-10


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
        integrate_profile(gas, state, state, -1.0)


def test_steady_residual_second_order(profiles):
    p1, _ = profiles
    hs = np.array([0.1, 0.05, 0.025])
    res = [_steady_residual_l2(p1, h) for h in hs]
    order = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert 1.7 <= order <= 2.3


def test_sample_uniform_spacing_and_values(profiles):
    p1, _ = profiles
    h = 0.05
    xi, V, U = sample_uniform(p1, h)
    assert np.allclose(np.diff(xi), h, rtol=0, atol=1e-12)
    i0 = int(np.where(xi == 0.0)[0][0])
    assert V[i0] == pytest.approx(1.5, rel=1e-14)
    # mass relation holds exactly
    assert np.allclose(U, p1.state_l.u - p1.s * (V - p1.state_l.v),
                       rtol=0, atol=1e-14)


def test_translation_consistency(gas, two_shock, profiles):
    """Re-normalizing to V(0) = V(delta) shifts the profile by delta."""
    p1, _ = profiles
    delta = 0.37
    v_at_delta = p1.evaluate(delta)[0]
    shifted = integrate_profile(gas, two_shock.left, two_shock.mid,
                                two_shock.s1, start_volume=v_at_delta)
    xi = np.linspace(-8.0, 8.0, 321)
    v_ref = p1.evaluate(xi + delta)[0]
    v_new = shifted.evaluate(xi)[0]
    assert np.max(np.abs(v_new - v_ref)) <= 1e-8


def test_family_validation(gas, two_shock):
    with pytest.raises(ValueError):
        integrate_profile(gas, two_shock.left, two_shock.mid, -two_shock.s1)
    with pytest.raises(ValueError):
        integrate_profile(gas, two_shock.mid, two_shock.right, -two_shock.s2)


def test_vx_matches_rhs_inside_table(gas, profiles):
    p1, _ = profiles
    xi = np.linspace(-5.0, 5.0, 101)
    V, _, vx, _ = p1.evaluate(xi)
    g = profile_rhs(gas, p1.s, p1.state_l.v, V)
    assert np.max(np.abs(vx - g)) <= 1e-10


def test_gaps_slices_match_pointwise(profiles):
    """Each table and tail boundary, its float neighbours, -0.0 and points
    in all four regions: gaps on the ascending array equals gaps taken
    one element at a time, bit for bit."""
    for p in profiles:
        edges = [p._xi_l[0], -0.0, 0.0, p._xi_r[-1]]
        near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        inner = [2.0 * p._xi_l[0], 0.5 * p._xi_l[0], 0.5 * p._xi_r[-1],
                 2.0 * p._xi_r[-1]]
        xi = np.sort(np.array(edges + near + inner))
        whole = p.gaps(xi)
        for k, x in enumerate(xi):
            single = p.gaps(xi[k:k + 1])
            assert all(np.array_equal(a[k:k + 1], b)
                       for a, b in zip(whole, single)), x


@pytest.mark.parametrize("xi", [[0.0, np.nan, 1.0], np.nan, [1.0, 0.0],
                                [-3.0, 2.0, 1.0, 4.0]],
                         ids=["nan", "scalar-nan", "descending", "unsorted"])
def test_gaps_reject_nan_and_unsorted(profiles, xi):
    p1, _ = profiles
    with pytest.raises(ValueError, match="ascending and free of nan"):
        p1.gaps(np.array(xi))
    with pytest.raises(ValueError, match="ascending and free of nan"):
        p1.evaluate(xi)


def test_alpha_positive_profile():
    """Viscosity exponent > 0 exercises the general mu(v) branch."""
    from shockwave_lab import GasModel, hugoniot_u, solve_intermediate
    gas = GasModel(a=1.0, gamma=2.0, alpha=0.5)
    left = EndState(2.0, 0.0)
    u_m = hugoniot_u(gas, left, 1.0)
    u_p = hugoniot_u(gas, EndState(1.0, u_m), 2.0)
    ts = solve_intermediate(gas, left, EndState(2.0, u_p))
    p1 = integrate_profile(gas, ts.left, ts.mid, ts.s1)
    assert np.all(np.diff(v_table(p1)) < 0.0)
    c_minus_fit, c_plus_fit = measured_tail_rates(p1)
    assert c_plus_fit == pytest.approx(p1.c_plus, rel=0.02)
    assert c_minus_fit == pytest.approx(p1.c_minus, rel=0.02)


def _datum(gas, v_m, chi1, chi2):
    """Two-shock datum with v_minus = v_m + chi1 and v_plus = v_m + chi2."""
    return RiemannSpec(v_minus=v_m + chi1, u_minus=0.0, v_plus=v_m + chi2,
                       v_m=v_m).resolve(gas)


def test_table_size_does_not_grow_with_weakness(gas):
    p1, p2 = build_profiles(gas, _datum(gas, 1.0, 1e-3, 1e-3))
    nodes = sum(p._xi_l.size + p._xi_r.size for p in (p1, p2))
    assert nodes <= 3000


def _dop853_gap(gas, s, v_end, w0, tau_end, orient):
    """Independent dense DOP853 solve of the gap ODE on [0, tau_end]."""
    def rhs(tau, y):
        bracket = s * s * y[0] + pressure_increment(gas, v_end, y[0])
        return [-orient * (v_end + y[0]) ** (gas.alpha + 1.0) * bracket / s]

    return solve_ivp(rhs, (0.0, tau_end), [w0], method="DOP853",
                     rtol=2.5e-14, atol=1e-24, dense_output=True).sol


@pytest.mark.parametrize("gas_model, chi", [
    pytest.param(GasModel(), 1e-3, id="0.001"),
    pytest.param(GasModel(), 1.0, id="1.0"),
    pytest.param(GasModel(), 3.0, id="3.0"),
    pytest.param(GasModel(a=0.5, gamma=3.0, alpha=2.0), 3.0, id="extreme-3.0")])
def test_interpolant_matches_independent_solve(gas_model, chi):
    """On every half line of both profiles the table nodes agree with
    DOP853 to 1e-12 chi, and at the midpoints of the table intervals,
    where the Hermite error peaks, the interpolant agrees to 1e-9 chi."""
    for p in build_profiles(gas_model, _datum(gas_model, 1.0, chi, chi)):
        for xi, w, c, v_end, orient in (
                (p._xi_l, p._w_l, p._c_l, p.state_l.v, -1.0),
                (p._xi_r, p._w_r, p._c_r, p.state_r.v, +1.0)):
            order = np.argsort(orient * xi)
            tau, w = orient * xi[order], w[order]
            ref = _dop853_gap(gas_model, p.s, v_end, p.v0 - v_end, tau[-1],
                              orient)
            assert np.max(np.abs(w - ref(tau)[0])) <= 1e-12 * chi
            mid = np.sort(orient * 0.5 * (tau[1:] + tau[:-1]))
            err = np.max(np.abs(profile_mod._hermite(xi, c, mid)
                                - ref(orient * mid)[0]))
            assert err <= 1e-9 * chi


def test_package_binds_no_ode_solver():
    """The profile tables are a quadrature, the package's one half-line
    integrator: no package module binds an object of scipy.integrate."""
    modules = [shockwave_lab] + [
        importlib.import_module(f"shockwave_lab.{info.name}")
        for info in pkgutil.iter_modules(shockwave_lab.__path__)]
    for mod in modules:
        bound = [name for name, obj in vars(mod).items()
                 if (getattr(obj, "__module__", None) or "")
                 .startswith("scipy.integrate")]
        assert not bound, (mod.__name__, bound)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True),
       alpha=st.floats(0.0, 2.0),
       a=st.floats(0.3, 3.0),
       v_m=st.floats(0.3, 3.0),
       log_chi1=st.floats(math.log(1e-3), math.log(5.0)),
       log_chi2=st.floats(math.log(1e-3), math.log(5.0)))
def test_profiles_build_across_ss_region(gamma, alpha, a, v_m,
                                         log_chi1, log_chi2):
    """Quadrature tables pass the monotonicity checks on any SS datum, so
    build_profiles never raises IntegrationError.  Wave 1's gap to its
    right state and wave 2's gap to its left state, the gaps to the
    middle state, carry no sign bit on the tables, the computed tails and
    both sides of both zero-tail bounds: the premise of V >= v_m in the
    composite and of its W window."""
    gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    p1, p2 = build_profiles(gas, _datum(gas, v_m, v_m * math.exp(log_chi1),
                                        v_m * math.exp(log_chi2)))
    for p, side in ((p1, 1), (p2, 0)):
        bounds = [p._xi_zero_l, p._xi_zero_r]
        near = [np.nextafter(q, d) for q in bounds for d in (-np.inf, np.inf)]
        span = np.linspace(bounds[0] - 1.0, bounds[1] + 1.0, 4001)
        xi = np.unique(np.concatenate([p._xi_l, p._xi_r, bounds, near, span]))
        assert xi[0] < bounds[0] and xi[-1] > bounds[1]
        assert not np.any(np.signbit(p.gaps(xi)[side]))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_tables_match_scipy(p, rng):
    """Each half table's coefficients, and its values at every node, at
    the nodes' float neighbours, at +-0.0, at both ends and at random
    points, are bit for bit scipy's CubicHermiteSpline.  The points are
    evaluated all at once (more points than intervals: the nodes are
    located among the points) and in subsets of fewer points than
    intervals (each point is located among the nodes)."""
    for side, xi, c in (("l", p._xi_l, p._c_l), ("r", p._xi_r, p._c_r)):
        ref = hermite_spline(p, side)
        assert np.array_equal(_bits(c), _bits(ref.c))
        m = c.shape[1]
        pts = np.concatenate([xi, np.nextafter(xi, -np.inf),
                              np.nextafter(xi, np.inf), [-0.0, 0.0],
                              rng.uniform(xi[0], xi[-1], 2 * m)])
        pts = np.sort(pts[(pts >= xi[0]) & (pts <= xi[-1])], kind="stable")
        assert pts[0] == xi[0] and pts[-1] == xi[-1]
        want = ref(pts)
        assert np.array_equal(_bits(profile_mod._hermite(xi, c, pts)),
                              _bits(want))
        for size in (1, 2, m - 1, m):
            k = np.sort(rng.choice(pts.size, size, replace=False))
            if size > 1:
                k[[0, -1]] = 0, pts.size - 1
            got = profile_mod._hermite(xi, c, pts[k])
            assert np.array_equal(_bits(got), _bits(want[k])), size


def test_tables_match_scipy_on_canonical_datum(profiles):
    rng = np.random.default_rng(5)
    for p in profiles:
        _assert_tables_match_scipy(p, rng)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True),
       alpha=st.floats(0.0, 2.0),
       a=st.floats(0.3, 3.0),
       v_m=st.floats(0.3, 3.0),
       log_chi1=st.floats(math.log(1e-3), math.log(5.0)),
       log_chi2=st.floats(math.log(1e-3), math.log(5.0)),
       seed=st.integers(0, 2**32 - 1))
def test_tables_match_scipy_across_ss_region(gamma, alpha, a, v_m,
                                             log_chi1, log_chi2, seed):
    gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    rng = np.random.default_rng(seed)
    for p in build_profiles(gas, _datum(gas, v_m, v_m * math.exp(log_chi1),
                                        v_m * math.exp(log_chi2))):
        _assert_tables_match_scipy(p, rng)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockwave_lab import (CompositeWave, GasModel, Grid1D, SeparationError,
                           ShiftInputs, compute_shift_inputs, interaction_norm,
                           predicted_w_decay, solve_shifts, w_decay_constants)
from shockwave_lab.composite import (TruncationError, _grouped,
                                     _p_second_difference, w_naive)
from shockwave_lab.config import Perturbation

SQ3 = np.sqrt(3.0)


def _shift_grid(beta=40.0, dx=0.02, margin=27.0):
    n = int(round((beta + 2 * margin) / dx)) + 1
    return Grid1D(-margin, beta + margin, n)


def test_far_field_limits(composite40, two_shock):
    f = composite40.fields(np.array([-1e5, 1e5]), 3.0)
    V, U = f.V, f.U
    assert V[0] == pytest.approx(two_shock.left.v, abs=1e-13)
    assert U[0] == pytest.approx(two_shock.left.u, abs=1e-13)
    assert V[1] == pytest.approx(two_shock.right.v, abs=1e-13)
    assert U[1] == pytest.approx(two_shock.right.u, abs=1e-13)


def test_gap_value_between_waves(composite40, profiles, two_shock):
    p1, _ = profiles
    V, _ = composite40.state_fields(np.array([20.0]), 0.0)
    bound = 2.0 * two_shock.chi1 * np.exp(-min(p1.c_plus, p1.c_minus) * 20.0)
    assert abs(V[0] - two_shock.mid.v) <= bound


def test_w_term_by_term_oracle(profiles, gas, two_shock):
    """Stable W equals the literal formula recomputed from profile evals."""
    p1, p2 = profiles
    cw = CompositeWave(p1, p2, 2.0)
    x = np.linspace(-10.0, 12.0, 100)
    W = cw.fields(x, 0.0).W
    V1, _, _, u1x = p1.evaluate(cw.xi1(x, 0.0))
    V2, _, _, u2x = p2.evaluate(cw.xi2(x, 0.0))
    Wn = w_naive(gas, two_shock.mid.v, V1, u1x, V2, u2x)
    assert np.max(np.abs(W - Wn)) <= 1e-14
    assert np.max(np.abs(W)) > 1e-3  # overlapping waves: genuinely nonzero


def test_w_vanishes_for_constant_second_wave(gas, profiles, two_shock):
    p1, _ = profiles
    x = np.linspace(-20.0, 20.0, 200)
    V1, _, _, u1x = p1.evaluate(x)
    vm = two_shock.mid.v
    Wn = w_naive(gas, vm, V1, u1x, np.full_like(x, vm), np.zeros_like(x))
    assert np.max(np.abs(Wn)) <= 1e-14
    # degenerate composite (wave2 = None) is exactly zero
    cw = CompositeWave(p1, None, 0.0)
    assert np.all(cw.fields(x, 1.0).W == 0.0)


def test_sup_w_decreases_with_beta(profiles):
    p1, p2 = profiles
    x = np.linspace(-30.0, 80.0, 4001)
    sups = []
    for beta in (5.0, 10.0, 20.0, 40.0):
        cw = CompositeWave(p1, p2, beta)
        sups.append(float(np.max(np.abs(cw.fields(x, 0.0).W))))
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_shift_inputs_zero_perturbation(composite40):
    grid = _shift_grid()
    V0, U0 = composite40.state_fields(grid.x, 0.0)
    si = compute_shift_inputs(V0, U0, composite40, grid)
    assert abs(si.I01) <= 1e-12
    assert abs(si.I02) <= 1e-12


def test_shift_inputs_gaussian_areas(composite40):
    grid = _shift_grid()
    x = grid.x
    V0, U0 = composite40.state_fields(x, 0.0)
    bump_v = Perturbation("v", 0.07, 22.0, 1.1)
    si = compute_shift_inputs(V0 + bump_v(x), U0, composite40, grid)
    assert si.I01 == pytest.approx(bump_v.area, rel=1e-10)
    assert abs(si.I02) <= 1e-12
    bump_u = Perturbation("u", -0.04, 15.0, 0.8)
    si = compute_shift_inputs(V0, U0 + bump_u(x), composite40, grid)
    assert abs(si.I01) <= 1e-12
    assert si.I02 == pytest.approx(bump_u.area, rel=1e-10)


def test_shift_inputs_boundary_guard(composite40):
    grid = _shift_grid()
    x = grid.x
    V0, U0 = composite40.state_fields(x, 0.0)
    bad = Perturbation("v", 0.05, float(x[0]), 1.0)  # bump sitting on the edge
    with pytest.raises(TruncationError):
        compute_shift_inputs(V0 + bad(x), U0, composite40, grid)


def test_solve_shifts_canonical(two_shock):
    b1, b2 = solve_shifts(ShiftInputs(0.1, 0.0), two_shock)
    assert b1 == pytest.approx(-0.05, rel=1e-12)
    assert b2 == pytest.approx(0.05, rel=1e-12)


def test_solve_shifts_zero(two_shock):
    assert solve_shifts(ShiftInputs(0.0, 0.0), two_shock) == (0.0, 0.0)


def test_solve_shifts_linear(two_shock):
    rng = np.random.default_rng(3)
    for _ in range(20):
        i1, i2 = rng.normal(size=2)
        k = rng.uniform(0.1, 5.0)
        b1, b2 = solve_shifts(ShiftInputs(i1, i2), two_shock)
        kb1, kb2 = solve_shifts(ShiftInputs(k * i1, k * i2), two_shock)
        assert kb1 == pytest.approx(k * b1, rel=1e-13)
        assert kb2 == pytest.approx(k * b2, rel=1e-13)


def test_solve_shifts_satisfies_linear_system(two_shock):
    rng = np.random.default_rng(4)
    for _ in range(20):
        si = ShiftInputs(*rng.normal(size=2))
        b1, b2 = solve_shifts(si, two_shock)
        ts = two_shock
        r1 = si.I01 - (-b1 * ts.chi1 + b2 * ts.chi2)
        r2 = si.I02 - (b1 * ts.s1 * ts.chi1 - b2 * ts.s2 * ts.chi2)
        scale = max(1.0, abs(si.I01), abs(si.I02))
        assert abs(r1) <= 1e-13 * scale
        assert abs(r2) <= 1e-13 * scale


def test_zero_mass_after_shift(composite40, two_shock):
    grid = _shift_grid()
    x = grid.x
    V0, U0 = composite40.state_fields(x, 0.0)
    v0 = V0 + Perturbation("v", 0.06, 24.0, 1.5)(x)
    u0 = U0 + Perturbation("u", -0.08, 13.0, 1.0)(x)
    si = compute_shift_inputs(v0, u0, composite40, grid)
    b1, b2 = solve_shifts(si, two_shock)
    si2 = compute_shift_inputs(v0, u0, composite40.shifted(b1, b2), grid)
    scale = max(1.0, abs(si.I01), abs(si.I02))
    assert abs(si2.I01) <= 1e-9 * scale
    assert abs(si2.I02) <= 1e-9 * scale


def test_separation_invariant(profiles):
    p1, p2 = profiles
    with pytest.raises(SeparationError):
        CompositeWave(p1, p2, 1.0, beta1=0.4, beta2=0.0)


def test_predicted_w_decay_values(two_shock, profiles):
    c_prime, c_minus = predicted_w_decay(two_shock, *profiles)
    assert c_prime == pytest.approx(1.25, rel=1e-12)
    assert c_minus == pytest.approx(0.240563, abs=1e-6)


def test_w_decay_constants_scaling():
    c1 = c2 = 1.7
    base, _ = w_decay_constants(-0.5, 0.5, c1, c2)
    doubled, _ = w_decay_constants(-1.0, 1.0, c1, c2)
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def test_interaction_norm_decreasing_and_floor(composite40):
    grid = Grid1D(-50.0, 90.0, 2801)
    norms = [interaction_norm(composite40, t, grid) for t in (0.0, 2.0, 5.0)]
    assert norms[0] > norms[1] > norms[2] > 0.0
    # c' t > 60: exponential bound floor
    assert interaction_norm(composite40, 50.0, Grid1D(-90.0, 130.0, 4401)) <= 1e-12


def test_beta_doubling_shrinks_w(profiles, two_shock):
    p1, p2 = profiles
    _, c_minus = predicted_w_decay(two_shock, p1, p2)
    g10 = Grid1D(-35.0, 45.0, 1601)
    g20 = Grid1D(-35.0, 55.0, 1801)
    w10 = interaction_norm(CompositeWave(p1, p2, 10.0), 0.0, g10)
    w20 = interaction_norm(CompositeWave(p1, p2, 20.0), 0.0, g20)
    assert w10 / w20 >= np.exp(c_minus * 10.0 * 0.5)


def test_composite_h_definition(composite40, gas):
    x = np.linspace(-5.0, 45.0, 400)
    f = composite40.fields(x, 1.3)
    H_expect = f.U - f.Vx / f.V ** (gas.alpha + 1.0)
    assert np.allclose(f.H, H_expect, rtol=0, atol=1e-14)


def test_pressure_second_difference_mpmath_oracle(gas):
    """Stable P = p(vm+d1+d2)-p(vm+d1)-p(vm+d2)+p(vm) vs 50-digit arithmetic."""
    import mpmath
    from shockwave_lab.composite import _p_second_difference
    mpmath.mp.dps = 50
    vm = 1.0
    gammas = [2.0, 1.3, 2.7]
    mags = [1e-18, 1e-12, 1e-8, 1e-4, 1.3e-3, 7e-4, 1e-2, 0.3, 1.0]
    rng = np.random.default_rng(21)
    for gamma in gammas:
        from shockwave_lab import GasModel
        g = GasModel(a=1.0, gamma=gamma, alpha=0.0)

        def p_exact(v):
            return v ** (-mpmath.mpf(gamma))

        for _ in range(40):
            d1 = float(rng.choice(mags) * rng.uniform(0.5, 1.5))
            d2 = float(rng.choice(mags) * rng.uniform(0.5, 1.5))
            got = float(_p_second_difference(g, vm, np.array([d1]), np.array([d2]))[0])
            m1, m2, mv = mpmath.mpf(d1), mpmath.mpf(d2), mpmath.mpf(vm)
            exact = float(p_exact(mv + m1 + m2) - p_exact(mv + m1)
                          - p_exact(mv + m2) + p_exact(mv))
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-300)


def _p_second_difference_loops(gas, vm, d1, d2):
    """Reference second difference: the term-by-term Taylor double loop
    below the 1e-3 vm switch, separately masked _grouped calls above it."""
    out = np.empty(d1.shape)
    small = np.maximum(np.abs(d1), np.abs(d2)) <= 1e-3 * vm
    s1, s2 = d1[small], d2[small]
    acc = np.zeros_like(s1)
    g = gas.gamma
    for k in range(2, 7):
        coef_k = gas.a * vm ** (-g - k)
        rising = 1.0
        for j in range(k):
            rising *= (g + j)
        coef_k *= ((-1.0) ** k) * rising / math.factorial(k)
        inner = np.zeros_like(s1)
        for j in range(1, k):
            inner += math.comb(k, j) * s1 ** j * s2 ** (k - j)
        acc += coef_k * inner
    out[small] = acc
    b1, b2 = d1[~small], d2[~small]
    use_b1 = np.abs(b1) <= np.abs(b2)
    res = np.empty_like(b1)
    res[use_b1] = _grouped(gas, vm, b2[use_b1], b1[use_b1])
    res[~use_b1] = _grouped(gas, vm, b1[~use_b1], b2[~use_b1])
    out[~small] = res
    return out


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True),
       a=st.floats(0.3, 3.0),
       v_m=st.floats(0.3, 3.0),
       sign=st.sampled_from([-1.0, 1.0]),
       log_gaps=st.lists(st.tuples(st.floats(-10.0, -1.5), st.floats(-10.0, -1.5)),
                         min_size=1, max_size=16))
@example(gamma=3.0, a=1.0, v_m=1.0, sign=-1.0,
         log_gaps=[(-3.0, -3.0), (-3.0001, -3.0), (-2.9999, -3.0)])
def test_pressure_second_difference_matches_loop_series(gamma, a, v_m, sign,
                                                        log_gaps):
    """Same-sign gaps on both sides of the 1e-3 v_m switch, mixed in one
    call: the factored series and the single _grouped call agree with the
    reference to 1e-13 relative, and the first pair with 50-digit
    arithmetic to 1e-9."""
    import mpmath
    gas = GasModel(a=a, gamma=gamma, alpha=0.0)
    d1, d2 = (sign * v_m * 10.0 ** np.array(e) for e in zip(*log_gaps))
    got = _p_second_difference(gas, v_m, d1, d2)
    ref = _p_second_difference_loops(gas, v_m, d1, d2)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    with mpmath.workdps(50):
        m1, m2, mv = (mpmath.mpf(float(v)) for v in (d1[0], d2[0], v_m))

        def p_exact(v):
            return mpmath.mpf(a) * v ** (-mpmath.mpf(gamma))

        exact = float(p_exact(mv + m1 + m2) - p_exact(mv + m1)
                      - p_exact(mv + m2) + p_exact(mv))
    assert got[0] == pytest.approx(exact, rel=1e-9, abs=1e-300)


def test_mid_state_mismatch_rejected(gas, profiles):
    from shockwave_lab import EndState, integrate_profile, hugoniot_u, solve_intermediate
    p1, _ = profiles
    left = EndState(2.0, 0.0)
    u_m = hugoniot_u(gas, left, 1.1)
    u_p = hugoniot_u(gas, EndState(1.1, u_m), 2.0)
    other = solve_intermediate(gas, left, EndState(2.0, u_p))
    q2 = integrate_profile(gas, other.mid, other.right, other.s2, 2)
    with pytest.raises(ValueError):
        CompositeWave(p1, q2, 40.0)

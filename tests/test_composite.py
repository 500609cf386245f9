import gc
import math
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hermite_spline, perturbation_area, w_naive
from shockwave_lab import (CompositeWave, EndState, GasModel, Grid1D,
                           SeparationError, ShiftInputs, build_profiles,
                           compute_shift_inputs, hugoniot_u, interaction_norm,
                           predicted_w_decay, solve_intermediate, solve_shifts)
from shockwave_lab.composite import (_BLOCK, CompositeFields, TruncationError,
                                     TruncationWarning, _grouped,
                                     _p_second_difference, _w_stable)
from shockwave_lab import composite as composite_mod
from shockwave_lab import profile as profile_mod
from shockwave_lab.config import (ExperimentConfig, GridSpec, Perturbation,
                                  RiemannSpec, TimeSpec)
from shockwave_lab.solver import auto_grid, run_simulation

SQ3 = np.sqrt(3.0)


def _shift_grid(beta=40.0, dx=0.02, margin=27.0):
    n = int(round((beta + 2 * margin) / dx)) + 1
    return Grid1D.uniform(-margin, beta + margin, n)


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
    v0 = V0 + bump_v(x)
    si = compute_shift_inputs(v0, U0, composite40, grid)
    assert si.I01 == pytest.approx(perturbation_area(bump_v), rel=1e-10)
    assert abs(si.I02) <= 1e-12
    # the shared-spacing trapezoid is numpy's, bit for bit
    c_lo, c_hi = composite40.wave1.c_minus, composite40.wave2.c_plus
    for got, r in ((si.I01, v0 - V0), (si.I02, U0 - U0)):
        assert got == float(np.trapezoid(r, x)) + r[0] / c_lo + r[-1] / c_hi
    bump_u = Perturbation("u", -0.04, 15.0, 0.8)
    si = compute_shift_inputs(V0, U0 + bump_u(x), composite40, grid)
    assert abs(si.I01) <= 1e-12
    assert si.I02 == pytest.approx(perturbation_area(bump_u), rel=1e-10)


def test_shift_inputs_boundary_guard(composite40):
    grid = _shift_grid()
    x = grid.x
    V0, U0 = composite40.state_fields(x, 0.0)
    bad = Perturbation("v", 0.05, float(x[0]), 1.0)  # bump sitting on the edge
    with pytest.raises(TruncationError, match="x_lo"):
        compute_shift_inputs(V0 + bad(x), U0, composite40, grid)


@pytest.mark.parametrize("target, k, edge", [("v", -1, "x_hi"),
                                             ("u", 0, "x_lo")],
                         ids=("v-right", "u-left"))
def test_shift_inputs_boundary_guard_nan(composite40, target, k, edge):
    """A nan at a grid edge is not a decayed residual."""
    grid = _shift_grid()
    v0, u0 = composite40.state_fields(grid.x, 0.0)
    {"v": v0, "u": u0}[target][k] = np.nan
    with pytest.raises(TruncationError, match=edge):
        compute_shift_inputs(v0, u0, composite40, grid)


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
    rates = types.SimpleNamespace(c_plus=1.7, c_minus=1.7)
    speeds = lambda s: types.SimpleNamespace(s1=-s, s2=s)
    base, _ = predicted_w_decay(speeds(0.5), rates, rates)
    doubled, _ = predicted_w_decay(speeds(1.0), rates, rates)
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def test_interaction_norm_decreasing_and_floor(composite40):
    grid = Grid1D.uniform(-50.0, 90.0, 2801)
    norms = [interaction_norm(composite40, t, grid) for t in (0.0, 2.0, 5.0)]
    assert norms[0] > norms[1] > norms[2] > 0.0
    # c' t > 60: exponential bound floor
    grid = Grid1D.uniform(-90.0, 130.0, 4401)
    assert interaction_norm(composite40, 50.0, grid) <= 1e-12


@pytest.mark.parametrize("edge", (0, -1), ids=("left", "right"))
def test_interaction_norm_warns_on_nan_edge(composite40, edge, monkeypatch):
    """A nan in W at a grid edge, from the leaf that holds that edge, is
    a TruncationWarning, and the norm is nan."""
    grid = Grid1D.uniform(-50.0, 90.0, 2801)
    x_edge = grid.x[edge]
    interaction = CompositeWave.interaction

    def nan_at_edge(self, x, t):
        W = interaction(self, x, t)
        W[x == x_edge] = np.nan
        return W

    monkeypatch.setattr(CompositeWave, "interaction", nan_at_edge)
    with pytest.warns(TruncationWarning, match="residual nan at the grid"):
        assert math.isnan(interaction_norm(composite40, 0.0, grid))


def test_beta_doubling_shrinks_w(profiles, two_shock):
    p1, p2 = profiles
    _, c_minus = predicted_w_decay(two_shock, p1, p2)
    g10 = Grid1D.uniform(-35.0, 45.0, 1601)
    g20 = Grid1D.uniform(-35.0, 55.0, 1801)
    w10 = interaction_norm(CompositeWave(p1, p2, 10.0), 0.0, g10)
    w20 = interaction_norm(CompositeWave(p1, p2, 20.0), 0.0, g20)
    assert w10 / w20 >= np.exp(c_minus * 10.0 * 0.5)


def test_composite_h_definition(gas):
    """A snapshot's H is the composite's effective velocity
    U - V_x / V^(alpha+1) at the snapshot's points and time."""
    cfg = ExperimentConfig(
        gas=gas,
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=30.0,
        grid=GridSpec(dx=0.1),
        time=TimeSpec(t_final=1.3, record_dt=1.3, snapshot_times=(0.0, 1.3)),
    )
    res = run_simulation(cfg)
    assert [snap.t for snap in res.snapshots] == [0.0, 1.3]
    for snap in res.snapshots:
        f = res.composite.fields(snap.x, snap.t)
        H_expect = f.U - f.Vx / f.V ** (gas.alpha + 1.0)
        assert np.allclose(snap.H, H_expect, rtol=0, atol=1e-14)


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
    q2 = integrate_profile(gas, other.mid, other.right, other.s2)
    with pytest.raises(ValueError):
        CompositeWave(p1, q2, 40.0)


def _x_at(xi, t, target):
    """A float x with xi(x, t) == target exactly, or None if rounding
    skips the target."""
    x = target - xi(0.0, t)
    for _ in range(64):
        d = xi(x, t) - target
        if d == 0.0:
            return x
        x = np.nextafter(x, -np.inf if d > 0.0 else np.inf)
    return None


def _x_from(xi, t, q):
    """The least float x with xi(x, t) >= q."""
    x = q - xi(0.0, t)
    while xi(x, t) < q:
        x = np.nextafter(x, np.inf)
    while xi(np.nextafter(x, -np.inf), t) >= q:
        x = np.nextafter(x, -np.inf)
    return x


def _split_case(datum, beta, t, x1, x2):
    """Composite, grid and sub-slice bounds for the split-invariance test.

    At t > 0 the shifts are picked so that xi1(x1) and xi2(x2) are exactly
    0.  The grid holds more than 3 blocks plus a remainder, and the x at
    which each wave's xi is 0 or a table end, where a float reaches it,
    and from which it is past a bound of its exactly zero tails.
    """
    gas = GasModel(a=1.0, gamma=2.0, alpha=0.0)
    v_m, chi1, chi2 = datum
    p1, p2 = build_profiles(gas, RiemannSpec(
        v_minus=v_m + chi1, u_minus=0.0, v_plus=v_m + chi2,
        v_m=v_m).resolve(gas))
    b1 = -(x1 - p1.s * t) if t > 0.0 else 0.0
    b2 = -((x2 - p2.s * t) - beta) if t > 0.0 else 0.0
    cw = CompositeWave(p1, p2, beta, b1, b2)
    ends = [(xi, q) for xi, p in ((cw.xi1, p1), (cw.xi2, p2))
            for q in (0.0, p._xi_l[0], p._xi_r[-1])]
    zeros = [(xi, q) for xi, p in ((cw.xi1, p1), (cw.xi2, p2))
             for q in (p._xi_zero_l, p._xi_zero_r)]
    hits = [_x_at(xi, t, q) for xi, q in ends]
    if t > 0.0:
        assert cw.xi1(x1, t) == 0.0 and cw.xi2(x2, t) == 0.0
        hits += [x1, x2]
    special = np.array([h for h in hits if h is not None])
    base = np.linspace(special.min() - 10.0, special.max() + 10.0,
                       3 * _BLOCK + 1000)
    # the zero-tail bounds lie far out: the least x whose xi reaches
    # each, with its float neighbours
    far = [_x_from(xi, t, q) for xi, q in zeros]
    far += [np.nextafter(h, d) for h in far for d in (-np.inf, np.inf)]
    x = np.union1d(np.union1d(base, special), far)
    ends += zeros
    cuts = {0, x.size}
    for k in range(1, x.size // _BLOCK + 1):
        cuts |= {k * _BLOCK - 1, k * _BLOCK, k * _BLOCK + 1}
    for xi, q in ends:
        for side in ("left", "right"):
            i = int(np.searchsorted(xi(x, t), q, side))
            cuts |= {i - 1, i, i + 1}
    cuts = sorted(c for c in cuts if 0 <= c <= x.size)
    return cw, x, list(zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("datum, beta, x1, x2", [
    ((1.0, 1.0, 1.0), 40.0, 0.6, 40.9),
    ((1.0, 1e-3, 3.0), 100.0, -3.0, 101.0),
], ids=("canonical", "chi-1e-3-3"))
@pytest.mark.parametrize("t", (0.0, 2.5))
def test_blocks_split_invariant(datum, beta, t, x1, x2):
    """fields, state_fields and interaction on the whole grid equal, bit
    for bit, the concatenation of calls on sub-slices cut at the block
    edges +-1, at single points, and where xi crosses 0, the table ends
    and the bounds of the exactly zero tails; state_fields and
    interaction equal the matching fields arrays, with or without a
    second wave."""
    cw, x, slices = _split_case(datum, beta, t, x1, x2)
    assert x.size > 3 * _BLOCK and x.size % _BLOCK
    whole = cw.fields(x, t)
    parts = [cw.fields(x[lo:hi], t) for lo, hi in slices]
    assert any(hi - lo == 1 for lo, hi in slices)
    for name in ("V", "U", "Vx", "Ux", "W", "V1x", "V2x"):
        joined = np.concatenate([getattr(f, name) for f in parts])
        assert joined.tobytes() == getattr(whole, name).tobytes(), name
    V, U = cw.state_fields(x, t)
    assert V.tobytes() == whole.V.tobytes() and U.tobytes() == whole.U.tobytes()
    states = [cw.state_fields(x[lo:hi], t) for lo, hi in slices]
    assert np.concatenate([s[0] for s in states]).tobytes() == V.tobytes()
    assert np.concatenate([s[1] for s in states]).tobytes() == U.tobytes()
    assert cw.interaction(x, t).tobytes() == whole.W.tobytes()
    ws = [cw.interaction(x[lo:hi], t) for lo, hi in slices]
    assert np.concatenate(ws).tobytes() == whole.W.tobytes()
    grid = Grid1D.uniform(float(x[0]), float(x[-1]), x.size)
    W = cw.fields(grid.x, t).W
    with warnings.catch_warnings():
        # this grid does not reach the weak wave's tail at t = 2.5; the
        # norm is compared as computed, truncated or not
        warnings.simplefilter("ignore", TruncationWarning)
        norm = interaction_norm(cw, t, grid)
    assert norm == float(np.sqrt(np.trapezoid(W * W, grid.x)))
    # one wave: W is 0 on every entry point and so is its norm
    single = CompositeWave(cw.wave1, None, 0.0, cw.beta1)
    one = single.fields(x, t)
    assert not np.any(one.W)
    assert single.interaction(x, t).tobytes() == one.W.tobytes()
    V, U = single.state_fields(x, t)
    assert V.tobytes() == one.V.tobytes() and U.tobytes() == one.U.tobytes()
    assert interaction_norm(single, t, grid) == 0.0


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_evaluation_memory(composite40):
    """On a long grid the composite's memory is its outputs plus one
    block's temporaries, not ~40 grid-sized temporaries."""
    x = np.linspace(-60.0, 100.0, 500_000)
    composite40.fields(x[:100], 1.3)
    slack = 8_000_000
    assert _traced_peak(composite40.fields, x, 1.3) <= 8 * x.nbytes + slack
    assert _traced_peak(composite40.state_fields, x, 1.3) <= 2 * x.nbytes + slack
    assert _traced_peak(composite40.interaction, x, 1.3) <= x.nbytes + slack


def test_quadrature_memory(composite40):
    """On a long grid the shift inputs and the W norm hold O(block)
    temporaries beyond their inputs, no grid-sized array, and a Gaussian
    bump 1 grid-sized array; none of them writes v0, u0 or grid.x."""
    grid = Grid1D.uniform(-60.0, 100.0, 500_000)
    x = grid.x
    composite40.interaction(x[:100], 0.0)
    V0, U0 = composite40.state_fields(x, 0.0)
    bump = Perturbation("v", 0.05, 20.0, 1.0)
    v0 = V0 + bump(x)
    inputs = [(a, a.tobytes()) for a in (v0, U0, x)]
    blocks = 24 * 8 * _BLOCK  # a leaf's composite evaluation and panels
    assert blocks < x.nbytes
    calls = [
        (compute_shift_inputs, (v0, U0, composite40, grid), blocks),
        (interaction_norm, (composite40, 0.0, grid), blocks),
        # the bump has no block temporaries, so its slack is smaller
        (bump, (x,), x.nbytes + 1_000_000),
    ]
    for fn, args, bound in calls:
        assert _traced_peak(fn, *args) <= bound, fn
        for a, before in inputs:
            assert a.tobytes() == before, fn


def test_quadratures_leave_no_reference_cycle(composite40):
    """The leaf callbacks of the shift inputs and the W norm form no
    reference cycle: the composite, the grid and the data they read are
    freed as soon as the caller drops them, with the cyclic garbage
    collector off.  A cycle kept a sweep's grid-sized arrays alive until
    the collector ran, and the peak RSS of a batch of data grew with
    them."""
    cw = composite40.shifted(0.0, 0.0)
    grid = Grid1D.uniform(-60.0, 100.0, 2 * _BLOCK + 5)
    V0, U0 = cw.state_fields(grid.x, 0.0)
    refs = [weakref.ref(a) for a in (cw, grid, V0, U0)]
    gc.disable()
    try:
        compute_shift_inputs(V0, U0, cw, grid)
        interaction_norm(cw, 0.0, grid)
        del cw, grid, V0, U0
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def _sweep_datum(gas, chi):
    """Composite at beta = 40 / c_min on its auto grid at T = 0, as the
    datum sweep builds it, for strengths chi = (chi1, chi2) at v_m = 1."""
    v_m = 1.0
    ts = RiemannSpec(v_minus=v_m + chi[0], u_minus=0.0, v_plus=v_m + chi[1],
                     v_m=v_m).resolve(gas)
    p1, p2 = build_profiles(gas, ts)
    c_min = min(p1.c_minus, p1.c_plus, p2.c_minus, p2.c_plus)
    beta = 40.0 / c_min
    return ts, CompositeWave(p1, p2, beta), auto_grid(gas, ts, beta, 0.0), c_min


@pytest.mark.parametrize("chi", ((1.0, 1.0), (1e-3, 3.0), (3.0, 1e-3), None),
                         ids=("canonical", "chi-1e-3-3", "chi-3-1e-3",
                              "single-wave"))
def test_quadratures_match_numpy_trapezoid(gas, chi):
    """Shift inputs and the W norm, evaluated leaf by leaf, are numpy's
    trapezoid over the whole grid bit for bit, against (V, U) and W
    evaluated on the whole grid: on the canonical datum, on the
    ~595,000-point grids of chi = (1e-3, 3) v_m in both orders, and for a
    lone wave 1 of the canonical datum.  The residuals carry an offset
    of 5e-13 at the edges, below the boundary tolerance, so the tail
    terms are not 0."""
    ts, cw0, grid, c_min = _sweep_datum(gas, chi or (1.0, 1.0))
    width, beta = 1.0 / c_min, cw0.beta
    if chi is None:
        cw0 = CompositeWave(cw0.wave1, None, 0.0)
        grid = auto_grid(gas, ts, 0.0, 0.0, family=1)
        beta, chi = 0.0, (ts.chi1, ts.chi1)
    x = grid.x
    V0, U0 = cw0.state_fields(x, 0.0)
    v0 = V0 + Perturbation("v", 0.05 * min(chi), 0.45 * beta, width)(x)
    u0 = U0 + Perturbation("u", -0.03 * min(chi), 0.55 * beta, width)(x)
    v0 += 5e-13
    u0 -= 5e-13
    si = compute_shift_inputs(v0, u0, cw0, grid)
    c_lo, c_hi = cw0.wave1.c_minus, cw0.waves[-1].c_plus
    for got, r in ((si.I01, v0 - V0), (si.I02, u0 - U0)):
        assert r[0] != 0.0 and r[-1] != 0.0
        assert got == float(np.trapezoid(r, x)) + r[0] / c_lo + r[-1] / c_hi
    if cw0.wave2 is None:
        cw = cw0.shifted(si.I01 / (ts.mid.v - ts.left.v), 0.0)
    else:
        cw = cw0.shifted(*solve_shifts(si, ts))
    W = cw.fields(x, 0.0).W
    assert interaction_norm(cw, 0.0, grid) == float(np.sqrt(np.trapezoid(W * W, x)))


@pytest.mark.parametrize("chi", ((1e-3, 3.0), (3.0, 1e-3)),
                         ids=("chi-1e-3-3", "chi-3-1e-3"))
def test_interaction_norm_forms_w_on_its_support(gas, chi, monkeypatch):
    """On a sweep grid the W norm hands the composite the points of W's
    support and at most two leaves more (each leaf shares one point with
    the next), not the whole grid."""
    _, cw, grid, _ = _sweep_datum(gas, chi)
    x, t = grid.x, 0.0
    lo = int(np.searchsorted(cw.xi2(x, t), cw.wave2._xi_zero_l, "left"))
    hi = int(np.searchsorted(cw.xi1(x, t), cw.wave1._xi_zero_r, "right"))
    sizes = []
    interaction = CompositeWave.interaction

    def counted(self, x, t):
        sizes.append(x.size)
        return interaction(self, x, t)

    monkeypatch.setattr(CompositeWave, "interaction", counted)
    interaction_norm(cw, t, grid)
    assert 0 < hi - lo < grid.n // 4
    assert sum(sizes) <= (hi - lo) + 2 * _BLOCK + len(sizes)


def test_quadrature_leaf_is_one_composite_block(composite40, monkeypatch):
    """kernels.trapz_points asks for leaves of at most _BLOCK points, the
    composite's own block size, so on a grid of several leaves every
    leaf the quadratures evaluate is one composite block: one _state_into
    per state_fields call in compute_shift_inputs, one
    _interaction_block per interaction call in interaction_norm."""
    grid = Grid1D.uniform(-60.0, 100.0, 3 * _BLOCK + 1000)
    V, U = composite40.state_fields(grid.x, 0.0)
    calls = dict.fromkeys(("state_fields", "_state_into", "interaction",
                           "_interaction_block"), 0)
    for name in calls:
        def counted(self, *args, _name=name,
                    _method=getattr(CompositeWave, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(CompositeWave, name, counted)
    compute_shift_inputs(V, U, composite40, grid)
    interaction_norm(composite40, 0.0, grid)
    assert calls["state_fields"] >= 3 and calls["interaction"] >= 3
    assert calls["_state_into"] == calls["state_fields"]
    assert calls["_interaction_block"] == calls["interaction"]


@pytest.mark.parametrize("v0, u0", [
    (np.zeros(3999), np.zeros(4000)),
    (np.zeros((1, 4000)), np.zeros(4000)),
    (np.zeros(4000), 0.0),
], ids=("short-v0", "row-v0", "scalar-u0"))
def test_shift_inputs_reject_wrong_shapes(composite40, v0, u0):
    """v0 and u0 must be samples on the grid, both shapes in the error."""
    grid = Grid1D.uniform(-60.0, 100.0, 4000)
    with pytest.raises(ValueError, match=r"must have shape \(4000,\)") as info:
        compute_shift_inputs(v0, u0, composite40, grid)
    assert str(np.shape(v0)) in str(info.value)
    assert str(np.shape(u0)) in str(info.value)


def test_interaction_norm_skips_fields(composite40, monkeypatch):
    """The norm evaluates W alone, never all of CompositeFields."""
    def no_fields(*args, **kwargs):
        raise AssertionError("interaction_norm called fields")

    grid = Grid1D.uniform(-50.0, 90.0, 2801)
    expected = interaction_norm(composite40, 2.0, grid)
    monkeypatch.setattr(CompositeWave, "fields", no_fields)
    assert interaction_norm(composite40, 2.0, grid) == expected


def test_state_fields_skip_profile_slopes(composite40, monkeypatch):
    """(V, U) come from the gap values; no profile slope is formed."""
    def no_slope(*args, **kwargs):
        raise AssertionError("state_fields called _g_from_end")

    x = np.linspace(-60.0, 100.0, 2 * _BLOCK + 10)
    V, U = composite40.state_fields(x, 1.3)
    monkeypatch.setattr(profile_mod, "_g_from_end", no_slope)
    V2, U2 = composite40.state_fields(x, 1.3)
    assert V2.tobytes() == V.tobytes() and U2.tobytes() == U.tobytes()
    with pytest.raises(AssertionError, match="_g_from_end"):
        composite40.fields(x, 1.3)


ENTRY_POINTS = ("fields", "state_fields", "interaction")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_descending_step_at_block_edge_rejected(composite40, entry):
    """x is checked whole, not block by block: a descending step at a
    block edge is rejected like one inside a block."""
    x = np.concatenate([np.linspace(0.0, 10.0, _BLOCK),
                        np.linspace(-5.0, 0.0, 100)])
    with pytest.raises(ValueError, match="ascending and free of nan"):
        getattr(composite40, entry)(x, 1.0)


@pytest.mark.parametrize("t", (math.nan, math.inf))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_t_rejected(composite40, entry, t):
    with pytest.raises(ValueError, match="t must be finite"):
        getattr(composite40, entry)(np.linspace(0.0, 10.0, 50), t)


def _oracle_gaps(p, xi):
    """ShockProfile.gaps written out with both tails computed as
    w_edge * exp(...) at every point and the tables read through scipy."""
    i0 = np.searchsorted(xi, p._xi_l[0], "left")
    j1 = np.searchsorted(xi, 0.0, "right")
    j2 = np.searchsorted(xi, p._xi_r[-1], "right")
    gl, gr = np.empty(xi.size), np.empty(xi.size)
    gl[:i0] = p._w_l[0] * np.exp(p.c_minus * (xi[:i0] - p._xi_l[0]))
    gr[j2:] = p._w_r[-1] * np.exp(-p.c_plus * (xi[j2:] - p._xi_r[-1]))
    gl[i0:j1] = hermite_spline(p, "l")(xi[i0:j1])
    gr[j1:j2] = hermite_spline(p, "r")(xi[j1:j2])
    jump = p.state_r.v - p.state_l.v
    gr[:j1] = gl[:j1] - jump
    gl[j1:] = gr[j1:] + jump
    g = profile_mod._g_from_end
    vx = np.concatenate([p.c_minus * gl[:i0],
                         g(p.gas, p.s, p.state_l.v, gl[i0:j1]),
                         g(p.gas, p.s, p.state_r.v, gr[j1:j2]),
                         -p.c_plus * gr[j2:]])
    return gl, gr, vx


def _oracle_fields(cw, x, t):
    """All CompositeFields arrays from _oracle_gaps, W by _w_stable on the
    whole arrays."""
    w1, w2, gas, mid = cw.wave1, cw.wave2, cw.gas, cw.mid
    g1, d1, v1x = _oracle_gaps(w1, cw.xi1(x, t))
    d2, _, v2x = _oracle_gaps(w2, cw.xi2(x, t))
    u1x, u2x = -w1.s * v1x, -w2.s * v2x
    V = mid.v + d1 + d2
    U = w1.state_l.u - w1.s * g1
    U = U + (w2.state_l.u - w2.s * d2) - mid.u
    W = _w_stable(gas, mid.v, d1, d2, u1x, u2x)
    Vx, Ux = v1x + v2x, u1x + u2x
    return CompositeFields(V, U, Vx, Ux, W, v1x, v2x)


def _fill_case(gamma, alpha, a, v_m, r1, r2, t):
    """A shifted composite of strengths chi_i = r_i v_m, beta = 40 / c_min,
    and a grid of ~1,800 points: a coarse cover, and at each wave's
    table ends and zero-tail bounds the least x whose xi reaches the
    bound, two floats below it and one above, and 100 points over
    60 / c inward, where the tail rises from exp(-747)."""
    gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    left = EndState(v_m * (1.0 + r1), 0.3)
    mid = EndState(v_m, float(hugoniot_u(gas, left, v_m)))
    right = EndState(v_m * (1.0 + r2),
                     float(hugoniot_u(gas, mid, v_m * (1.0 + r2))))
    p1, p2 = build_profiles(gas, solve_intermediate(gas, left, right))
    c_min = min(p1.c_minus, p1.c_plus, p2.c_minus, p2.c_plus)
    cw = CompositeWave(p1, p2, 40.0 / c_min, 0.3 / c_min, -0.2 / c_min)
    pts = []
    for xi, p in ((cw.xi1, p1), (cw.xi2, p2)):
        for q, dq in ((p._xi_zero_l, 60.0 / p.c_minus), (p._xi_l[0], None),
                      (p._xi_r[-1], None), (p._xi_zero_r, -60.0 / p.c_plus)):
            xq = _x_from(xi, t, q)
            down = np.nextafter(xq, -np.inf)
            pts += [np.nextafter(down, -np.inf), down, xq,
                    np.nextafter(xq, np.inf)]
            if dq is not None:
                pts += list(np.linspace(xq, xq + dq, 100))
    pts = np.array(pts)
    x = np.union1d(pts, np.linspace(pts.min() - 1.0, pts.max() + 1.0, 1000))
    return cw, x


@pytest.mark.parametrize("case", [
    (2.0, 0.0, 1.0, 1.0, 1e-3, 5.0, 0.0),
    (1.4, 1.0, 2.0, 0.5, 5.0, 1e-3, 2.5),
    (3.0, 0.5, 0.7, 1.5, 5.0, 5.0, 1.0),
    (1.2, 2.0, 1.0, 1.0, 1e-3, 1e-3, 40.0),
], ids=("g2-weak-strong", "g1.4-a1-strong-weak", "g3-a0.5-strong",
        "g1.2-a2-weak"))
def test_zero_tail_fills_match_formula_bitwise(case, monkeypatch):
    """The filled tails and the W window give, byte for byte, the tails
    computed as w_edge * exp(...) everywhere and W computed as _w_stable
    on whole arrays: for the gaps, all fields, state_fields and
    interaction, with blocks of 97 points so that many lie wholly in a
    zero tail or hold an empty W window, on slices cut at every
    zero-tail bound, and on the grid with the points between the zero
    tails and the nonzero W dropped, where the window's first and last
    points are not 0."""
    cw, x = _fill_case(*case[:6], case[6])
    t = case[6]
    monkeypatch.setattr(composite_mod, "_BLOCK", 97)
    ref = _oracle_fields(cw, x, t)
    for p, xi in ((cw.wave1, cw.xi1(x, t)), (cw.wave2, cw.xi2(x, t))):
        for got, want in zip(p.gaps(xi), _oracle_gaps(p, xi)):
            assert got.tobytes() == want.tobytes()
        assert xi[0] < p._xi_zero_l and xi[-1] > p._xi_zero_r
    names = ("V", "U", "Vx", "Ux", "W", "V1x", "V2x")
    nz = np.flatnonzero(ref.W)
    lo = int(np.searchsorted(cw.xi2(x, t), cw.wave2._xi_zero_l, "left"))
    hi = int(np.searchsorted(cw.xi1(x, t), cw.wave1._xi_zero_r, "right"))
    assert 0 < lo < nz[0] and nz[-1] < hi - 1 < x.size - 1
    cuts = sorted({0, x.size, lo, hi} | {
        int(np.searchsorted(xi(x, t), q, "left"))
        for xi, p in ((cw.xi1, cw.wave1), (cw.xi2, cw.wave2))
        for q in (p._xi_zero_l, p._xi_zero_r)})
    sparse = np.concatenate([np.arange(lo), nz, np.arange(hi, x.size)])
    pieces = [slice(None), sparse] + [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    for k in pieces:
        xk = x[k]
        want = _oracle_fields(cw, xk, t)
        got = cw.fields(xk, t)
        for name in names:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        V, U = cw.state_fields(xk, t)
        assert V.tobytes() == want.V.tobytes() and U.tobytes() == want.U.tobytes()
        assert cw.interaction(xk, t).tobytes() == want.W.tobytes()

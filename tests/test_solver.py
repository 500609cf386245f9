import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from shockwave_lab import (CompositeWave, EndState, FieldState, GasModel,
                           Grid1D, PositivityError, advance, auto_grid,
                           build_profiles, effective_velocity, hugoniot_u,
                           hyperbolic_dt, profile_rhs, rk4_step,
                           run_simulation, sample_uniform, semidiscrete_rhs,
                           kernels, solve_intermediate, solver, stable_dt,
                           verify, write_csv)
from shockwave_lab import cli, diagnostics
from shockwave_lab.cli import main
from shockwave_lab.composite import (BOUNDARY_DECAY_TOL, W_BOUNDARY_TOL,
                                     _shift_inputs)
from shockwave_lab.config import (ExperimentConfig, GridSpec, Perturbation,
                                  RiemannSpec, TimeSpec)
from shockwave_lab.profile import decay_rates


def _const_state(n, v=1.3, u=-0.2):
    return FieldState(0.0, np.full(n, v), np.full(n, u))


def _split_step(gas, state, dt, grid):
    """One Strang step, CN(dt/2), SSP-RK3(dt), CN(dt/2): advance takes it
    as a single step when dt is within the hyperbolic bound."""
    assert dt <= solver.hyperbolic_dt(gas, state, grid)
    return advance(gas, state, grid, state.t + dt)


def _record_calls(monkeypatch, name, arg):
    """Route solver.<name> through a wrapper that records its positional
    argument number arg on every call."""
    seen = []
    func = getattr(solver, name)

    def recording(*args):
        seen.append(args[arg])
        return func(*args)

    monkeypatch.setattr(solver, name, recording)
    return seen


def test_constant_state_is_equilibrium(gas):
    grid = Grid1D(0.0, 5.0, 101)
    dv, du = semidiscrete_rhs(gas, _const_state(101), grid)
    assert np.all(dv == 0.0) and np.all(du == 0.0)


def test_linear_velocity_field(gas):
    grid = Grid1D(0.0, 5.0, 101)
    m = 0.7
    state = FieldState(0.0, np.ones(101), m * grid.x)
    dv, du = semidiscrete_rhs(gas, state, grid)
    assert np.allclose(dv[1:-1], m, rtol=0, atol=1e-12)
    assert np.allclose(du[1:-1], 0.0, rtol=0, atol=1e-12)


def test_rhs_positivity_guard(gas):
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    state.v[50] = -0.1
    with pytest.raises(PositivityError):
        semidiscrete_rhs(gas, state, grid)


def test_rhs_rejects_nan_volume(gas):
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    state.v[50] = np.nan
    with pytest.raises(PositivityError):
        semidiscrete_rhs(gas, state, grid)


def test_rk4_step_rejects_nan_volume(gas):
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    state.v[50] = np.nan
    with pytest.raises(PositivityError):
        rk4_step(gas, state, 1e-3, grid)


def test_traveling_wave_identity_second_order(gas, profiles):
    """dv/dt + s1 V_x = O(dx^2) on the sampled exact profile."""
    p1, _ = profiles
    norms = []
    dxs = (0.1, 0.05, 0.025)
    for dx in dxs:
        xi, V, U = sample_uniform(p1, dx)
        grid = Grid1D(float(xi[0]), float(xi[-1]), xi.size)
        dv, _ = semidiscrete_rhs(gas, FieldState(0.0, V, U), grid)
        vx = profile_rhs(gas, p1.s, p1.state_l.v, V)
        r = dv[1:-1] + p1.s * vx[1:-1]
        norms.append(np.sqrt(np.sum(r ** 2) * dx))
    order = np.polyfit(np.log(dxs), np.log(norms), 1)[0]
    assert 1.7 <= order <= 2.3


def test_stable_dt_hand_value(gas):
    grid = Grid1D(0.0, 5.0, 101)  # dx = 0.05
    dt = stable_dt(gas, FieldState(0.0, np.ones(101), np.zeros(101)), grid)
    assert dt == pytest.approx(5e-4, rel=1e-12)


def test_stable_dt_viscous_scaling(gas):
    state = FieldState(0.0, np.ones(201), np.zeros(201))
    dt1 = stable_dt(gas, FieldState(0.0, np.ones(101), np.zeros(101)),
                    Grid1D(0.0, 5.0, 101))
    dt2 = stable_dt(gas, state, Grid1D(0.0, 5.0, 201))
    assert dt2 <= dt1 / 4.0 + 1e-15


def test_stable_dt_volume_rescale(gas):
    grid = Grid1D(0.0, 5.0, 101)
    for vref in (1.0, 2.0):
        state = FieldState(0.0, np.full(101, vref), np.zeros(101))
        lam = np.sqrt(gas.a * gas.gamma) * vref ** (-0.5 * (gas.gamma + 1.0))
        expect = min(0.8 * grid.dx / lam,
                     0.4 * grid.dx ** 2 * vref ** (gas.alpha + 1.0) / 2.0)
        assert stable_dt(gas, state, grid) == pytest.approx(expect, rel=1e-12)


def test_rk4_preserves_equilibrium(gas):
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    out = rk4_step(gas, state, 1e-3, grid)
    assert np.all(out.v == state.v) and np.all(out.u == state.u)
    assert out.t == pytest.approx(1e-3)


def _bump_grid_state():
    """40-point grid on [0, 10] with a v bump and a u bump."""
    grid = Grid1D(0.0, 10.0, 40)
    x = grid.x
    v0 = 1.0 + 0.4 * np.exp(-((x - 5.0) / 1.2) ** 2)
    u0 = 0.3 * np.exp(-((x - 4.2) / 1.0) ** 2)
    return grid, v0, u0


def _reference_solution(gas, grid, v0, u0, t_final, rhs):
    """Tightly-resolved independent integration of rhs(gas, state, grid)."""
    n = grid.n

    def rhs_flat(t, y):
        dv, du = rhs(gas, FieldState(t, y[:n], y[n:]), grid)
        return np.concatenate([dv, du])

    return solve_ivp(rhs_flat, (0.0, t_final), np.concatenate([v0, u0]),
                     method="RK45", rtol=1e-13, atol=1e-14).y[:, -1]


def _observed_orders(gas, step, grid, v0, u0, t_final, rhs=semidiscrete_rhs):
    """log2 ratios of successive global errors against the reference
    integration of rhs, at 8, 16 and 32 steps."""
    ref = _reference_solution(gas, grid, v0, u0, t_final, rhs)
    errs = []
    for nsteps in (8, 16, 32):
        state = FieldState(0.0, v0.copy(), u0.copy())
        dt = t_final / nsteps
        for _ in range(nsteps):
            state = step(gas, state, dt, grid)
        errs.append(np.max(np.abs(np.concatenate([state.v, state.u]) - ref)))
    return np.log2(np.array(errs[:-1]) / np.array(errs[1:]))


def test_rk4_fourth_order_vs_reference(gas):
    """Global error against a tightly-resolved independent integration."""
    grid, v0, u0 = _bump_grid_state()
    orders = _observed_orders(gas, rk4_step, grid, v0, u0, 0.4)
    assert np.all(orders > 3.5) and np.all(orders < 4.6)


def _inviscid_rhs(gas, state, grid):
    """Full-length d(v, u)/dt of the inviscid part, boundary rows 0."""
    dq = np.zeros((2, grid.n))
    solver._inviscid_rhs(gas, (state.v, state.u), grid.dx, dq[:, 1:-1])
    return dq


def _inviscid_step(gas, state, dt, grid):
    q = np.stack((state.v, state.u))
    solver._inviscid_step(gas, q, dt, grid.dx)
    return FieldState(state.t + dt, *q)


def test_inviscid_step_third_order_vs_reference(gas):
    """Repeated inviscid steps converge at third order to a tightly
    resolved integration of the inviscid RHS alone."""
    grid, v0, u0 = _bump_grid_state()
    orders = _observed_orders(gas, _inviscid_step, grid, v0, u0, 0.4,
                              rhs=_inviscid_rhs)
    assert np.all(orders >= 2.6) and np.all(orders <= 3.5)


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_inviscid_step_matches_three_stage_formula(alpha):
    """One step equals the three stages written out naively on the
    inviscid RHS, to a few ulp."""
    gas = GasModel(1.3, 1.4, alpha)
    grid, v0, u0 = _bump_grid_state()
    dt = hyperbolic_dt(gas, FieldState(0.0, v0, u0), grid)
    y = np.concatenate([v0, u0])

    def L(y):
        return np.concatenate(_inviscid_rhs(gas, FieldState(0.0, y[:grid.n],
                                                            y[grid.n:]), grid))

    k1 = L(y)
    k2 = L(y + dt * k1)
    k3 = L(y + dt / 4.0 * (k1 + k2))
    naive = y + dt / 6.0 * (k1 + k2 + 4.0 * k3)
    out = _inviscid_step(gas, FieldState(0.0, v0, u0), dt, grid)
    got = np.concatenate([out.v, out.u])
    assert np.max(np.abs(got - naive) / np.abs(naive)) <= 1e-15
    assert out.v[0] == v0[0] and out.u[-1] == u0[-1]


@pytest.mark.parametrize("v", [1.3, 0.7, 1.0 / 3.0, 2.9])
def test_inviscid_step_keeps_constant_state_bitwise(gas, v):
    """In increment form, a step on the pair in place keeps a state with
    a zero inviscid RHS bit for bit."""
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101, v=v)
    out = _inviscid_step(gas, state, 0.8 * hyperbolic_dt(gas, state, grid),
                         grid)
    assert out.v.tobytes() == state.v.tobytes()
    assert out.u.tobytes() == state.u.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_strang_second_order_vs_reference(alpha):
    """Strang splitting is second order in time.  The two larger steps
    exceed the explicit viscous bound; all stay below the hyperbolic one."""
    gas = GasModel(1.0, 2.0, alpha)
    grid, v0, u0 = _bump_grid_state()
    state = FieldState(0.0, v0, u0)
    assert stable_dt(gas, state, grid) < 0.4 / 16
    assert 0.4 / 8 < hyperbolic_dt(gas, state, grid)
    orders = _observed_orders(gas, _split_step, grid, v0, u0, 0.4)
    assert np.all(orders >= 1.7) and np.all(orders <= 2.3)


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_crank_nicolson_matches_dense_solve(alpha):
    """With v frozen, the viscous part of semidiscrete_rhs is a linear map
    L u (its columns are differences of rhs evaluations); one step
    solves (I - dt/2 L) u = (I + dt/2 L) u0.  0.5 dt / dx^2 runs from
    0.38 through 6.34, the merged viscous step's on the stability grid
    at v = 1, to twice that."""
    gas = GasModel(1.0, 2.0, alpha)
    grid, v, u0 = _bump_grid_state()
    n = grid.n
    base = semidiscrete_rhs(gas, FieldState(0.0, v, np.zeros(n)), grid)[1]
    L = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        L[:, j] = semidiscrete_rhs(gas, FieldState(0.0, v, e), grid)[1] - base
    eye = np.eye(n)
    for dt in (0.05, 0.8335, 1.709):
        dense = np.linalg.solve(eye - 0.5 * dt * L, (eye + 0.5 * dt * L) @ u0)
        q = np.stack((v, u0))
        solver._crank_nicolson(gas, q, dt, grid)
        assert q[0].tobytes() == v.tobytes()
        out = q[1]
        assert np.max(np.abs(out - dense)) <= 1e-14
        assert out[0] == u0[0] and out[-1] == u0[-1]


def test_temporal_error_within_budget(gas, two_shock, profiles, monkeypatch):
    """The shipped hyperbolic CFL keeps the split step's temporal error
    within 10% of the spatial error: the convergence suite's dx = 0.025
    run at the shipped dt and at dt / 4, whose dt^2 error is 16x smaller,
    differ by at most a tenth of the L2 error of the latter."""
    p1, _ = profiles
    err = verify._single_shock_run(gas, two_shock, p1, 0.025, 5.0)[0]
    dt_h = solver.hyperbolic_dt
    monkeypatch.setattr(solver, "hyperbolic_dt", lambda *a: 0.25 * dt_h(*a))
    err_ref = verify._single_shock_run(gas, two_shock, p1, 0.025, 5.0)[0]
    assert abs(err - err_ref) <= 0.1 * err_ref


@pytest.mark.parametrize("alpha, v", [(0.0, 1.0), (0.7, 1.3)])
def test_crank_nicolson_damps_odd_even_mode(gas, two_shock, alpha, v):
    """An odd-even mode of u on a constant state has a zero inviscid RHS
    in the interior, so a single split step at hyperbolic_dt multiplies it
    by the Crank-Nicolson factor of two half steps, ((1 - 2r) / (1 + 2r))^2,
    r = (dt/2) / (dx^2 v^(alpha+1)), on the stability grid's dx."""
    dx = auto_grid(gas, two_shock, 40.0, 50.0, n=4000).dx
    gas_alpha = GasModel(1.0, 2.0, alpha)
    grid = Grid1D(0.0, 300 * dx, 301)
    sign = (-1.0) ** np.arange(grid.n)
    state = FieldState(0.0, np.full(grid.n, v), -0.2 + 1e-3 * sign)
    dt = hyperbolic_dt(gas_alpha, state, grid)
    r = 0.5 * dt / (grid.dx ** 2 * v ** (alpha + 1.0))
    factor = ((1.0 - 2.0 * r) / (1.0 + 2.0 * r)) ** 2
    assert factor < 1.0
    out = _split_step(gas_alpha, state, dt, grid)
    # the pinned boundary rows perturb the mode only near the ends
    mode = ((out.u + 0.2) * sign / 1e-3)[20:-20]
    assert np.allclose(mode, factor, rtol=0.01, atol=0.0)


@pytest.mark.parametrize("alpha, v", [(0.0, 1.0), (0.7, 1.3)])
def test_merged_steps_damp_odd_even_mode(gas, two_shock, monkeypatch,
                                         alpha, v):
    """Over several steps of advance, the odd-even mode of u on a
    constant state is multiplied by the Crank-Nicolson factor
    (1 + tau lam/2) / (1 - tau lam/2), lam = -4 / (dx^2 v^(alpha+1)), of
    every viscous step tau: the opening half step, the merged steps and
    the closing half step.  v moves near the pinned ends, which moves the
    hyperbolic dt, so the taus are recorded rather than assumed."""
    dx = auto_grid(gas, two_shock, 40.0, 50.0, n=4000).dx
    gas_alpha = GasModel(1.0, 2.0, alpha)
    grid = Grid1D(0.0, 480 * dx, 481)
    sign = (-1.0) ** np.arange(grid.n)
    state = FieldState(0.0, np.full(grid.n, v), -0.2 + 1e-3 * sign)
    t_target = 5.5 * hyperbolic_dt(gas_alpha, state, grid)
    taus = _record_calls(monkeypatch, "_crank_nicolson", 2)
    out = advance(gas_alpha, state, grid, t_target)
    assert len(taus) == 7  # 6 steps
    lam = -4.0 / (grid.dx ** 2 * v ** (alpha + 1.0))
    factor = np.prod([(1.0 + 0.5 * tau * lam) / (1.0 - 0.5 * tau * lam)
                      for tau in taus])
    # 120 points from the ends the pinned rows' influence is below 1e-13
    mode = ((out.u + 0.2) * sign / 1e-3)[120:-120]
    assert np.allclose(mode, factor, rtol=1e-9, atol=0.0)


def _second_difference(a):
    return np.linalg.norm(a[2:] - 2.0 * a[1:-1] + a[:-2])


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_split_step_adds_no_grid_scale_content(alpha):
    """After a short smooth run the split step at the hyperbolic bound
    carries no more grid-scale content than RK4 at the explicit bound."""
    gas = GasModel(1.0, 2.0, alpha)
    grid, v0, u0 = _bump_grid_state()
    t_final = 1.0
    split = advance(gas, FieldState(0.0, v0, u0), grid, t_final)
    ref = FieldState(0.0, v0, u0)
    while ref.t < t_final - 1e-12:
        dt = min(stable_dt(gas, ref, grid), t_final - ref.t)
        ref = rk4_step(gas, ref, dt, grid)
    for a, b in ((split.v, ref.v), (split.u, ref.u)):
        assert _second_difference(a) <= 1.1 * _second_difference(b) + 1e-12


def _write_csv_per_value(path, names, columns):
    """The per-value formatting loop write_csv replaced, kept as its oracle."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in zip(*columns):
            f.write(",".join("%.17g" % val for val in row) + "\n")


def _assert_writers_agree(tmp_path, columns):
    names = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "new.csv", names, columns)
    _write_csv_per_value(tmp_path / "old.csv", names, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, 1100])
def test_write_csv_matches_per_value_formatting(tmp_path, rows):
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                        -2.2250738585072e-309, 2.0 ** -1022, 1.0 / 3.0,
                        np.pi, -1e300, 1.7976931348623157e308])
    extremes = np.array([2 ** 63 - 1, -2 ** 63, 2 ** 53 + 1, -2 ** 53 - 1,
                         10 ** 17, 10 ** 17 - 1, 99999999999999999],
                        dtype=np.int64)
    rng = np.random.default_rng(3)
    columns = [np.resize(special, rows),
               rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows),
               np.arange(rows, dtype=np.int64) * (2 ** 50 + 1) - 7,
               np.resize(special[::-1], rows).tolist(),
               np.resize(extremes, rows)]
    _assert_writers_agree(tmp_path, columns)
    assert (tmp_path / "new.csv").read_bytes().count(b"\n") == rows + 1


def test_write_csv_matches_per_value_formatting_on_every_exponent(tmp_path):
    """Random signs and mantissas at each of the 2048 binary exponents:
    subnormals, values outside the kernel's fast range, nan and inf."""
    rng = np.random.default_rng(27)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 24)
    bits = ((rng.integers(0, 2, exponent.size, dtype=np.uint64) << 63)
            | (exponent << 52)
            | rng.integers(0, 2 ** 52, exponent.size, dtype=np.uint64))
    _assert_writers_agree(tmp_path, list(bits.view(np.float64).reshape(4, -1)))


def test_write_csv_matches_at_powers_of_ten_and_fast_range_ends(tmp_path):
    """10^p for every p and both ends of the kernel's fast range, each with
    its neighbours one ulp away: where the exponent K and the carry to
    10^17 are decided."""
    at = np.array([float(f"1e{p}") for p in range(-323, 309)]
                  + [kernels._G17_MIN, kernels._G17_MAX])
    at = np.concatenate([at, np.nextafter(at, np.inf),
                         np.nextafter(at, -np.inf)])
    _assert_writers_agree(tmp_path, [at, -at])


def _rounding_ties():
    """Doubles with 18 significant digits, the last a 5, whose rounding to
    17 digits is a tie broken to even.  j / 2^n is j * 5^n / 10^n exactly,
    so for odd j < 2^53 it is one when j * 5^n has 18 digits: 131073/2**17
    and the like, n = 2..25."""
    rng = np.random.default_rng(17)
    ties = [131073 / 2 ** 17]
    for n in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** n), min(10 ** 18 // 5 ** n, 2 ** 53)
        ties += [(int(j) | 1) / 2 ** n for j in rng.integers(lo, hi - 1, 20)]
    for x in ties:
        digits = decimal.Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return np.array(ties)


def test_write_csv_hands_rounding_ties_to_python(tmp_path):
    """The kernel hands every exact tie to "%.17g" itself, and the file
    still matches the oracle byte for byte, ties broken both ways."""
    ties = _rounding_ties()
    assert ties.size > 100
    out = np.empty((kernels.G17_WORDS, ties.size), "<u8")
    back = kernels.g17_words(ties, out, np.empty(kernels.G17_WORK * ties.size))
    assert np.array_equal(back, np.arange(ties.size))
    # the 17th digit is odd (rounds up) for some ties, even for others
    parity = {decimal.Decimal(t).as_tuple().digits[16] % 2 for t in ties}
    assert parity == {0, 1}
    _assert_writers_agree(tmp_path, [ties, -ties])


def test_write_csv_memory_is_one_block(tmp_path):
    """Writing 200,000 rows x 8 columns (12.8 MB of float64) peaks below
    1.5 MB: write_csv formats _CSV_VALUES values at a time in buffers it
    allocates once and reuses."""
    rng = np.random.default_rng(8)
    columns = [rng.standard_normal(200_000) for _ in range(8)]
    names = [f"c{i}" for i in range(8)]
    write_csv(tmp_path / "warm.csv", names, [c[:10] for c in columns])
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", names, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


# the paper's experiment, shortened to T = 0.5 on 4000 points
SHORT_CANONICAL_RUN = """\
gas.gamma = 2.0
riemann.v_minus = 2.0
riemann.u_minus = 0.0
riemann.v_m = 1.0
riemann.v_plus = 2.0
composite.beta = 40.0
perturbation.1.target = v
perturbation.1.amplitude = 0.05
perturbation.1.center = 20.0
perturbation.1.width = 1.0
perturbation.2.target = u
perturbation.2.amplitude = 0.05
perturbation.2.center = 20.0
perturbation.2.width = 1.0
grid.n = 4000
time.T = 0.5
time.record_dt = 0.25
time.snapshot_times = 0, 0.5
"""


def test_cli_csv_output_matches_per_value_formatting(tmp_path, monkeypatch):
    """diag.csv and the snapshots of a short canonical run, and the
    riemann, profile and shifts CSVs: write_csv writes the bytes the
    per-value oracle writes, and its kernel formats every value itself."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SHORT_CANONICAL_RUN)

    def run(out_dir):
        for command in ("simulate", "riemann", "profile", "shifts"):
            assert main([command, "--config", str(cfg),
                         "--out", str(out_dir)]) == 0
        return {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}

    handed_back = []
    kernel = kernels.g17_words

    def counted(x, out, work):
        back = kernel(x, out, work)
        handed_back.append(back.size)
        return back

    with monkeypatch.context() as m:
        m.setattr(kernels, "g17_words", counted)
        new = run(tmp_path / "new")
    assert handed_back and sum(handed_back) == 0
    for module in (cli, diagnostics, solver):
        monkeypatch.setattr(module, "write_csv", _write_csv_per_value)
    old = run(tmp_path / "old")
    assert sorted(new) == ["diag.csv", "profile1.csv", "profile2.csv",
                           "riemann.csv", "shifts.csv", "snap_t0.5.csv",
                           "snap_t0.csv"]
    assert new == old


def test_write_csv_rejects_unequal_columns(tmp_path):
    """Unequal columns raise, naming each length, and write nothing; the
    writer used to drop the rows beyond the shortest column."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="a 3, b 2"):
        write_csv(path, ["a", "b"], [np.arange(3.0), np.arange(2.0)])
    assert not path.exists()


def test_steppers_leave_their_input_untouched(gas):
    """advance steps one stacked copy of (v, u) in place and rk4_step
    forms its stages on one: neither writes the input arrays, and the
    result shares no memory with them."""
    grid, v0, u0 = _bump_grid_state()
    state = FieldState(0.0, v0.copy(), u0.copy())
    for out in (advance(gas, state, grid, 0.3),
                rk4_step(gas, state, stable_dt(gas, state, grid), grid)):
        assert state.v.tobytes() == v0.tobytes()
        assert state.u.tobytes() == u0.tobytes()
        assert out.t > state.t and out.v.tobytes() != v0.tobytes()
        for new in (out.v, out.u):
            for old in (state.v, state.u):
                assert not np.shares_memory(new, old)


def test_strang_preserves_equilibrium(gas):
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    out = _split_step(gas, state, 1e-2, grid)
    assert np.all(out.v == state.v) and np.all(out.u == state.u)
    assert out.t == pytest.approx(1e-2)


def test_mass_conservation_over_step(gas, two_shock, profiles):
    """v- and u-mass changes equal the discrete boundary flux integrals."""
    p1, _ = profiles
    grid = Grid1D(-30.0, 30.0, 1201)
    x = grid.x
    V, U, _, _ = p1.evaluate(x)
    state = FieldState(0.0, V.copy(), U.copy())
    dt = stable_dt(gas, state, grid)
    dx = grid.dx

    def masses(st):
        return np.trapezoid(st.v, dx=dx), np.trapezoid(st.u, dx=dx)

    def fluxes(st):
        v, u = st.v, st.u
        p = gas.pressure(v)
        vbar = 0.5 * (v[1:] + v[:-1])
        sigma = (u[1:] - u[:-1]) / (dx * vbar ** (gas.alpha + 1.0))
        fv = 0.5 * (u[-1] + u[-2]) - 0.5 * (u[0] + u[1])
        fu = (-0.5 * (p[-1] + p[-2]) + 0.5 * (p[0] + p[1])
              + sigma[-1] - sigma[0])
        return fv, fu

    mv0, mu0 = masses(state)
    fv, fu = fluxes(state)
    out = rk4_step(gas, state, dt, grid)
    mv1, mu1 = masses(out)
    assert mv1 - mv0 == pytest.approx(dt * fv, abs=1e-12 * max(1.0, abs(dt * fv)))
    assert mu1 - mu0 == pytest.approx(dt * fu, abs=1e-12 * max(1.0, abs(dt * fu)))


def _compressed_state():
    grid = Grid1D(0.0, 1.5, 31)
    v = np.full(31, 1e-3)
    u = np.linspace(1.0, -1.0, 31)  # strong compression
    return grid, FieldState(0.0, v, u)


def test_rk4_positivity_abort(gas):
    grid, state = _compressed_state()
    with pytest.raises(PositivityError) as err:
        rk4_step(gas, state, 0.05, grid)
    assert err.value.state is not None


def test_strang_positivity_abort(gas, monkeypatch):
    """A step the inviscid stage takes past v = 0 raises with the
    rejected state; the hyperbolic bound is lifted to let the step be
    taken."""
    grid, state = _compressed_state()
    monkeypatch.setattr(solver, "hyperbolic_dt", lambda *a: 0.05)
    with pytest.raises(PositivityError) as err:
        _split_step(gas, state, 0.05, grid)
    assert err.value.state is not None
    assert not np.all(err.value.state.v > 0.0)
    assert err.value.state.t == 0.05


def test_nan_volume_fails_before_a_step(gas):
    """A nan in v fails the hyperbolic bound at the state's own time; it
    does not set dt = nan and fail a step later at t = nan."""
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    state.v[50] = np.nan
    with pytest.raises(PositivityError) as err:
        advance(gas, state, grid, 1.0)
    assert err.value.state.t == 0.0
    assert np.isnan(err.value.state.v[50])


def _recording_steps(monkeypatch):
    """Route solver._inviscid_step, called once per step of advance,
    through a wrapper that records each dt."""
    return _record_calls(monkeypatch, "_inviscid_step", 2)


def test_one_viscous_solve_per_step(gas, monkeypatch):
    """Adjacent viscous half steps are merged: n steps to a target take
    n + 1 Crank-Nicolson solves, half steps at both ends."""
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    dt = hyperbolic_dt(gas, state, grid)
    dts = _recording_steps(monkeypatch)
    taus = _record_calls(monkeypatch, "_crank_nicolson", 2)
    out = advance(gas, state, grid, 10 * dt)
    assert len(dts) == 10 and len(taus) == 11
    assert taus == pytest.approx([0.5 * dt] + [dt] * 9 + [0.5 * dt],
                                 rel=1e-12)
    dts.clear()
    taus.clear()
    advance(gas, out, grid, out.t + dt)
    assert len(dts) == 1 and taus == [0.5 * dts[0]] * 2


def test_advance_clips_last_step_onto_target(gas, monkeypatch):
    grid = Grid1D(0.0, 5.0, 101)
    state = _const_state(101)
    dt = hyperbolic_dt(gas, state, grid)
    t_target = 24.6 * dt  # the stable dt does not divide the interval
    dts = _recording_steps(monkeypatch)
    out = advance(gas, state, grid, t_target)
    assert abs(out.t - t_target) <= 1e-12
    assert len(dts) == 25 and dts[:-1] == [dt] * 24
    assert dts[-1] == pytest.approx(0.6 * dt, rel=1e-9)


def test_advance_without_time_to_go_returns_state(gas, monkeypatch):
    grid = Grid1D(0.0, 5.0, 101)
    state = FieldState(2.0, np.full(101, 1.3), np.full(101, -0.2))
    dts = _recording_steps(monkeypatch)
    for t_target in (2.0, 1.0):
        assert advance(gas, state, grid, t_target) is state
    assert dts == []


def test_effective_velocity_constant_volume(gas):
    grid = Grid1D(0.0, 5.0, 101)
    state = FieldState(0.0, np.full(101, 2.0), np.sin(grid.x))
    h = effective_velocity(gas, state, grid)
    assert np.allclose(h, state.u, rtol=0, atol=1e-14)


def test_effective_velocity_exponential_volume(gas):
    """alpha = 0, v = e^(k x): h = u - k up to O(dx^2)."""
    k = 0.3
    errs = []
    for n in (101, 201, 401):
        grid = Grid1D(0.0, 5.0, n)
        state = FieldState(0.0, np.exp(k * grid.x), np.zeros(n))
        h = effective_velocity(gas, state, grid)
        errs.append(np.max(np.abs(h[1:-1] + k)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.7)


def test_auto_grid_contains_wave_span(gas, two_shock):
    grid = auto_grid(gas, two_shock, beta=40.0, t_final=10.0)
    assert grid.x_lo < two_shock.s1 * 10.0 - 17.0
    assert grid.x_hi > 40.0 + two_shock.s2 * 10.0 + 17.0


def test_auto_grid_canonical_is_pinned(gas, two_shock):
    """The symmetric datum's margins are the two outer tails, both at
    c_min: the T = 50 grid is the one the stability values were set on."""
    grid = auto_grid(gas, two_shock, 40.0, 50.0, n=4000)
    assert (grid.x_lo, grid.x_hi, grid.n) == (-69.22453359302851,
                                              109.2245335930285, 4000)


def _datum(gas, v_m, chi1, chi2):
    """Two-shock datum on the shock curves through the middle volume v_m."""
    left = EndState(v_m + chi1, 0.0)
    mid = EndState(v_m, float(hugoniot_u(gas, left, v_m)))
    v_plus = v_m + chi2
    right = EndState(v_plus, float(hugoniot_u(gas, mid, v_plus)))
    return solve_intermediate(gas, left, right)


def _rates(gas, ts):
    """(c1-, c1+, c2-, c2+)."""
    return (decay_rates(gas, ts.left, ts.mid, ts.s1)
            + decay_rates(gas, ts.mid, ts.right, ts.s2))


def _single_margin_n(gas, ts, beta, t_final, dx=0.05):
    """n of the earlier auto_grid, which gave both edges the margin
    max(20, ln(max(chi)/1e-13)) / c_min."""
    margin = (max(20.0, math.log(max(ts.chi1, ts.chi2) / 1e-13))
              / min(_rates(gas, ts)))
    width = beta + (ts.s2 - ts.s1) * t_final + 2.0 * margin
    return int(math.ceil(width / dx)) + 1


@pytest.mark.parametrize("chi", [(1e-3, 3.0), (3.0, 1e-3)])
def test_auto_grid_asymmetric_strengths_shrink(gas, chi):
    """The weak wave's slow tail no longer sizes the strong wave's side."""
    ts = _datum(gas, 1.0, *chi)
    beta = 40.0 / min(_rates(gas, ts))
    n = auto_grid(gas, ts, beta, 0.0).n
    assert n <= 0.65 * _single_margin_n(gas, ts, beta, 0.0)


@pytest.mark.parametrize("family", [1, 2])
def test_auto_grid_lone_wave_far_side_decayed(gas, family):
    """With beta = 0 (one wave), the margin beyond the lone wave's side
    that faces the other family comes from the inner-tail term: a strong
    other wave leaves its own outer margin far too short."""
    chi = (1e-3, 3.0) if family == 1 else (3.0, 1e-3)
    ts = _datum(gas, 1.0, *chi)
    grid = auto_grid(gas, ts, 0.0, 1.0)
    wave = build_profiles(gas, ts)[family - 1]
    V = CompositeWave(wave, None, 0.0).state_fields(
        np.array([grid.x_lo, grid.x_hi]), 1.0)[0]
    assert abs(V[0] - wave.state_l.v) <= BOUNDARY_DECAY_TOL
    assert abs(V[1] - wave.state_r.v) <= BOUNDARY_DECAY_TOL


def _edge_residuals(gas, ts, beta, grid, t_final):
    """Largest |V - v_far| and |W| of the unshifted composite at the two
    grid edges, over t = 0 and t = t_final."""
    cw = CompositeWave(*build_profiles(gas, ts), beta)
    edges = np.array([grid.x_lo, grid.x_hi])
    far = np.array([ts.left.v, ts.right.v])
    gap = w_edge = 0.0
    for t in (0.0, t_final):
        f = cw.fields(edges, t)
        gap = max(gap, float(np.max(np.abs(f.V - far))))
        w_edge = max(w_edge, float(np.max(np.abs(f.W))))
    return gap, w_edge


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True),
       alpha=st.floats(0.0, 2.0),
       a=st.floats(0.3, 3.0),
       v_m=st.floats(0.3, 3.0),
       log_chi1=st.floats(math.log(1e-3), math.log(5.0)),
       log_chi2=st.floats(math.log(1e-3), math.log(5.0)),
       t_final=st.sampled_from([0.0, 5.0]),
       fixed_beta=st.booleans())
def test_auto_grid_edges_decayed_across_ss_region(gamma, alpha, a, v_m,
                                                  log_chi1, log_chi2,
                                                  t_final, fixed_beta):
    """At both edges, at t = 0 and t = T, the composite sits within the
    boundary tolerances of the far states, both at beta = 40 / c_min and
    at a fixed beta = 40, where weak shocks sit close and an inner tail
    sizes an edge.  At beta = 40 / c_min the per-side margins never grow
    the grid."""
    gas = GasModel(a=a, gamma=gamma, alpha=alpha)
    ts = _datum(gas, v_m, v_m * math.exp(log_chi1), v_m * math.exp(log_chi2))
    beta = 40.0 if fixed_beta else 40.0 / min(_rates(gas, ts))
    grid = auto_grid(gas, ts, beta, t_final)
    if not fixed_beta:
        assert grid.n <= _single_margin_n(gas, ts, beta, t_final)
    gap, w_edge = _edge_residuals(gas, ts, beta, grid, t_final)
    assert gap <= BOUNDARY_DECAY_TOL
    assert w_edge <= W_BOUNDARY_TOL


def _single_shock_cfg(t_final=1.0, dx=0.05):
    return ExperimentConfig(
        gas=__import__("shockwave_lab").GasModel(1.0, 2.0, 0.0),
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=0.0,
        grid=GridSpec(dx=dx),
        time=TimeSpec(t_final=t_final, record_dt=t_final / 4.0),
        single_family=1,
    )


def test_run_simulation_single_shock_fidelity():
    res = run_simulation(_single_shock_cfg())
    sup_v = res.series.column("sup_v")
    assert np.max(sup_v) <= 5e-3  # O(dx^2) fidelity to the traveling wave
    t = res.series.t
    assert np.all(np.diff(t) > 0.0)
    for name in ("sup_v", "sup_u", "E0", "E1", "l2_W"):
        assert np.all(np.isfinite(res.series.column(name)))


def test_run_simulation_composite_zero_perturbation(gas):
    cfg = ExperimentConfig(
        gas=gas,
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=30.0,
        grid=GridSpec(dx=0.06),
        time=TimeSpec(t_final=0.5, record_dt=0.25),
    )
    res = run_simulation(cfg)
    assert res.composite.beta1 == pytest.approx(0.0, abs=1e-10)
    assert res.composite.beta2 == pytest.approx(0.0, abs=1e-10)
    assert np.max(res.series.column("sup_v")) <= 8e-3


def test_run_simulation_perturbed_series_contract(gas):
    cfg = ExperimentConfig(
        gas=gas,
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=30.0,
        perturbations=(Perturbation("v", 0.03, 15.0, 1.0),),
        grid=GridSpec(dx=0.06),
        time=TimeSpec(t_final=0.4, record_dt=0.1, snapshot_times=(0.4,)),
    )
    res = run_simulation(cfg)
    t = res.series.t
    assert np.all(np.diff(t) > 0.0)
    assert len(res.snapshots) == 1 and res.snapshots[0].t == pytest.approx(0.4)
    assert res.composite.beta1 != 0.0


def test_run_simulation_carries_its_setup(gas):
    """A SimulationResult extends the ExperimentSetup of its config: the
    same initial data, shift inputs and shifted composite."""
    cfg = ExperimentConfig(
        gas=gas,
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=30.0,
        perturbations=(Perturbation("v", 0.03, 15.0, 1.0),),
        grid=GridSpec(dx=0.1),
        time=TimeSpec(t_final=0.1, record_dt=0.1),
    )
    res = run_simulation(cfg)
    exp = solver.setup_experiment(cfg)
    assert res.shift_inputs == exp.shift_inputs
    np.testing.assert_array_equal(res.v0, exp.v0)
    np.testing.assert_array_equal(res.u0, exp.u0)
    assert ((res.composite.beta1, res.composite.beta2)
            == (exp.composite.beta1, exp.composite.beta2))
    assert res.config is cfg


def test_mirror_image_run_is_reflected():
    """Reflection x -> beta - x, u -> -u swaps the two families and maps a
    run onto the run of the mirrored datum.  On an asymmetric datum the
    final states, the sup and W norms and the shifts agree with the
    mirror run's up to rounding; phi, Psi and E0, anchored at x_lo, are
    left out."""
    gas = GasModel(a=1.0, gamma=1.4, alpha=0.5)
    beta, t_final = 20.0, 2.0
    spec = RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=3.0, v_m=1.0)
    grid = auto_grid(gas, spec.resolve(gas), beta, t_final, n=1000)
    perts = (Perturbation("v", 0.05, 8.0, 1.0),
             Perturbation("u", 0.03, 13.0, 1.5))

    def run(spec, perts, x_lo, x_hi):
        return run_simulation(ExperimentConfig(
            gas=gas, riemann=spec, beta=beta, perturbations=perts,
            grid=GridSpec(x_lo=x_lo, x_hi=x_hi, n=grid.n),
            time=TimeSpec(t_final=t_final, record_dt=0.25,
                          snapshot_times=(t_final,))))

    res = run(spec, perts, grid.x_lo, grid.x_hi)
    mirror = run(
        RiemannSpec(v_minus=spec.v_plus, u_minus=-res.two_shock.right.u,
                    v_plus=spec.v_minus, v_m=spec.v_m),
        tuple(Perturbation(p.target,
                           -p.amplitude if p.target == "u" else p.amplitude,
                           beta - p.center, p.width) for p in perts),
        beta - grid.x_hi, beta - grid.x_lo)

    amp = max(abs(p.amplitude) for p in perts)
    snap, snap_m = res.snapshots[-1], mirror.snapshots[-1]
    assert np.max(np.abs(snap.v - snap_m.v[::-1])) <= 1e-10 * amp
    assert np.max(np.abs(snap.u + snap_m.u[::-1])) <= 1e-10 * amp
    for name in ("sup_v", "sup_u", "l2_W"):
        np.testing.assert_allclose(res.series.column(name),
                                   mirror.series.column(name),
                                   rtol=1e-12, atol=0.0, err_msg=name)
    cw, cw_m = res.composite, mirror.composite
    assert (cw.beta1, cw.beta2) == pytest.approx((-cw_m.beta2, -cw_m.beta1),
                                                 rel=1e-12)


def test_scaled_image_run_is_rescaled():
    """The scaling v = V0 v~, x = L x~, t = T0 t~, u = U0 u~ with
    L = V0^((gamma-1-2 alpha)/2) / sqrt(a), T0 = L^2 V0^(alpha+1) and
    U0 = V0 L / T0 maps the canonical run (a = 1, v_m = 1) onto the run
    of its image at a = 3, v_m = V0 = 2, with the perturbations, beta,
    the explicit grid and the schedule mapped alike: the final states
    agree up to rounding, and so do the record times and the shifts."""
    base = verify.stability_config()
    gas, r = base.gas, base.riemann
    t_final = 2.0
    grid = auto_grid(gas, r.resolve(gas), base.beta, t_final, n=1000)
    a, V0 = 3.0, 2.0
    L = V0 ** ((gas.gamma - 1.0 - 2.0 * gas.alpha) / 2.0) / math.sqrt(a)
    T0 = L * L * V0 ** (gas.alpha + 1.0)
    U0 = V0 * L / T0

    def run(gas, spec, perts, scale_x, scale_t):
        return run_simulation(ExperimentConfig(
            gas=gas, riemann=spec, beta=base.beta * scale_x,
            perturbations=perts,
            grid=GridSpec(x_lo=grid.x_lo * scale_x, x_hi=grid.x_hi * scale_x,
                          n=grid.n),
            time=TimeSpec(t_final=t_final * scale_t, record_dt=0.25 * scale_t,
                          snapshot_times=(t_final * scale_t,))))

    res = run(gas, r, base.perturbations, 1.0, 1.0)
    image = run(
        GasModel(a=a, gamma=gas.gamma, alpha=gas.alpha),
        RiemannSpec(v_minus=V0 * r.v_minus, u_minus=U0 * r.u_minus,
                    v_plus=V0 * r.v_plus, v_m=V0 * r.v_m),
        tuple(Perturbation(p.target,
                           p.amplitude * (V0 if p.target == "v" else U0),
                           L * p.center, L * p.width)
              for p in base.perturbations),
        L, T0)

    amp = max(abs(p.amplitude) for p in base.perturbations)
    snap, snap_i = res.snapshots[-1], image.snapshots[-1]
    assert np.max(np.abs(snap.v - snap_i.v / V0)) <= 1e-9 * amp
    assert np.max(np.abs(snap.u - snap_i.u / U0)) <= 1e-9 * amp
    t, t_i = res.series.column("t"), image.series.column("t")
    assert t.size == t_i.size == 9
    assert np.max(np.abs(t - t_i / T0)) <= 1e-12
    cw, cw_i = res.composite, image.composite
    assert (cw.beta1, cw.beta2) == pytest.approx((cw_i.beta1 / L,
                                                  cw_i.beta2 / L), rel=1e-12)


def test_setup_experiment_memory():
    """Set-up holds at most 6 grid arrays at once (x, V0, U0, the
    perturbed copies and one bump), and its v0, u0 and shift inputs are
    the formulas' bit for bit."""
    cfg = dataclasses.replace(verify.stability_config(),
                              grid=GridSpec(n=500_000))
    solver.setup_experiment(dataclasses.replace(cfg, grid=GridSpec(n=1000)))
    tracemalloc.start()
    try:
        setup = solver.setup_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x = setup.grid.x
    assert peak <= 6 * x.nbytes + 1_000_000
    cw0 = setup.composite.shifted(0.0, 0.0)
    V0, U0 = cw0.state_fields(x, 0.0)
    v0, u0 = V0.copy(), U0.copy()
    for p in cfg.perturbations:
        if p.target == "v":
            v0 = v0 + p(x)
        else:
            u0 = u0 + p(x)
    assert setup.v0.tobytes() == v0.tobytes()
    assert setup.u0.tobytes() == u0.tobytes()
    assert setup.shift_inputs == _shift_inputs(v0 - V0, u0 - U0, cw0,
                                               setup.grid)


def _windowed_run_and_reference(monkeypatch, perts):
    """run_simulation on an explicit grid wider than the waves' domain at
    T, the (lo, hi) of every window it took, and the reference: advance
    and make_record on the whole grid over the same schedule."""
    from shockwave_lab import diagnostics
    gas = GasModel(a=1.0, gamma=2.0, alpha=0.0)
    t_final = 1.0
    cfg = ExperimentConfig(
        gas=gas,
        riemann=RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0),
        beta=20.0, perturbations=perts,
        grid=GridSpec(x_lo=-80.0, x_hi=100.0, n=901),
        time=TimeSpec(t_final=t_final, record_dt=0.125,
                      snapshot_times=(t_final,)))
    windows = []
    window = Grid1D.window

    def recording(grid, lo, hi):
        windows.append((lo, hi))
        return window(grid, lo, hi)

    monkeypatch.setattr(Grid1D, "window", recording)
    res = run_simulation(cfg)
    monkeypatch.undo()

    setup = solver.setup_experiment(cfg)
    grid, cw = setup.grid, setup.composite
    state, records = FieldState(0.0, setup.v0, setup.u0), []
    for t, record, _ in cfg.time.events():
        state = advance(gas, state, grid, t)
        if record:
            records.append(diagnostics.make_record(state, cw, grid))
    return res, windows, records, state


def _assert_matches_reference(res, records, state):
    from shockwave_lab.diagnostics import DIAG_CSV_COLUMNS
    assert len(res.series) == len(records) == 9
    for name in DIAG_CSV_COLUMNS:
        want = np.array([getattr(r, name) for r in records])
        got = res.series.column(name)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= tol, name
    snap = res.snapshots[-1]
    assert snap.t == state.t
    assert np.max(np.abs(snap.v - state.v)) <= 1e-12
    assert np.max(np.abs(snap.u - state.u)) <= 1e-12


def test_windowed_run_matches_whole_grid_reference(monkeypatch):
    """Stepping and recording on the waves' window gives the records and
    the final state of the whole grid's steps and records, and the window
    starts strictly inside the grid, so the comparison is not vacuous."""
    perts = (Perturbation("v", 0.05, 10.0, 1.0),
             Perturbation("u", 0.05, 10.0, 1.0))
    res, windows, records, state = _windowed_run_and_reference(monkeypatch,
                                                               perts)
    lo, hi = windows[0]
    assert 0 < lo and hi < res.grid.n
    assert len(windows) > 1  # it grows with the waves, and never shrinks
    assert all(a1 <= a0 and b1 >= b0
               for (a0, b0), (a1, b1) in zip(windows, windows[1:]))
    _assert_matches_reference(res, records, state)


@pytest.mark.parametrize("center", [-45.0, 75.0], ids=["left", "right"])
def test_bump_beyond_the_waves_lies_inside_the_window(monkeypatch, center):
    """A bump outside both waves spreads away from them as well as into
    them, so the window reaches the grid's end on its side; the run still
    matches the whole grid's.  (A window holding only the bump's support
    at t = 0 is off by ~1e-4 here.)"""
    res, windows, records, state = _windowed_run_and_reference(
        monkeypatch, (Perturbation("u", 0.05, center, 1.0),))
    lo, hi = windows[0]
    if center < 0.0:
        assert lo == 0 and hi < res.grid.n
    else:
        assert lo > 0 and hi == res.grid.n
    _assert_matches_reference(res, records, state)


def test_grid_window_is_a_view_with_the_parents_spacing():
    """Grid1D.window shares the parent's points and dx bit for bit, where
    a grid rebuilt from its end points would not."""
    grid = Grid1D(-69.22453359302851, 109.2245335930285, 4000)
    win = grid.window(1234, 3210)
    assert win.n == 3210 - 1234
    assert np.shares_memory(win.x, grid.x)
    np.testing.assert_array_equal(win.x, grid.x[1234:3210])
    assert win.dx.hex() == grid.dx.hex()
    assert (win.x_lo, win.x_hi) == (grid.x[1234], grid.x[3209])
    rebuilt = Grid1D(win.x_lo, win.x_hi, win.n)
    assert (rebuilt.dx != grid.dx
            or not np.array_equal(rebuilt.x, grid.x[1234:3210]))
    assert grid.window(0, grid.n).x.tobytes() == grid.x.tobytes()
    for lo, hi in ((-1, 100), (0, 4001), (100, 100)):
        with pytest.raises(ValueError, match="window"):
            grid.window(lo, hi)

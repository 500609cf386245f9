"""Method-of-lines finite-difference solver for the Lagrangian system

    v_t = u_x,
    u_t = -p_x + (u_x / v^(alpha+1))_x,

on a truncated domain with far-field Dirichlet boundaries, with central
second-order differences in space.  Time stepping is Strang-split
(Strang 1968, SIAM J. Numer. Anal. 5:506): a Crank-Nicolson half step
of the viscous part with v frozen, one classical RK4 step of the
inviscid part, and a second viscous half step, at the hyperbolic CFL
bound recomputed every step.  The implicit half steps lift the explicit
viscous bound, which on the stability experiment is 63x smaller.

The hyperbolic CFL number, 0.8, is the largest of those measured that
keeps the temporal error within 10% of the spatial error on the shipped
grids.  Strang splitting is second order, so that error grows like
dt^2.  Measured against CFL 0.1 on the convergence suite's dx = 0.025
run, it is 2.0% of the L2 error at CFL 0.4, 8.0% at 0.8 and 17.6% at
1.2 (test_solver.py::test_temporal_error_within_budget pins it).  At
0.8 Crank-Nicolson still damps the odd-even mode of the stability grid
by 0.73 per step (test_crank_nicolson_damps_odd_even_mode).

Classical RK4 on the full semidiscretization (`rk4_step` at
`stable_dt`, the min of the hyperbolic and viscous bounds) is kept as
the explicit reference path that the split step is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .riemann import GasModel, TwoShockData
from .profile import build_profiles, decay_rates
# compute_shift_inputs is unused here, but perfbench's tracer wraps it in
# this module's namespace by name
from .composite import (CompositeWave, ShiftInputs, TruncationError,
                        _shift_inputs, compute_shift_inputs, solve_shifts)

__all__ = [
    "Grid1D",
    "FieldState",
    "SchemeConfig",
    "PositivityError",
    "semidiscrete_rhs",
    "hyperbolic_dt",
    "stable_dt",
    "rk4_step",
    "strang_step",
    "advance",
    "effective_velocity",
    "auto_grid",
    "apply_perturbations",
    "setup_experiment",
    "ExperimentSetup",
    "run_simulation",
    "SimulationResult",
    "Snapshot",
    "write_csv",
]

# absolute-tolerance goal for composite tails at the domain boundary
_BOUNDARY_GOAL = 1e-13
# rows per block in write_csv: the block's Python floats (~32 bytes each)
# are all alive at once, so whole 4000-row snapshots would add ~1 MB
_CSV_BLOCK = 512


class PositivityError(RuntimeError):
    """Specific volume lost positivity; carries the offending state.

    Raised out of run_simulation, it also carries the diagnostics
    series and the snapshots taken before the failure.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
        self.series = None
        self.snapshots = []


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform grid with n points on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        if not self.x_hi > self.x_lo:
            raise ValueError("x_hi must exceed x_lo")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n)


@dataclass
class FieldState:
    """Grid solution at time t: arrays of specific volume and velocity."""

    t: float
    v: np.ndarray
    u: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.v.copy(), self.u.copy())


@dataclass(frozen=True)
class SchemeConfig:
    """CFL numbers.  cfl_hyperbolic sets the step advance takes; 0.8 keeps
    the dt^2 temporal error of the split step within 10% of the spatial
    error (module docstring; test_temporal_error_within_budget).
    cfl_viscous is used only by stable_dt, the bound of the explicit RK4
    reference path."""

    cfl_hyperbolic: float = 0.8
    cfl_viscous: float = 0.4

    def __post_init__(self):
        for name in ("cfl_hyperbolic", "cfl_viscous"):
            c = getattr(self, name)
            if not 0.0 < c <= 0.9:
                raise ValueError(f"{name} must lie in (0, 0.9]")


def _face_visc(gas: GasModel, vbar):
    return vbar if gas.alpha == 0.0 else vbar ** (gas.alpha + 1.0)


def _inviscid_rhs(gas: GasModel, v, u, dx):
    """(dv/dt, du/dt) = (u_x, -p_x) by central differences; boundary rows 0."""
    p = gas.pressure(v)
    dv = np.zeros_like(v)
    du = np.zeros_like(u)
    dv[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    du[1:-1] = -(p[2:] - p[:-2]) / (2.0 * dx)
    return dv, du


def semidiscrete_rhs(gas: GasModel, state: FieldState, grid: Grid1D):
    """(dv/dt, du/dt) of the second-order central semidiscretization.

    Viscous flux at half points uses the arithmetic-mean volume;
    boundary rows are pinned (zero time derivative).
    """
    v, u = state.v, state.u
    if np.any(v <= 0.0):
        raise PositivityError("nonpositive specific volume in rhs evaluation",
                              state.copy())
    dx = grid.dx
    dv, du = _inviscid_rhs(gas, v, u, dx)
    vbar = 0.5 * (v[1:] + v[:-1])
    sigma = (u[1:] - u[:-1]) / (dx * _face_visc(gas, vbar))
    du[1:-1] += (sigma[1:] - sigma[:-1]) / dx
    return dv, du


def hyperbolic_dt(gas: GasModel, state: FieldState, grid: Grid1D,
                  scheme: SchemeConfig = SchemeConfig()) -> float:
    """Hyperbolic CFL bound cfl dx / max|lambda|, with max|lambda| =
    sqrt(-p'(v_min)); raises PositivityError if some v <= 0.

    The step advance takes.  Classical RK4 with central differences is
    linearly stable up to cfl = 2 sqrt(2); the shipped 0.8 is set by the
    temporal error budget instead (module docstring)."""
    vmin = float(state.v.min())
    if vmin <= 0.0:
        raise PositivityError("nonpositive specific volume", state.copy())
    lam_max = math.sqrt(gas.a * gas.gamma) * vmin ** (-0.5 * (gas.gamma + 1.0))
    return scheme.cfl_hyperbolic * grid.dx / lam_max


def stable_dt(gas: GasModel, state: FieldState, grid: Grid1D,
              scheme: SchemeConfig = SchemeConfig()) -> float:
    """Explicit step bound: min of hyperbolic and viscous CFL limits."""
    dt_h = hyperbolic_dt(gas, state, grid, scheme)
    vmin = float(state.v.min())
    dt_v = scheme.cfl_viscous * grid.dx ** 2 * vmin ** (gas.alpha + 1.0) / 2.0
    return min(dt_h, dt_v)


def rk4_step(gas: GasModel, state: FieldState, dt: float, grid: Grid1D) -> FieldState:
    """One classical four-stage explicit step; boundary values unchanged."""
    v, u = state.v, state.u
    k1v, k1u = semidiscrete_rhs(gas, state, grid)
    s2 = FieldState(state.t, v + 0.5 * dt * k1v, u + 0.5 * dt * k1u)
    k2v, k2u = semidiscrete_rhs(gas, s2, grid)
    s3 = FieldState(state.t, v + 0.5 * dt * k2v, u + 0.5 * dt * k2u)
    k3v, k3u = semidiscrete_rhs(gas, s3, grid)
    s4 = FieldState(state.t, v + dt * k3v, u + dt * k3u)
    k4v, k4u = semidiscrete_rhs(gas, s4, grid)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    u_new = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    out = FieldState(state.t + dt, v_new, u_new)
    if np.any(v_new <= 0.0):
        raise PositivityError(f"positivity lost at t = {out.t:.6g}", out)
    return out


def _crank_nicolson(gas: GasModel, v, u, tau: float, grid: Grid1D):
    """u advanced by tau under u_t = L u, the viscous part of
    semidiscrete_rhs with v frozen: (I - tau/2 L) u' = (I + tau/2 L) u,
    solved for the increment, (I - tau/2 L)(u' - u) = tau L u, so a state
    with L u = 0 stays exactly as it is.

    L is tridiagonal, with face coefficients 1 / (dx^2 vbar^(alpha+1))
    and zero boundary rows, so the boundary values stay pinned.
    """
    n, dx = u.size, grid.dx
    r = (0.5 * tau / (dx * dx)) / _face_visc(gas, 0.5 * (v[1:] + v[:-1]))
    flux = r * (u[1:] - u[:-1])
    b = np.zeros(n)
    b[1:-1] = 2.0 * (flux[1:] - flux[:-1])
    ab = np.zeros((3, n))
    ab[0, 2:] = -r[1:]
    ab[1] = 1.0
    ab[1, 1:-1] += r[1:] + r[:-1]
    ab[2, :-2] = -r[:-1]
    return u + solve_banded((1, 1), ab, b, overwrite_ab=True,
                            overwrite_b=True, check_finite=False)


def strang_step(gas: GasModel, state: FieldState, dt: float,
                grid: Grid1D) -> FieldState:
    """One Strang-split step, second order in time: a Crank-Nicolson
    viscous half step, one RK4 step of the inviscid part (stable up to
    the hyperbolic bound), and a second viscous half step."""
    dx = grid.dx
    v = state.v
    u = _crank_nicolson(gas, v, state.u, 0.5 * dt, grid)
    k1v, k1u = _inviscid_rhs(gas, v, u, dx)
    k2v, k2u = _inviscid_rhs(gas, v + 0.5 * dt * k1v, u + 0.5 * dt * k1u, dx)
    k3v, k3u = _inviscid_rhs(gas, v + 0.5 * dt * k2v, u + 0.5 * dt * k2u, dx)
    k4v, k4u = _inviscid_rhs(gas, v + dt * k3v, u + dt * k3u, dx)
    v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    t = state.t + dt
    if not np.all(v > 0.0):  # also catches a nan from a nonpositive stage
        raise PositivityError(f"positivity lost at t = {t:.6g}",
                              FieldState(t, v, u))
    return FieldState(t, v, _crank_nicolson(gas, v, u, 0.5 * dt, grid))


def advance(gas: GasModel, state: FieldState, grid: Grid1D,
            t_target: float) -> FieldState:
    """Strang-split steps at the hyperbolic dt from state.t to t_target,
    the last one clipped to land on t_target; state itself if
    t_target <= state.t."""
    while state.t < t_target - 1e-12:
        dt = min(hyperbolic_dt(gas, state, grid), t_target - state.t)
        state = strang_step(gas, state, dt, grid)
    return state


def effective_velocity(gas: GasModel, state: FieldState, grid: Grid1D) -> np.ndarray:
    """h = u - v^-(alpha+1) v_x with central differences for v_x."""
    vx = np.gradient(state.v, grid.dx, edge_order=2)
    return state.u - vx / state.v ** (gas.alpha + 1.0)


def auto_grid(gas: GasModel, ts: TwoShockData, beta: float, t_final: float,
              n: Optional[int] = None, dx: float = 0.05) -> Grid1D:
    """Domain containing [s1 T - margin, beta + s2 T + margin].

    The margin is max(20, ln(max(chi)/1e-13)) / c_min so the composite
    tails sit below ~1e-13 at the boundary for all t <= T.
    """
    c1m, c1p = decay_rates(gas, ts.left, ts.mid, ts.s1)
    c2m, c2p = decay_rates(gas, ts.mid, ts.right, ts.s2)
    c_min = min(c1m, c1p, c2m, c2p)
    chi_max = max(ts.chi1, ts.chi2)
    margin = max(20.0, math.log(chi_max / _BOUNDARY_GOAL)) / c_min
    x_lo = ts.s1 * t_final - margin
    x_hi = beta + ts.s2 * t_final + margin
    if n is None:
        n = int(math.ceil((x_hi - x_lo) / dx)) + 1
        if n < 16:
            raise ValueError(f"dx = {dx:g} gives {n} points on the auto-sized "
                             f"domain [{x_lo:.6g}, {x_hi:.6g}]; a grid needs "
                             "at least 16")
    return Grid1D(x_lo, x_hi, n)


def write_csv(path, names, columns):
    """Header of names, then one row per index of the equal-length columns,
    each value with 17 significant digits so a float64 reads back exactly."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    n = min((c.size for c in columns), default=0)
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for i in range(0, n, _CSV_BLOCK):
            block = [c[i:i + _CSV_BLOCK].tolist() for c in columns]
            f.writelines(row % values for values in zip(*block))


@dataclass
class Snapshot:
    """Full-field dump at one time."""

    t: float
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray
    V: np.ndarray
    U: np.ndarray
    h: np.ndarray
    H: np.ndarray
    W: np.ndarray

    COLUMNS = ("x", "v", "u", "V", "U", "h", "H", "W")

    def write_csv(self, path):
        write_csv(path, self.COLUMNS, [getattr(self, c) for c in self.COLUMNS])


@dataclass
class SimulationResult:
    series: "DiagnosticsSeries"
    snapshots: list
    composite: CompositeWave
    two_shock: TwoShockData
    grid: Grid1D
    profiles: tuple
    shift_inputs: object
    config: object = None


@dataclass
class ExperimentSetup:
    """Everything before the first time step: the perturbed initial data
    and the shifted composite it is measured against."""

    two_shock: TwoShockData
    profiles: tuple
    grid: Grid1D
    v0: np.ndarray
    u0: np.ndarray
    shift_inputs: ShiftInputs
    composite: CompositeWave


def apply_perturbations(V, U, x, perturbations):
    """Copies of (V, U) with the bump of each perturbation added to its target."""
    v, u = V.copy(), U.copy()
    for pert in perturbations:
        bump = pert(x)
        if pert.target == "v":
            v += bump
        else:
            u += bump
    return v, u


def setup_experiment(cfg) -> ExperimentSetup:
    """Riemann solve, profiles, grid, perturbed initial data and shifts.

    The configured perturbations are added to the unshifted composite.
    The shifts zero the excess masses of the result: both of them for a
    two-shock composite, the volume mass alone for a single wave
    (cfg.single_family), whose shift beta2 is 0.
    """
    gas = cfg.gas
    ts = cfg.riemann.resolve(gas)
    p1, p2 = build_profiles(gas, ts)
    if cfg.single_family is None:
        waves = (p1, p2)
        cw0 = CompositeWave(p1, p2, cfg.beta)
    else:
        waves = ((p1, p2)[cfg.single_family - 1],)
        cw0 = CompositeWave(waves[0], None, cfg.beta)
    c_max = max(max(p.c_minus, p.c_plus) for p in waves)

    grid = cfg.grid.resolve(gas, ts, cfg.beta, cfg.time.t_final, c_max)
    V0, U0 = cw0.state_fields(grid.x, 0.0)
    v0, u0 = apply_perturbations(V0, U0, grid.x, cfg.perturbations)

    si = _shift_inputs(v0 - V0, u0 - U0, cw0, grid)
    if cfg.single_family is None:
        b1, b2 = solve_shifts(si, ts)
    else:
        wave = cw0.wave1
        b1, b2 = si.I01 / (wave.state_r.v - wave.state_l.v), 0.0
    # + 0.0 turns a zero shift of either sign into +0.0
    return ExperimentSetup(two_shock=ts, profiles=(p1, p2), grid=grid,
                           v0=v0, u0=u0, shift_inputs=si,
                           composite=cw0.shifted(b1 + 0.0, b2 + 0.0))


def _schedule(t_final, record_dt, snapshot_times):
    records = [float(t) for t in np.arange(0.0, t_final, record_dt)] + [float(t_final)]
    events = {}
    for t in records:
        events[round(t, 12)] = {"record": True, "snapshot": False}
    for t in snapshot_times:
        key = round(float(t), 12)
        entry = events.setdefault(key, {"record": False, "snapshot": False})
        entry["snapshot"] = True
    return sorted(events.items())


def run_simulation(cfg) -> SimulationResult:
    """Full experiment: setup_experiment, then evolution.

    Evolves the perturbed data with advance, recording diagnostics at the
    configured cadence and snapshots at the configured times.  A
    PositivityError or a TruncationError of the diagnostics leaves with
    the series and snapshots taken so far as its `series` and
    `snapshots`, and a snapshot of the failing state appended to them.
    """
    from . import diagnostics  # deferred: diagnostics imports this module

    gas = cfg.gas
    exp = setup_experiment(cfg)
    grid, cw = exp.grid, exp.composite
    x = grid.x
    state = FieldState(0.0, exp.v0, exp.u0)
    series = diagnostics.DiagnosticsSeries()
    snapshots = []

    def snapshot(st):
        flds = cw.fields(x, st.t)
        h = effective_velocity(gas, st, grid)
        return Snapshot(t=st.t, x=x.copy(), v=st.v.copy(), u=st.u.copy(),
                        V=flds.V, U=flds.U, h=h, H=flds.H, W=flds.W)

    schedule = _schedule(cfg.time.t_final, cfg.time.record_dt,
                         cfg.time.snapshot_times)
    try:
        for t_target, flags in schedule:
            state = advance(gas, state, grid, t_target)
            if flags["record"]:
                series.append(diagnostics.make_record(state, cw, grid))
            if flags["snapshot"]:
                snapshots.append(snapshot(state))
    except (PositivityError, TruncationError) as exc:
        exc.series, exc.snapshots = series, snapshots
        # a PositivityError carries the state it rejected (or None)
        last = getattr(exc, "state", state)
        if last is not None:
            # h of a state with v <= 0 may be nan; it is written as is
            with np.errstate(all="ignore"):
                snapshots.append(snapshot(last))
        raise

    return SimulationResult(series=series, snapshots=snapshots, composite=cw,
                            two_shock=exp.two_shock, grid=grid,
                            profiles=exp.profiles,
                            shift_inputs=exp.shift_inputs, config=cfg)

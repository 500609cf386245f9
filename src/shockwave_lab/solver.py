"""Method-of-lines finite-difference solver for the Lagrangian system

    v_t = u_x,
    u_t = -p_x + (u_x / v^(alpha+1))_x,

on a truncated domain with far-field Dirichlet boundaries, with central
second-order differences in space.  Time stepping is Strang-split
(Strang 1968, SIAM J. Numer. Anal. 5:506): one three-stage SSP-RK3 step
of the inviscid part between Crank-Nicolson steps of the viscous part
with v frozen, at the hyperbolic CFL bound recomputed every step.  The
viscous half steps that end one step and open the next see the same v,
so advance takes them as one Crank-Nicolson step, with half steps only
at the two ends of its interval (Hundsdorfer & Verwer 2003, Numerical
Solution of Time-Dependent Advection-Diffusion-Reaction Equations, on
operator splitting): one tridiagonal solve per step.  The implicit
steps lift the explicit viscous bound, which on the stability
experiment is 63x smaller.  The method of lines is one ODE for the
pair (v, u): advance stacks it once into a (2, n) array that every
step updates in place, and semidiscrete_rhs returns its derivative as
one (2, n) array.

The hyperbolic CFL number, 0.8, is the largest of those measured that
keeps the temporal error within 10% of the spatial error on the shipped
grids.  Strang splitting is second order, so that error grows like
dt^2.  Measured against CFL 0.1 on the convergence suite's dx = 0.025
run, it is 1.9% of the L2 error at CFL 0.4, 7.8% at 0.8 and 17.3% at
1.2 (test_solver.py::test_temporal_error_within_budget pins it).  It is
the splitting error, not the inviscid stage's: classical RK4 as the
stage changes these figures by at most 0.12 points, so the stage is the
three-stage SSP-RK3, which needs three right-hand sides to RK4's four.
At 0.8 one merged Crank-Nicolson step damps the odd-even mode of the
stability grid by 0.924 per step, against 0.73 for two half steps
(test_merged_steps_damp_odd_even_mode,
test_crank_nicolson_damps_odd_even_mode).

run_simulation steps and records only on a window of the grid where the
waves are, which grows with them (52% of the grid at the start of the
stability experiment; see its docstring), at the events of the config's
TimeSpec.  Each decision has one owner: the schedule and the snapshot
file names are TimeSpec's, the records diagnostics', and the CSV text
kernels.write_csv's, re-exported here for Snapshot.

Classical RK4 on the full semidiscretization (`rk4_step` at
`stable_dt`, the min of the hyperbolic and viscous bounds) is kept as
the explicit reference path that the split step is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dptsv

from .riemann import GasModel, TwoShockData
from .profile import build_profiles, decay_rates
# perfbench's tracer wraps compute_shift_inputs (unused here) and
# effective_velocity in this namespace and make_record in diagnostics,
# which run_simulation calls through the module
from .composite import (W_BOUNDARY_TOL, CompositeWave, ShiftInputs,
                        TruncationError, _shift_inputs, compute_shift_inputs,
                        solve_shifts)
from . import diagnostics
from .diagnostics import DiagnosticsSeries, effective_velocity
from .kernels import write_csv

__all__ = [
    "Grid1D",
    "FieldState",
    "PositivityError",
    "semidiscrete_rhs",
    "hyperbolic_dt",
    "stable_dt",
    "rk4_step",
    "advance",
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
# grid spacing of an auto-sized domain when neither n nor dx is given
_DEFAULT_DX = 0.05


class PositivityError(RuntimeError):
    """Specific volume lost positivity; carries the offending state.

    Raised out of run_simulation, it also carries the diagnostics
    series and the snapshots taken before the failure, as `series` and
    `snapshots`.
    """

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Ascending points x, spaced dx apart: the grid that uniform builds,
    or a window of one."""

    x: np.ndarray
    dx: float

    @classmethod
    def uniform(cls, x_lo: float, x_hi: float, n: int) -> "Grid1D":
        """n equally spaced points from x_lo to x_hi, both included."""
        if n < 16:
            raise ValueError("grid needs at least 16 points")
        if not x_hi > x_lo:
            raise ValueError("x_hi must exceed x_lo")
        return cls(np.linspace(x_lo, x_hi, n), (x_hi - x_lo) / (n - 1))

    @property
    def n(self) -> int:
        return self.x.size

    def window(self, lo: int, hi: int) -> "Grid1D":
        """Points lo, ..., hi - 1 of this grid as a grid of their own: a
        view of this grid's x, with this grid's dx.  A grid rebuilt by
        uniform from x[lo], x[hi - 1] and hi - lo would differ in both,
        since linspace rounds each point from its own end points."""
        if not 0 <= lo < hi <= self.n:
            raise ValueError(f"window [{lo}, {hi}) is not inside the "
                             f"{self.n} points of the grid")
        return Grid1D(self.x[lo:hi], self.dx)


@dataclass
class FieldState:
    """Grid solution at time t: arrays of specific volume and velocity."""

    t: float
    v: np.ndarray
    u: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.v.copy(), self.u.copy())


# CFL number of the hyperbolic bound, which sets the step advance takes:
# the largest measured value that keeps the dt^2 temporal error of the split
# step within 10% of the spatial error (module docstring;
# test_temporal_error_within_budget)
CFL_HYPERBOLIC = 0.8
# CFL number of the viscous bound, used only by stable_dt, the step of the
# explicit RK4 reference path rk4_step; the split step's implicit viscous
# stage has no such bound
CFL_VISCOUS = 0.4


def _face_visc(gas: GasModel, v):
    """vbar^(alpha+1) at the n - 1 faces, vbar = (v[1:] + v[:-1]) / 2."""
    vbar = 0.5 * (v[1:] + v[:-1])
    return vbar if gas.alpha == 0.0 else vbar ** (gas.alpha + 1.0)


def _inviscid_rhs(gas: GasModel, q, dx, dq):
    """Interior rows of d(v, u)/dt = (u_x, -p_x) by central differences,
    written into dq, shape (2, n - 2); q is the pair (v, u), a (2, n)
    array or two arrays."""
    v, u = q
    p = gas.pressure(v)
    np.subtract(u[2:], u[:-2], out=dq[0])
    np.subtract(p[:-2], p[2:], out=dq[1])
    dq /= 2.0 * dx


def semidiscrete_rhs(gas: GasModel, state: FieldState, grid: Grid1D):
    """d(v, u)/dt of the second-order central semidiscretization, as one
    (2, n) array whose rows are dv/dt and du/dt.

    Viscous flux at half points uses the arithmetic-mean volume;
    boundary rows are pinned (zero time derivative).
    """
    v, u = state.v, state.u
    if not np.all(v > 0.0):  # also catches a nan
        raise PositivityError("nonpositive specific volume in rhs evaluation",
                              state.copy())
    dx = grid.dx
    dq = np.zeros((2, v.size))
    _inviscid_rhs(gas, (v, u), dx, dq[:, 1:-1])
    sigma = (u[1:] - u[:-1]) / (dx * _face_visc(gas, v))
    dq[1, 1:-1] += (sigma[1:] - sigma[:-1]) / dx
    return dq


def hyperbolic_dt(gas: GasModel, state: FieldState, grid: Grid1D) -> float:
    """Hyperbolic CFL bound CFL_HYPERBOLIC dx / max|lambda|, with
    max|lambda| = sqrt(-p'(v_min)); raises PositivityError if some
    v <= 0 or is nan.

    The step advance takes.  Its SSP-RK3 stage with central differences
    is linearly stable up to a CFL number of sqrt(3), the extent of the
    three-stage method's stability region on the imaginary axis;
    CFL_HYPERBOLIC = 0.8 is set by the temporal error budget instead
    (module docstring)."""
    vmin = float(state.v.min())
    if not vmin > 0.0:  # also catches a nan, which min propagates
        raise PositivityError("nonpositive specific volume", state.copy())
    return CFL_HYPERBOLIC * grid.dx / gas.char_speed(vmin)


def stable_dt(gas: GasModel, state: FieldState, grid: Grid1D) -> float:
    """Explicit step bound: min of hyperbolic and viscous CFL limits."""
    dt_h = hyperbolic_dt(gas, state, grid)
    vmin = float(state.v.min())
    dt_v = CFL_VISCOUS * grid.dx ** 2 * vmin ** (gas.alpha + 1.0) / 2.0
    return min(dt_h, dt_v)


def rk4_step(gas: GasModel, state: FieldState, dt: float, grid: Grid1D) -> FieldState:
    """One classical four-stage explicit step; boundary values unchanged."""
    q = np.stack((state.v, state.u))

    def rhs(stage):
        return semidiscrete_rhs(gas, FieldState(state.t, *stage), grid)

    k1 = semidiscrete_rhs(gas, state, grid)
    k2 = rhs(q + 0.5 * dt * k1)
    k3 = rhs(q + 0.5 * dt * k2)
    k4 = rhs(q + dt * k3)
    q += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = FieldState(state.t + dt, *q)
    if not np.all(out.v > 0.0):  # also catches a nan
        raise PositivityError(f"positivity lost at t = {out.t:.6g}", out)
    return out


def _crank_nicolson(gas: GasModel, q, tau: float, grid: Grid1D):
    """Advances u = q[1] in place by tau under u_t = L u, the viscous part
    of semidiscrete_rhs with v = q[0] frozen:
    (I - tau/2 L) u' = (I + tau/2 L) u, solved for the increment,
    (I - tau/2 L)(u' - u) = tau L u, so a state with L u = 0 stays
    exactly as it is.

    L is tridiagonal, with face coefficients 1 / (dx^2 vbar^(alpha+1))
    and zero boundary rows, so the boundary values stay pinned and the
    increment solves the n - 2 interior rows alone, a symmetric positive
    definite system (LAPACK dptsv).
    """
    v, u = q
    dx = grid.dx
    r = (0.5 * tau / (dx * dx)) / _face_visc(gas, v)
    flux = r * (u[1:] - u[:-1])
    b = 2.0 * (flux[1:] - flux[:-1])
    _, _, du, info = dptsv(1.0 + r[1:] + r[:-1], -r[1:-1], b,
                           overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dptsv failed with info = {info}")
    u[1:-1] += du


def _inviscid_step(gas: GasModel, q, dt: float, dx: float):
    """Advances the (2, n) pair q = (v, u) in place by one SSP-RK3 step of
    the inviscid part (Shu & Osher 1988, J. Comput. Phys. 77:439;
    Gottlieb, Shu & Tadmor 2001, SIAM Rev. 43:89), in increment form on
    the interior rows:

        k1 = L(q), k2 = L(q + dt k1), k3 = L(q + dt/4 (k1 + k2)),
        q' = q + dt/6 (k1 + k2 + 4 k3).

    The boundary rows stay pinned, and a state with L(q) = 0 keeps its
    bits.
    """
    inner = q[:, 1:-1]
    stage = q.copy()
    k1, k2 = np.empty_like(inner), np.empty_like(inner)
    _inviscid_rhs(gas, q, dx, k1)
    stage[:, 1:-1] = inner + dt * k1
    _inviscid_rhs(gas, stage, dx, k2)
    k1 += k2
    stage[:, 1:-1] = inner + 0.25 * dt * k1
    _inviscid_rhs(gas, stage, dx, k2)
    inner += dt / 6.0 * (k1 + 4.0 * k2)


def advance(gas: GasModel, state: FieldState, grid: Grid1D,
            t_target: float) -> FieldState:
    """Strang-split steps at the hyperbolic dt from state.t to t_target,
    the last one clipped to land on t_target; state itself if
    t_target <= state.t.

    Step k is an SSP-RK3 step of the inviscid part between
    Crank-Nicolson steps of the viscous part.  The viscous step after
    step k and the one before step k + 1 see the same v, so they are
    taken as one step of (dt_k + dt_{k+1}) / 2: the first step opens with
    dt_0 / 2 and the last closes with a half step, which makes a single
    step the Strang step CN(dt/2), RK3(dt), CN(dt/2).  The pair (v, u) is
    stacked once into one (2, n) array that every step updates in place;
    the result's v and u are its rows, and state is never written.  A
    PositivityError carries the rejected post-stage state.
    """
    q = np.stack((state.v, state.u))
    t = _advance_pair(gas, q, grid, state.t, t_target)
    return state if t == state.t else FieldState(t, *q)


def _advance_pair(gas: GasModel, q, grid: Grid1D, t: float,
                  t_target: float) -> float:
    """The steps of advance on the (2, n) pair q = (v, u) of grid, in
    place, from t; returns the time reached, t itself if no step was
    taken.  q may be a view, such as the window q[:, lo:hi] of a larger
    pair."""
    v, u = q
    dt = 0.0  # no step yet, so the first viscous step is a half step
    while t < t_target - 1e-12:
        # the bound reads only v, which the viscous steps leave unchanged
        dt_next = min(hyperbolic_dt(gas, FieldState(t, v, u), grid),
                      t_target - t)
        _crank_nicolson(gas, q, 0.5 * (dt + dt_next), grid)
        dt = dt_next
        _inviscid_step(gas, q, dt, grid.dx)
        t += dt
        if not np.all(v > 0.0):  # also catches a nan from a nonpositive stage
            raise PositivityError(f"positivity lost at t = {t:.6g}",
                                  FieldState(t, v, u))
    if dt != 0.0:
        _crank_nicolson(gas, q, 0.5 * dt, grid)
    return t


def _wave_domain(gas: GasModel, ts: TwoShockData, beta: float,
                 family: Optional[int] = None):
    """The function t -> (s1 t - m_lo, beta + s2 t + m_hi), the ends of
    the domain outside which the composite tails sit below ~1e-13 for
    every time up to t: auto_grid's domain at T, and the stepping window
    of run_simulation at each event time.

    A tail of strength chi and rate c falls to the gap d at the length
    L(chi, c, d) = max(20, ln(chi/d)) / c.  The left margin is wave 1's
    outer tail, L(chi1, c1-, 1e-13), raised if needed so that wave 2's
    inner tail, at least beta + m_lo away, is also down:
    m_lo = max(L(chi1, c1-, 1e-13), L(chi2, c2-, d2) - beta), and
    mirrored, m_hi = max(L(chi2, c2+, 1e-13), L(chi1, c1+, d1) - beta).
    Where an inner tail reaches an edge, the other wave sits at its far
    state v_far and W ~ K d with
    K = |p'(v_far) - p'(v_m)| + |s| c |v_m^-(alpha+1) - v_far^-(alpha+1)|
    (s and c the speed and rate of the tail's wave), so the inner gap is
    d = min(1e-13, W_BOUNDARY_TOL / (2 K)), with half the tolerance left
    for the terms of W beyond first order in d.

    A lone wave of family 1 or 2 (`family`) starts at 0 and moves at its
    own speed s; beta plays no part.  Its domain reaches m beyond both 0
    and s t, with m = L(chi, c, 1e-13) from its own strength chi and the
    slower of its rates, c = min(c-, c+).  Its faster tail, on the side
    of the middle state, starts from a gap up to ~8 times larger than L
    assumes (8.2e-13 at that edge with its own rate, in a scan of the SS
    region); with the slower rate both edges stay near 1e-13.
    """

    def tail(chi, c, goal):
        return max(20.0, math.log(chi / goal)) / c

    if family is not None:
        s, chi, sides = ((ts.s1, ts.chi1, (ts.left, ts.mid)) if family == 1
                         else (ts.s2, ts.chi2, (ts.mid, ts.right)))
        m = tail(chi, min(decay_rates(gas, *sides, s)), _BOUNDARY_GOAL)
        return lambda t: (min(s * t, 0.0) - m, max(s * t, 0.0) + m)

    c1m, c1p = decay_rates(gas, ts.left, ts.mid, ts.s1)
    c2m, c2p = decay_rates(gas, ts.mid, ts.right, ts.s2)
    vm, ap1 = ts.mid.v, gas.alpha + 1.0

    def inner_goal(v_far, s, c):
        K = (abs(gas.dpressure(v_far) - gas.dpressure(vm))
             + abs(s) * c * abs(vm ** -ap1 - v_far ** -ap1))
        return min(_BOUNDARY_GOAL, W_BOUNDARY_TOL / (2.0 * K))

    m_lo = max(tail(ts.chi1, c1m, _BOUNDARY_GOAL),
               tail(ts.chi2, c2m, inner_goal(ts.left.v, ts.s2, c2m)) - beta)
    m_hi = max(tail(ts.chi2, c2p, _BOUNDARY_GOAL),
               tail(ts.chi1, c1p, inner_goal(ts.right.v, ts.s1, c1p)) - beta)
    return lambda t: (ts.s1 * t - m_lo, beta + ts.s2 * t + m_hi)


def auto_grid(gas: GasModel, ts: TwoShockData, beta: float, t_final: float,
              n: Optional[int] = None, dx: Optional[float] = None,
              family: Optional[int] = None) -> Grid1D:
    """Domain [s1 T - m_lo, beta + s2 T + m_hi] of _wave_domain at
    T = t_final, with each margin sized so the composite tails sit below
    ~1e-13 at that edge for all t <= T, or the domain of the lone wave
    of that family; n points, or as many as spacing dx needs
    (_DEFAULT_DX if None).
    """
    x_lo, x_hi = _wave_domain(gas, ts, beta, family)(t_final)
    if n is None:
        dx = _DEFAULT_DX if dx is None else dx
        n = int(math.ceil((x_hi - x_lo) / dx)) + 1
        if n < 16:
            raise ValueError(f"dx = {dx:g} gives {n} points on the auto-sized "
                             f"domain [{x_lo:.6g}, {x_hi:.6g}]; a grid needs "
                             "at least 16")
    return Grid1D.uniform(x_lo, x_hi, n)


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


@dataclass
class SimulationResult(ExperimentSetup):
    """The setup of a run with what its evolution recorded."""

    series: DiagnosticsSeries
    snapshots: list
    config: object


def apply_perturbations(V, U, x, perturbations):
    """Copies of (V, U) with the bump of each perturbation added to its
    target; one bump is alive at a time."""
    v, u = V.copy(), U.copy()
    for pert in perturbations:
        target = v if pert.target == "v" else u
        target += pert(x)
    return v, u


def setup_experiment(cfg) -> ExperimentSetup:
    """Riemann solve, profiles, grid, perturbed initial data and shifts.

    The configured perturbations are added to the unshifted composite;
    data they leave with some v <= 0 raise PositivityError with the t = 0
    state.  The shifts zero the excess masses of the result: both of them
    for a two-shock composite, the volume mass alone for a single wave
    (cfg.single_family), whose shift beta2 is 0.
    """
    gas = cfg.gas
    ts = cfg.riemann.resolve(gas)
    p1, p2 = build_profiles(gas, ts)
    family = cfg.single_family
    if family is None:
        cw0 = CompositeWave(p1, p2, cfg.beta)
    else:  # a lone wave starts at 0 whatever composite.beta says
        cw0 = CompositeWave((p1, p2)[family - 1], None, 0.0)
    c_max = max(max(p.c_minus, p.c_plus) for p in cw0.waves)

    grid = cfg.grid.resolve(gas, ts, cw0.beta, cfg.time.t_final, c_max,
                            family)
    V0, U0 = cw0.state_fields(grid.x, 0.0)
    v0, u0 = apply_perturbations(V0, U0, grid.x, cfg.perturbations)
    i = int(np.argmin(v0))  # the first nan, if any
    if not v0[i] > 0.0:
        raise PositivityError(f"nonpositive specific volume at t = 0: "
                              f"v0 = {v0[i]:.6g} at x = {grid.x[i]:.6g}",
                              FieldState(0.0, v0, u0))
    si = _shift_inputs(v0, u0, lambda lo, hi: (V0[lo:hi], U0[lo:hi]), cw0,
                       grid)
    if cfg.single_family is None:
        b1, b2 = solve_shifts(si, ts)
    else:
        wave = cw0.wave1
        b1, b2 = si.I01 / (wave.state_r.v - wave.state_l.v), 0.0
    # + 0.0 turns a zero shift of either sign into +0.0
    return ExperimentSetup(two_shock=ts, profiles=(p1, p2), grid=grid,
                           v0=v0, u0=u0, shift_inputs=si,
                           composite=cw0.shifted(b1 + 0.0, b2 + 0.0))


def _window_bounds(grid: Grid1D, x_lo: float, x_hi: float):
    """Smallest [lo, hi) of grid points that reaches from x_lo to x_hi,
    clipped to the grid."""
    x = grid.x
    lo = int(np.searchsorted(x, x_lo, side="right")) - 1
    hi = int(np.searchsorted(x, x_hi, side="left")) + 1
    return max(lo, 0), min(hi, grid.n)


def _open_sides(perturbations, beta):
    """(left, right): whether some bump reaches beyond [0, beta], where
    the waves start, on that side, above _BOUNDARY_GOAL.  The
    perturbation of a bump between the waves runs into the shocks, so the
    waves' domain holds it; beyond them it also spreads away from the
    shocks, by advection and diffusion, and the window takes the grid out
    to its end on that side."""
    left = right = False
    for p in perturbations:
        r = p.reach(_BOUNDARY_GOAL)
        if r > 0.0:
            left |= p.center - r < 0.0
            right |= p.center + r > beta
    return left, right


def run_simulation(cfg) -> SimulationResult:
    """Full experiment: setup_experiment, then evolution.

    Evolves the perturbed data with advance's steps, recording
    diagnostics at the configured cadence and snapshots at the configured
    times.  The steps and the records take the window grid.window(lo, hi)
    of the grid, where the waves are: before the steps toward each event
    time t it grows to cover _wave_domain's domain at t, outside which
    the composite tails sit below ~1e-13 for all times up to t.  A bump
    between the waves lies inside that domain; one that reaches beyond
    them opens the window to the grid's end on its side (_open_sides).
    The window is clipped to the grid and never shrinks, so an auto-sized
    grid reaches its full size at T and an explicit grid keeps its extent
    and dx.  Points outside the window keep their last values, within
    1e-13 of the far states; snapshots cover the whole grid.  The dt of a
    step reads min v, which lies between the shocks, so the steps are
    those of the whole grid.

    A PositivityError or a TruncationError of the diagnostics leaves with
    the series and snapshots taken so far as its `series` and
    `snapshots`, and a whole-grid snapshot of the failing state appended
    to them.
    """
    gas = cfg.gas
    exp = setup_experiment(cfg)
    grid, cw = exp.grid, exp.composite
    x = grid.x
    q = np.stack((exp.v0, exp.u0))  # the whole grid's pair
    v, u = q
    t = 0.0
    series = DiagnosticsSeries()
    snapshots = []

    def snapshot(st):
        flds = cw.fields(x, st.t)
        h = effective_velocity(gas, st, grid)
        H = flds.U - flds.V ** (-(gas.alpha + 1.0)) * flds.Vx
        return Snapshot(t=st.t, x=x.copy(), v=st.v.copy(), u=st.u.copy(),
                        V=flds.V, U=flds.U, h=h, H=H, W=flds.W)

    domain = _wave_domain(gas, exp.two_shock, cw.beta, cfg.single_family)
    open_lo, open_hi = _open_sides(cfg.perturbations, cw.beta)
    lo, hi, win = grid.n, 0, None
    try:
        for t_target, record, snap in cfg.time.events():
            x_lo, x_hi = domain(t_target)
            lo_t, hi_t = _window_bounds(grid, -math.inf if open_lo else x_lo,
                                        math.inf if open_hi else x_hi)
            if lo_t < lo or hi_t > hi:
                lo, hi = min(lo, lo_t), max(hi, hi_t)
                win = grid.window(lo, hi)
            t = _advance_pair(gas, q[:, lo:hi], win, t, t_target)
            if record:
                series.append(diagnostics.make_record(
                    FieldState(t, v[lo:hi], u[lo:hi]), cw, win))
            if snap:
                snapshots.append(snapshot(FieldState(t, v, u)))
    except (PositivityError, TruncationError) as exc:
        exc.series, exc.snapshots = series, snapshots
        if isinstance(exc, PositivityError):
            # the window's state it rejected, in the whole grid's pair; h
            # of a state with v <= 0 may be nan, and it is written as is
            t = exc.state.t
            q[:, lo:hi] = exc.state.v, exc.state.u
            exc.state = FieldState(t, v, u)
        with np.errstate(all="ignore"):
            snapshots.append(snapshot(FieldState(t, v, u)))
        raise

    setup = {f.name: getattr(exp, f.name) for f in fields(exp)}
    return SimulationResult(**setup, series=series, snapshots=snapshots,
                            config=cfg)

"""Verification suites: each acceptance criterion is executed by exactly
one suite and reported as one machine-readable line

    <name>,<measured>,<threshold>,<PASS|FAIL>

The table _SUITES lists the suites in run order, each with its runtime
limit; run_suite times each suite and appends its <suite>.runtime_s
line.  'all' runs every suite.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .riemann import (EndState, GasModel, entropy_margins, hugoniot_u,
                      in_ss_region, rh_residuals, solve_intermediate)
from .profile import build_profiles, sample_uniform
from .composite import (CompositeWave, compute_shift_inputs, interaction_norm,
                        predicted_w_decay, solve_shifts)
from .solver import (FieldState, Grid1D, advance, apply_perturbations,
                     run_simulation, semidiscrete_rhs)
from .diagnostics import (antiderivatives, closed_form_Psi,
                          fit_exponential_rate)
from .kernels import trapz_points
from .config import (ExperimentConfig, GridSpec, Perturbation, RiemannSpec,
                     TimeSpec)

__all__ = ["CriterionResult", "SUITE_NAMES", "run_suite", "format_result"]

# canonical datum: gamma=2, a=1, alpha=0, v_- = 2, v_m = 1, v_+ = 2
CANONICAL_RIEMANN = RiemannSpec(v_minus=2.0, u_minus=0.0, v_plus=2.0, v_m=1.0)
C_PLUS_TARGET = 1.443376
C_MINUS_TARGET = 1.154701
# randomized cases and the seed that draws them, per suite
RIEMANN_CASES, RIEMANN_SEED = 200, 20260809
SHIFT_CASES, SHIFT_SEED = 50, 4257


@dataclass(frozen=True)
class CriterionResult:
    name: str
    measured: float
    threshold: str
    passed: bool


def format_result(r: CriterionResult) -> str:
    return f"{r.name},{r.measured:.6g},{r.threshold},{'PASS' if r.passed else 'FAIL'}"


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge}


def _gate(name, measured, op, bound, per=""):
    """The criterion `measured op bound`, its threshold text printed from
    the bound it compares against: a float as %g, a str as written (%g
    prints 1e-8 as 1e-08), then `per`."""
    text = bound if isinstance(bound, str) else f"{bound:g}"
    return CriterionResult(name, measured, f"{op}{text}{per}",
                           _COMPARE[op](measured, float(bound)))


def _order(name, order):
    """The observed order of a second-order discretization: 2.0+-0.3."""
    target, tol = 2.0, 0.3
    return CriterionResult(name, order, f"{target:.1f}+-{tol:g}",
                           target - tol <= order <= target + tol)


def canonical_gas() -> GasModel:
    return GasModel(a=1.0, gamma=2.0, alpha=0.0)


def _canonical():
    """(gas, two-shock data, (p1, p2)) of the canonical datum."""
    gas = canonical_gas()
    ts = CANONICAL_RIEMANN.resolve(gas)
    return gas, ts, build_profiles(gas, ts)


def _uniform_grid(x_lo, x_hi, h):
    """The grid on [x_lo, x_hi] whose spacing is closest to h."""
    return Grid1D.uniform(x_lo, x_hi, int(round((x_hi - x_lo) / h)) + 1)


# ----------------------------------------------------------------- riemann

def suite_riemann():
    """Criterion 1: randomized SS data solve to RH exactness."""
    rng = np.random.default_rng(RIEMANN_SEED)
    worst_rh = 0.0
    worst_vm = 0.0
    min_margin = math.inf
    for _ in range(RIEMANN_CASES):
        gamma = rng.uniform(1.1, 3.0)
        a = rng.uniform(0.5, 2.0)
        gas = GasModel(a=a, gamma=gamma, alpha=0.0)
        v_m = rng.uniform(0.4, 2.5)
        chi1 = rng.uniform(0.05, 3.0)
        chi2 = rng.uniform(0.05, 3.0)
        u_minus = rng.uniform(-1.0, 1.0)
        left = EndState(v_m + chi1, u_minus)
        u_m = float(hugoniot_u(gas, left, v_m))
        mid = EndState(v_m, u_m)
        u_plus = float(hugoniot_u(gas, mid, v_m + chi2))
        right = EndState(v_m + chi2, u_plus)
        if not in_ss_region(gas, left, right):
            worst_rh = math.inf
            continue
        ts = solve_intermediate(gas, left, right)
        scale = max(1.0, abs(left.u), abs(right.u))
        worst_rh = max(worst_rh,
                       max(abs(r) for r in rh_residuals(gas, ts)) / scale)
        worst_vm = max(worst_vm, abs(ts.mid.v - v_m) / v_m)
        m1, m2 = entropy_margins(gas, ts)
        min_margin = min(min_margin, *m1, *m2)
    return [
        _gate("riemann.rh_residual", worst_rh, "<=", 1e-12, "*scale"),
        _gate("riemann.vm_roundtrip", worst_vm, "<=", 1e-10),
        _gate("riemann.entropy_margin", min_margin, ">", 0.0),
    ]


# ----------------------------------------------------------------- profile

def _steady_residual_l2(profile, h):
    """L2 norm of the steady momentum equation -s U_x + p_x - sigma_x on
    the profile sampled at step h, its pressure and viscous terms taken
    from the solver's semidiscretization (semidiscrete_rhs)."""
    xi, V, U = sample_uniform(profile, h)
    grid = Grid1D.uniform(float(xi[0]), float(xi[-1]), xi.size)
    _, du = semidiscrete_rhs(profile.gas, FieldState(0.0, V, U), grid)
    R = -profile.s * (U[2:] - U[:-2]) / (2.0 * h) - du[1:-1]
    return float(np.sqrt(np.sum(R * R) * h))


def measured_tail_rates(profile):
    """Log-slope fits of the tabulated tails on gaps in [1e-8, 1e-3]."""
    def fit(xi, w, sign):
        mask = (np.abs(w) >= 1e-8) & (np.abs(w) <= 1e-3)
        slope = np.polyfit(xi[mask], np.log(np.abs(w[mask])), 1)[0]
        return sign * slope

    c_minus = fit(profile._xi_l, profile._w_l, +1.0)
    c_plus = fit(profile._xi_r, profile._w_r, -1.0)
    return c_minus, c_plus


def suite_profile():
    """Criterion 2: canonical profile fidelity (residual order, tail rates)."""
    _, _, (p1, _) = _canonical()
    hs = np.array([0.1, 0.05, 0.025])
    res = [_steady_residual_l2(p1, h) for h in hs]
    order = float(np.polyfit(np.log(hs), np.log(res), 1)[0])

    c_minus_fit, c_plus_fit = measured_tail_rates(p1)
    err_plus = abs(c_plus_fit / C_PLUS_TARGET - 1.0)
    err_minus = abs(c_minus_fit / C_MINUS_TARGET - 1.0)
    return [
        _order("profile.residual_order", order),
        _gate("profile.c_plus_fit_relerr", err_plus, "<=", 0.02),
        _gate("profile.c_minus_fit_relerr", err_minus, "<=", 0.02),
    ]


# ----------------------------------------------------------------- shifts

def suite_shifts():
    """Criterion 3: post-shift excess masses vanish."""
    _, ts, (p1, p2) = _canonical()
    beta = 40.0
    cw0 = CompositeWave(p1, p2, beta)
    # margins wide enough that shifted-composite boundary residuals sit
    # below 1e-12
    grid = _uniform_grid(-27.0, beta + 27.0, 0.02)
    x = grid.x
    V0, U0 = cw0.state_fields(x, 0.0)
    rng = np.random.default_rng(SHIFT_SEED)
    worst = 0.0
    for _ in range(SHIFT_CASES):
        perts = [Perturbation(target=("v", "u")[rng.integers(0, 2)],
                              amplitude=rng.uniform(-0.1, 0.1),
                              center=rng.uniform(8.0, 32.0),
                              width=rng.uniform(0.5, 2.0))
                 for _ in range(rng.integers(1, 4))]
        v0, u0 = apply_perturbations(V0, U0, x, perts)
        si = compute_shift_inputs(v0, u0, cw0, grid)
        b1, b2 = solve_shifts(si, ts)
        si2 = compute_shift_inputs(v0, u0, cw0.shifted(b1, b2), grid)
        scale = max(1.0, abs(si.I01), abs(si.I02))
        worst = max(worst, abs(si2.I01) / scale, abs(si2.I02) / scale)
    return [_gate("shifts.zero_mass_residual", worst, "<=", "1e-8", "*scale")]


# ----------------------------------------------------------------- W decay

def _wdecay_grid(ts, beta, t_max, c_min):
    pad = 40.0 / c_min
    x_lo = ts.s1 * t_max - pad
    x_hi = beta + ts.s2 * t_max + pad
    return _uniform_grid(x_lo, x_hi, 0.05)


def suite_wdecay():
    """Criterion 4: interaction-term decay rate and separation gain."""
    _, ts, (p1, p2) = _canonical()
    c_prime, c_minus_const = predicted_w_decay(ts, p1, p2)
    c_min = min(p1.c_minus, p1.c_plus, p2.c_minus, p2.c_plus)

    cw40 = CompositeWave(p1, p2, 40.0)
    grid40 = _wdecay_grid(ts, 40.0, 10.0, c_min)
    t_samples = np.linspace(0.0, 10.0, 81)
    norms = np.array([interaction_norm(cw40, t, grid40) for t in t_samples])
    fit = fit_exponential_rate(t_samples, norms)

    cw60 = CompositeWave(p1, p2, 60.0)
    grid60 = _wdecay_grid(ts, 60.0, 0.0, c_min)
    w0_40 = interaction_norm(cw40, 0.0, _wdecay_grid(ts, 40.0, 0.0, c_min))
    w0_60 = interaction_norm(cw60, 0.0, grid60)
    gain = w0_40 / w0_60
    return [
        _gate("wdecay.rate", fit.rate, ">=", 0.9 * c_prime),
        _gate("wdecay.beta_gain", gain, ">=",
              math.exp(c_minus_const * 20.0 * 0.5)),
    ]


# ------------------------------------------------------------ convergence

def _single_shock_run(gas, ts, profile, dx, t_final):
    """Evolve the exact family-1 profile; return (l2_error, times, crossings)
    with the crossings sampled every 0.25."""
    margin = 30.0 / min(profile.c_minus, profile.c_plus)
    x_lo = ts.s1 * t_final - margin
    grid = _uniform_grid(x_lo, margin, dx)
    x = grid.x
    V, U, _, _ = profile.evaluate(x)
    state = FieldState(0.0, V.copy(), U.copy())
    v_cross = 0.5 * (ts.left.v + ts.mid.v)

    def crossing(v):
        idx = np.where((v[:-1] - v_cross) * (v[1:] - v_cross) <= 0.0)[0]
        i = int(idx[0])
        frac = (v[i] - v_cross) / (v[i] - v[i + 1])
        return float(x[i] + frac * grid.dx)

    times, crossings = [0.0], [crossing(state.v)]
    for t_target in np.arange(0.25, t_final + 1e-9, 0.25):
        state = advance(gas, state, grid, t_target)
        times.append(state.t)
        crossings.append(crossing(state.v))
    V_exact, _, _, _ = profile.evaluate(x - ts.s1 * t_final)
    err = float(np.sqrt(trapz_points((state.v - V_exact) ** 2, x)))
    return err, np.array(times), np.array(crossings)


def suite_convergence():
    """Criterion 5: grid convergence and shock-speed fidelity."""
    gas, ts, (p1, _) = _canonical()
    dxs = [0.1, 0.05, 0.025]
    results = [_single_shock_run(gas, ts, p1, dx, 5.0) for dx in dxs]
    errors = np.array([r[0] for r in results])
    order = float(np.polyfit(np.log(dxs), np.log(errors), 1)[0])
    times, crossings = results[-1][1], results[-1][2]
    speed = float(np.polyfit(times, crossings, 1)[0])
    speed_err = abs(speed / ts.s1 - 1.0)
    return [
        _order("convergence.order", order),
        _gate("convergence.speed_relerr", speed_err, "<=", 0.01),
    ]


# -------------------------------------------------------------- stability

def stability_config() -> ExperimentConfig:
    """The desk-scale composite stability experiment."""
    return ExperimentConfig(
        gas=canonical_gas(),
        riemann=CANONICAL_RIEMANN,
        beta=40.0,
        perturbations=(Perturbation("v", 0.05, 20.0, 1.0),
                       Perturbation("u", 0.05, 20.0, 1.0)),
        grid=GridSpec(n=4000),
        time=TimeSpec(t_final=50.0, record_dt=0.25,
                      snapshot_times=(0.0, 5.0, 50.0)),
    )


def _psi_consistency_order(snap, cw):
    """Order of agreement between quadrature Psi and its closed form,
    measured by coarsening one snapshot (h, 2h, 4h)."""
    errs = []
    hs = []
    for k in (1, 2, 4):
        x = snap.x[::k]
        grid_k = Grid1D.uniform(float(x[0]), float(x[-1]), x.size)
        state = FieldState(snap.t, snap.v[::k].copy(), snap.u[::k].copy())
        fields = antiderivatives(state, cw, grid_k)
        psi_closed = closed_form_Psi(state, cw, fields)
        errs.append(float(np.max(np.abs(fields.Psi - psi_closed))))
        hs.append(grid_k.dx)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def suite_stability(result=None):
    """Criteria 6-8: composite-wave stability, energy structure, and
    effective-velocity consistency, all from one perturbed run."""
    if result is None:
        result = run_simulation(stability_config())
    series = result.series
    t = series.t
    early = t <= 5.0 + 1e-9
    base_v = float(series.column("sup_v")[early].max())
    base_u = float(series.column("sup_u")[early].max())
    final_v = float(series.column("sup_v")[-1])
    final_u = float(series.column("sup_u")[-1])
    ratio_v = final_v / base_v
    ratio_u = final_u / base_u

    v_min = float(series.column("v_min").min())
    v_max = float(series.column("v_max").max())
    ts = result.two_shock

    p1, p2 = result.profiles
    _, c_minus_const = predicted_w_decay(ts, p1, p2)
    e_total = series.column("E0") + series.column("E1")
    denom = e_total[0] + math.exp(-c_minus_const * result.config.beta)
    energy_ratio = float(e_total.max() / denom)
    min_f = float(series.column("min_f").min())
    max_viol = float(series.column("ineq_violation").max())

    orders = [_psi_consistency_order(s, result.composite)
              for s in result.snapshots if s.t > 0.0]
    # no snapshot after t = 0 leaves nothing to measure: a failed nan
    psi_order = min(orders, default=math.nan)
    return [
        _gate("stability.sup_v_ratio", ratio_v, "<=", 0.2),
        _gate("stability.sup_u_ratio", ratio_u, "<=", 0.2),
        _gate("stability.v_min", v_min, ">=", 0.5 * ts.mid.v),
        _gate("stability.v_max", v_max, "<=",
              1.5 * max(ts.left.v, ts.right.v)),
        _gate("energy.bound_ratio", energy_ratio, "<=", 3.0),
        _gate("energy.min_f", min_f, ">", 0.0),
        _gate("energy.pointwise_violation", max_viol, "<=", 1e-12),
        _gate("psi.consistency_order", psi_order, ">=", 1.7),
    ]


# ------------------------------------------------------------------ driver

# every suite in run order, with its runtime limit in seconds
_SUITES = {
    "riemann": (suite_riemann, 5.0),
    "profile": (suite_profile, 10.0),
    "shifts": (suite_shifts, 30.0),
    "wdecay": (suite_wdecay, 60.0),
    "convergence": (suite_convergence, 120.0),
    "stability": (suite_stability, 600.0),
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str):
    """Run one suite, or every suite for 'all', each followed by its
    <suite>.runtime_s line; returns (results, all_passed)."""
    if name == "all":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite '{name}'; choose from {SUITE_NAMES}")
    results = []
    for suite_name in names:
        suite, limit = _SUITES[suite_name]
        t0 = time.perf_counter()
        results.extend(suite())
        elapsed = time.perf_counter() - t0
        results.append(_gate(f"{suite_name}.runtime_s", elapsed, "<", limit))
    return results, all(r.passed for r in results)

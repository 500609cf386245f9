"""Workload inputs, the measured operation, and its correctness checks.

Each workload is built from ``(seed, smoke)`` alone and hands the
package only generated inputs: a configuration file for
``parse_config`` (``stability``, ``records``) or a list of Riemann data
(``datum-sweep``).  ``run_op`` performs one measured operation and
returns an ``OpResult``; the correctness checks run after the timed
part and never under the tracer.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from shockwave_lab import composite, config, profile, solver, verify
from shockwave_lab.composite import CompositeWave, TruncationWarning
from shockwave_lab.riemann import GasModel, entropy_margins, rh_residuals

# The T = 50 domain that auto-sizing gives the paper's experiment
# (dx ~ 0.04462).  A shorter run keeps it explicitly: auto-sizing at a
# smaller T would shrink the domain and dx, and with them the viscous
# step bound that limits dt.
GRID_T50 = (-69.22453359302851, 109.2245335930285, 4000)

# suite_stability criteria that hold at every T.  Its decay ratios
# (stability.sup_v_ratio, stability.sup_u_ratio <= 0.2) are defined at
# T = 50, after the acoustic pulses have reached the shocks; a shortened
# run reports them as check outputs only, and the time stepper is checked
# against an ODE reference instead (REF_TOL).
GATED_STABILITY = ("stability.v_min", "stability.v_max", "energy.bound_ratio",
                   "energy.min_f", "energy.pointwise_violation",
                   "psi.consistency_order")

RH_TOL = 1e-12       # relative Rankine-Hugoniot residual, as in suite_riemann
MASS_TOL = 1e-8      # post-shift excess mass per scale, as in suite_shifts
# Largest distance of the final (v, u) from the ODE reference, as a share
# of the size of the final perturbation from the shifted composite.  RK4
# at the viscous bound reads ~1e-6; a stepper that leaves the state
# unchanged reads > 1.
REF_TOL = 0.05
CHI_HI = 3.0         # strongest shock of a sweep batch, chi / v_m


@dataclass
class OpResult:
    wall_s: float | None            # timed part of the operation; None if aborted
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)   # name -> measured value
    errors: list = field(default_factory=list)   # one line per failure


def _installed(tracer):
    return tracer.installed() if tracer is not None else nullcontext()


# ------------------------------------------------------- stability, records

def experiment_config_text(seed, t_final, record_dt):
    """verify.stability_config() as a config file, with the run length
    given, the T = 50 grid made explicit, and the perturbation centre
    and amplitudes drawn from the seed (centre 20 +- 2, amplitudes
    0.05 * [0.9, 1.1])."""
    base = verify.stability_config()
    rng = np.random.default_rng([seed, 0])
    shift = rng.uniform(-2.0, 2.0)
    r = base.riemann
    lines = [
        f"gas.a = {base.gas.a!r}",
        f"gas.gamma = {base.gas.gamma!r}",
        f"gas.alpha = {base.gas.alpha!r}",
        f"riemann.v_minus = {r.v_minus!r}",
        f"riemann.u_minus = {r.u_minus!r}",
        f"riemann.v_m = {r.v_m!r}",
        f"riemann.v_plus = {r.v_plus!r}",
        f"composite.beta = {base.beta!r}",
    ]
    for k, p in enumerate(base.perturbations, start=1):
        amp = p.amplitude * rng.uniform(0.9, 1.1)
        lines += [f"perturbation.{k}.target = {p.target}",
                  f"perturbation.{k}.amplitude = {amp!r}",
                  f"perturbation.{k}.center = {p.center + shift!r}",
                  f"perturbation.{k}.width = {p.width!r}"]
    lines += [
        f"grid.x_lo = {GRID_T50[0]!r}",
        f"grid.x_hi = {GRID_T50[1]!r}",
        f"grid.n = {GRID_T50[2]}",
        f"time.T = {t_final!r}",
        f"time.record_dt = {record_dt!r}",
        f"time.snapshot_times = 0, {t_final!r}",
    ]
    return "\n".join(lines) + "\n"


class Experiment:
    """A perturbed two-shock composite run through parse_config ->
    run_simulation -> DiagnosticsSeries.to_csv + Snapshot.write_csv."""

    def __init__(self, seed, workdir, t_final, record_dt):
        self.workdir = workdir
        path = os.path.join(workdir, "experiment.cfg")
        with open(path, "w") as f:
            f.write(experiment_config_text(seed, t_final, record_dt))
        t0 = time.perf_counter()
        self.cfg = config.parse_config(path)
        self.parse_s = time.perf_counter() - t0
        self.reference = None    # (v0, v, u) of the last ODE reference

    def run_op(self, k, tracer=None):
        diag_path = os.path.join(self.workdir, "diag.csv")
        try:
            with _installed(tracer):
                t0 = time.perf_counter()
                result = solver.run_simulation(self.cfg)
                result.series.to_csv(diag_path)
                snap_paths = []
                for snap in result.snapshots:
                    snap_paths.append(os.path.join(self.workdir,
                                                   f"snap_t{snap.t:g}.csv"))
                    snap.write_csv(snap_paths[-1])
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed run is counted, not fatal
            return OpResult(None, 1, 1, errors=[f"{type(exc).__name__}: {exc}"])
        if tracer is not None:
            paths = [diag_path] + snap_paths
            tracer.count("output.bytes", sum(os.path.getsize(p) for p in paths))
            tracer.count("output.rows", len(result.series)
                         + sum(s.x.size for s in result.snapshots))
        checks, errors = check_experiment(result, diag_path, snap_paths)
        self.check_stepper(result, checks, errors)
        return OpResult(wall, 1, 1 if errors else 0, checks, errors)

    def check_stepper(self, result, checks, errors):
        """Final snapshot against the ODE reference from the first one.
        The inputs are the same in every op, so one reference serves them
        all unless the initial state differs."""
        s0, s1 = result.snapshots[0], result.snapshots[-1]
        if self.reference is None or not np.array_equal(self.reference[0], s0.v):
            try:
                self.reference = (s0.v, *reference_final_state(result))
            except Exception as exc:  # counted as a failed check
                errors.append(f"ODE reference: {type(exc).__name__}: {exc}")
                return
        _, v_ref, u_ref = self.reference
        err = max(np.abs(s1.v - v_ref).max() / np.abs(v_ref - s1.V).max(),
                  np.abs(s1.u - u_ref).max() / np.abs(u_ref - s1.U).max())
        checks["stepper.reference_error"] = float(err)
        if not err <= REF_TOL:
            errors.append(f"final state is {err:.3g} of the perturbation away "
                          f"from the ODE reference, needs <= {REF_TOL:g}")


def reference_final_state(result):
    """(v, u) at the last snapshot, integrated from the first one by
    scipy's adaptive RK45 on the package's semidiscretisation: an oracle
    for the time stepper that shares the right-hand side but none of
    the stepping code."""
    s0, s1 = result.snapshots[0], result.snapshots[-1]
    gas, grid, n = result.config.gas, result.grid, s0.v.size

    def rhs(t, y):
        state = solver.FieldState(t, y[:n], y[n:])
        return np.concatenate(solver.semidiscrete_rhs(gas, state, grid))

    dt0 = solver.stable_dt(gas, solver.FieldState(s0.t, s0.v, s0.u), grid)
    sol = solve_ivp(rhs, (s0.t, s1.t), np.concatenate([s0.v, s0.u]),
                    method="RK45", rtol=1e-8, atol=1e-10, first_step=dt0,
                    t_eval=[s1.t])   # keep only the final state: RSS is a metric
    if not sol.success:
        raise RuntimeError(f"ODE reference failed: {sol.message}")
    return sol.y[:n, -1], sol.y[n:, -1]


def _data_rows(path):
    with open(path) as f:
        return sum(1 for _ in f) - 1


def check_experiment(result, diag_path, snap_paths):
    """suite_stability's criteria that hold at any T, plus CSV row counts."""
    checks, errors = {}, []
    for c in verify.suite_stability(result):
        if c.name == "stability.runtime_s":
            continue
        checks[c.name] = c.measured
        if c.name in GATED_STABILITY and not c.passed:
            errors.append(f"{c.name} = {c.measured:.6g}, needs {c.threshold}")
    want = [len(result.series)] + [s.x.size for s in result.snapshots]
    got = [_data_rows(p) for p in [diag_path] + snap_paths]
    checks["output.csv_rows"] = sum(got)
    if got != want:
        errors.append(f"CSV data rows {got}, expected {want}")
    return checks, errors


# ------------------------------------------------------------ datum-sweep

@dataclass(frozen=True)
class SweepCase:
    gamma: float
    alpha: float
    a: float
    v_m: float
    chi1: float
    chi2: float
    u_minus: float
    sign: float      # of the v-Gaussian perturbation
    offset: float    # of its centre from beta / 2, in units of beta


def _halton(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def sweep_cases(seed, k, size, chi_lo=1e-3):
    """Batch k of two-shock data over the SS region.

    The cost of a case is set by its weakest wave (table nodes and grid
    points grow like 1/c, c the tail rate), and random gas parameters
    would move c at chi = 1e-3 v_m by a factor of ~40.  So the costly
    part of a batch is a fixed design: case i takes gamma in [1.2, 3],
    alpha in [0, 1], a in [0.5, 2] and v_m in [0.5, 2] at Halton point
    i + 1 (bases 2, 3, 5, 7); chi1 / v_m runs over a log-spaced ladder
    from chi_lo to CHI_HI and chi2 / v_m over the same ladder reversed,
    so each batch reaches chi = chi_lo * v_m in both families.  The seed
    draws what leaves the cost unchanged: u_minus ~ U[-1, 1], and the
    sign and centre (beta / 2 +- 0.1 beta) of the perturbation.
    """
    rng = np.random.default_rng([seed, 1, k])
    ladder = np.geomspace(chi_lo, CHI_HI, size)
    cases = []
    for i in range(size):
        v_m = 0.5 + 1.5 * _halton(i + 1, 7)
        cases.append(SweepCase(
            gamma=1.2 + 1.8 * _halton(i + 1, 2),
            alpha=_halton(i + 1, 3),
            a=0.5 + 1.5 * _halton(i + 1, 5),
            v_m=v_m,
            chi1=v_m * float(ladder[i]),
            chi2=v_m * float(ladder[size - 1 - i]),
            u_minus=rng.uniform(-1.0, 1.0),
            sign=rng.choice((-1.0, 1.0)),
            offset=rng.uniform(-0.1, 0.1)))
    return cases


class DatumSweep:
    """Riemann solve -> profiles -> grid -> composite -> shifts -> W norm
    for a batch of random data; no time stepping, no diagnostics."""

    def __init__(self, seed, size, chi_lo=1e-3):
        self.seed, self.size, self.chi_lo = seed, size, chi_lo
        self.parse_s = 0.0

    def run_op(self, k, tracer=None):
        wall, failed = 0.0, 0
        checks = {"rh_residual": 0.0, "entropy_margin": math.inf,
                  "mass_residual": 0.0, "truncation_warnings": 0,
                  "chi_min_over_vm": math.inf}
        errors = []
        for case in sweep_cases(self.seed, k, self.size, self.chi_lo):
            t0 = time.perf_counter()
            try:
                with _installed(tracer), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    state = sweep_pipeline(case, tracer)
            except Exception as exc:  # a failed case is counted, not fatal
                state, bad = None, [f"{type(exc).__name__}: {exc}"]
            wall += time.perf_counter() - t0
            if state is not None:
                state["truncated"] = sum(issubclass(w.category, TruncationWarning)
                                         for w in caught)
                bad = check_sweep_case(state, checks)
                state = None  # the next case's arrays must not stack on these
            if bad:
                failed += 1
                errors.append(f"{case}: {'; '.join(bad)}")
        return OpResult(wall, self.size, failed, checks, errors)


def sweep_pipeline(c: SweepCase, tracer=None):
    """One datum through the public functions; returns what the checks need."""
    gas = GasModel(a=c.a, gamma=c.gamma, alpha=c.alpha)
    spec = config.RiemannSpec(v_minus=c.v_m + c.chi1, u_minus=c.u_minus,
                              v_plus=c.v_m + c.chi2, v_m=c.v_m)
    ts = spec.resolve(gas)
    p1, p2 = profile.build_profiles(gas, ts)
    c_min = min(p1.c_minus, p1.c_plus, p2.c_minus, p2.c_plus)
    beta = 40.0 / c_min
    with tracer.span("solver.grid") if tracer is not None else nullcontext():
        grid = solver.auto_grid(gas, ts, beta, 0.0)
        x = grid.x
    cw0 = CompositeWave(p1, p2, beta)
    V0, U0 = cw0.state_fields(x, 0.0)
    bump = config.Perturbation("v", c.sign * 0.05 * min(c.chi1, c.chi2),
                               (0.5 + c.offset) * beta, 1.0 / c_min)
    v0 = V0 + bump(x)
    si = composite.compute_shift_inputs(v0, U0, cw0, grid)
    b1, b2 = composite.solve_shifts(si, ts)
    cw = cw0.shifted(b1, b2)
    wnorm = composite.interaction_norm(cw, 0.0, grid)
    return {"case": c, "gas": gas, "ts": ts, "grid": grid, "v0": v0, "u0": U0,
            "si": si, "cw": cw, "wnorm": wnorm}


def check_sweep_case(s, checks):
    """RH residuals, entropy margins and the post-shift excess mass (as
    suite_riemann and suite_shifts measure them); a TruncationWarning
    from interaction_norm fails the case.  Folds worst values into checks."""
    gas, ts, c = s["gas"], s["ts"], s["case"]
    bad = []
    scale = max(1.0, abs(ts.left.u), abs(ts.right.u))
    rh = max(abs(r) for r in rh_residuals(gas, ts)) / scale
    m1, m2 = entropy_margins(gas, ts)
    margin = min(*m1, *m2)
    si = s["si"]
    si2 = composite.compute_shift_inputs(s["v0"], s["u0"], s["cw"], s["grid"])
    mscale = max(1.0, abs(si.I01), abs(si.I02))
    mass = max(abs(si2.I01), abs(si2.I02)) / mscale
    checks["rh_residual"] = max(checks["rh_residual"], rh)
    checks["entropy_margin"] = min(checks["entropy_margin"], margin)
    checks["mass_residual"] = max(checks["mass_residual"], mass)
    checks["truncation_warnings"] += s["truncated"]
    checks["chi_min_over_vm"] = min(checks["chi_min_over_vm"],
                                    min(c.chi1, c.chi2) / c.v_m)
    if not rh <= RH_TOL:
        bad.append(f"RH residual {rh:.3e} > {RH_TOL:g}")
    if not margin > 0.0:
        bad.append(f"entropy margin {margin:.3e} <= 0")
    if not mass <= MASS_TOL:
        bad.append(f"post-shift mass residual {mass:.3e} > {MASS_TOL:g}")
    if s["truncated"]:
        bad.append("TruncationWarning from interaction_norm")
    if not math.isfinite(s["wnorm"]):
        bad.append("interaction norm is not finite")
    return bad


# ---------------------------------------------------------------- registry

# Full-size parameters; smoke mode shrinks them so the benchmark's own
# tests run in seconds.
WORKLOADS = ("stability", "records", "datum-sweep")


def make_workload(name, seed, workdir, smoke=False):
    if name == "stability":
        if smoke:
            return Experiment(seed, workdir, 0.25, 0.05)
        return Experiment(seed, workdir, 2.5, 0.25)
    if name == "records":
        if smoke:
            return Experiment(seed, workdir, 0.025, 0.0025)
        return Experiment(seed, workdir, 0.5, 0.0025)
    if name == "datum-sweep":
        if smoke:
            return DatumSweep(seed, 3, chi_lo=0.1)
        return DatumSweep(seed, 7)
    raise ValueError(f"unknown workload '{name}'; choose from {WORKLOADS}")

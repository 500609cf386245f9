"""Monitored quantities of the perturbation analysis.

Anti-derivative perturbations (phi, psi, Psi), discrete Sobolev norms,
the nonlinear terms f and p(v|V), the interaction residual norm, the
quadratic energy functionals, exponential rate fits, and the pointwise
inequality checks evaluated analytically on the composite.

phi_x = v - V and psi_x = u - U are identities (not differenced); the
derivatives v_x and u_x of the solution use the same central stencils as
the solver, while every composite-wave derivative is analytic so the
inequality checks sit at machine precision.

Derivatives and integrals on the grid go through the kernels of
`kernels`, which repeat the arithmetic of numpy's gradient and trapezoid
and scipy's cumulative trapezoid bit for bit without their argument
handling.  A record computes only what it stores: it evaluates the
composite and p'(V) once, differentiates v once, and does not form the
energy method's F and G (the tests form them, `perturbation_terms` in
tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING

import numpy as np

from .composite import (BOUNDARY_DECAY_TOL, CompositeFields, CompositeWave,
                        TruncationError)
from .kernels import cumtrapz, gradient, trapz, trapz_points, write_csv
from .riemann import GasModel, pressure_increment

if TYPE_CHECKING:  # solver imports this module to record its runs
    from .solver import FieldState, Grid1D

__all__ = [
    "PerturbationFields",
    "SobolevNorms",
    "RateFit",
    "InequalityReport",
    "DiagnosticsRecord",
    "DiagnosticsSeries",
    "DIAG_CSV_COLUMNS",
    "effective_velocity",
    "antiderivatives",
    "closed_form_Psi",
    "sobolev_norms",
    "energy_functionals",
    "fit_exponential_rate",
    "pointwise_inequality_report",
    "make_record",
]


@dataclass
class PerturbationFields:
    """Anti-derivatives of (v-V, u-U, h-H), their x-derivatives, and the
    composite fields they are measured against."""

    x: np.ndarray
    composite: CompositeFields
    phi: np.ndarray
    psi: np.ndarray
    Psi: np.ndarray
    phi_x: np.ndarray
    psi_x: np.ndarray
    Psi_x: np.ndarray


@dataclass(frozen=True)
class SobolevNorms:
    l2: float
    h1: float
    h2: float


@dataclass(frozen=True)
class RateFit:
    rate: float
    residual: float
    npoints: int


@dataclass(frozen=True)
class InequalityReport:
    """Max violations (<= 0 means satisfied) of the pointwise inequalities."""

    steepening: float
    f_floor: float

    @property
    def max_violation(self) -> float:
        return max(self.steepening, self.f_floor)


def effective_velocity(gas: GasModel, state: FieldState, grid: Grid1D) -> np.ndarray:
    """h = u - v^-(alpha+1) v_x with central differences for v_x."""
    return _effective_velocity(gas, state.v, state.u, gradient(state.v, grid.dx))


def _effective_velocity(gas: GasModel, v, u, v_x):
    return u - v_x / v ** (gas.alpha + 1.0)


def antiderivatives(state: FieldState, cw: CompositeWave, grid: Grid1D) -> PerturbationFields:
    """Cumulative-trapezoid anti-derivatives of the perturbation from x_lo.

    This is the one evaluation of the composite for a record; the other
    diagnostics read it from the returned fields.  Raises TruncationError,
    naming the edge, if the perturbation has not decayed below the
    boundary tolerance on the two rows at x_lo (the anchor of the
    integrals) or at x_hi (beyond which the integrals stop): on a window
    of a larger grid, either edge may cut a perturbation that the grid
    holds.  advance pins the edge rows, so a perturbation that reaches an
    edge during a run shows on the row next to it.

    Psi(x_hi) is not 0 once the state has stepped: it is the O(dx^2) gap
    between the central v_x in Psi_x and the trapezoid rule, so the
    integral of Psi^2 (l2_Psi, E0) gains about Psi(x_hi)^2 per unit of
    grid beyond the waves.  On the stability datum at t = 5 with auto
    grids of n = 2000, 4000 and 8000, Psi(x_hi) is 1.5e-11, 3.6e-12 and
    6.7e-13, while psi(x_hi) and phi(x_hi) stay at or below 1.7e-12; at
    t = 0 Psi(x_hi) equals psi(x_hi) to within 3e-16.
    """
    x = grid.x
    dx = grid.dx
    gas = cw.gas
    flds = cw.fields(x, state.t)
    rv = state.v - flds.V
    ru = state.u - flds.U
    for edge, rows in (("x_lo", slice(0, 2)), ("x_hi", slice(-2, None))):
        # np.max and np.maximum keep a nan
        worst = float(np.max(np.maximum(abs(rv[rows]), abs(ru[rows]))))
        if not worst <= BOUNDARY_DECAY_TOL:
            raise TruncationError(f"perturbation {worst:.3e} at {edge} "
                                  f"exceeds {BOUNDARY_DECAY_TOL:.0e}")
    phi = cumtrapz(rv, x)
    psi = cumtrapz(ru, x)
    v_x = gradient(state.v, dx)
    # h - H with the same central stencil on both sides, so the field
    # vanishes identically at zero perturbation
    h = _effective_velocity(gas, state.v, state.u, v_x)
    H_disc = _effective_velocity(gas, flds.V, flds.U, gradient(flds.V, dx))
    Psi_x = h - H_disc
    Psi = cumtrapz(Psi_x, x)
    return PerturbationFields(x=x, composite=flds, phi=phi, psi=psi, Psi=Psi,
                              phi_x=rv, psi_x=ru, Psi_x=Psi_x)


def closed_form_Psi(state: FieldState, cw: CompositeWave,
                    fields: PerturbationFields) -> np.ndarray:
    """Psi from the exact integral of the v^-(alpha+1) v_x term.

    Psi = psi - ln(v/V) for alpha = 0 and
    Psi = psi + (v^-alpha - V^-alpha)/alpha for alpha > 0, each with its
    value at x_lo subtracted so the anchor matches the quadrature.
    """
    gas = cw.gas
    V = fields.composite.V
    v = state.v
    if gas.alpha == 0.0:
        q = np.log(v / V)
    else:
        q = -(v ** (-gas.alpha) - V ** (-gas.alpha)) / gas.alpha
    return fields.psi - (q - q[0])


def _second_diff(f, dx):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx ** 2
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def sobolev_norms(f, dx: float) -> SobolevNorms:
    """Discrete L2/H1/H2 norms with central-difference derivatives."""
    f = np.asarray(f, dtype=np.float64)
    if f.size < 5:
        raise ValueError("need at least 5 samples for Sobolev norms")
    l2sq = trapz(f * f, dx)
    d1 = gradient(f, dx)
    h1sq = l2sq + trapz(d1 * d1, dx)
    d2 = _second_diff(f, dx)
    h2sq = h1sq + trapz(d2 * d2, dx)
    return SobolevNorms(l2=math.sqrt(l2sq), h1=math.sqrt(h1sq),
                        h2=math.sqrt(h2sq))


def energy_functionals(fields: PerturbationFields, dpV):
    """(E0, E1) = (int phi^2 - Psi^2/p'(V), int phi_x^2 - Psi_x^2/p'(V)),
    with dpV = p'(V) on the composite V of the fields.

    Both are nonnegative because p' < 0.
    """
    x = fields.x
    e0 = trapz_points(fields.phi ** 2 - fields.Psi ** 2 / dpV, x)
    e1 = trapz_points(fields.phi_x ** 2 - fields.Psi_x ** 2 / dpV, x)
    return e0, e1


def fit_exponential_rate(t, y) -> RateFit:
    """Least-squares decay rate of a positive series: y ~ C exp(-rate t).

    Returns the negative slope of the log-linear fit and the rms
    residual of the fit over the points.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t.size < 5:
        raise ValueError("need at least 5 points for a rate fit")
    if np.any(y <= 0.0):
        raise ValueError("rate fit requires positive values")
    logs = np.log(y)
    slope, intercept = np.polyfit(t, logs, 1)
    resid = logs - (slope * t + intercept)
    return RateFit(rate=-float(slope),
                   residual=float(np.sqrt(np.mean(resid ** 2))),
                   npoints=int(t.size))


def pointwise_inequality_report(cw: CompositeWave, flds: CompositeFields,
                                dpV) -> InequalityReport:
    """Analytic pointwise checks on the composite fields of cw at one time,
    with dpV = p'(V) on their V.

    Wave steepening: (1/p'(V))_t >= min |s| |(1/p'(V))_x|, the min over
    the waves of cw, with V_t = -s1 V1' - s2 V2' taken analytically from
    the profiles.
    Coefficient floor: -p'(V) - (alpha+1) U_x / (2 V^(alpha+2)) >=
    -max(p'(v_far_left), p'(v_far_right)).

    Reported values are max(rhs - lhs); <= 0 up to rounding means the
    inequality holds.
    """
    gas = cw.gas
    V = flds.V
    d2p = gas.d2pressure(V)
    pref = d2p / dpV ** 2

    lhs = pref * (cw.wave1.s * flds.V1x)
    if cw.wave2 is not None:
        lhs = lhs + pref * (cw.wave2.s * flds.V2x)
    rhs = min(abs(w.s) for w in cw.waves) * pref * np.abs(flds.Vx)
    steepening = float(np.max(rhs - lhs))

    floor = -max(gas.dpressure(cw.far_left.v), gas.dpressure(cw.far_right.v))
    lhs2 = -dpV - (gas.alpha + 1.0) * flds.Ux / (2.0 * V ** (gas.alpha + 2.0))
    f_floor = float(np.max(floor - lhs2))
    return InequalityReport(steepening=steepening, f_floor=f_floor)


@dataclass
class DiagnosticsRecord:
    """One row of the monitored time series."""

    t: float
    sup_v: float
    sup_u: float
    l2_phi: float
    h1_phi: float
    h2_phi: float
    l2_psi: float
    h1_psi: float
    h2_psi: float
    l2_Psi: float
    l2_Psi_x: float
    l2_W: float
    E0: float
    E1: float
    min_f: float
    ineq_violation: float
    v_min: float
    v_max: float
    p_rel_ratio: float


DIAG_CSV_COLUMNS = tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


class DiagnosticsSeries:
    """Append-only list of DiagnosticsRecord with CSV export."""

    def __init__(self):
        self.records: list[DiagnosticsRecord] = []

    def append(self, rec: DiagnosticsRecord):
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path):
        write_csv(path, DIAG_CSV_COLUMNS, [self.column(c) for c in DIAG_CSV_COLUMNS])


def _p_rel_ratio(p_rel, phi_x):
    """Max of |p(v|V)| / phi_x^2 over points with non-negligible phi_x."""
    mag = np.abs(phi_x)
    peak = float(mag.max())
    if peak == 0.0:
        return 0.0
    mask = mag >= 1e-6 * peak
    return float(np.max(np.abs(p_rel[mask]) / phi_x[mask] ** 2))


def make_record(state: FieldState, cw: CompositeWave, grid: Grid1D) -> DiagnosticsRecord:
    """Compute the full monitored record for one snapshot in time."""
    fields = antiderivatives(state, cw, grid)
    flds = fields.composite
    gas = cw.gas
    dpV = gas.dpressure(flds.V)
    f = -dpV - (gas.alpha + 1.0) * flds.Ux / flds.V ** (gas.alpha + 2.0)
    # p(V + phi_x) - p(V) without cancellation, so p_rel keeps its digits
    # where phi_x is small
    p_rel = pressure_increment(gas, flds.V, fields.phi_x) - dpV * fields.phi_x
    dx = grid.dx
    nphi = sobolev_norms(fields.phi, dx)
    npsi = sobolev_norms(fields.psi, dx)
    e0, e1 = energy_functionals(fields, dpV)
    report = pointwise_inequality_report(cw, flds, dpV)
    l2 = lambda y: math.sqrt(trapz(y * y, dx))
    return DiagnosticsRecord(
        t=state.t,
        sup_v=float(np.max(np.abs(fields.phi_x))),
        sup_u=float(np.max(np.abs(fields.psi_x))),
        l2_phi=nphi.l2, h1_phi=nphi.h1, h2_phi=nphi.h2,
        l2_psi=npsi.l2, h1_psi=npsi.h1, h2_psi=npsi.h2,
        l2_Psi=l2(fields.Psi), l2_Psi_x=l2(fields.Psi_x),
        l2_W=l2(flds.W),
        E0=e0, E1=e1,
        min_f=float(f.min()),
        ineq_violation=report.max_violation,
        v_min=float(state.v.min()), v_max=float(state.v.max()),
        p_rel_ratio=_p_rel_ratio(p_rel, fields.phi_x),
    )

"""Equation of state, shock curves, and the two-shock Riemann solver.

The state space is (v, u) with specific volume v > 0 and velocity u, in
Lagrangian (mass) coordinates.  Pressure follows the power law
p(v) = a v**(-gamma).  The viscosity exponent alpha only matters to the
profile and time-stepping modules, but it lives on GasModel so a single
object describes the gas everywhere.

Shock curve through a base state (v0, u0):

    u = u0 - sqrt(a (v0 - v) (v**-gamma - v0**-gamma)),

with v < v0 the 1-branch and v > v0 the 2-branch.  The sqrt(a) factor
keeps the curve dimensionally consistent with p = a v**-gamma when
a != 1 (at a = 1 it reduces to the usual display).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GasModel",
    "EndState",
    "TwoShockData",
    "NoTwoShockSolution",
    "BracketError",
    "char_speeds",
    "hugoniot_u",
    "in_ss_region",
    "solve_intermediate",
    "rh_residuals",
    "entropy_margins",
    "pressure_increment",
]

RH_TOL = 1e-12     # relative tolerance on Rankine-Hugoniot residuals
VM_XTOL = 1e-14    # absolute tolerance of the v_m root find


class NoTwoShockSolution(ValueError):
    """The right state cannot be joined to the left state by two shocks."""


class BracketError(RuntimeError):
    """A root-bracketing scan found no sign change."""


def _check_volume(v):
    if np.any(np.asarray(v) <= 0.0):
        raise ValueError("specific volume must be positive")


@dataclass(frozen=True)
class GasModel:
    """Power-law gas: p = a v^-gamma, viscosity mu = v^-alpha (mu0 = 1)."""

    a: float = 1.0
    gamma: float = 2.0
    alpha: float = 0.0

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("pressure coefficient a must be positive")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")

    def pressure(self, v):
        return self.a * v ** (-self.gamma)

    def dpressure(self, v):
        return -self.a * self.gamma * v ** (-self.gamma - 1.0)

    def d2pressure(self, v):
        return self.a * self.gamma * (self.gamma + 1.0) * v ** (-self.gamma - 2.0)


@dataclass(frozen=True)
class EndState:
    """Far-field state: specific volume v > 0 and velocity u."""

    v: float
    u: float

    def __post_init__(self):
        if not self.v > 0.0:
            raise ValueError("specific volume must be positive")


@dataclass(frozen=True)
class TwoShockData:
    """Left/middle/right states with shock speeds and strengths.

    s1 < 0 < s2; chi1 = v_left - v_mid and chi2 = v_right - v_mid are
    both positive for genuine two-shock data.
    """

    left: EndState
    mid: EndState
    right: EndState
    s1: float
    s2: float
    chi1: float
    chi2: float


def _scalar_or_array(x, scalar):
    return float(x) if scalar else x


def char_speeds(gas: GasModel, v):
    """Characteristic speeds (lambda1, lambda2) = (-sqrt(-p'(v)), +sqrt(-p'(v)))."""
    _check_volume(v)
    scalar = np.ndim(v) == 0
    v = np.asarray(v, dtype=np.float64)
    lam = np.sqrt(gas.a * gas.gamma) * v ** (-0.5 * (gas.gamma + 1.0))
    return _scalar_or_array(-lam, scalar), _scalar_or_array(lam, scalar)


def pressure_increment(gas: GasModel, base_v: float, w):
    """p(base_v + w) - p(base_v) evaluated without cancellation.

    Uses expm1/log1p so the result keeps full relative accuracy even
    when |w| is many orders of magnitude below base_v.
    """
    z = np.asarray(w, dtype=np.float64) / base_v
    out = gas.pressure(base_v) * np.expm1(-gas.gamma * np.log1p(z))
    return float(out) if np.ndim(w) == 0 else out


def hugoniot_u(gas: GasModel, base: EndState, v):
    """Velocity on the shock locus through `base` at volume v.

    Both branches carry u <= base.u; the radicand is nonnegative for
    every v > 0 and is clamped against rounding at v = base.v.
    """
    _check_volume(v)
    scalar = np.ndim(v) == 0
    v = np.asarray(v, dtype=np.float64)
    rad = gas.a * (base.v - v) * (v ** (-gas.gamma) - base.v ** (-gas.gamma))
    rad = np.maximum(rad, 0.0)
    return _scalar_or_array(base.u - np.sqrt(rad), scalar)


def _bisect_secant(f, lo, hi, flo, fhi, xtol, max_iter=200):
    """Bracketed bisection refined by a secant step each iteration."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError("endpoints do not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if fhi != flo:
            sec = hi - fhi * (hi - lo) / (fhi - flo)
            if lo < sec < hi:
                fsec = f(sec)
                if fsec == 0.0:
                    return sec
                if flo * fsec < 0.0:
                    hi, fhi = sec, fsec
                else:
                    lo, flo = sec, fsec
        if hi - lo <= xtol:
            break
    return lo if abs(flo) <= abs(fhi) else hi


def _branch_volume(gas: GasModel, base: EndState, u_level: float, branch: int):
    """Invert the shock curve: volume on branch 1 (v < base.v) or 2 at u_level."""
    def f(v):
        return float(hugoniot_u(gas, base, np.float64(v))) - u_level

    f_base = base.u - u_level  # > 0 whenever u_level < base.u
    with np.errstate(over="ignore"):
        if branch == 1:
            hi, fhi = base.v, f_base
            lo, flo = base.v, f_base
            while not flo < 0.0:
                if lo * 0.5 == 0.0:
                    raise BracketError(
                        f"S1 branch bracket expansion reached v = {lo:.3g} "
                        "without a sign change")
                lo *= 0.5
                flo = f(lo)
        else:
            lo, flo = base.v, f_base
            hi, fhi = base.v, f_base
            while not fhi < 0.0:
                if not math.isfinite(hi * 2.0):
                    raise BracketError(
                        f"S2 branch bracket expansion reached v = {hi:.3g} "
                        "without a sign change")
                hi *= 2.0
                fhi = f(hi)
        return _bisect_secant(f, lo, hi, flo, fhi,
                              xtol=1e-13 * max(1.0, hi))


def in_ss_region(gas: GasModel, left: EndState, right: EndState) -> bool:
    """True iff `right` lies strictly inside SS(left).

    SS is the set of states below left's velocity whose volume falls
    strictly between the S1 and S2 curve volumes at that velocity.
    """
    _check_volume(left.v)
    _check_volume(right.v)
    if not right.u < left.u:
        return False
    v_s1 = _branch_volume(gas, left, right.u, 1)
    v_s2 = _branch_volume(gas, left, right.u, 2)
    return v_s1 < right.v < v_s2


def rh_residuals(gas: GasModel, ts: TwoShockData):
    """The four Rankine-Hugoniot residuals (1-family pair, 2-family pair)."""
    pl = gas.pressure(ts.left.v)
    pm = gas.pressure(ts.mid.v)
    pr = gas.pressure(ts.right.v)
    r1a = -ts.s1 * (ts.mid.v - ts.left.v) - (ts.mid.u - ts.left.u)
    r1b = -ts.s1 * (ts.mid.u - ts.left.u) + (pm - pl)
    r2a = -ts.s2 * (ts.right.v - ts.mid.v) - (ts.right.u - ts.mid.u)
    r2b = -ts.s2 * (ts.right.u - ts.mid.u) + (pr - pm)
    return r1a, r1b, r2a, r2b


def entropy_margins(gas: GasModel, ts: TwoShockData):
    """Strict-inequality margins of the Lax entropy conditions.

    Returns ((l1(v-) - s1, s1 - l1(vm)), (l2(vm) - s2, s2 - l2(v+)));
    all four must be positive for admissible shocks.
    """
    l1_left, _ = char_speeds(gas, ts.left.v)
    l1_mid, l2_mid = char_speeds(gas, ts.mid.v)
    _, l2_right = char_speeds(gas, ts.right.v)
    return ((l1_left - ts.s1, ts.s1 - l1_mid),
            (l2_mid - ts.s2, ts.s2 - l2_right))


def solve_intermediate(gas: GasModel, left: EndState, right: EndState) -> TwoShockData:
    """Solve the two-shock Riemann problem for the intermediate state.

    Finds v_m in (0, min(v_left, v_right)) such that hopping from the
    left state along S1 to v_m and then along S2 reaches the right
    state.  Shock speeds come from s^2 = -dp/dv across each jump.

    Raises NoTwoShockSolution when right is not in SS(left), and
    BracketError when the geometric scan finds no sign change.
    """
    if not in_ss_region(gas, left, right):
        raise NoTwoShockSolution(
            "right state is not strictly inside the SS region of the left state")

    vmax = min(left.v, right.v)
    eps = 1e-8 * vmax

    def resid(vm):
        um = hugoniot_u(gas, left, vm)
        mid = EndState(float(vm), float(um))
        return float(hugoniot_u(gas, mid, right.v)) - right.u

    grid = np.geomspace(eps, vmax - eps, 64)
    vals = [resid(v) for v in grid]
    k = next((i for i in range(63) if vals[i] * vals[i + 1] <= 0.0), None)
    if k is None:
        raise BracketError(
            f"no sign change for v_m scanned on ({eps:.3e}, {vmax - eps:.6g}) "
            "in 64 geometric subdivisions")
    vm = _bisect_secant(resid, float(grid[k]), float(grid[k + 1]),
                        vals[k], vals[k + 1],
                        xtol=VM_XTOL * max(1.0, vmax))
    um = float(hugoniot_u(gas, left, vm))
    pl = gas.pressure(left.v)
    pm = gas.pressure(vm)
    pr = gas.pressure(right.v)
    s1 = -math.sqrt(-(pm - pl) / (vm - left.v))
    s2 = math.sqrt(-(pr - pm) / (right.v - vm))
    ts = TwoShockData(left=left, mid=EndState(vm, um), right=right,
                      s1=s1, s2=s2, chi1=left.v - vm, chi2=right.v - vm)

    scale = max(1.0, abs(left.u), abs(right.u))
    worst = max(abs(r) for r in rh_residuals(gas, ts))
    if worst > RH_TOL * scale:
        raise RuntimeError(f"RH residual {worst:.3e} exceeds {RH_TOL:.0e}*scale")
    m1, m2 = entropy_margins(gas, ts)
    if min(m1) <= 0.0 or min(m2) <= 0.0:
        raise RuntimeError("entropy conditions are not strictly satisfied")
    return ts

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

Both factors of the radicand grow in size away from v0, so along the
locus u rises to u0 as v increases to v0 (S1) and falls beyond it (S2).
The two-shock region SS(left) is therefore exactly the open set below
the locus through the left state, u < u_S(v): `in_ss_region` is that one
comparison, and its sign is the sign at v_m = min(v_left, v_right) of
the monotone residual whose root `solve_intermediate` finds.
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
BISECT_MAX_ITER = 200  # iteration cap of the bracketed root find


class NoTwoShockSolution(ValueError):
    """The right state cannot be joined to the left state by two shocks."""


class BracketError(RuntimeError):
    """A root-bracketing scan found no sign change."""


def _check_volume(v):
    if np.any(np.asarray(v) <= 0.0):
        raise ValueError("specific volume must be positive")


def _check_pressure(gas, v, name):
    """OverflowError, naming the volume `name` = v and gamma, unless the
    pressure a*v**-gamma is a finite float64 at the volume v > 0."""
    with np.errstate(over="ignore"):
        p = gas.pressure(np.float64(v))
    if not np.isfinite(p):
        raise OverflowError(f"{name} = {v!r}: the pressure a*v**-gamma "
                            f"overflows float64 at gamma = {gas.gamma:g}")


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

    def char_speed(self, v):
        """The characteristic speed sqrt(-p'(v)) = sqrt(a gamma)
        v^(-(gamma+1)/2), for v > 0 unchecked.  math.sqrt rounds as
        np.sqrt does and keeps it one multiply on a float."""
        return math.sqrt(self.a * self.gamma) * v ** (-0.5 * (self.gamma + 1.0))


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
    lam = gas.char_speed(np.asarray(v, dtype=np.float64))
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
    every v > 0 and is clamped against rounding at v = base.v.  A base
    pressure that overflows float64 raises OverflowError.
    """
    _check_volume(v)
    _check_pressure(gas, base.v, "base.v")
    scalar = np.ndim(v) == 0
    v = np.asarray(v, dtype=np.float64)
    return _scalar_or_array(_shock_u(gas, base.v, base.u, v), scalar)


def _shock_u(gas: GasModel, v0, u0, v):
    """hugoniot_u through the base state (v0, u0), unchecked; the base
    may be arrays, one base per element of v."""
    rad = gas.a * (v0 - v) * (v ** (-gas.gamma) - v0 ** (-gas.gamma))
    return u0 - np.sqrt(np.maximum(rad, 0.0))


def _bisect_secant(f, lo, hi, flo, fhi, xtol):
    """Bracketed bisection refined by a secant step each iteration."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError("endpoints do not bracket a root")
    for _ in range(BISECT_MAX_ITER):
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


def in_ss_region(gas: GasModel, left: EndState, right: EndState) -> bool:
    """True iff `right` lies strictly inside SS(left), i.e. strictly below
    the shock locus through `left`: right.u < u_S(right.v).

    u_S increases to left.u on S1 (v < left.v) and decreases on S2, so
    this is v_S1 < right.v < v_S2 at the level right.u.  A state on the
    locus is single-shock data, not inside; a v**-gamma that overflows
    reads as not inside.  u_S is hugoniot_u's arithmetic, bit for bit
    (numpy's scalar power equals Python's), and equals
    solve_intermediate's resid(min(left.v, right.v)) + right.u.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u_s = _shock_u(gas, np.float64(left.v), left.u,
                       np.asarray(right.v, dtype=np.float64))
    return bool(right.u < u_s)


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

    Raises OverflowError, naming the volume, when the pressure of an end
    state overflows float64, NoTwoShockSolution when right is not in
    SS(left), BracketError when the geometric scan finds no sign change:
    the residual increases in v_m, so either the weaker shock is below
    the scan's resolution or v_m is below its floor, and OverflowError,
    naming the bracket, when p(v_m) overflows float64.
    """
    _check_pressure(gas, left.v, "left.v")
    _check_pressure(gas, right.v, "right.v")
    if not in_ss_region(gas, left, right):
        raise NoTwoShockSolution(
            "right state is not strictly inside the SS region of the left state")

    vmax = min(left.v, right.v)
    eps = 1e-8 * vmax

    def resid(vm):
        # hugoniot_u's arithmetic on 0-d arrays, without its volume check:
        # vm lies in (0, vmax) and right.v > 0
        um = float(_shock_u(gas, left.v, left.u,
                            np.asarray(vm, dtype=np.float64)))
        return float(_shock_u(gas, float(vm), um,
                              np.asarray(right.v, dtype=np.float64))) - right.u

    # the scan in one array evaluation; the bracket's end values are
    # then taken from resid, so the root find sees scalar values only.
    # A v_m**-gamma that overflows gives the true limit -inf of the
    # residual at tiny v_m.
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.geomspace(eps, vmax - eps, 64)
        vals = _shock_u(gas, grid, _shock_u(gas, left.v, left.u, grid),
                        np.asarray(right.v)) - right.u
        change = np.flatnonzero(vals[:-1] * vals[1:] <= 0.0)
        if change.size == 0:
            regime = ("the weaker shock's strength is" if vals[-1] < 0.0
                      else "v_m is")
            raise BracketError(
                f"no sign change for v_m scanned on ({eps:.3e}, {vmax - eps:.6g}) "
                f"in 64 geometric subdivisions: {regime} below "
                f"1e-8*min(v_minus, v_plus) = {eps:.3e}")
        lo, hi = float(grid[change[0]]), float(grid[change[0] + 1])
        try:
            vm = _bisect_secant(resid, lo, hi, resid(lo), resid(hi),
                                xtol=VM_XTOL * max(1.0, vmax))
            pm = gas.pressure(vm)
        except OverflowError:  # resid's Python-float base power
            pm = math.inf
    if not math.isfinite(pm):
        raise OverflowError(
            f"v_m lies in ({lo:.3e}, {hi:.3e}), where p(v_m) = a*v_m**-gamma "
            f"overflows float64 at gamma = {gas.gamma:g}")
    um = float(hugoniot_u(gas, left, vm))
    pl = gas.pressure(left.v)
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

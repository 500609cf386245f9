"""Viscous shock profiles: traveling-wave ODE integration and evaluation.

A family-i wave with speed s connects state_l (xi -> -inf) to state_r
(xi -> +inf).  Eliminating U through the mass relation
U = u_l - s (V - v_l) reduces the traveling-wave system to the scalar
ODE

    dV/dxi = g(V) = -V**(alpha+1) (s^2 (V - v_l) + p(V) - p(v_l)) / s,

whose fixed points are the two end volumes (the right one by the
Rankine-Hugoniot relation).  The profile is normalized by
V(0) = (v_l + v_r) / 2.

Integration runs separately on each half line in the gap variable
w = V - v_end of that half's end state, with the bracket written as
s^2 w + (p(v_end + w) - p(v_end)) so that both terms are O(w); this
keeps the exponential tails at full relative accuracy down to the
tail-switch tolerance.  The ODE is scalar and autonomous, so a half
line's table is a quadrature, xi(w) = int dw / g(w): its nodes are
uniform in sigma = ln(|w| / (chi - |w|)), spaced _DSIGMA apart, and xi
at each node sums 8-point Gauss-Legendre panels.  dxi/dsigma stays
bounded at both ends, so the node count grows only like ln(chi / GAP_TOL).
Beyond the tabulated range the analytic tails

    V = v_end + w_edge * exp(-+ c_pm (xi - xi_edge))

take over, matched continuously at the table ends, with rates from the
endpoint linearization

    c = v_end**(alpha+1) |s^2 + p'(v_end)| / |s|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .riemann import EndState, GasModel, TwoShockData, pressure_increment

__all__ = [
    "GAP_TOL",
    "ShockProfile",
    "DegenerateWaveError",
    "IntegrationError",
    "TailTruncatedWarning",
    "profile_rhs",
    "decay_rates",
    "integrate_profile",
    "build_profiles",
    "sample_uniform",
]

GAP_TOL = 1e-10        # tail-switch tolerance on |V - v_end|
_GAP_TARGET = 0.98 * GAP_TOL   # integration stops just inside the tolerance
_ODE_RTOL = 1e-12
# Table node spacing in sigma: the cubic Hermite error scales as dsigma^4,
# 1.3e-10 chi at 0.025 (5.3e-11 chi at 0.02 costs 3,232 nodes at chi = 1e-3,
# 2.7e-10 chi at 0.03).
_DSIGMA = 0.025
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


class DegenerateWaveError(ValueError):
    """Zero-strength wave: the profile construction divides by chi."""


class IntegrationError(RuntimeError):
    """Profile integration produced an unusable (non-monotone) table."""


class TailTruncatedWarning(UserWarning):
    """xi_max was reached before the endpoint gap fell below GAP_TOL."""


def profile_rhs(gas: GasModel, s: float, v_left: float, V):
    """dV/dxi along the traveling wave anchored at the xi -> -inf volume.

    Vanishes at v_left exactly and at the far volume up to the RH
    residual of (s, v_left).
    """
    if np.any(np.asarray(V) <= 0.0):
        raise ValueError("specific volume must be positive")
    scalar = np.ndim(V) == 0
    V = np.asarray(V, dtype=np.float64)
    bracket = s * s * (V - v_left) + gas.pressure(V) - gas.pressure(v_left)
    out = -(V ** (gas.alpha + 1.0)) * bracket / s
    return float(out) if scalar else out


def decay_rates(gas: GasModel, state_l: EndState, state_r: EndState, s: float):
    """Exponential tail rates (c_minus, c_plus) at the two end states.

    Realized as the linearization of the profile ODE at each endpoint:
    c = v_end**(alpha+1) |s^2 + p'(v_end)| / |s|.  Positive whenever
    the entropy inequalities hold strictly.
    """
    if state_l.v == state_r.v:
        raise DegenerateWaveError("zero-strength wave has no decay rates")
    q = s * s

    def rate(v_end):
        return v_end ** (gas.alpha + 1.0) * abs(q + gas.dpressure(v_end)) / abs(s)

    return rate(state_l.v), rate(state_r.v)


def _g_from_end(gas: GasModel, s: float, v_end: float, w):
    """Profile slope with the bracket anchored at v_end (cancellation-free)."""
    V = v_end + w
    bracket = (s * s) * w + pressure_increment(gas, v_end, w)
    return -(V ** (gas.alpha + 1.0)) * bracket / s


def _toward_zero(w):
    """True if w keeps one sign and |w| is strictly decreasing."""
    w = np.asarray(w)
    if np.any(w == 0.0) or np.any(np.sign(w) != np.sign(w[0])):
        return False
    return bool(np.all(np.diff(np.abs(w)) < 0.0))


def _monotone_spline(gas, s, v_end, xi, w):
    """C^1 cubic through the gap table with exact nodal slopes g(V).

    Exact slopes make the interpolant fourth-order, which the shift
    quadratures need.  Monotonicity is verified per interval with the
    Fritsch-Carlson sufficient condition (sign(d) = sign(secant) and
    |d| <= 3|secant| at both ends); a failure raises IntegrationError.
    """
    d = _g_from_end(gas, s, v_end, w)
    sec = np.diff(w) / np.diff(xi)
    ok = ((np.sign(d[:-1]) == np.sign(sec)) &
          (np.sign(d[1:]) == np.sign(sec)) &
          (np.abs(d[:-1]) <= 3.0 * np.abs(sec)) &
          (np.abs(d[1:]) <= 3.0 * np.abs(sec)))
    if not np.all(ok):
        raise IntegrationError("gap table fails the Fritsch-Carlson monotonicity check")
    return CubicHermiteSpline(xi, w, d, extrapolate=False)


def _check_contracts(gas, s, v_end, w0, orient):
    """Reject a start gap w0 that the ODE does not carry toward 0."""
    if not orient * _g_from_end(gas, s, v_end, w0) * w0 < 0.0:
        raise IntegrationError("gap does not contract toward the end state")


def _solve_half(gas, s, v_end, w0, xi_max, orient):
    """Integrate the gap w = V - v_end from w0 toward 0.

    orient = +1 integrates the xi > 0 half, orient = -1 the xi < 0 half
    (internally tau = orient * xi >= 0 in both cases).  The run stops
    where |w| falls to _GAP_TARGET or at tau = xi_max.  Returns the
    solve_ivp result with its dense solution, whose last step ends on the
    stopping point.
    """
    def rhs(tau, y):
        return [orient * _g_from_end(gas, s, v_end, y[0])]

    _check_contracts(gas, s, v_end, w0, orient)

    def reached(tau, y):
        return abs(y[0]) - _GAP_TARGET

    reached.terminal = True
    reached.direction = -1.0

    sol = solve_ivp(rhs, (0.0, xi_max), [w0], method="RK45",
                    rtol=_ODE_RTOL, atol=1e-4 * _GAP_TARGET,
                    events=reached, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"profile integration failed: {sol.message}")
    return sol


def _integrate_half(gas, s, v_end, w0, chi, xi_max, orient):
    """Gap table (tau, w, truncated) of one half line, tau = orient * xi
    ascending from 0, by quadrature of tau(w) = int dw / (orient g(w)).

    With a = |w| and sigma = ln(a / (chi - a)), dtau/dsigma =
    (w / (orient g)) (chi - a) / chi stays bounded at both ends, and
    w / g = -s / (V**(alpha+1) (s^2 + dp(w) / w)) has no cancellation.
    Nodes run uniformly in sigma from |w0| down to _GAP_TARGET, their w
    set exactly; tau sums 8-point Gauss-Legendre panels.  Nodes beyond
    xi_max are dropped, and truncated says whether any were.
    """
    _check_contracts(gas, s, v_end, w0, orient)
    sign, a0 = math.copysign(1.0, w0), abs(w0)
    sig0 = math.log(a0 / (chi - a0))
    sig1 = math.log(_GAP_TARGET / (chi - _GAP_TARGET))
    sig = np.linspace(sig0, sig1, max(1, math.ceil((sig0 - sig1) / _DSIGMA)) + 1)
    w = sign * chi / (1.0 + np.exp(-sig))
    w[0], w[-1] = w0, sign * _GAP_TARGET

    half = 0.5 * np.diff(sig)
    sq = (sig[:-1] + half)[:, None] + half[:, None] * _GL_X   # panel points
    with np.errstate(all="ignore"):
        aq = chi / (1.0 + np.exp(-sq))
        wq = sign * aq
        dtau = (-s * (chi - aq) /
                (orient * chi * (v_end + wq) ** (gas.alpha + 1.0) *
                 (s * s + pressure_increment(gas, v_end, wq) / wq)))
        tau = np.append(0.0, np.cumsum(half * (dtau @ _GL_W)))
    if not (np.all(np.isfinite(tau)) and np.all(np.diff(tau) > 0.0)):
        raise IntegrationError("non-finite or non-increasing profile quadrature")
    if not _toward_zero(w):
        raise IntegrationError("non-monotone profile table")
    keep = tau <= xi_max
    if not keep[1]:
        raise IntegrationError(f"xi_max = {xi_max:g} ends before the first "
                               f"table node at {tau[1]:.3g}")
    return tau[keep], w[keep], not keep[-1]


@dataclass(frozen=True, eq=False)
class ShockProfile:
    """Tabulated traveling wave with analytic exponential tails.

    The table stores the gap to the matching end state on each half
    line; V, U and their xi-derivatives are reconstructed from it.
    U = u_l - s (V - v_l) holds exactly, so U_x = -s V_x <= 0.
    """

    family: int
    gas: GasModel
    state_l: EndState
    state_r: EndState
    s: float
    chi: float
    c_minus: float
    c_plus: float
    truncated: bool
    v0: float
    _xi_l: np.ndarray = field(repr=False)
    _w_l: np.ndarray = field(repr=False)
    _xi_r: np.ndarray = field(repr=False)
    _w_r: np.ndarray = field(repr=False)
    _ip_l: CubicHermiteSpline = field(repr=False)
    _ip_r: CubicHermiteSpline = field(repr=False)

    # -- geometry ----------------------------------------------------

    @property
    def xi_table(self) -> np.ndarray:
        return np.concatenate([self._xi_l[:-1], self._xi_r])

    @property
    def v_table(self) -> np.ndarray:
        left = self.state_l.v + self._w_l[:-1]
        right = self.state_r.v + self._w_r
        right[0] = self.v0
        return np.concatenate([left, right])

    # -- evaluation --------------------------------------------------

    def gaps(self, xi):
        """(V - v_l, V - v_r, V_x) at xi from one table lookup.

        xi is a scalar or a 1-D array in ascending order (ties allowed)
        without nan; anything else raises ValueError.  The left tail,
        left table, right table and right tail are then contiguous
        slices, found by binary search.  Each gap is cancellation-free
        on its own side, so V - v_l is accurate in relative terms on the
        left tail and V - v_r on the right tail.
        """
        xi = np.asarray(xi, dtype=np.float64)
        if xi.ndim > 1:
            raise ValueError("xi must be a scalar or a 1-D array")
        flat = xi.reshape(-1)
        # both comparisons are False wherever a nan takes part
        if flat.size and not (flat[0] <= flat[-1]
                              and np.all(flat[1:] >= flat[:-1])):
            raise ValueError("xi must be ascending and free of nan")
        i0 = np.searchsorted(flat, self._xi_l[0], "left")
        j1 = np.searchsorted(flat, 0.0, "right")
        j2 = np.searchsorted(flat, self._xi_r[-1], "right")
        lt, tl, tr, rt = (slice(0, i0), slice(i0, j1), slice(j1, j2),
                          slice(j2, None))
        jump = self.state_r.v - self.state_l.v
        gl = np.empty(flat.shape)
        gr = np.empty(flat.shape)
        vx = np.empty(flat.shape)
        gl[lt] = self._w_l[0] * np.exp(self.c_minus * (flat[lt] - self._xi_l[0]))
        gl[tl] = self._ip_l(flat[tl])
        gr[tr] = self._ip_r(flat[tr])
        gr[rt] = self._w_r[-1] * np.exp(-self.c_plus * (flat[rt] - self._xi_r[-1]))
        np.subtract(gl[:j1], jump, out=gr[:j1])
        np.add(gr[j1:], jump, out=gl[j1:])
        vx[lt] = self.c_minus * gl[lt]
        vx[tl] = _g_from_end(self.gas, self.s, self.state_l.v, gl[tl])
        vx[tr] = _g_from_end(self.gas, self.s, self.state_r.v, gr[tr])
        vx[rt] = -self.c_plus * gr[rt]
        return gl.reshape(xi.shape), gr.reshape(xi.shape), vx.reshape(xi.shape)

    def evaluate(self, xi):
        """(V, U, V_x, U_x) at xi: a scalar or an ascending 1-D array
        without nan (see gaps)."""
        scalar = np.ndim(xi) == 0
        xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
        gl, gr, vx = self.gaps(xi)
        V = np.where(xi <= 0.0, self.state_l.v + gl, self.state_r.v + gr)
        U = self.state_l.u - self.s * gl
        ux = -self.s * vx
        if scalar:
            return float(V[0]), float(U[0]), float(vx[0]), float(ux[0])
        return V, U, vx, ux


def _half_line_setup(gas, state_l, state_r, s, xi_max, start_volume=None):
    """What both half-line integrations of a wave share: (chi, c_minus,
    c_plus, V(0), (xi cap of the left half, of the right))."""
    chi = abs(state_r.v - state_l.v)
    if chi == 0.0:
        raise DegenerateWaveError("zero-strength wave has no profile")
    c_minus, c_plus = decay_rates(gas, state_l, state_r, s)
    mid = 0.5 * (state_l.v + state_r.v) if start_volume is None else start_volume
    caps = tuple(xi_max if xi_max is not None
                 else (math.log(max(chi, 1e-3) / _GAP_TARGET) + 25.0) / c
                 for c in (c_minus, c_plus))
    return chi, c_minus, c_plus, mid, caps


def integrate_profile(gas: GasModel, state_l: EndState, state_r: EndState,
                      s: float, family: int, xi_max: Optional[float] = None,
                      start_volume: Optional[float] = None) -> ShockProfile:
    """Integrate the traveling-wave ODE into an evaluable ShockProfile.

    Starts from V(0) = (v_l + v_r)/2 and integrates both half lines
    until the endpoint gap drops below GAP_TOL (or |xi| exceeds xi_max, in
    which case the profile is returned flagged and a TailTruncatedWarning
    is issued).  start_volume overrides the midpoint normalization;
    translating a profile is equivalent to re-normalizing it, which the
    tests exploit.
    """
    if family not in (1, 2):
        raise ValueError("family must be 1 or 2")
    chi, c_minus, c_plus, mid, (xi_max_l, xi_max_r) = _half_line_setup(
        gas, state_l, state_r, s, xi_max, start_volume)
    if family == 1 and not (s < 0.0 and state_r.v < state_l.v):
        raise ValueError("family-1 wave needs s < 0 and a decreasing volume")
    if family == 2 and not (s > 0.0 and state_r.v > state_l.v):
        raise ValueError("family-2 wave needs s > 0 and an increasing volume")
    lo, hi = min(state_l.v, state_r.v), max(state_l.v, state_r.v)
    if not lo < mid < hi:
        raise ValueError("start_volume must lie strictly between the end volumes")

    tau_r, w_r, trunc_r = _integrate_half(
        gas, s, state_r.v, mid - state_r.v, chi, xi_max_r, +1)
    tau_l, w_l, trunc_l = _integrate_half(
        gas, s, state_l.v, mid - state_l.v, chi, xi_max_l, -1)

    truncated = trunc_l or trunc_r
    if truncated:
        warnings.warn("profile tail truncated at xi_max before reaching GAP_TOL",
                      TailTruncatedWarning)

    xi_l = -tau_l[::-1]
    wl = w_l[::-1]
    ip_l = _monotone_spline(gas, s, state_l.v, xi_l, wl)
    ip_r = _monotone_spline(gas, s, state_r.v, tau_r, w_r)

    return ShockProfile(family=family, gas=gas, state_l=state_l,
                        state_r=state_r, s=s, chi=chi,
                        c_minus=c_minus, c_plus=c_plus, truncated=truncated,
                        v0=mid, _xi_l=xi_l, _w_l=wl, _xi_r=tau_r, _w_r=w_r,
                        _ip_l=ip_l, _ip_r=ip_r)


def build_profiles(gas: GasModel, ts: TwoShockData):
    """Both shock profiles of a two-shock datum."""
    p1 = integrate_profile(gas, ts.left, ts.mid, ts.s1, 1)
    p2 = integrate_profile(gas, ts.mid, ts.right, ts.s2, 2)
    return p1, p2


def sample_uniform(gas: GasModel, state_l: EndState, state_r: EndState,
                   s: float, h: float):
    """(xi, V, U) on an exactly uniform grid of step h spanning the wave.

    Node values come straight from the dense ODE solution (no table
    interpolation), which makes the samples suitable for discretization
    order studies of the steady system.
    """
    *_, mid, (xi_max_l, xi_max_r) = _half_line_setup(
        gas, state_l, state_r, s, None)

    def half(v_end, w0, cap, orient):
        sol = _solve_half(gas, s, v_end, w0, cap, orient)
        m = int(math.floor(sol.t[-1] / h))
        tau = h * np.arange(m + 1)
        return tau, sol.sol(tau)[0]

    tau_r, w_r = half(state_r.v, mid - state_r.v, xi_max_r, +1)
    tau_l, w_l = half(state_l.v, mid - state_l.v, xi_max_l, -1)

    xi = np.concatenate([-tau_l[:0:-1], tau_r])
    V = np.concatenate([state_l.v + w_l[:0:-1], state_r.v + w_r])
    V[tau_l.size - 1] = mid
    U = state_l.u - s * (V - state_l.v)
    return xi, V, U

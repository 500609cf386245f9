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
Each half table is a monotone cubic Hermite (Fritsch & Carlson 1980, SIAM
J. Numer. Anal. 17:238) kept as its nodes and four coefficients per
interval, and evaluated here in numpy, bit for bit as scipy's
CubicHermiteSpline, so the package does not import scipy.interpolate.
This quadrature is the only integrator: every evaluation, the uniform
samples of sample_uniform included, reads its tables.  Beyond the
tabulated range the analytic tails

    V = v_end + w_edge * exp(-+ c_pm (xi - xi_edge))

take over, matched continuously at the table ends, with rates from the
endpoint linearization

    c = v_end**(alpha+1) |s^2 + p'(v_end)| / |s|.

A tail is exactly at its end state far enough out: |w_edge| is
_GAP_TARGET = 9.8e-11, and for an exponent y <= -746 any exp within
1 ulp returns 0 or 2^-1074, so w_edge * exp(y) rounds to 0 with the sign
of w_edge.  Each profile fixes the two points _TAIL_ZERO / c_pm beyond
its table ends from which that holds, and fills w_edge * 0.0 there
without calling exp; the result is bit for bit the formula's.  So the
cost of evaluating a long grid scales with its points inside those
bounds, and a block of points tests each bound with one comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .riemann import EndState, GasModel, TwoShockData, pressure_increment

__all__ = [
    "GAP_TOL",
    "ShockProfile",
    "DegenerateWaveError",
    "IntegrationError",
    "decay_rates",
    "integrate_profile",
    "build_profiles",
    "sample_uniform",
]

GAP_TOL = 1e-10        # tail-switch tolerance on |V - v_end|
_GAP_TARGET = 0.98 * GAP_TOL   # integration stops just inside the tolerance
# Table node spacing in sigma: the cubic Hermite error scales as dsigma^4,
# 1.3e-10 chi at 0.025 (5.3e-11 chi at 0.02 costs 3,232 nodes at chi = 1e-3,
# 2.7e-10 chi at 0.03).
_DSIGMA = 0.025
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
# Tail exponent beyond which w_edge * exp(y) is exactly +-0 (y <= -746 with
# one unit to spare for the rounding of y itself)
_TAIL_ZERO = 747.0


class DegenerateWaveError(ValueError):
    """Zero-strength wave: the profile construction divides by chi."""


class IntegrationError(RuntimeError):
    """Profile integration produced an unusable (non-monotone) table."""


def ascending_points(a, name):
    """The scalar or 1-D float array a as a 1-D view, after checking that
    it is ascending (ties allowed) and free of nan; raises ValueError
    naming it otherwise."""
    if a.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-D array")
    flat = a.reshape(-1)
    # both comparisons are False wherever a nan takes part
    if flat.size and not (flat[0] <= flat[-1]
                          and np.all(flat[1:] >= flat[:-1])):
        raise ValueError(f"{name} must be ascending and free of nan")
    return flat


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


def _hermite_table(gas, s, v_end, xi, w):
    """(4, m) coefficients of the C^1 cubic through the gap table with
    exact nodal slopes g(V), one column per interval, highest power
    first: scipy's CubicHermiteSpline coefficients, from its expressions
    in its order, so bit for bit the same.

    Exact slopes make the interpolant fourth-order, which the shift
    quadratures need.  Monotonicity is verified per interval with the
    Fritsch-Carlson sufficient condition (sign(d) = sign(secant) and
    |d| <= 3|secant| at both ends); a failure raises IntegrationError.
    """
    d = _g_from_end(gas, s, v_end, w)
    dxi = np.diff(xi)
    sec = np.diff(w) / dxi
    ok = ((np.sign(d[:-1]) == np.sign(sec)) &
          (np.sign(d[1:]) == np.sign(sec)) &
          (np.abs(d[:-1]) <= 3.0 * np.abs(sec)) &
          (np.abs(d[1:]) <= 3.0 * np.abs(sec)))
    if not np.all(ok):
        raise IntegrationError("gap table fails the Fritsch-Carlson monotonicity check")
    t = (d[:-1] + d[1:] - 2.0 * sec) / dxi
    c = np.empty((4, dxi.size))
    c[0] = t / dxi
    c[1] = (sec - d[:-1]) / dxi - t
    c[2] = d[:-1]
    c[3] = w[:-1]
    return c


def _hermite(xi, c, pts):
    """The cubic of _hermite_table's coefficients c on the nodes xi at
    the ascending pts, all inside [xi[0], xi[-1]] (unchecked): bit for
    bit scipy's PPoly, with intervals [xi[k], xi[k+1]) and the last one
    closed, and each cubic summed as (c3 + c2 s) + c1 s^2 + c0 (s^2 s)."""
    if pts.size < c.shape[1]:
        # each point's interval: the count of inner nodes at or below it
        k = np.searchsorted(xi[1:-1], pts, "right")
        c = np.take(c, k, axis=1)
        s = pts - np.take(xi, k)
    else:
        # each interval's point count, from the nodes' places among the
        # points: a cost that grows with the nodes, not the points (~4x
        # cheaper at 16,384 points against 922 intervals)
        k = np.searchsorted(pts, xi, "left")
        k[-1] = pts.size
        k = k[1:] - k[:-1]
        c = np.repeat(c, k, axis=1)
        s = pts - np.repeat(xi[:-1], k)
    s2 = s * s
    v = c[2]
    v *= s
    v += c[3]
    c[1] *= s2
    v += c[1]
    s2 *= s
    c[0] *= s2
    v += c[0]
    return v


def _integrate_half(gas, s, v_end, w0, chi, orient):
    """Gap table (tau, w) of one half line, tau = orient * xi ascending
    from 0, by quadrature of tau(w) = int dw / (orient g(w)).

    With a = |w| and sigma = ln(a / (chi - a)), dtau/dsigma =
    (w / (orient g)) (chi - a) / chi stays bounded at both ends, and
    w / g = -s / (V**(alpha+1) (s^2 + dp(w) / w)) has no cancellation.
    Nodes run uniformly in sigma from |w0| down to _GAP_TARGET, their w
    set exactly; tau sums 8-point Gauss-Legendre panels.  A start gap
    that the ODE does not carry toward 0 raises IntegrationError.
    """
    if not orient * _g_from_end(gas, s, v_end, w0) * w0 < 0.0:
        raise IntegrationError("gap does not contract toward the end state")
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
    return tau, w


@dataclass(frozen=True, eq=False)
class ShockProfile:
    """Tabulated traveling wave with analytic exponential tails.

    The table stores the gap to the matching end state on each half
    line; V, U and their xi-derivatives are reconstructed from it.
    U = u_l - s (V - v_l) holds exactly, so U_x = -s V_x <= 0.
    """

    gas: GasModel
    state_l: EndState
    state_r: EndState
    s: float
    chi: float
    c_minus: float
    c_plus: float
    v0: float
    _xi_l: np.ndarray = field(repr=False)
    _w_l: np.ndarray = field(repr=False)
    _xi_r: np.ndarray = field(repr=False)
    _w_r: np.ndarray = field(repr=False)
    # (4, m) cubic Hermite coefficients of each half table (_hermite_table)
    _c_l: np.ndarray = field(repr=False)
    _c_r: np.ndarray = field(repr=False)
    # the tails are exactly +-0 below _xi_zero_l and above _xi_zero_r
    _xi_zero_l: float = field(repr=False)
    _xi_zero_r: float = field(repr=False)

    # -- geometry ----------------------------------------------------

    @property
    def xi_table(self) -> np.ndarray:
        return np.concatenate([self._xi_l[:-1], self._xi_r])

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
        gl, gr, bounds = self._gap_values(ascending_points(xi, "xi"))
        vx = self._gap_slopes(gl, gr, bounds, np.empty(gl.shape))
        return gl.reshape(xi.shape), gr.reshape(xi.shape), vx.reshape(xi.shape)

    def _gap_values(self, xi):
        """(V - v_l, V - v_r) at the ascending 1-D xi, unchecked, and
        the region bounds (k0, i0, j1, j2, k3): the left tail is exactly
        w_edge * 0.0 on [0, k0) and computed on [k0, i0), the tables
        cover [i0, j1) and [j1, j2), and the right tail is computed on
        [j2, k3) and exactly w_edge * 0.0 on [k3, n)."""
        n = xi.size
        # one comparison each unless the points reach an exactly zero tail
        k0 = (int(np.searchsorted(xi, self._xi_zero_l, "left"))
              if n and xi[0] < self._xi_zero_l else 0)
        k3 = (int(np.searchsorted(xi, self._xi_zero_r, "right"))
              if n and xi[-1] > self._xi_zero_r else n)
        i0 = np.searchsorted(xi, self._xi_l[0], "left")
        j1 = np.searchsorted(xi, 0.0, "right")
        j2 = np.searchsorted(xi, self._xi_r[-1], "right")
        jump = self.state_r.v - self.state_l.v
        gl = np.empty(n)
        gr = np.empty(n)
        gl[:k0] = self._w_l[0] * 0.0
        gl[k0:i0] = self._w_l[0] * np.exp(self.c_minus * (xi[k0:i0] - self._xi_l[0]))
        gr[j2:k3] = self._w_r[-1] * np.exp(-self.c_plus * (xi[j2:k3] - self._xi_r[-1]))
        gr[k3:] = self._w_r[-1] * 0.0
        # an empty table region skips its table evaluation (~15 us at a few
        # hundred points, and as much for its slopes); most blocks of a
        # long composite grid lie wholly in a tail
        if j1 > i0:
            gl[i0:j1] = _hermite(self._xi_l, self._c_l, xi[i0:j1])
        if j2 > j1:
            gr[j1:j2] = _hermite(self._xi_r, self._c_r, xi[j1:j2])
        np.subtract(gl[:j1], jump, out=gr[:j1])
        np.add(gr[j1:], jump, out=gl[j1:])
        return gl, gr, (k0, i0, j1, j2, k3)

    def _gap_slopes(self, gl, gr, bounds, vx):
        """V_x from the gaps and region bounds of _gap_values, written into
        vx and returned: the exact slope g(V) on the tables, the tail rates
        times the gap beyond."""
        _, i0, j1, j2, _ = bounds
        if j1 > i0:
            vx[i0:j1] = _g_from_end(self.gas, self.s, self.state_l.v, gl[i0:j1])
        if j2 > j1:
            vx[j1:j2] = _g_from_end(self.gas, self.s, self.state_r.v, gr[j1:j2])
        vx[:i0] = self.c_minus * gl[:i0]
        vx[j2:] = -self.c_plus * gr[j2:]
        return vx

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


def integrate_profile(gas: GasModel, state_l: EndState, state_r: EndState,
                      s: float, start_volume: Optional[float] = None) -> ShockProfile:
    """Tabulate the traveling wave into an evaluable ShockProfile.

    Starts from V(0) = (v_l + v_r)/2 and tabulates both half lines until
    the endpoint gap drops below GAP_TOL; the table length is fixed by
    the sigma nodes, ~ln(chi / GAP_TOL) / _DSIGMA per half.  start_volume
    overrides the midpoint normalization; translating a profile is
    equivalent to re-normalizing it, which the tests exploit.  The sign
    of s gives the family: s < 0 for the 1-wave, s > 0 for the 2-wave.
    """
    # decay_rates raises DegenerateWaveError on a zero-strength wave
    c_minus, c_plus = decay_rates(gas, state_l, state_r, s)
    chi = abs(state_r.v - state_l.v)
    if not (s < 0.0 if state_r.v < state_l.v else s > 0.0):
        raise ValueError("a decreasing volume (family 1) needs s < 0 and an "
                         "increasing one (family 2) s > 0")
    mid = 0.5 * (state_l.v + state_r.v) if start_volume is None else start_volume
    lo, hi = min(state_l.v, state_r.v), max(state_l.v, state_r.v)
    if not lo < mid < hi:
        raise ValueError("start_volume must lie strictly between the end volumes")

    tau_r, w_r = _integrate_half(gas, s, state_r.v, mid - state_r.v, chi, +1)
    tau_l, w_l = _integrate_half(gas, s, state_l.v, mid - state_l.v, chi, -1)

    xi_l = -tau_l[::-1]
    wl = w_l[::-1]
    c_l = _hermite_table(gas, s, state_l.v, xi_l, wl)
    c_r = _hermite_table(gas, s, state_r.v, tau_r, w_r)

    return ShockProfile(gas=gas, state_l=state_l, state_r=state_r, s=s,
                        chi=chi, c_minus=c_minus, c_plus=c_plus, v0=mid,
                        _xi_l=xi_l, _w_l=wl, _xi_r=tau_r, _w_r=w_r,
                        _c_l=c_l, _c_r=c_r,
                        _xi_zero_l=xi_l[0] - _TAIL_ZERO / c_minus,
                        _xi_zero_r=tau_r[-1] + _TAIL_ZERO / c_plus)


def build_profiles(gas: GasModel, ts: TwoShockData):
    """Both shock profiles of a two-shock datum."""
    p1 = integrate_profile(gas, ts.left, ts.mid, ts.s1)
    p2 = integrate_profile(gas, ts.mid, ts.right, ts.s2)
    return p1, p2


def sample_uniform(profile: ShockProfile, h: float):
    """(xi, V, U) of the profile at xi = h k for every integer k with
    h k inside its tables: exactly uniform samples for discretization
    order studies of the steady system."""
    k = np.arange(math.ceil(profile._xi_l[0] / h),
                  math.floor(profile._xi_r[-1] / h) + 1)
    xi = h * k
    V, U, _, _ = profile.evaluate(xi)
    return xi, V, U

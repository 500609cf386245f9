"""Two-shock composite waves: shifted superposition, shift solve, and
the wave-interaction residual W.

The composite is

    V(x,t) = V1(x - s1 t + b1) + V2(x - s2 t - beta + b2) - v_m,

and likewise for U.  Because the superposition of two exact profiles is
not an exact solution, the momentum equation picks up the forcing W_x
with

    W = U2x/V2^(a+1) + U1x/V1^(a+1) - Ux/V^(a+1)
        + p(V) + p(v_m) - p(V1) - p(V2).

Far from both waves W decays like the product of the two tail gaps, so
a naive float evaluation of the formula is pure rounding noise exactly
where W's smallness matters.  The implementation therefore regroups the
formula into

    W = U1x [1/V1^(a+1) - 1/V^(a+1)] + U2x [1/V2^(a+1) - 1/V^(a+1)]
        + [p(v_m + d1 + d2) - p(v_m + d1) - p(v_m + d2) + p(v_m)]

with d_i the gaps to the shared middle state, evaluates the bracketed
differences with expm1/log1p, and switches the pressure second
difference to its Taylor series in (d1, d2) when both gaps are small.
The naive term-by-term form is kept as `w_naive` and serves as the
independent cross-check where magnitudes are O(1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .riemann import GasModel, TwoShockData, pressure_increment
from .profile import ShockProfile

__all__ = [
    "CompositeWave",
    "CompositeFields",
    "ShiftInputs",
    "SeparationError",
    "TruncationError",
    "TruncationWarning",
    "compute_shift_inputs",
    "solve_shifts",
    "w_decay_constants",
    "predicted_w_decay",
    "interaction_norm",
    "w_naive",
]

BOUNDARY_DECAY_TOL = 1e-12  # required perturbation decay at the grid edges
W_BOUNDARY_TOL = 1e-14      # required W decay for trusted interaction norms


class SeparationError(ValueError):
    """beta is too small relative to the shifts; enlarge the separation."""


class TruncationError(RuntimeError):
    """A quadrature's integrand has not decayed at the grid boundary."""


class TruncationWarning(UserWarning):
    """An interaction-norm integrand is not negligible at the boundary."""


@dataclass(frozen=True)
class ShiftInputs:
    """Initial excess mass of v and u relative to the unshifted composite."""

    I01: float
    I02: float

    def __post_init__(self):
        if not (math.isfinite(self.I01) and math.isfinite(self.I02)):
            raise ValueError("shift inputs must be finite")


@dataclass(frozen=True)
class CompositeFields:
    """Composite-wave fields on a set of points."""

    V: np.ndarray
    U: np.ndarray
    Vx: np.ndarray
    Ux: np.ndarray
    H: np.ndarray
    W: np.ndarray
    V1x: np.ndarray
    V2x: np.ndarray


def _inv_visc_diff(gas: GasModel, b, d):
    """1/b^(alpha+1) - 1/(b+d)^(alpha+1) without cancellation."""
    ap1 = gas.alpha + 1.0
    return -(b ** -ap1) * np.expm1(-ap1 * np.log1p(d / b))


def _p_second_difference(gas: GasModel, vm: float, d1, d2):
    """p(vm+d1+d2) - p(vm+d1) - p(vm+d2) + p(vm), stable for tiny gaps.

    Grouped into single-gap increments when at least one gap is O(vm);
    Taylor series through sixth order in (d1, d2) when both are below
    1e-3 * vm (truncation error ~1e-12 relative there).  With
    c_k = p^(k)(vm)/k!, the series sum_k c_k [(d1+d2)^k - d1^k - d2^k]
    factors as d1 d2 q(sigma, pi) in sigma = d1 + d2, pi = d1 d2:

        q = 2 c2 + 3 c3 sigma + c4 (4 sigma^2 - 2 pi)
            + 5 c5 sigma (sigma^2 - pi) + c6 (6 sigma^4 - 9 pi sigma^2 + 2 pi^2),

    evaluated by Horner's rule in sigma.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    out = np.empty(np.broadcast(d1, d2).shape)
    d1, d2 = np.broadcast_arrays(d1, d2)

    dmax = np.maximum(np.abs(d1), np.abs(d2))
    small = dmax <= 1e-3 * vm

    if np.any(small):
        # p^(k)(vm)/k! = a (-1)^k gamma(gamma+1)...(gamma+k-1)/k! vm^-(gamma+k)
        g = gas.gamma
        c = [0.0] * 7
        rising = 1.0
        for k in range(1, 7):
            rising *= g + k - 1
            c[k] = gas.a * vm ** (-g - k) * ((-1.0) ** k * rising / math.factorial(k))
        s1 = d1[small]
        s2 = d2[small]
        pi = s1 * s2
        sigma = s1 + s2
        q = 5.0 * c[5] + 6.0 * c[6] * sigma
        q = (4.0 * c[4] - 9.0 * c[6] * pi) + sigma * q
        q = (3.0 * c[3] - 5.0 * c[5] * pi) + sigma * q
        q = (2.0 * c[2] + pi * (2.0 * c[6] * pi - 2.0 * c[4])) + sigma * q
        out[small] = pi * q

    big = ~small
    if np.any(big):
        b1 = d1[big]
        b2 = d2[big]
        use_b1 = np.abs(b1) <= np.abs(b2)
        out[big] = _grouped(gas, vm, np.where(use_b1, b2, b1),
                            np.where(use_b1, b1, b2))
    return out


def _grouped(gas: GasModel, vm: float, d_big, d_small):
    """[p(vm+d_big+d_small) - p(vm+d_big)] - [p(vm+d_small) - p(vm)].

    Both brackets are single increments by the small gap, each O(d_small)
    by construction; their difference is controlled by the big gap, so
    no catastrophic cancellation remains.
    """
    d_small = np.asarray(d_small, dtype=np.float64)
    base = vm + d_big
    return (pressure_increment(gas, base, d_small)
            - pressure_increment(gas, vm, d_small))


def w_naive(gas: GasModel, vm: float, V1, U1x, V2, U2x):
    """Interaction residual from the literal term-by-term formula.

    Independent cross-check of the stable evaluation; accurate only
    where |W| is well above rounding of the O(1) pressure terms.
    """
    ap1 = gas.alpha + 1.0
    V = V1 + V2 - vm
    Ux = U1x + U2x
    return (U2x / V2 ** ap1 + U1x / V1 ** ap1 - Ux / V ** ap1
            + gas.pressure(V) + gas.pressure(vm)
            - gas.pressure(V1) - gas.pressure(V2))


def _w_stable(gas: GasModel, vm: float, d1, d2, u1x, u2x):
    V1 = vm + d1
    V2 = vm + d2
    q = u1x * _inv_visc_diff(gas, V1, d2) + u2x * _inv_visc_diff(gas, V2, d1)
    return q + _p_second_difference(gas, vm, d1, d2)


@dataclass(frozen=True, eq=False)
class CompositeWave:
    """Two shifted shock profiles sharing the middle state.

    wave2 may be None, in which case the object degenerates to the bare
    wave1 (the single-shock path; W vanishes identically).
    """

    wave1: ShockProfile
    wave2: Optional[ShockProfile]
    beta: float
    beta1: float = 0.0
    beta2: float = 0.0

    def __post_init__(self):
        if self.wave2 is not None:
            vm1, um1 = self.wave1.state_r.v, self.wave1.state_r.u
            vm2, um2 = self.wave2.state_l.v, self.wave2.state_l.u
            scale = max(1.0, abs(vm1), abs(um1))
            if abs(vm1 - vm2) > 1e-12 * scale or abs(um1 - um2) > 1e-12 * scale:
                raise ValueError("profiles do not share the middle state")
            if not self.beta > 0.0:
                raise ValueError("separation beta must be positive")
            lim = 3.0 * max(abs(self.beta1), abs(self.beta2))
            if not self.beta > lim:
                raise SeparationError(
                    f"beta = {self.beta:g} must exceed 3*max(|beta1|,|beta2|) "
                    f"= {lim:g}; enlarge the initial separation")

    @property
    def gas(self) -> GasModel:
        return self.wave1.gas

    @property
    def mid(self):
        return self.wave1.state_r

    @property
    def far_left(self):
        return self.wave1.state_l

    @property
    def far_right(self):
        return self.wave2.state_r if self.wave2 is not None else self.wave1.state_r

    def shifted(self, beta1: float, beta2: float) -> "CompositeWave":
        return CompositeWave(self.wave1, self.wave2, self.beta, beta1, beta2)

    def xi1(self, x, t):
        return x - self.wave1.s * t + self.beta1

    def xi2(self, x, t):
        return x - self.wave2.s * t - self.beta + self.beta2

    def _parts(self, x, t):
        """Shared evaluation path so V and U are bitwise-identical
        between state_fields() and fields()."""
        x = np.asarray(x, dtype=np.float64)
        vm = self.mid.v
        w1 = self.wave1
        g1, d1, v1x = w1.gaps(self.xi1(x, t))
        U = w1.state_l.u - w1.s * g1
        u1x = -w1.s * v1x
        if self.wave2 is not None:
            w2 = self.wave2
            d2, _, v2x = w2.gaps(self.xi2(x, t))
            U = U + (w2.state_l.u - w2.s * d2) - self.mid.u
            u2x = -w2.s * v2x
        else:
            v2x = np.zeros_like(x)
            u2x = np.zeros_like(x)
            d2 = np.zeros_like(x)
        V = vm + d1 + d2
        if np.any(V <= 0.0):
            raise ValueError("composite volume is nonpositive; "
                             "profiles overlap destructively")
        return V, U, d1, d2, v1x, v2x, u1x, u2x

    def state_fields(self, x, t):
        """(V, U) only; cheaper than fields() when W is not needed."""
        V, U, *_ = self._parts(x, t)
        return V, U

    def fields(self, x, t) -> CompositeFields:
        """All composite fields at (x, t): V, U, V_x, U_x, H, W."""
        gas = self.gas
        V, U, d1, d2, v1x, v2x, u1x, u2x = self._parts(x, t)
        if self.wave2 is not None:
            W = _w_stable(gas, self.mid.v, d1, d2, u1x, u2x)
        else:
            W = np.zeros_like(V)
        Vx = v1x + v2x
        Ux = u1x + u2x
        H = U - V ** (-(gas.alpha + 1.0)) * Vx
        return CompositeFields(V=V, U=U, Vx=Vx, Ux=Ux, H=H, W=W,
                               V1x=v1x, V2x=v2x)


def compute_shift_inputs(v0, u0, cw: CompositeWave, grid) -> ShiftInputs:
    """Excess masses I01 = int(v0 - V) dx, I02 = int(u0 - U) dx at t = 0.

    Composite trapezoid on the grid plus analytic exponential-tail
    corrections beyond it, using the composite's own decay rates.
    Raises TruncationError when the integrands have not decayed below
    the boundary tolerance at the grid edges.
    """
    V, U = cw.state_fields(grid.x, 0.0)
    return _shift_inputs(np.asarray(v0, dtype=np.float64) - V,
                         np.asarray(u0, dtype=np.float64) - U, cw, grid)


def _shift_inputs(rv, ru, cw: CompositeWave, grid) -> ShiftInputs:
    """compute_shift_inputs from the residuals rv = v0 - V, ru = u0 - U
    of an evaluation the caller already holds."""
    x = grid.x
    worst = max(abs(rv[0]), abs(rv[-1]), abs(ru[0]), abs(ru[-1]))
    if worst > BOUNDARY_DECAY_TOL:
        raise TruncationError(
            f"boundary residual {worst:.3e} exceeds {BOUNDARY_DECAY_TOL:.0e}; "
            "widen the grid")
    c_lo = cw.wave1.c_minus
    c_hi = (cw.wave2 if cw.wave2 is not None else cw.wave1).c_plus
    I01 = float(np.trapezoid(rv, x)) + rv[0] / c_lo + rv[-1] / c_hi
    I02 = float(np.trapezoid(ru, x)) + ru[0] / c_lo + ru[-1] / c_hi
    return ShiftInputs(I01=I01, I02=I02)


def solve_shifts(si: ShiftInputs, ts: TwoShockData):
    """Shifts (beta1, beta2) that zero both excess masses.

    Solves I01 = -b1 chi1 + b2 chi2, I02 = b1 s1 chi1 - b2 s2 chi2
    in closed form:

        b1 = (I01 s2 + I02) / (chi1 (s1 - s2)),
        b2 = (I01 s1 + I02) / (chi2 (s1 - s2)).
    """
    if ts.chi1 <= 0.0 or ts.chi2 <= 0.0:
        raise ValueError("zero-strength shock: shifts are undefined")
    den = ts.s1 - ts.s2
    b1 = (si.I01 * ts.s2 + si.I02) / (ts.chi1 * den)
    b2 = (si.I01 * ts.s1 + si.I02) / (ts.chi2 * den)
    return b1, b2


def w_decay_constants(s1: float, s2: float, c1: float, c2: float):
    """(c', C_minus) = (min(-c1 s1, c2 s2), min(c1, c2)/6)."""
    return min(-c1 * s1, c2 * s2), min(c1, c2) / 6.0


def predicted_w_decay(ts: TwoShockData, p1: ShockProfile, p2: ShockProfile):
    """Predicted interaction decay constants for a two-shock composite.

    c1 is wave1's tail rate toward the middle state (its xi -> +inf
    side) and c2 is wave2's rate toward the middle state (xi -> -inf).
    """
    return w_decay_constants(ts.s1, ts.s2, p1.c_plus, p2.c_minus)


def interaction_norm(cw: CompositeWave, t: float, grid) -> float:
    """L2 norm of W(., t) by composite trapezoid on the grid."""
    W = cw.fields(grid.x, t).W
    edge = max(abs(float(W[0])), abs(float(W[-1])))
    if edge > W_BOUNDARY_TOL:
        warnings.warn(
            f"interaction residual {edge:.3e} at the grid boundary exceeds "
            f"{W_BOUNDARY_TOL:.0e}; the norm is truncated", TruncationWarning)
    return float(np.sqrt(np.trapezoid(W * W, grid.x)))

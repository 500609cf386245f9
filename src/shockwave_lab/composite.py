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

Each entry point computes only what it returns:

- `CompositeWave.state_fields` gives (V, U) from the profiles' gap
  values alone, with no profile slopes;
- `CompositeWave.interaction` gives W alone, from the gaps and the
  slopes, and is what `interaction_norm` integrates;
- `CompositeWave.fields` gives all seven `CompositeFields` arrays.

They share the arithmetic of each field, so V and U, and W, are bitwise
the same whichever entry point computed them.  Each checks once that x
is ascending and free of nan and that t is finite.  Every composite
field is elementwise in x, so each allocates its outputs once and fills
them in slices of `_BLOCK` points, each block writing its own slice.
The result is bit-identical for any split, and the memory of a call is
its outputs plus O(`_BLOCK`) temporaries, which stay in cache.

V needs no positivity check.  Both gaps to the middle state are >= +0,
never -0.0: wave 1's gap d1 to its right state, as V1 falls to v_m, and
wave 2's gap d2 to its left state, as V2 rises from it, their exactly
zero tails included.  So V = (v_m + d1) + d2 >= v_m > 0.

The cost of a call scales with the points where neither wave is exactly
at its end state.  Beyond fixed bounds a profile's tail gap is exactly
+-0 and is filled, not computed (see `profile`).  Where wave 1's gap d1
to the middle state or wave 2's gap d2 is exactly 0, W is exactly +0.0:
every gap to the middle state is >= +0 and every U_i,x <= -0, so both
terms of the viscous part are -0.0, and the pressure part is +0.0, the
Taylor branch multiplying by pi = d1 d2 = +0 and the grouped branch
giving (-0) - (-0).  These points are a prefix (wave 2's filled left
tail) and a suffix (wave 1's filled right tail) of a block, so W is
formed on the window between them and is +0.0 outside it; on the long
grids of very unequal strengths most points lie outside.

The quadratures over these fields integrate in place with
`kernels.trapz_inplace`, which consumes its integrand, so they pass it
only arrays of their own: `compute_shift_inputs` subtracts v0 and u0 into
the (V, U) it evaluates, and `interaction_norm` squares W in place.  The
peak memory of a call is its inputs plus 2 grid arrays, or 1 for
`interaction_norm`, plus O(block) temporaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import trapz_inplace
from .riemann import GasModel, TwoShockData, pressure_increment
from .profile import ShockProfile, ascending_points

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
# points per evaluation block: one fields() call makes ~40 temporaries the
# size of its input, and on long grids they spill out of cache, where an
# elementwise pass costs up to ~2-3x more per point; 16,384 measured
# fastest on a 2-core Xeon, 8,192 and 32,768 slower
_BLOCK = 16384


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
    W: np.ndarray
    V1x: np.ndarray
    V2x: np.ndarray


def _inv_visc_diff(gas: GasModel, b, d):
    """1/b^(alpha+1) - 1/(b+d)^(alpha+1) without cancellation."""
    ap1 = gas.alpha + 1.0
    return -(b ** -ap1) * np.expm1(-ap1 * np.log1p(d / b))


def _p_second_difference(gas: GasModel, vm: float, d1, d2):
    """p(vm+d1+d2) - p(vm+d1) - p(vm+d2) + p(vm), stable for tiny gaps,
    for float64 arrays d1 and d2 of one shape.

    Grouped into single-gap increments when at least one gap is O(vm);
    Taylor series through sixth order in (d1, d2) when both are below
    1e-3 * vm (truncation error ~1e-12 relative there).  With
    c_k = p^(k)(vm)/k!, the series sum_k c_k [(d1+d2)^k - d1^k - d2^k]
    factors as d1 d2 q(sigma, pi) in sigma = d1 + d2, pi = d1 d2:

        q = 2 c2 + 3 c3 sigma + c4 (4 sigma^2 - 2 pi)
            + 5 c5 sigma (sigma^2 - pi) + c6 (6 sigma^4 - 9 pi sigma^2 + 2 pi^2),

    evaluated by Horner's rule in sigma.
    """
    out = np.empty(d1.shape)

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
        return self.waves[-1].state_r

    @property
    def waves(self) -> tuple:
        """The profiles, left to right: (wave1,) or (wave1, wave2)."""
        return (self.wave1,) if self.wave2 is None else (self.wave1, self.wave2)

    def shifted(self, beta1: float, beta2: float) -> "CompositeWave":
        return CompositeWave(self.wave1, self.wave2, self.beta, beta1, beta2)

    def xi1(self, x, t):
        return x - self.wave1.s * t + self.beta1

    def xi2(self, x, t):
        return x - self.wave2.s * t - self.beta + self.beta2

    def state_fields(self, x, t):
        """(V, U) only, from the profiles' gap values without their slopes."""
        V, U = self._blocks(x, t, self._state_into, 2)
        return V, U

    def interaction(self, x, t):
        """The interaction residual W alone, bitwise equal to
        fields(x, t).W."""
        W, = self._blocks(x, t, self._interaction_block, 1)
        return W

    def fields(self, x, t) -> CompositeFields:
        """All composite fields at (x, t): V, U, V_x, U_x, W and the
        profile slopes V1_x, V2_x."""
        return CompositeFields(*self._blocks(x, t, self._fields_block, 7))

    def _blocks(self, x, t, block, n_out):
        """n_out outputs shaped like x, allocated once and filled by
        block(x_slice, t, *out_slices) over slices of _BLOCK points.
        x must be a scalar or an ascending 1-D array without nan, and t
        finite; anything else raises ValueError."""
        x = np.asarray(x, dtype=np.float64)
        flat = ascending_points(x, "x")
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        out = [np.empty(flat.shape) for _ in range(n_out)]
        for lo in range(0, flat.size, _BLOCK):
            sl = slice(lo, lo + _BLOCK)
            block(flat[sl], t, *(o[sl] for o in out))
        return [o.reshape(x.shape) for o in out]

    # The blocks share _state_into and the W window, so V and U are
    # bitwise-identical between state_fields() and fields(), and W between
    # interaction() and fields().  Each takes an ascending 1-D x and fills
    # the output slices it is given.

    def _state_into(self, x, t, V, U):
        """Writes V = (v_m + d1) + d2 and U = u_l - s1 g1, then
        + (u_l2 - s2 d2), then - u_m, into V and U.  Returns the gaps and
        region bounds of wave 1, (g1, d1, b1), and of wave 2, (d2, g2, b2),
        or None for a bare wave 1."""
        w1, w2 = self.wave1, self.wave2
        g1, d1, b1 = w1._gap_values(self.xi1(x, t))
        np.add(self.mid.v, d1, out=V)
        np.multiply(w1.s, g1, out=U)
        np.subtract(w1.state_l.u, U, out=U)
        if w2 is None:
            return (g1, d1, b1), None
        d2, g2, b2 = w2._gap_values(self.xi2(x, t))
        V += d2
        u2 = np.multiply(w2.s, d2)
        U += np.subtract(w2.state_l.u, u2, out=u2)
        U -= self.mid.u
        return (g1, d1, b1), (d2, g2, b2)

    def _interaction_block(self, x, t, W):
        w1, w2 = self.wave1, self.wave2
        if w2 is None:
            W.fill(0.0)
            return
        g1, d1, b1 = w1._gap_values(self.xi1(x, t))
        d2, g2, b2 = w2._gap_values(self.xi2(x, t))
        lo, hi = _w_window(b1, b2)
        W[:lo] = 0.0
        W[hi:] = 0.0  # with W[:lo], all of W when the window is empty
        if hi > lo:
            u1x = -w1.s * w1._gap_slopes(g1, d1, b1, np.empty(x.shape))
            u2x = -w2.s * w2._gap_slopes(d2, g2, b2, np.empty(x.shape))
            W[lo:hi] = _w_stable(self.gas, self.mid.v, d1[lo:hi], d2[lo:hi],
                                 u1x[lo:hi], u2x[lo:hi])

    def _fields_block(self, x, t, V, U, Vx, Ux, W, V1x, V2x):
        gas, w1, w2 = self.gas, self.wave1, self.wave2
        (g1, d1, b1), gaps2 = self._state_into(x, t, V, U)
        u1x = -w1.s * w1._gap_slopes(g1, d1, b1, V1x)
        if gaps2 is None:
            V2x.fill(0.0)
            u2x = 0.0
            W.fill(0.0)
        else:
            d2, g2, b2 = gaps2
            u2x = -w2.s * w2._gap_slopes(d2, g2, b2, V2x)
            lo, hi = _w_window(b1, b2)
            W[:lo] = 0.0
            W[hi:] = 0.0
            if hi > lo:
                W[lo:hi] = _w_stable(gas, self.mid.v, d1[lo:hi], d2[lo:hi],
                                     u1x[lo:hi], u2x[lo:hi])
        np.add(V1x, V2x, out=Vx)
        np.add(u1x, u2x, out=Ux)


def _w_window(b1, b2):
    """[lo, hi) outside which W is exactly +0.0, from the region bounds of
    both waves' _gap_values: wave 2's filled left tail, where d2 = +0,
    ends at lo, and wave 1's filled right tail, where d1 = +0, starts at
    hi (see the module docstring)."""
    return b2[0], b1[-1]


def compute_shift_inputs(v0, u0, cw: CompositeWave, grid) -> ShiftInputs:
    """Excess masses I01 = int(v0 - V) dx, I02 = int(u0 - U) dx at t = 0.

    Composite trapezoid on the grid plus analytic exponential-tail
    corrections beyond it, using the composite's own decay rates.  v0 and
    u0 must have shape (grid.n,); they are read, not written.  The
    residuals are formed in the (V, U) arrays of the composite evaluation
    and integrated in place, so a call holds 2 grid-sized arrays beyond
    its inputs, plus O(block) temporaries.  Raises TruncationError when
    the integrands have not decayed below the boundary tolerance at the
    grid edges.
    """
    v0 = np.asarray(v0, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    if v0.shape != (grid.n,) or u0.shape != (grid.n,):
        raise ValueError(f"v0 and u0 must have shape ({grid.n},) of the "
                         f"grid, got {v0.shape} and {u0.shape}")
    V, U = cw.state_fields(grid.x, 0.0)
    return _shift_inputs(np.subtract(v0, V, out=V),
                         np.subtract(u0, U, out=U), cw, grid)


def _shift_inputs(rv, ru, cw: CompositeWave, grid) -> ShiftInputs:
    """compute_shift_inputs from the residuals rv = v0 - V, ru = u0 - U
    of an evaluation the caller already holds; consumes rv and ru."""
    for edge, k in (("x_lo", 0), ("x_hi", -1)):
        worst = float(np.maximum(abs(rv[k]), abs(ru[k])))  # keeps a nan
        if not worst <= BOUNDARY_DECAY_TOL:
            raise TruncationError(
                f"boundary residual {worst:.3e} at {edge} exceeds "
                f"{BOUNDARY_DECAY_TOL:.0e}; widen the grid")
    c_lo = cw.wave1.c_minus
    c_hi = cw.waves[-1].c_plus
    # the tail terms first: the quadrature overwrites rv[0] and ru[0]
    v_lo, v_hi = rv[0] / c_lo, rv[-1] / c_hi
    u_lo, u_hi = ru[0] / c_lo, ru[-1] / c_hi
    I01 = trapz_inplace(rv, grid.x) + v_lo + v_hi
    I02 = trapz_inplace(ru, grid.x) + u_lo + u_hi
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
    """L2 norm of W(., t) by composite trapezoid on the grid.

    W is squared and integrated in place, so a call holds 1 grid-sized
    array beyond the grid, plus O(block) temporaries.
    """
    W = cw.interaction(grid.x, t)
    edge = float(np.maximum(abs(W[0]), abs(W[-1])))  # keeps a nan
    if not edge <= W_BOUNDARY_TOL:
        warnings.warn(
            f"interaction residual {edge:.3e} at the grid boundary exceeds "
            f"{W_BOUNDARY_TOL:.0e}; the norm is truncated", TruncationWarning)
    return float(np.sqrt(trapz_inplace(np.multiply(W, W, out=W), grid.x)))

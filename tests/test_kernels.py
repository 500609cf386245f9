"""The grid kernels against the numpy/scipy functions whose arithmetic
they repeat: equal bit for bit, and rejecting the sizes those reject."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from shockwave_lab.kernels import (_BLOCK, cumtrapz, gradient, trapz,
                                   trapz_inplace)

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
    y, x, _ = _sample(n, 2)
    assert np.array_equal(cumtrapz(y, x),
                          cumulative_trapezoid(y, x, initial=0.0))


@pytest.mark.parametrize("n", SIZES)
def test_trapz_matches_numpy(n):
    y, _, dx = _sample(n, 3)
    assert trapz(y, dx) == np.trapezoid(y, dx=dx)


@pytest.mark.parametrize("n", (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2,
                               2 * _BLOCK + 1, 3 * _BLOCK + 1))
@pytest.mark.parametrize("uniform", (True, False), ids=("uniform", "nonuniform"))
def test_trapz_inplace_matches_numpy(n, uniform):
    """Bit for bit numpy's trapezoid(y, x) at lengths on both sides of
    the block edges; x is only read, and y keeps its last sample."""
    y, x, _ = _sample(n, 4)
    if not uniform:
        rng = np.random.default_rng([5, n])
        x = np.cumsum(rng.exponential(size=n)) - 0.5 * n
    want = np.trapezoid(y, x)
    x_in, last = x.tobytes(), y[-1]
    got = trapz_inplace(y, x)
    assert type(got) is float and got == want
    assert x.tobytes() == x_in and y[-1] == last


def test_trapz_inplace_rejects_unequal_shapes():
    with pytest.raises(ValueError, match="one shape"):
        trapz_inplace(np.ones(5), np.ones(4))
    with pytest.raises(ValueError, match="one shape"):
        trapz_inplace(np.ones((2, 5)), np.ones((2, 5)))


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
        cumulative_trapezoid(y, y, initial=0.0)
    with pytest.raises(ValueError):
        cumtrapz(y, y)

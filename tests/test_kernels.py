"""The grid kernels against the numpy/scipy functions whose arithmetic
they repeat: equal bit for bit, and rejecting the sizes those reject."""

import itertools

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from shockwave_lab.kernels import (_BLOCK, _LEAF, cumtrapz, gradient,
                                   pairwise_sum, trapz, trapz_points)

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


# sizes around every split of numpy's summation tree: the unsplit nodes
# (< 8 terms, <= 128), the leaves of pairwise_sum (_LEAF = 16383), the
# buffer size of numpy's iterator (8192), and grids of ~1e6 points
SUM_SIZES = (*range(1, 21), 127, 128, 129, 8191, 8192, 8193,
             _LEAF, _LEAF + 1, _LEAF + 2, 2 ** 20 - 1, 2 ** 20 + 1,
             10 ** 6 + 3)


def _mixed(n, seed):
    """Terms of both signs over 24 decades, some exact zeros of either sign."""
    rng = np.random.default_rng([seed, n])
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-12.0, 12.0, size=n)
    y[rng.integers(0, n, size=n // 16)] = 0.0
    y[rng.integers(0, n, size=n // 16)] = -0.0
    return y


@pytest.mark.parametrize("n", SUM_SIZES)
def test_pairwise_sum_is_numpy_sum(n):
    """pairwise_sum, leaves summed by numpy, equals ndarray.sum bit for
    bit; if numpy changes its summation order this fails, it never
    skips.  Leaves come in order, and none exceeds _LEAF terms."""
    y = _mixed(n, 6)
    leaves = []

    def terms(lo, hi):
        leaves.append((lo, hi))
        return y[lo:hi]

    got = pairwise_sum(n, terms)
    assert got.tobytes() == y.sum().tobytes()
    assert leaves[0][0] == 0 and leaves[-1][1] == n
    assert all(a[1] == b[0] for a, b in itertools.pairwise(leaves))
    assert max(hi - lo for lo, hi in leaves) <= _LEAF
    rows = np.stack((y, -2.0 * y[::-1]))
    got = pairwise_sum(n, lambda lo, hi: rows[:, lo:hi])
    assert got.tobytes() == rows.sum(axis=-1).tobytes()


def test_pairwise_sum_zero_leaves():
    """A leaf given as None sums to +0.0 like its terms; if every leaf is
    None the sum is the float 0.0."""
    n = 3 * _LEAF + 5
    y = _mixed(n, 7)
    y[_LEAF:2 * _LEAF] = 0.0

    def terms(lo, hi):
        return None if not np.any(y[lo:hi]) else y[lo:hi]

    assert pairwise_sum(n, terms) == y.sum()
    assert pairwise_sum(n, lambda lo, hi: None) == 0.0


@pytest.mark.parametrize("n", (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2,
                               2 * _BLOCK + 1, 3 * _BLOCK + 1))
@pytest.mark.parametrize("uniform", (True, False), ids=("uniform", "nonuniform"))
def test_trapz_inplace_matches_numpy(n, uniform):
    """trapz_points (which replaced trapz_inplace; the test keeps its
    name) is bit for bit numpy's trapezoid(y, x) at lengths on both sides
    of the leaf edges, for y given whole, by rows, and leaf by leaf with
    leaves of +0.0 given as None; neither y nor x is written."""
    y, x, _ = _sample(n, 4)
    if not uniform:
        rng = np.random.default_rng([5, n])
        x = np.cumsum(rng.exponential(size=n)) - 0.5 * n
    y[n // 3:2 * n // 3] = 0.0
    want = np.trapezoid(y, x)
    x_in, y_in = x.tobytes(), y.tobytes()
    got = trapz_points(y, x)
    assert type(got) is float and got == want
    assert x.tobytes() == x_in and y.tobytes() == y_in
    rows = np.stack((y, x))
    assert trapz_points(rows, x).tobytes() == np.trapezoid(rows, x).tobytes()
    asked = []

    def leaf(lo, hi):
        asked.append(hi - lo)
        return None if not np.any(y[lo:hi]) else y[lo:hi]

    assert trapz_points(leaf, x) == want
    assert max(asked) <= _BLOCK


def test_trapz_inplace_rejects_unequal_shapes():
    with pytest.raises(ValueError, match="last axis like the 1-D x"):
        trapz_points(np.ones(5), np.ones(4))
    with pytest.raises(ValueError, match="last axis like the 1-D x"):
        trapz_points(np.ones((2, 5)), np.ones((2, 5)))


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

"""The numpy trapezoid, monotone cubic, B-spline table, K(m), fast lengths
and block-diagonal matrix against the scipy routines they stand in for, and
the Gauss cell rule against exact integrals."""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.special
from scipy.integrate import cumulative_trapezoid as scipy_trapezoid
from scipy.interpolate import BSpline, PchipInterpolator

from rotstar.numerics import (MonotoneCubic, block_diag, bspline_table, cell_integrals,
                              cumulative_trapezoid, ellipkm1, gauss_cells, next_fast_len)


def test_cumulative_trapezoid_is_scipys():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 2.0, 97))
    y = rng.normal(size=(5, 97))
    assert np.array_equal(cumulative_trapezoid(y[0], x), scipy_trapezoid(y[0], x, initial=0))
    assert np.array_equal(cumulative_trapezoid(y, x), scipy_trapezoid(y, x, initial=0))


@pytest.mark.parametrize("order", [6, 8, 10])
def test_gauss_cells_exact_to_degree_2_order_minus_1(order):
    """On uneven cells the rule integrates every monomial of degree below
    2 order exactly, and gauss_cells' nodes and weights agree with
    cell_integrals."""
    edges = np.array([-0.7, -0.2, 0.05, 0.9, 1.0, 2.3])
    nodes, half, w = gauss_cells(edges, order)
    assert nodes.shape == (edges.size - 1, order)
    assert np.all((nodes > edges[:-1, None]) & (nodes < edges[1:, None]))
    for deg in range(2 * order):
        exact = (edges[1:] ** (deg + 1) - edges[:-1] ** (deg + 1)) / (deg + 1)
        got = cell_integrals(lambda x: x**deg, edges, order)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose((half[:, None] * w * nodes**deg).sum(axis=1), exact,
                                   rtol=1e-13, atol=1e-14)


def _data(kind, rng):
    x = np.sort(rng.uniform(0.0, 3.0, 300))
    if kind == "monotone":
        return x, np.cumsum(rng.uniform(0.0, 1.0, x.size))
    if kind == "turning":
        return x, np.sin(3.0 * x) + 0.01 * rng.normal(size=x.size)
    return x, np.round(np.cumsum(rng.normal(size=x.size)))  # plateaus


@pytest.mark.parametrize("kind", ["monotone", "turning", "plateaus"])
def test_monotone_cubic_is_pchip(kind):
    rng = np.random.default_rng(1)
    x, y = _data(kind, rng)
    ours = MonotoneCubic(x, y)
    theirs = PchipInterpolator(x, y)
    for v in (x, rng.uniform(x[0], x[-1], 4096), np.array([x[-1]]),
              np.linspace(x[0] - 0.5, x[-1] + 0.5, 501)):
        np.testing.assert_array_max_ulp(ours(v), theirs(v), maxulp=2)


def test_monotone_cubic_on_a_radial_profile(star53):
    s = np.linspace(0.0, 1.2 * star53.radius, 2001)
    ours = MonotoneCubic(star53.r, star53.rho)(s)
    theirs = PchipInterpolator(star53.r, star53.rho)(s)
    np.testing.assert_array_max_ulp(ours, theirs, maxulp=2)


def test_monotone_cubic_rejects_unsorted_knots():
    with pytest.raises(ValueError):
        MonotoneCubic([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("k, knots", [(2, 12), (2, 40), (3, 9)])
def test_bspline_table_is_bsplines(k, knots):
    R0 = 0.7331
    t = np.concatenate([[0.0] * k, np.linspace(0.0, R0, knots + 1), [R0] * k])
    x = np.concatenate([np.linspace(-0.1, 1.3 * R0, 211), t])
    spl = BSpline(t, np.eye(len(t) - k - 1), k, extrapolate=False)
    values, slopes = bspline_table(t, k, x)
    ref = np.nan_to_num(spl(x)).T
    dref = np.nan_to_num(spl.derivative()(x)).T
    assert np.max(np.abs(values - ref)) <= 1e-14
    assert np.max(np.abs(slopes - dref)) <= 1e-12 * np.max(np.abs(dref))


def test_ellipkm1_is_cephes_ellpk():
    """On log-spaced m1 in [1e-15, 1] the port is within 2 ulp of scipy's
    (15 of 400,000 samples differ, none by more), and bit for bit scipy's
    wherever np.log agrees with libm's log, which scipy's routine calls."""
    m1 = np.geomspace(1e-15, 1.0, 400_000)
    want = scipy.special.ellipkm1(m1)
    got = ellipkm1(m1)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
    same_log = np.log(m1) == np.array([math.log(v) for v in m1])
    assert np.array_equal(got[same_log], want[same_log])
    assert np.mean(same_log) > 0.99


def test_ellipkm1_writes_in_place_across_chunks():
    """A block longer than a chunk, written over its input, is the value of
    a fresh evaluation; a non-contiguous out is refused."""
    m1 = np.random.default_rng(3).uniform(1e-15, 1.0, (3, 150, 257))
    want = ellipkm1(m1)
    assert m1.size > 2**15
    assert ellipkm1(m1, out=m1) is m1
    assert np.array_equal(m1, want)
    with pytest.raises(ValueError):
        ellipkm1(m1, out=np.empty((257, 150, 3)).T)


def test_next_fast_len_is_scipys():
    assert [next_fast_len(n) for n in range(1, 5001)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 5001)]


def test_block_diag_is_scipys():
    rng = np.random.default_rng(4)
    blocks = [rng.normal(size=shape) for shape in [(3, 3), (1, 4), (2, 1), (5, 5)]]
    got = block_diag(*blocks)
    want = scipy.linalg.block_diag(*blocks)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(block_diag(blocks[0]), blocks[0])

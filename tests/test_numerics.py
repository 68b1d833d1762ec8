"""The numpy trapezoid, monotone cubic and B-spline table against the scipy
routines they stand in for."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid as scipy_trapezoid
from scipy.interpolate import BSpline, PchipInterpolator

from rotstar.numerics import MonotoneCubic, bspline_table, cumulative_trapezoid


def test_cumulative_trapezoid_is_scipys():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 2.0, 97))
    y = rng.normal(size=(5, 97))
    assert np.array_equal(cumulative_trapezoid(y[0], x), scipy_trapezoid(y[0], x, initial=0))
    assert np.array_equal(cumulative_trapezoid(y, x), scipy_trapezoid(y, x, initial=0))


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

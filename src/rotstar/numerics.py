"""Numerical primitives, each defined once in numpy, so that no command
imports ``scipy.integrate`` or ``scipy.interpolate``: ``cumulative_trapezoid``
(``initial=0``, along the last axis) and ``PchipInterpolator`` (1-D) in
scipy's own arithmetic and order, a Gauss-Legendre rule per cell, and
``BSpline`` as a table of clamped B-splines and their slopes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cumulative_trapezoid", "gauss_cells", "cell_integrals", "MonotoneCubic",
           "bspline_table"]


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Trapezoid-rule integral of y over the 1-D abscissae x from x[0] to
    each x[i], along the last axis of y (a stack of profiles is integrated
    row by row); the first column is 0."""
    y = np.asarray(y, dtype=float)
    steps = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate((np.zeros(y.shape[:-1] + (1,)), steps), axis=-1)


def gauss_cells(edges, order: int):
    """The ``order``-node Gauss-Legendre rule on each cell [edges[i],
    edges[i + 1]]: the nodes (one row per cell), the half-widths and the
    weights on [-1, 1].  Exact for polynomials of degree < 2 order."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x, half, w


def cell_integrals(f, edges, order: int) -> np.ndarray:
    """Integral of f over each cell by ``gauss_cells``; f maps the node array.
    Each cell's sum is one 1-D ``np.dot`` scaled by its half-width after it:
    a matrix-vector product, or prescaled weights, move the last bits."""
    nodes, half, w = gauss_cells(edges, order)
    return half * np.array([np.dot(w, row) for row in f(nodes)])


class MonotoneCubic:
    """Piecewise cubic Hermite interpolant of y(x) whose slopes keep each
    monotone run of the data monotone (Fritsch-Carlson, as PCHIP).

    Interior slopes are the weighted harmonic mean of the two neighbouring
    secants, 0 where those differ in sign or one vanishes; each end slope is
    the shape-preserving three-point estimate.  Outside [x[0], x[-1]] the
    end cubics extrapolate.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        if x.ndim != 1 or x.shape != y.shape or x.size < 3 or np.any(h <= 0):
            raise ValueError("need >= 3 strictly increasing knots, one value each")
        m = (y[1:] - y[:-1]) / h
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        # a zero secant divides here; 'flat' excludes those entries
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        # power-basis coefficients in (v - x[i]) per interval, highest first
        self._coef = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])
        self.x = x

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        x = self.x
        # interval index: the first below x[1], the last from x[-2] up
        i = np.searchsorted(x[1:-1], v, "right")
        s = v - x[i]
        ss = s * s
        c0, c1, c2, c3 = self._coef
        return c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)


def _end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, set to 0 if its sign is not the end
    # secant's and capped at 3 m0 where the data turn
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def bspline_table(t: np.ndarray, k: int, x: np.ndarray):
    """Values and first derivatives of every B-spline of degree k >= 1 on
    the clamped knots t (k + 1 equal knots at each end) at the points x,
    one row per spline; 0 outside [t[0], t[-1]].

    Cox-de Boor recursion from the degree-0 indicators of the knot spans,
    the last nonempty span closed at its right end.
    """
    x = np.asarray(x, dtype=float)
    B = ((t[:-1, None] <= x) & (x < t[1:, None])).astype(float)
    B[np.flatnonzero(t[:-1] < t[1:])[-1], x == t[-1]] = 1.0
    for d in range(1, k + 1):
        # 1 / (t[j + d] - t[j]), with 0 where the span is empty
        span = t[d:] - t[:-d]
        inv = np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)[:, None]
        if d == k:
            dB = k * (B[:-1] * inv[:-1] - B[1:] * inv[1:])
        B = (x - t[:-d - 1, None]) * inv[:-1] * B[:-1] + (t[d + 1:, None] - x) * inv[1:] * B[1:]
    return B, dB

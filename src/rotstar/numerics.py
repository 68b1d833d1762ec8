"""Numerical primitives, each defined once in numpy, so that no command
but ``radial-scan`` and the ``table`` rotation form imports scipy:

* ``cumulative_trapezoid`` (``initial=0``, along the last axis) and
  ``PchipInterpolator`` (1-D, as ``MonotoneCubic``) in scipy's own
  arithmetic and order;
* a Gauss-Legendre rule per cell, and ``BSpline`` as a table of clamped
  B-splines and their slopes;
* ``ellipkm1``, K(1 - m1), ported from Cephes ``ellpk``, the routine behind
  ``scipy.special.ellipkm1``: its polynomials, coefficients and Horner
  order, with ``np.log`` for libm's ``log``.  Where the two logs agree the
  values are scipy's bit for bit; ``np.log``'s last-bit differences move a
  value by at most 2 ulp (15 of 400,000 log-spaced samples in [1e-15, 1]);
* ``next_fast_len`` (11-smooth, as ``scipy.fft.next_fast_len``) and
  ``block_diag`` (2-D blocks, as ``scipy.linalg.block_diag``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["cumulative_trapezoid", "gauss_cells", "cell_integrals", "MonotoneCubic",
           "bspline_table", "ellipkm1", "next_fast_len", "block_diag"]

#: Cephes ``ellpk``: K(1 - m1) = P(m1) - log(m1) Q(m1) on (MACHEP, 1], the
#: coefficients highest degree first
_ELLPK_P = (
    1.37982864606273237150e-4, 2.28025724005875567385e-3, 7.97404013220415179367e-3,
    9.85821379021226008714e-3, 6.87489687449949877925e-3, 6.18901033637687613229e-3,
    8.79078273952743772254e-3, 1.49380448916805252718e-2, 3.08851465246711995998e-2,
    9.65735902811690126535e-2, 1.38629436111989062502e0,
)
_ELLPK_Q = (
    2.94078955048598507511e-5, 9.14184723865917226571e-4, 5.94058303753167793257e-3,
    1.54850516649762399335e-2, 2.39089602715924892727e-2, 3.01204715227604046988e-2,
    3.73774314173823228969e-2, 4.88280347570998239232e-2, 7.03124996963957469739e-2,
    1.24999999999870820058e-1, 4.99999999999999999821e-1,
)

#: elements per chunk of ``ellipkm1``: its temporaries stay in cache (a
#: (2, 256, 513) block took 3.3 ms chunked, 7.2 ms whole and 3.5 ms in
#: scipy's ellipkm1; medians of 40 interleaved calls, Intel Xeon vCPU)
_ELLPK_CHUNK = 2**15


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


def ellipkm1(m1, out=None) -> np.ndarray:
    """Complete elliptic integral of the first kind K(m) at m = 1 - m1, for
    1.11e-16 < m1 <= 1 (Cephes ``ellpk``'s polynomial range), evaluated in
    chunks of _ELLPK_CHUNK elements.  ``out``, if given, is a C-contiguous
    float array of m1's shape and may be m1 itself."""
    m1 = np.asarray(m1, dtype=float)
    if out is None:
        out = np.empty(m1.shape)
    elif out.shape != m1.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of m1's shape")
    x, y = m1.reshape(-1), out.reshape(-1)
    n = min(_ELLPK_CHUNK, x.size)
    p_buf, q_buf = np.empty(n), np.empty(n)
    for i0 in range(0, x.size, _ELLPK_CHUNK):
        xs, ys = x[i0 : i0 + _ELLPK_CHUNK], y[i0 : i0 + _ELLPK_CHUNK]
        p, q = p_buf[: xs.size], q_buf[: xs.size]
        # Horner, as Cephes' polevl: ((c0 x + c1) x + c2) x + ...
        np.multiply(xs, _ELLPK_P[0], out=p)
        np.multiply(xs, _ELLPK_Q[0], out=q)
        for cp, cq in zip(_ELLPK_P[1:-1], _ELLPK_Q[1:-1]):
            p += cp
            p *= xs
            q += cq
            q *= xs
        p += _ELLPK_P[-1]
        q += _ELLPK_Q[-1]
        np.log(xs, out=ys)  # xs is read for the last time: ys may alias it
        ys *= q
        np.subtract(p, ys, out=ys)
    return out


def next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n >= 1: a length whose prime
    factors pocketfft has passes for."""
    k = n
    while True:
        m = k
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return k
        k += 1


def block_diag(*blocks) -> np.ndarray:
    """The 2-D ``blocks`` placed along the diagonal of a zero matrix."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out

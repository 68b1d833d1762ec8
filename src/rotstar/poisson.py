"""Open-space axisymmetric Poisson solves by ring-kernel quadrature.

The potential of an axisymmetric source rho(r, z) is

    V(r, z) = - int int  G(r, z; r', z') rho(r', z') r' dr' dz',
    G = 4 K(m) / sqrt((r + r')^2 + (z - z')^2),
    m = 4 r r' / ((r + r')^2 + (z - z')^2),

with K the complete elliptic integral of the first kind, evaluated by the
arithmetic-geometric mean.  Fields live on a half-plane grid (z >= 0, even or
odd reflection); the kernel depends on z - z' only, so the vertical sum is a
discrete convolution done with FFTs.  The boundary condition at infinity is
exact, no truncated domain is involved.

The kernel diverges logarithmically on the diagonal; the self-cell entry is
replaced by the analytic average of the log singularity over the quadrature
cell, which keeps the node-based product quadrature second-order accurate.

The mirrored source spans 2nz - 1 planes, so targets see lags z - z' in
[-(nz-1), 2nz-2] (units of hz).  The kernel is wrapped evenly with period
N >= 4nz - 4, c[n] = g[min(n, N - n)], which reads g[|L|] for every such lag:
no aliasing.  An even real sequence has a real spectrum, stored as
ghat[f, i, j]; a solve is an rfft, one real matrix product per frequency
(real and imaginary parts side by side) and an irfft.  The table is built in
blocks of target radii and mirrored by its r <-> r' symmetry, so no
temporary spans the whole (nr, nr, N) table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft

__all__ = ["agm_ellipk", "Grid", "RingKernel", "rect_log_mean"]

#: target radii per block of the kernel build; bounds its temporaries
_R_BLOCK = 8


def agm_ellipk(m):
    """Complete elliptic integral K(m), m = k^2 in [0, 1), via the AGM.

    Ten fixed iterations reach machine precision for the whole admitted
    range: the slowest case allowed here (m = 1 - 1e-15) starts from
    b = 3.2e-8 and the mean gap closes quadratically.
    """
    m = np.asarray(m, dtype=float)
    if np.any((m < 0) | (m >= 1)):
        raise ValueError("parameter m must lie in [0, 1)")
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    tmp = np.empty_like(a)
    for _ in range(10):
        np.multiply(a, b, out=tmp)
        np.add(a, b, out=a)
        a *= 0.5
        np.sqrt(tmp, out=b)
    return np.pi / (2.0 * a)


def rect_log_mean(a: float, b: float) -> float:
    """Mean of ln sqrt(x^2+y^2) over the rectangle [-a, a] x [-b, b]."""
    F = (
        0.5 * a * b * math.log(a * a + b * b)
        - 1.5 * a * b
        + 0.5 * b * b * math.atan(a / b)
        + 0.5 * a * a * math.atan(b / a)
    )
    return F / (a * b)


@dataclass(frozen=True)
class Grid:
    """Half-plane (r, z >= 0) tensor grid; r may be graded, z is uniform."""

    rs: np.ndarray
    zs: np.ndarray
    wr: np.ndarray = field(init=False)
    hz: float = field(init=False)

    def __post_init__(self):
        rs = np.asarray(self.rs, dtype=float)
        zs = np.asarray(self.zs, dtype=float)
        if rs[0] != 0.0 or np.any(np.diff(rs) <= 0):
            raise ValueError("rs must start at 0 and increase strictly")
        steps = np.diff(zs)
        if zs[0] != 0.0 or np.any(np.abs(steps - steps[0]) > 1e-12 * steps[0]):
            raise ValueError("zs must start at 0 and be uniform")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "zs", zs)
        wr = np.zeros_like(rs)
        wr[1:] += 0.5 * np.diff(rs)
        wr[:-1] += 0.5 * np.diff(rs)
        object.__setattr__(self, "wr", wr)
        object.__setattr__(self, "hz", float(steps[0]))

    @property
    def nr(self) -> int:
        return self.rs.size

    @property
    def nz(self) -> int:
        return self.zs.size

    @property
    def shape(self):
        return (self.rs.size, self.zs.size)

    def meshes(self):
        return np.meshgrid(self.rs, self.zs, indexing="ij")

    def wz_line(self) -> np.ndarray:
        """Vertical weights of the full-line trapezoid rule for reflected fields."""
        w = np.full(self.zs.size, 2.0 * self.hz)
        w[0] = self.hz
        return w

    def integrate(self, fld: np.ndarray) -> float:
        """Volume integral (2 pi r dr dz over the whole space) of an even field."""
        return 2.0 * math.pi * float(
            np.einsum("i,j,ij->", self.wr * self.rs, self.wz_line(), fld)
        )

    def z_integral(self, fld: np.ndarray) -> np.ndarray:
        """int_{-inf}^{inf} fld dz per radius, assuming even reflection."""
        return fld @ self.wz_line()

    def cylinder_mass(self, rho: np.ndarray) -> np.ndarray:
        """m(r) = int_0^r s [int rho dz] ds (no 2 pi factor; m(R) = M / (2 pi))."""
        integrand = self.rs * self.z_integral(rho)
        out = np.zeros_like(self.rs)
        out[1:] = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.rs))
        return out


class RingKernel:
    """Precomputed ring potential spectrum for one grid geometry."""

    def __init__(self, grid: Grid):
        self.grid = grid
        rs, hz = grid.rs, grid.hz
        nr, nz = grid.nr, grid.nz
        self._nfft = nfft = next_fast_len(4 * nz - 4)
        lag = np.minimum(np.arange(nfft), nfft - np.arange(nfft))  # even wrap
        local_dr = np.gradient(rs)  # self-cell widths
        # each block of rows fills its columns j >= i0 and, by the r <-> r'
        # symmetry, the same entries of the rows below it
        self._ghat = ghat = np.empty((nfft // 2 + 1, nr, nr))
        dz3 = hz * np.arange(nfft // 2 + 1)[None, None, :]
        for i0 in range(0, nr, _R_BLOCK):
            i1 = min(i0 + _R_BLOCK, nr)
            ri = rs[i0:i1, None, None]
            rj = rs[None, i0:, None]
            denom_sq = (ri + rj) ** 2 + dz3**2
            with np.errstate(divide="ignore", invalid="ignore"):
                m = np.where(denom_sq > 0, 4.0 * ri * rj / denom_sq, 0.0)
            np.clip(m, 0.0, 1.0 - 1e-15, out=m)
            gtab = 4.0 * agm_ellipk(m) / np.sqrt(np.where(denom_sq > 0, denom_sq, 1.0))
            # analytic log average over the self cell for diagonal targets;
            # the axis entry carries zero quadrature weight and is left as is
            for i in range(max(i0, 1), i1):
                mean_ln = rect_log_mean(0.5 * local_dr[i], 0.5 * hz)
                gtab[i - i0, i - i0, 0] = (2.0 / rs[i]) * (math.log(8.0 * rs[i]) - mean_ln)
            blk = rfft(gtab[:, :, lag], axis=2).real.transpose(2, 0, 1)
            ghat[:, i0:i1, i0:] = blk
            ghat[:, i1:, i0:i1] = blk[:, :, i1 - i0 :].transpose(0, 2, 1)
        self._src_scale = grid.wr * rs

    def potential(self, source: np.ndarray, parity: str = "even") -> np.ndarray:
        """Potential of `source` on the grid nodes (attractive: negative).

        ``parity`` states how the half-plane field continues to z < 0.
        """
        grid = self.grid
        nz = grid.nz
        if source.shape != grid.shape:
            raise ValueError("source shape does not match the grid")
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        sgn = 1.0 if parity == "even" else -1.0
        weighted = (source * (self._src_scale[:, None] * grid.hz)).T
        ext = np.concatenate([sgn * weighted[:0:-1], weighted])  # planes z' = -z .. z
        shat = rfft(ext, self._nfft, axis=0)  # (F, nr) complex
        vhat = np.matmul(self._ghat, shat.view(float).reshape(*shat.shape, 2))
        v = irfft(vhat.view(complex)[..., 0], self._nfft, axis=0)
        return np.ascontiguousarray(-v[nz - 1 : 2 * nz - 1].T)

    def potential_at(self, source: np.ndarray, r_pts, z_pts, parity: str = "even") -> np.ndarray:
        """Potential of `source` at arbitrary probe points (direct summation)."""
        grid = self.grid
        rp = np.atleast_1d(np.asarray(r_pts, dtype=float))
        zp = np.atleast_1d(np.asarray(z_pts, dtype=float))
        sgn = 1.0 if parity == "even" else -1.0
        weighted = source * (self._src_scale[:, None] * grid.hz)
        out = np.zeros(rp.shape)
        rj = grid.rs[None, :]
        # mirror half: z' < 0 carries the reflected columns (k >= 1)
        planes = [(z, weighted[:, k]) for k, z in enumerate(grid.zs)]
        planes += [(-z, sgn * weighted[:, k]) for k, z in enumerate(grid.zs) if k > 0]
        for z, col in planes:
            denom_sq = (rp[:, None] + rj) ** 2 + (zp[:, None] - z) ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                m = np.where(denom_sq > 0, 4.0 * rp[:, None] * rj / denom_sq, 0.0)
            m = np.clip(m, 0.0, 1.0 - 1e-15)
            gk = 4.0 * agm_ellipk(m) / np.sqrt(np.where(denom_sq > 0, denom_sq, 1.0))
            out -= gk @ col
        return out

    def interaction(self, f: np.ndarray, g: np.ndarray, parity: str = "even") -> float:
        """Double integral  int int f(x) g(y) / |x - y| dx dy  (same parity fields)."""
        pot = -self.potential(g, parity)
        wz = self.grid.wz_line()
        return 2.0 * math.pi * float(
            np.einsum("i,j,ij->", self.grid.wr * self.grid.rs, wz, f * pot)
        )

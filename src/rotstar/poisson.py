"""Open-space axisymmetric Poisson solves by ring-kernel quadrature.

The potential of an axisymmetric source rho(r, z) is

    V(r, z) = - int int  G(r, z; r', z') rho(r', z') r' dr' dz',
    G = 4 K(m) / sqrt((r + r')^2 + (z - z')^2),
    m = 4 r r' / ((r + r')^2 + (z - z')^2),

with K the complete elliptic integral of the first kind, taken from
scipy.special.ellipkm1.  Fields live on a half-plane grid (z >= 0, even or
odd reflection); the kernel depends on z - z' only, so the vertical sum is a
discrete convolution done with real even/odd transforms.  The boundary
condition at infinity is exact, no truncated domain is involved.

The kernel diverges logarithmically on the diagonal; the self-cell entry is
replaced by the analytic average of the log singularity over the quadrature
cell, which keeps the node-based product quadrature second-order accurate.

The mirrored source spans 2nz - 1 planes, so targets see lags z - z' in
[-(nz-1), 2nz-2] (units of hz).  The kernel is wrapped evenly with period
N = 2M, M = next_fast_len(2nz - 2) >= 2nz - 2, c[n] = g[min(n, N - n)], which
reads g[|L|] for every such lag: no aliasing.  The spectrum of that even
sequence is real and equals the DCT-I of g[0..M]; it is stored as
ghat[f, i, j], f = 0..M, and is symmetric in (i, j) since G is in (r, r').

A source continued evenly or oddly and convolved with an even kernel is
diagonalised by the DCT-I or DST-I of its half-plane planes (the
symmetric-convolution theorem, Martucci 1994).  So a solve transforms the
weighted source along the contiguous z axis (DCT-I of planes 0..nz-1 padded
to M + 1 points, or DST-I of planes 1..nz-1 padded to M - 1), multiplies
each frequency's source row into the table and inverts the transform.  By
the r <-> r' symmetry the product is row @ ghat[f, :J, :], which reads one
contiguous slab of J table rows per frequency, the table once per solve.
An odd-parity source whose z = 0 plane is nonzero keeps the meaning of the
mirrored sum: that plane is counted once, as an even delta.  Its spectrum
is the plane itself at every frequency, carried as a second row of the same
product and inverted with a DCT-I; the row is left out when the plane is
zero, as it is for every odd Galerkin field.

The table is built in blocks of _R_BLOCK target radii, each filling only
its columns j >= i; the strict lower triangle is then mirrored from the
upper one frequency at a time.  Each block needs two arrays of its own
size, formed and transformed in place, so a build peaks a few MiB above the
table it returns (at 256^2 the table is 256.5 MiB and the build's
high-water mark 263 MiB above the process before it).

A solve trims the source at its support: radii past the last one with a
nonzero value only multiply zeros, so the transform and the matrix product
see the first J radii only (ghat[:, :J, :], J = last nonzero radius + 1).
Star densities and Galerkin fields vanish outside the star (J = 197 of 256
radii for a 256^2 star grid at the default padding); the potential is the
same as with all radii, and an all-zero source gives exactly 0.

A solve takes one field (nr, nz) or a stack (n, nr, nz) of fields of one
parity, such as a stability form's Galerkin fields; a lone field is a stack
of one.  The stack shares one support J, that of its widest field, and is
solved in blocks of _STACK_BLOCK (8) fields.  A block is one forward
transform, one matrix product per frequency (rows, J) @ ghat[f, :J, :] that
reads the slab once for all its fields, and one inverse transform written
straight into the stack's preallocated result.  Field by field, each solve
streams the whole slab for one row: at 120^2, 45 even fields took 85 ms one
at a time and 49 ms stacked (Intel Xeon vCPU, one BLAS thread).  The block
bounds the spectra in flight to 8 fields' worth however long the stack;
solving a 45-field stack at once held about six times as much.  The odd
midplane rule holds per field: each odd field whose z = 0 plane is nonzero
adds its own delta row to its block's product.  A lone field's rows and
product are those of a field-by-field solve, so its potential is the same
bit for bit; a stacked field's differs only by the summation order of the
block product (round-off).

K is evaluated from the complementary parameter
m1 = 1 - m = ((r - r')^2 + (z - z')^2) / ((r + r')^2 + (z - z')^2), formed
directly and passed to ellipkm1 (K(1 - m1), accurate as m1 -> 0): forming
it as 1 - m cancels near the diagonal and moves kernel entries by up to
3e-11 relative under a 1e-16 change of the coordinates.

Scale covariance: the kernel and the self-cell term are homogeneous of
degree -1, so a grid scaled by s sees the table of the unit grid (rs/s, hz/s)
divided by s, and the potential of a fixed density scales as s^2.  The table
is therefore built in unit coordinates and the factor 1/s goes into the
source weights.  One table is kept per process (a one-entry cache): every
grid with the same nr, nz and normalised coordinates reuses it, which is what
a family scan's pad * R grids do.  A grid that misses drops the old table
before the new one is built, so a process holds at most one table beyond
those its live kernels still use.  Each ``--jobs`` worker builds its own.

Large tables are built and applied on several threads of one process.  One
rule sets the part count of a build and of a solve: one part per
_PART_BYTES (64 MiB) of the table, or of the slab a solve reads, and at most
one per CPU this process may run on (``os.sched_getaffinity``); a worker of a
``--jobs N`` scan gets max(1, cpus // N) of them (``share_cpus``).  Below one
part the work runs inline on the calling thread, as every table up to 128^2
(32 MiB) does; a 256^2 table gets two parts on two CPUs.  A build deals its
row blocks out to the parts in turn and mirrors contiguous frequency ranges;
a solve cuts the frequency axis of its matrix product into contiguous
ranges.  Each part writes its own entries with the same arithmetic as the
one-part path, so tables and potentials are bit-identical whatever the part
count.  The threads run only numpy, scipy.special and pocketfft kernels,
which release the GIL; they end before the call returns, so no thread
outlives a build or solve into a forked scan worker.  The build's parts
share its _R_BLOCK rows in flight and their arrays are allocated on the
calling thread (memory a worker thread allocates stays in that thread's
malloc arena), so a two-part build peaks no higher than a one-part build.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.fft import dct, dst, idct, idst, next_fast_len
from scipy.integrate import cumulative_trapezoid
from scipy.special import ellipkm1

__all__ = ["Grid", "RingKernel", "rect_log_mean"]

#: target radii per block of the kernel build; bounds its temporaries
_R_BLOCK = 2

#: table bytes (build) or table-slab bytes (solve) per thread part; smaller
#: work runs inline on the calling thread
_PART_BYTES = 64 * 2**20

#: fields per block of a stacked solve; a block's spectra are the only
#: temporaries that grow with the fields solved at once
_STACK_BLOCK = 8

#: scan workers sharing this process's CPUs (``share_cpus``)
_cpu_share = 1

#: a grid reuses the cached unit table when its normalised radii and hz
#: agree with the table's to this absolute tolerance
_MATCH_TOL = 1e-13

#: smallest complementary parameter passed to K (only the overwritten
#: self-cell entries reach it)
_M1_FLOOR = 1e-15


def _ring_green(r, rp, dz, work=None):
    """Ring kernel 4 K(m) / sqrt((r + r')^2 + dz^2), broadcast over its inputs.

    K is taken from m1 = 1 - m formed directly (module docstring).  The
    coincident axis point r = r' = dz = 0 gets the finite value 2 pi; it
    carries zero quadrature weight.  The two full-size arrays are reused in
    place: the result is written over m1.  ``work``, if given, is the pair
    of arrays to use, of the broadcast shape; the result is then ``work[1]``.
    """
    sum_sq = np.square(np.add(r, rp))
    dz_sq = np.square(dz)
    shape = np.broadcast_shapes(sum_sq.shape, dz_sq.shape)
    if work is None:
        work = (np.empty(shape), np.empty(shape))
    far_sq = np.add(sum_sq, dz_sq, out=work[0])
    m1 = np.add(np.square(np.subtract(r, rp)), dz_sq, out=work[1])
    if np.any(sum_sq == 0) and np.any(dz_sq == 0):
        on_axis = far_sq == 0  # implies m1 == 0 too
        far_sq[on_axis] = 1.0
        m1[on_axis] = 1.0
    m1 /= far_sq
    np.maximum(m1, _M1_FLOOR, out=m1)
    g = ellipkm1(m1, out=m1)
    g /= np.sqrt(far_sq, out=far_sq)
    g *= 4.0
    return g


def _parity_sign(parity: str) -> float:
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    return 1.0 if parity == "even" else -1.0


def share_cpus(jobs: int) -> None:
    """Let this process's builds and solves use max(1, cpus // jobs) threads.

    Run in each worker process of a ``--jobs`` scan pool, so that the workers
    together use no more threads than the process has CPUs.
    """
    global _cpu_share
    _cpu_share = jobs


def _part_count(nbytes: int) -> int:
    """Parts for a table build or solve that sweeps nbytes of table.

    One part per _PART_BYTES, at most one per thread of the CPU budget
    (the CPUs this process may run on, divided by ``share_cpus``).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = max(1, (cpus or 1) // _cpu_share)
    return max(1, min(threads, nbytes // _PART_BYTES))


def _run_parts(work, parts: int) -> None:
    """Call work(p) for p = 0..parts-1, part 0 on the calling thread.

    The other parts run on threads that end before this returns, so none is
    left to a forked scan worker.  Each part must write disjoint output.
    """
    if parts == 1:
        work(0)
        return
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        futures = [pool.submit(work, p) for p in range(1, parts)]
        work(0)
        for fut in futures:
            fut.result()


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
        return cumulative_trapezoid(self.rs * self.z_integral(rho), self.rs, initial=0)


class _UnitTable(NamedTuple):
    rs: np.ndarray
    hz: float
    nz: int
    ghat: np.ndarray


#: the last unit-coordinate table built in this process
_unit_table: _UnitTable | None = None


def _build_unit_table(rs: np.ndarray, hz: float, nz: int) -> np.ndarray:
    """Real kernel spectrum ghat[f, i, j] of the grid (rs, hz, nz), read-only."""
    nr = rs.size
    half = next_fast_len(2 * nz - 2)  # N / 2
    local_dr = np.gradient(rs)  # self-cell widths
    dz = hz * np.arange(half + 1)
    ghat = np.empty((half + 1, nr, nr))
    parts = _part_count(ghat.nbytes)
    # the parts share the _R_BLOCK rows in flight (one row each beyond
    # _R_BLOCK parts), so the temporaries of a build on up to _R_BLOCK parts
    # do not grow with the part count; they are allocated on this thread,
    # since memory a worker thread allocates stays in its malloc arena
    block = max(1, _R_BLOCK // parts)
    work = [[np.empty((block, nr, half + 1)) for _ in range(2)] for _ in range(parts)]

    def fill_rows(p):
        # each block of rows fills its columns j >= i0; blocks are dealt out
        # in turn, which evens the parts' triangle work
        for i0 in range(p * block, nr, parts * block):
            i1 = min(i0 + block, nr)
            gtab = _ring_green(
                rs[i0:i1, None, None], rs[None, i0:, None], dz,
                [w[: i1 - i0, : nr - i0] for w in work[p]],
            )
            # analytic log average over the self cell for diagonal targets;
            # the axis entry carries zero quadrature weight and is left as is
            for i in range(max(i0, 1), i1):
                mean_ln = rect_log_mean(0.5 * local_dr[i], 0.5 * hz)
                gtab[i - i0, i - i0, 0] = (2.0 / rs[i]) * (math.log(8.0 * rs[i]) - mean_ln)
            ghat[:, i0:i1, i0:] = dct(gtab, type=1, axis=2, overwrite_x=True).transpose(2, 0, 1)

    _run_parts(fill_rows, parts)
    # the strict lower triangle is mirrored from the upper by the r <-> r'
    # symmetry, one frequency at a time, through one buffer per part (a copy
    # from the overlapping view gf.T would allocate it on the part's thread)
    del work
    lower = np.tri(nr, k=-1, dtype=bool)
    mirror_buf = [np.empty((nr, nr)) for _ in range(parts)]
    freqs = np.linspace(0, half + 1, parts + 1).astype(int)

    def mirror(p):
        for gf in ghat[freqs[p] : freqs[p + 1]]:
            np.copyto(mirror_buf[p], gf.T)
            np.copyto(gf, mirror_buf[p], where=lower)

    _run_parts(mirror, parts)
    ghat.flags.writeable = False
    return ghat


def _shared_unit_table(rs: np.ndarray, hz: float, nz: int) -> np.ndarray:
    """Table of the unit grid (rs, hz, nz), taken from the one-entry cache."""
    global _unit_table
    t = _unit_table
    if (
        t is not None
        and t.nz == nz
        and t.rs.shape == rs.shape
        and abs(t.hz - hz) <= _MATCH_TOL
        and np.max(np.abs(t.rs - rs)) <= _MATCH_TOL
    ):
        return t.ghat
    t = _unit_table = None  # release the old table before the new one is built
    ghat = _build_unit_table(rs, hz, nz)
    _unit_table = _UnitTable(rs, hz, nz, ghat)
    return ghat


def _spectrum_rows(w: np.ndarray, even: bool, M: int):
    """Spectrum rows (M + 1, rows, J) of a weighted (b, J, nz) source block,
    and the members whose z = 0 plane has a row of its own (odd parity).

    Even planes take a DCT-I.  Odd planes 1..nz-1 take a DST-I (zero at
    f = 0 and M); a nonzero z = 0 plane is counted once, as an even delta
    row after the block's b odd rows.
    """
    if even:
        # a view, not a contiguous copy: a lone field's product then takes
        # the BLAS path, and so the round-off, of a field-by-field solve
        return dct(w, type=1, n=M + 1, axis=2).transpose(2, 0, 1), None
    b, J = w.shape[:2]
    mids = np.flatnonzero(np.any(w[:, :, 0], axis=1))
    rows = np.zeros((M + 1, b + mids.size, J))
    rows[1:M, :b] = dst(w[:, :, 1:], type=1, n=M - 1, axis=2).transpose(2, 0, 1)
    rows[:, b:] = w[mids, :, 0]
    return rows, mids


class RingKernel:
    """Ring potential spectrum for one grid geometry (shared by scaled grids)."""

    def __init__(self, grid: Grid):
        self.grid = grid
        s = grid.rs[-1]
        self._ghat = _shared_unit_table(grid.rs / s, grid.hz / s, grid.nz)
        #: most thread parts the table's build and this kernel's solves use
        self.parts = _part_count(self._ghat.nbytes)
        # the grid's kernel is the unit table divided by s; the weights also
        # carry hz and the sign of the (attractive) potential
        self._src_weight = -(grid.hz / s) * grid.wr * grid.rs

    def potential(self, source: np.ndarray, parity: str = "even") -> np.ndarray:
        """Potential of `source` on the grid nodes (attractive: negative).

        ``source`` is one field (nr, nz) or a stack (n, nr, nz) of fields
        that share ``parity``, which states how the half-plane fields
        continue to z < 0; the result has the shape of ``source``.
        """
        grid = self.grid
        if source.ndim not in (2, 3) or source.shape[-2:] != grid.shape:
            raise ValueError("source shape does not match the grid")
        even = _parity_sign(parity) > 0
        stack = source.reshape((-1,) + grid.shape)
        out = np.zeros(stack.shape)
        # source radii past the last nonzero one of the stack only multiply zeros
        support = np.flatnonzero(np.any(stack, axis=(0, 2)))
        if support.size:
            J = support[-1] + 1
            for b0 in range(0, stack.shape[0], _STACK_BLOCK):
                b1 = b0 + _STACK_BLOCK
                self._solve_block(stack[b0:b1, :J], even, out[b0:b1])
        return out.reshape(source.shape)

    def _solve_block(self, source: np.ndarray, even: bool, out: np.ndarray) -> None:
        """Potentials of a (b, J, nz) block of sources trimmed to their
        shared support, written into the zeroed (b, nr, nz) ``out``."""
        nz = self.grid.nz
        b, J = source.shape[:2]
        ghat = self._ghat
        M = ghat.shape[0] - 1
        # the weighted block lives only as long as its transform
        rows, mids = _spectrum_rows(source * self._src_weight[:J, None], even, M)
        # rows @ ghat[f, :J, :] equals ghat[f, :, :J] @ rows.T by the symmetry;
        # the parts take contiguous frequency ranges of one product
        slab = ghat[:, :J, :]
        parts = _part_count(slab.nbytes)
        freqs = np.linspace(0, M + 1, parts + 1).astype(int)
        vhat = np.empty((M + 1, rows.shape[1], self.grid.nr))

        def multiply(p):
            f0, f1 = freqs[p], freqs[p + 1]
            np.matmul(rows[f0:f1], slab[f0:f1], out=vhat[f0:f1])

        _run_parts(multiply, parts)
        # the inverse transforms run in place in vhat (no second array of its
        # size); the potentials are copied out of their M + 1 planes
        if even:
            out[:] = idct(vhat, type=1, axis=0, overwrite_x=True)[:nz].transpose(1, 2, 0)
        else:
            v = idst(vhat[1:M, :b], type=1, axis=0, overwrite_x=True)
            out[:, :, 1:] = v[: nz - 1].transpose(1, 2, 0)
            if mids.size:
                v = idct(vhat[:, b:], type=1, axis=0, overwrite_x=True)
                out[mids] += v[:nz].transpose(1, 2, 0)

    def potential_at(self, source: np.ndarray, r_pts, z_pts, parity: str = "even") -> np.ndarray:
        """Potential of `source` at arbitrary probe points (direct summation)."""
        grid = self.grid
        rp = np.atleast_1d(np.asarray(r_pts, dtype=float))
        zp = np.atleast_1d(np.asarray(z_pts, dtype=float))
        sgn = _parity_sign(parity)
        # direct sums see the grid's own kernel, so the weights stay unscaled
        weighted = source * ((grid.wr * grid.rs)[:, None] * grid.hz)
        out = np.zeros(rp.shape)
        rj = grid.rs[None, :]
        # mirror half: z' < 0 carries the reflected columns (k >= 1)
        planes = [(z, weighted[:, k]) for k, z in enumerate(grid.zs)]
        planes += [(-z, sgn * weighted[:, k]) for k, z in enumerate(grid.zs) if k > 0]
        for z, col in planes:
            out -= _ring_green(rp[:, None], rj, zp[:, None] - z) @ col
        return out

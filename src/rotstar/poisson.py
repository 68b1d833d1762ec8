"""Open-space axisymmetric Poisson solves by ring-kernel quadrature.

The potential of an axisymmetric source rho(r, z) is

    V(r, z) = - int int  G(r, z; r', z') rho(r', z') r' dr' dz',
    G = 4 K(m) / sqrt((r + r')^2 + (z - z')^2),
    m = 4 r r' / ((r + r')^2 + (z - z')^2),

with K the complete elliptic integral of the first kind, from
``rotstar.numerics.ellipkm1`` (Cephes ``ellpk``, the routine behind
scipy.special.ellipkm1, with numpy's log).  Fields live on a half-plane
grid (z >= 0, even or odd reflection); the kernel depends on z - z' only, so the vertical sum is a
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
each frequency's source row into the table and inverts the transform.

The transforms are pocketfft's own algorithm: ``numpy.fft.rfft`` of length
N = 2M of each line's even extension (the DCT-I, the real parts) or odd
extension (the DST-I, the negated imaginary parts), the inverses the same
with norm="forward" (1/N), which is how pocketfft's ``T_dct1``/``T_dst1``
compute scipy.fft's ``dct``/``dst``/``idct``/``idst`` of type 1: on
numpy >= 2.0 the two share one real-FFT plan and its arithmetic, and the
transforms are scipy's bit for bit.  Lines go through in chunks of about
_FFT_CHUNK_BYTES, the extensions and spectra in two buffers that every
chunk and every later transform of the same length reuses (about 0.5 MiB
per process), so a transform holds no array of a block's size beyond its
input and output.  numpy's rfft takes one line at a time where scipy's
vectorises across lines: at 96^2 each of an 8-field block's four
transforms took 1.05 to 1.2 times scipy's time (1.0 to 2.3 ms, medians
of 300 interleaved calls, Intel Xeon vCPU); at 256^2 a lone field's took
1.05 to 1.15 times.  By
the r <-> r' symmetry the product is ghat[f, :, :J] @ rows, which reads
the table once per solve.  An odd source must vanish on z = 0, the symmetry
point of its DST-I (every odd field the package solves is exactly zero
there); one that does not is rejected.

The table is a symmetric hierarchical matrix (Hackbusch 1999, Computing
62:89), whatever its size: the radii bisect recursively down to leaves of
at most _LEAF (32) radii, so a grid of at most 32 radii is one leaf.  Each
diagonal leaf is a dense (M + 1, n, n) block; each pair of sibling ranges
[lo, mid), [mid, hi) stores its upper block once, as per-frequency factors
u (M + 1, mid - lo, k) and v (M + 1, k, hi - mid), and its lower block is
the transpose.  Off the diagonal the kernel separates: in the continuum
the vertical transform of the m = 0 ring kernel is I0(k r<) K0(k r>), rank
one per frequency, and the wrapped, discrete blocks keep ranks 5 to 9.
Each factor is cut into the slices on each leaf's radii, and a leaf stores
its block stacked over the slices that reach it (``_Leaf``), so every
factor is still stored once.  Dense sizes and table sizes:

    grid     dense       table
    64^2       4.0 MiB     2.4 MiB
    96^2      13.6 MiB     5.3 MiB
    120^2     26.5 MiB     9.6 MiB
    160^2     62.7 MiB    15.8 MiB
    192^2    108.3 MiB    25.0 MiB
    256^2    256.5 MiB    52.4 MiB

A product (``_Table.multiply``) is one forward product per leaf, of its
factor slices with its source rows, whose sums over each pair's half are
the other half's pair coefficients, and one product per output leaf, of
its stack with its source rows and those coefficients: no output leaf is
written twice.  The product runs radius major, on a buffer that gives
each leaf its source rows and then its coefficient slots, so both
products read contiguous rows.

A diagonal block evaluates the kernel lines of its upper triangle, a leaf
in one evaluation, and writes each line to (i, j) and (j, i).  A pair is
filled by adaptive cross approximation (Bebendorf 2000, Numer. Math.
86:565) from kernel rows and columns (``_kernel_row``), never from its
dense block, and recompressed to its rank at _CROSS_TOL of each
frequency's largest diagonal-leaf entry (``_cross_pair``).  The build
stacks a leaf as soon as the last pair that reaches it is built, which
frees its block and slices; it peaks a few MiB above the table.  Against
a one-leaf table of the same grid (one dense block over all radii),
fresh-process builds took 19 ms against 15 ms at 64^2, 51 against 46 at
96^2 (four 24-radius leaves and three pairs: the pairs' cross steps and
recompression cost more than the smaller leaves save), 80 against 85 at
120^2 and 182 against 181 at 160^2, and 0.49 s at 256^2 (Intel Xeon
vCPU, one BLAS thread, medians of 5).  At 256^2 potentials agree with a
one-leaf table's to 3e-15 of the largest for a star density and to 5e-13
for white noise.  An
8-field even solve took 4.7 ms against the one-leaf table's 4.5 ms at
96^2 and 7.6 against 7.5 at 120^2, and 41 ms against 46 ms at 256^2,
where a lone field's took 10.0 ms both ways (interleaved in one process).

A solve trims the source at its support: radii past the last one with a
nonzero value only multiply zeros, so the transform and the table product
see the first J radii only (J = last nonzero radius + 1), and a leaf whose
radii start at or past J takes no forward product.  Star densities and
Galerkin fields vanish outside the star (J = 197 of 256 radii for a 256^2
star grid at the default padding); the potential is the same as with all
radii, and an all-zero source gives exactly 0.  A caller that reads the
potential on its first radii only asks for those: output leaves past them
take no product and their inverse transforms are skipped, and the radii
returned are those of the full solve bit for bit.

A solve takes one field (nr, nz) or a stack (n, nr, nz) of fields of one
parity, such as a stability form's Galerkin fields; a lone field is a stack
of one.  The stack shares one support J, that of its widest field, and is
solved in blocks of _STACK_BLOCK (8) fields.  A block is one forward
transform, one table product that reads the table once for all its
fields, and one inverse transform.  Field by field, each solve
streams the whole table for one row: at 120^2, 45 even fields took 91 ms
one at a time and 52 ms stacked (Intel Xeon vCPU, one BLAS thread).  The block
bounds the spectra in flight to 8 fields' worth however long the stack;
solving a 45-field stack at once held about six times as much.  A lone
field's rows and product are those of a field-by-field solve, so its
potential is the same bit for bit; a stacked field's differs only by the
summation order of the block product (round-off).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.fft import rfft

from rotstar.numerics import cumulative_trapezoid, ellipkm1, next_fast_len

__all__ = ["Grid", "RingKernel", "rect_log_mean"]

#: most radii per leaf of a table
_LEAF = 32

#: target radii per evaluation of a dense block's kernel lines: a leaf is
#: one evaluation, and a wider block (a dense reference) is filled in row
#: blocks that bound its temporaries
_R_BLOCK = _LEAF

#: cross approximation and recompression tolerance of the off-diagonal
#: pairs, relative to each frequency's largest diagonal-leaf entry (at
#: 1e-13, white-noise odd sources at 192^2 and 256^2 read up to 1.5e-12
#: from the dense potential; at this value 5e-13, for 2% more table)
_CROSS_TOL = 5e-14

#: smallest pivot, relative to its frequency's residual row and column,
#: that a cross step takes: a smaller one inflates the factors, and with
#: them the round-off of every later residual, by its inverse
_PIVOT_RATIO = 1e-2

#: fields per block of a stacked solve; a block's spectra are the only
#: temporaries that grow with the fields solved at once
_STACK_BLOCK = 8

#: a grid reuses the cached unit table when its normalised radii and hz
#: agree with the table's to this absolute tolerance
_MATCH_TOL = 1e-13

#: smallest complementary parameter passed to K (only the overwritten
#: self-cell entries reach it)
_M1_FLOOR = 1e-15

#: bytes of the extended lines a vertical transform takes per chunk; its
#: two buffers (extensions and spectra) are about twice this
_FFT_CHUNK_BYTES = 2**18

#: the transform buffers of the last length N, (N, extensions, spectra),
#: kept from call to call: a lone field's solve transforms about 100 lines,
#: and zeroing fresh buffers for each call cost as much as its FFTs
_fft_buffers: tuple | None = None


def _ring_green(r, rp, dz):
    """Ring kernel 4 K(m) / sqrt((r + r')^2 + dz^2), broadcast over its inputs.

    K is taken from m1 = 1 - m formed directly (module docstring).  The
    coincident axis point r = r' = dz = 0 gets the finite value 2 pi; it
    carries zero quadrature weight.  The two full-size arrays are reused in
    place: the result is written over m1.
    """
    sum_sq = np.square(np.add(r, rp))
    dz_sq = np.square(dz)
    far_sq = sum_sq + dz_sq
    m1 = np.square(np.subtract(r, rp)) + dz_sq
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

    def spherical_radius(self) -> np.ndarray:
        """sqrt(r^2 + z^2) on the nodes, made anew on each call."""
        RG, ZG = self.meshes()
        return np.sqrt(RG**2 + ZG**2)

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
        return cumulative_trapezoid(self.rs * self.z_integral(rho), self.rs)


class _Leaf(NamedTuple):
    """Diagonal block ghat[:, lo:hi, lo:hi] stacked over the slices, on the
    radii lo..hi-1, of the factors of every pair that reaches them: stack
    rows n + off .. n + off + rank - 1 (n = hi - lo) hold pair p's u[:, lo:hi].T
    when the leaf is in its lower half, or its v[:, :, lo:hi] when in its
    upper half, for each (p, off) in ``slots`` (outermost pair first)."""

    lo: int
    hi: int
    stack: np.ndarray  # (M + 1, n + sum of the ranks, n)
    slots: tuple

    @property
    def block(self) -> np.ndarray:
        return self.stack[:, : self.hi - self.lo]


class _Pair(NamedTuple):
    """Off-diagonal blocks ghat[f, lo:mid, mid:hi] = u[f] @ v[f] and, by the
    symmetry, ghat[f, mid:hi, lo:mid] = v[f].T @ u[f].T, with u (M + 1,
    mid - lo, rank) and v (M + 1, rank, hi - mid) held in the leaves' stacks."""

    lo: int
    mid: int
    hi: int
    rank: int


class _Table:
    """Real kernel spectrum ghat[f, i, j] of a unit grid, as a symmetric
    hierarchical matrix: dense diagonal leaves and low-rank pairs, whose
    factors are stored once, in the stacks of the leaves they reach.

    A product works on a buffer x (M + 1, width, b) of b fields, radius
    major, that gives each leaf its rows: its source rows, then one slot of
    rank rows per pair that reaches it.  The forward product of a leaf's
    factor slices with its source rows gives its share of each pair's
    coefficients (u.T @ rows[lo:mid] and v @ rows[mid:hi]); the shares of
    one half, summed, fill the slots of the other half's leaves; and each
    output leaf is written by one product of its stack's transpose with its
    rows, ghat[f, lo:hi, lo:hi] @ rows + (its slices).T @ slots.
    """

    def __init__(self, leaves: tuple, pairs: tuple):
        self.leaves = leaves
        self.pairs = pairs
        widths = [leaf.stack.shape[1] for leaf in leaves]
        ranks = [w - (leaf.hi - leaf.lo) for w, leaf in zip(widths, leaves)]
        self._x0 = np.cumsum([0] + widths[:-1]).tolist()  # a leaf's rows of x
        self._w0 = np.cumsum([0] + ranks[:-1]).tolist()  # its forward products
        self._width, self._ranks = sum(widths), sum(ranks)
        # per pair and half: the forward rows (leaf lo, row) that sum to its
        # coefficients, and the x slots (leaf lo, row) they fill
        halves = [([], []) for _ in pairs]
        for leaf, x0, w0 in zip(leaves, self._x0, self._w0):
            n = leaf.hi - leaf.lo
            for p, off in leaf.slots:
                side = int(leaf.lo >= pairs[p].mid)
                halves[p][side].append((leaf.lo, w0 + off, x0 + n + off))
        self._routes = [
            (pair.rank, [([(lo, w) for lo, w, _ in src], [(lo, c) for lo, _, c in dst])
                         for src, dst in (halves[p], halves[p][::-1])])
            for p, pair in enumerate(pairs)
        ]

    @property
    def freqs(self) -> int:
        return self.leaves[0].stack.shape[0]

    @property
    def nbytes(self) -> int:
        return sum(leaf.stack.nbytes for leaf in self.leaves)

    def gather(self, rows: np.ndarray, b: int) -> np.ndarray:
        """The product buffer x (M + 1, width, b) of the spectrum rows
        (J b, M + 1) of b fields, radius major (row j b + i is field i's
        at radius j): each leaf's source rows, zero past J (a leaf that
        starts at or past J has none).  Its pair slots are filled by
        ``multiply``."""
        F, J = self.freqs, rows.shape[0] // b
        x = np.empty((F, self._width, b))
        flat = x.reshape(F, self._width * b)
        for leaf, x0 in zip(self.leaves, self._x0):
            if leaf.lo < J:
                top = min(leaf.hi, J)
                flat[:, x0 * b : (x0 + top - leaf.lo) * b] = rows[leaf.lo * b : top * b].T
                x[:, x0 + top - leaf.lo : x0 + leaf.hi - leaf.lo] = 0.0
        return x

    def multiply(self, x: np.ndarray, J: int, radii: int) -> np.ndarray:
        """vhat (M + 1, radii, b) with vhat[f] = ghat[f, :radii, :J] @ rows[f]
        for the (M + 1, J, b) rows ``gather`` put in x; x's pair slots are
        overwritten.

        A leaf that starts at or past J has zero rows: it takes no forward
        product, and its output product reads its slots only.  A leaf that
        starts at or past ``radii`` takes no output product, and the one
        that ``radii`` cuts is written in full to a buffer first, so the
        radii kept equal those of a full product bit for bit.
        """
        F, _, b = x.shape
        w = np.empty((F, self._ranks, b))
        for leaf, x0, w0 in zip(self.leaves, self._x0, self._w0):
            n, k = leaf.hi - leaf.lo, leaf.stack.shape[1]
            if leaf.lo < J and k > n:
                np.matmul(leaf.stack[:, n:], x[:, x0 : x0 + n], out=w[:, w0 : w0 + k - n])
        for rank, halves in self._routes:
            for src, dst in halves:
                dst = [x[:, c : c + rank] for lo, c in dst if lo < radii]
                if not dst:
                    continue
                terms = [w[:, c : c + rank] for lo, c in src if lo < J]
                if terms:
                    np.copyto(dst[0], terms[0])
                    for term in terms[1:]:
                        dst[0] += term
                else:
                    dst[0][...] = 0.0
                for slot in dst[1:]:
                    slot[...] = dst[0]
        del w
        out = np.empty((F, radii, b))
        for leaf, x0 in zip(self.leaves, self._x0):
            if leaf.lo >= radii:
                break
            n, k = leaf.hi - leaf.lo, leaf.stack.shape[1]
            k0 = 0 if leaf.lo < J else n
            stack, rows = leaf.stack[:, k0:].transpose(0, 2, 1), x[:, x0 + k0 : x0 + k]
            if leaf.hi <= radii:
                np.matmul(stack, rows, out=out[:, leaf.lo : leaf.hi])
            else:
                out[:, leaf.lo :] = (stack @ rows)[:, : radii - leaf.lo]
        return out


class _UnitTable(NamedTuple):
    rs: np.ndarray
    hz: float
    nz: int
    table: _Table


#: the last unit-coordinate table built in this process
_unit_table: _UnitTable | None = None


def _bisect(lo: int, hi: int):
    """Leaf spans (lo, hi) and pair spans (lo, mid, hi) of the radii
    [lo, hi) bisected down to leaves of at most _LEAF radii; the pairs in
    pre-order (a pair before the pairs inside it)."""
    if hi - lo <= _LEAF:
        return [(lo, hi)], []
    mid = (lo + hi) // 2
    leaves_lo, pairs_lo = _bisect(lo, mid)
    leaves_hi, pairs_hi = _bisect(mid, hi)
    return leaves_lo + leaves_hi, [(lo, mid, hi)] + pairs_lo + pairs_hi


def _kernel_row(rs: np.ndarray, dz: np.ndarray, i: int, a: int, b: int) -> np.ndarray:
    """ghat[:, i, a:b], and by the symmetry ghat[:, a:b, i], for a target
    radius i outside [a, b): the DCT-I over the lags dz = hz (0, 1, ..., M)
    of the kernel between target i and sources a..b-1, as (M + 1, b - a)."""
    g = _ring_green(rs[i], rs[a:b, None], dz)
    _dct1(g, dz.size, g)
    return g.T


def _dense_block(rs: np.ndarray, dz: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Diagonal block ghat[:, lo:hi, lo:hi] of the grid with lags dz, as a
    view of its kernel lines (hi - lo, hi - lo, M + 1).

    The kernel lines of the upper triangle (j >= i) are evaluated _R_BLOCK
    target radii at a time and each is written to (i, j) and (j, i): a
    leaf is one evaluation, and the block is exactly symmetric.  A target
    meeting its own radius off the axis takes the analytic log average over
    its self cell at lag 0 (the axis entry carries zero quadrature weight
    and is left as is).
    """
    n = hi - lo
    lines = np.empty((n * n, dz.size))  # line i n + j is ghat[:, i, j]
    cells = np.gradient(rs)  # centred, one step at the last radius
    rows, cols = np.triu_indices(n)
    for i0 in range(0, n, _R_BLOCK):
        p0, p1 = np.searchsorted(rows, [i0, i0 + _R_BLOCK])
        i, j = rows[p0:p1], cols[p0:p1]
        g = _ring_green(rs[lo + i, None], rs[lo + j, None], dz)
        for p in np.flatnonzero(i == j):
            r = lo + i[p]
            if r > 0:
                mean_ln = rect_log_mean(0.5 * cells[r], 0.5 * dz[1])
                g[p, 0] = (2.0 / rs[r]) * (math.log(8.0 * rs[r]) - mean_ln)
        _dct1(g, dz.size, g)
        lines[i * n + j] = g
        lines[j * n + i] = g
    return lines.reshape(n, n, dz.size).transpose(2, 0, 1)


def _cross_pair(rs: np.ndarray, dz: np.ndarray, lo: int, mid: int, hi: int,
                scale: np.ndarray) -> tuple:
    """Factors (u, v) of ghat[:, lo:mid, mid:hi] = u @ v by adaptive cross
    approximation.

    Rows and columns of the block are kernel spectra, evaluated once and
    shared by all frequencies; each frequency f keeps its own cross terms
    and its tolerance _CROSS_TOL * scale[f].  The first row is the one
    beside the diagonal, which holds the largest entries.  In a row, the
    column is taken where the residual row is largest against the
    tolerances; a frequency whose pivot there is inside its tolerance takes
    no update (its pivot is round-off), nor does one whose pivot is below
    _PIVOT_RATIO of its residual row's and column's largest entries.  The
    others take the cross term, which clears their residual row, and
    further columns of the same row are taken while the row is outside a
    tolerance and some frequency takes an update.  The next row is the
    unused one where the residual columns were largest.  A fresh row inside
    every tolerance hands over to the next unused probe row (distances
    1, 2, 4, ... from the diagonal, where the high frequencies live, then
    the far edge), and the steps stop when the probes are used up.  A
    frequency's terms fill its own slots, so the factors are as wide as the
    most terms one frequency took; they are then recompressed frequency by
    frequency (QR of both, SVD of the small core), kept above the tolerance
    and padded with zeros to the largest kept rank.
    """
    # residuals are kept in units of each frequency's tolerance
    inv_tol = 1.0 / (_CROSS_TOL * scale)[:, None]
    n1, n2 = mid - lo, hi - mid
    u = np.zeros((dz.size, n1, 8))  # residual columns over their pivots
    v = np.zeros((dz.size, 8, n2))  # residual rows
    terms = np.zeros(dz.size, dtype=int)
    free = np.ones(n1, dtype=bool)
    probes = [mid - 1 - d for d in 2 ** np.arange(int(math.log2(n1)) + 1) if d < n1] + [lo]
    i = mid - 1
    while True:
        free[i - lo] = False
        k = terms.max()
        row = _kernel_row(rs, dz, i, mid, hi) * inv_tol
        row -= (u[:, i - lo, None, :k] @ v[:, :k])[:, 0]
        score = None  # largest residual column entries met in this row
        for _ in range(n2):
            above = _largest(row, axis=0)
            if np.max(above) <= 1.0:
                break
            j = int(np.argmax(above))
            k = terms.max()
            col = _kernel_row(rs, dz, mid + j, lo, mid) * inv_tol
            col -= (u[:, :, :k] @ v[:, :k, j, None])[:, :, 0]
            col_above = _largest(col, axis=0)
            score = col_above if score is None else np.maximum(score, col_above)
            largest = np.maximum(_largest(row, axis=1), _largest(col, axis=1))
            pivot = np.abs(row[:, j])
            live = np.flatnonzero((pivot > 1.0) & (pivot >= _PIVOT_RATIO * largest))
            if not live.size:
                break
            if k == u.shape[2]:
                u = np.concatenate([u, np.zeros_like(u)], axis=2)
                v = np.concatenate([v, np.zeros_like(v)], axis=1)
            slot = terms[live]
            u[live, :, slot] = col[live] / row[live, j, None]
            v[live, slot, :] = row[live]
            terms[live] += 1
            row[live] -= u[live, i - lo, slot, None] * v[live, slot, :]
        if score is not None and free.any():
            i = lo + int(np.argmax(np.where(free, score, -1.0)))
            continue
        i = next((p for p in probes if free[p - lo]), None)
        if i is None:
            break
    k = terms.max()
    qu, ru = np.linalg.qr(u[:, :, :k])
    qv, rv = np.linalg.qr(v[:, :k].transpose(0, 2, 1))
    del u, v
    w, s, zt = np.linalg.svd(ru @ rv.transpose(0, 2, 1))
    s[s <= 1.0] = 0.0
    rank = int(np.max(np.count_nonzero(s, axis=1)))
    s /= inv_tol  # back from tolerance units
    return qu @ (w[:, :, :rank] * s[:, None, :rank]), zt[:, :rank] @ qv.transpose(0, 2, 1)


def _largest(a: np.ndarray, axis: int) -> np.ndarray:
    """max |a| along ``axis``, without an |a| temporary."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def _build_unit_table(rs: np.ndarray, hz: float, nz: int) -> _Table:
    """Kernel spectrum of the grid (rs, hz, nz) as leaves and pairs.

    The diagonal blocks come first, since they set the pairs' tolerances.
    The pairs follow outermost first, and a leaf is stacked (``_leaf``) as
    soon as the last pair that reaches it is built, which frees its block
    and its slices of the pairs' factors: the build holds the stacks made,
    the blocks and slices of the leaves not yet stacked, and one pair's
    cross approximation.
    """
    half = next_fast_len(2 * nz - 2)  # N / 2
    dz = hz * np.arange(half + 1)
    spans, pair_spans = _bisect(0, rs.size)
    blocks = [_dense_block(rs, dz, lo, hi) for lo, hi in spans]
    scale = np.max([_largest(block, axis=(1, 2)) for block in blocks], axis=0)
    slices = [[] for _ in spans]  # per leaf: (pair, its slice of the pair's factor)
    todo = [sum(lo <= a < hi for lo, _, hi in pair_spans) for a, _ in spans]
    leaves, pairs = [None] * len(spans), []

    def stack(i):
        leaves[i] = _leaf(*spans[i], blocks[i], slices[i])
        blocks[i] = slices[i] = None

    for i in range(len(spans)):
        if not todo[i]:  # a table of one leaf
            stack(i)
    for p, (lo, mid, hi) in enumerate(pair_spans):
        u, v = _cross_pair(rs, dz, lo, mid, hi, scale)
        pairs.append(_Pair(lo, mid, hi, u.shape[2]))
        for i, (a, b) in enumerate(spans):
            if lo <= a < hi:
                slices[i].append((p, v[:, :, a - mid : b - mid] if a >= mid
                                  else u[:, a - lo : b - lo].transpose(0, 2, 1)))
                todo[i] -= 1
                if not todo[i]:
                    stack(i)
        del u, v
    return _Table(tuple(leaves), tuple(pairs))


def _leaf(lo: int, hi: int, block: np.ndarray, slices: list) -> _Leaf:
    """The leaf of radii lo..hi-1: its (M + 1, n, n) block stacked over the
    (pair, (M + 1, rank, n) slice) factor slices of the pairs that reach it,
    in their order, as one read-only array."""
    n = hi - lo
    stack = np.empty((block.shape[0], n + sum(part.shape[1] for _, part in slices), n))
    stack[:, :n] = block
    slots, off = [], 0
    for p, part in slices:
        stack[:, n + off : n + off + part.shape[1]] = part
        slots.append((p, off))
        off += part.shape[1]
    stack.flags.writeable = False
    return _Leaf(lo, hi, stack, tuple(slots))


def _shared_unit_table(rs: np.ndarray, hz: float, nz: int) -> _Table:
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
        return t.table
    t = _unit_table = None  # release the old table before the new one is built
    table = _build_unit_table(rs, hz, nz)
    _unit_table = _UnitTable(rs, hz, nz, table)
    return table


def _symmetric_rfft(x: np.ndarray, even: bool, N: int, inverse: bool):
    """Chunks (c0, c1, spectra) of the real FFTs of length N of the rows
    c0..c1-1 of x (L, k), each row continued to a period-N sequence e, even
    (e[i] = x[i], e[N - i] = e[i]) or odd (e[i + 1] = x[i], e[N - i] =
    -e[i]), zero beyond x; an inverse's spectra are scaled by 1 / N.

    pocketfft's DCT-I and DST-I (scipy.fft's ``dct``, ``dst``, ``idct``,
    ``idst`` of type 1) transform the same extension with the same real-FFT
    plan and scaling, so the transforms built on these spectra are theirs
    bit for bit.  The extensions and spectra live in the two buffers of
    ``_fft_buffers``, about _FFT_CHUNK_BYTES each: a chunk's spectra are
    valid until the next chunk is taken, and one generator must be used up
    before another starts.
    """
    global _fft_buffers
    L, k = x.shape
    c = max(1, _FFT_CHUNK_BYTES // (8 * N))
    if _fft_buffers is None or _fft_buffers[0] != N:
        _fft_buffers = None  # release the old buffers first
        _fft_buffers = (N, np.empty((c, N)), np.empty((c, N // 2 + 1), dtype=complex))
    _, ext, spectra = _fft_buffers
    m = min(k, N // 2)  # the even mirror reads x[1..m-1]
    # zero what the chunks do not write
    used = ext[: min(c, L)]
    if even:
        used[:, k : N - m + 1] = 0.0
    else:
        used[:, 0] = 0.0
        used[:, k + 1 : N - k] = 0.0
    for c0 in range(0, L, c):
        c1 = min(c0 + c, L)
        e, s = ext[: c1 - c0], spectra[: c1 - c0]
        if even:
            e[:, :k] = x[c0:c1]
            e[:, N - m + 1 :] = e[:, m - 1 : 0 : -1]
        else:
            e[:, 1 : k + 1] = x[c0:c1]
            np.negative(e[:, k:0:-1], out=e[:, N - k :])
        rfft(e, norm="forward" if inverse else None, out=s)
        yield c0, c1, s


def _dct1(x: np.ndarray, n: int, out: np.ndarray, inverse: bool = False) -> None:
    """out (L, p <= n) = the first p points of the DCT-I of length n (or its
    inverse) of each row of x (L, k <= n) padded with zeros; out may be x."""
    p = out.shape[1]
    for c0, c1, s in _symmetric_rfft(x, True, 2 * (n - 1), inverse):
        out[c0:c1] = s.real[:, :p]


def _dst1(x: np.ndarray, n: int, out: np.ndarray, inverse: bool = False) -> None:
    """out (L, p <= n) = the first p points of the DST-I of length n (or its
    inverse) of each row of x (L, k <= n) padded with zeros."""
    p = out.shape[1]
    for c0, c1, s in _symmetric_rfft(x, False, 2 * (n + 1), inverse):
        # written through the transposes: out may be a transposed view, and
        # a strided write runs fastest along out's contiguous axis
        np.negative(s.imag[:, 1 : p + 1].T, out=out[c0:c1].T)


def _spectrum_rows(lines: np.ndarray, even: bool, M: int, out: np.ndarray) -> None:
    """out (L, M + 1) = the spectrum rows of L weighted source lines (L, nz):
    the DCT-I of even lines, or the DST-I of odd lines' planes 1..nz-1 with
    zeros at f = 0 and M (an odd source vanishes on z = 0)."""
    if even:
        _dct1(lines, M + 1, out)
    else:
        out[:, 0] = out[:, M] = 0.0
        _dst1(lines[:, 1:], M - 1, out[:, 1:M])


class RingKernel:
    """Ring potential spectrum for one grid geometry (shared by scaled grids)."""

    def __init__(self, grid: Grid):
        self.grid = grid
        s = grid.rs[-1]
        self._table = _shared_unit_table(grid.rs / s, grid.hz / s, grid.nz)
        # the grid's kernel is the unit table divided by s; the weights also
        # carry hz and the sign of the (attractive) potential
        self._src_weight = -(grid.hz / s) * grid.wr * grid.rs

    @property
    def table_bytes(self) -> int:
        """Bytes the (shared) unit table holds."""
        return self._table.nbytes

    def potential(self, source: np.ndarray, parity: str = "even", radii: int | None = None) -> np.ndarray:
        """Potential of `source` on the grid nodes (attractive: negative).

        ``source`` is one field (nr, nz) or a stack (n, nr, nz) of fields
        that share ``parity``, which states how the half-plane fields
        continue to z < 0; an odd one that is nonzero on z = 0 raises
        ValueError.  The result is a new array of the shape of ``source``,
        or, given ``radii`` (0 <= radii <= nr), of its first ``radii``
        radii: the potential on those radii, bit for bit, with the table
        products and inverse transforms of the radii past them skipped.
        """
        grid = self.grid
        if source.ndim not in (2, 3) or source.shape[-2:] != grid.shape:
            raise ValueError("source shape does not match the grid")
        radii = grid.nr if radii is None else int(radii)
        if not 0 <= radii <= grid.nr:
            raise ValueError("radii must be in [0, nr]")
        even = _parity_sign(parity) > 0
        stack = source.reshape((-1,) + grid.shape)
        if not even and np.any(stack[:, :, 0]):
            raise ValueError("an odd source must vanish on z = 0")
        out = np.zeros((stack.shape[0], radii, grid.nz))
        # source radii past the last nonzero one of the stack only multiply zeros
        support = np.flatnonzero(np.any(stack, axis=(0, 2)))
        if support.size and radii:
            J = support[-1] + 1
            for b0 in range(0, stack.shape[0], _STACK_BLOCK):
                b1 = b0 + _STACK_BLOCK
                self._solve_block(stack[b0:b1, :J], even, out[b0:b1])
        return out.reshape(source.shape[:-2] + out.shape[1:])

    def _solve_block(self, source: np.ndarray, even: bool, out: np.ndarray) -> None:
        """Potentials of a (b, J, nz) block of sources trimmed to their
        shared support, written into the zeroed (b, radii, nz) ``out``."""
        table = self._table
        b, J, nz = source.shape
        radii = out.shape[1]
        M = table.freqs - 1
        # the table product runs radius major (row j b + i is field i at
        # radius j), and so does the weighted block, which lives only as
        # long as its transform, and its spectrum rows, held until the
        # product buffer has them
        lines = np.empty((J, b, nz))
        np.multiply(source.transpose(1, 0, 2), self._src_weight[:J, None, None], out=lines)
        rows = np.empty((J * b, M + 1))
        _spectrum_rows(lines.reshape(J * b, nz), even, M, rows)
        del lines
        x = table.gather(rows, b)
        del rows
        # ghat[f, :, :J] @ rows, by the symmetry also rows.T @ ghat[f, :J, :]
        vhat = table.multiply(x, J, radii)
        del x
        # the inverse transforms read vhat's columns chunk by chunk and
        # write the first nz planes of each potential, a lone field's
        # straight into out, a block's radius major into a buffer first
        columns = vhat.reshape(M + 1, radii * b).T
        potentials = out[0] if b == 1 else np.empty((radii * b, nz))
        if even:
            _dct1(columns, M + 1, potentials, inverse=True)
        else:
            potentials[:, 0] = 0.0
            _dst1(columns[:, 1:M], M - 1, potentials[:, 1:], inverse=True)
        if b > 1:
            out[...] = potentials.reshape(radii, b, nz).transpose(1, 0, 2)

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

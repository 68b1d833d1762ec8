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
one per frequency, and the wrapped, discrete blocks keep ranks 6 to 11.
Each factor is cut into the slices on each leaf's radii, and a leaf stores
its block stacked over the slices that reach it (``_Leaf``), so every
factor is still stored once.  Dense sizes and table sizes:

    grid     dense       table
    64^2       4.0 MiB     2.4 MiB
    96^2      13.6 MiB     5.4 MiB
    120^2     26.5 MiB     9.7 MiB
    160^2     62.7 MiB    16.1 MiB
    192^2    108.3 MiB    25.1 MiB
    256^2    256.5 MiB    52.9 MiB

A product (``_Table.multiply``) is one forward product per leaf, of its
factor slices with its source rows, whose sums over each pair's half are
the other half's pair coefficients, and one product per output leaf, of
its stack with its source rows and those coefficients: no output leaf is
written twice.  The product runs radius major, on a buffer that gives
each leaf its source rows and then its coefficient slots, so both
products read contiguous rows.

The build (``_build_unit_table``) costs little more than its kernel
lines, 3,408 at 96^2 and 13,248 at 256^2, each a ``_ring_green``
evaluation over the M + 1 lags and a DCT-I.  The leaves' diagonal bands
(|i - j| <= 1) come first, in one evaluation: they hold each frequency's
largest leaf entry, which sets the pairs' tolerances.  The pairs follow,
one adaptive cross approximation (Bebendorf 2000, Numer. Math. 86:565)
per tree level (``_cross_level``): the pairs of a level step in lockstep,
each step one kernel evaluation and one DCT-I for a row or a column of
every pair.  A pair's factors are its cross terms, as wide as the most
terms one frequency took; a QR/SVD recompression of them lowered no
pair's rank by more than one and cost 0.08 s at 256^2.  Last, each leaf
evaluates its lines straight into its stack beside its factor slices
(``_leaf``), and the factors no later leaf reads are dropped: no leaf
block waits in memory while the pairs are approximated, and the build
peaks a few MiB above its table.  Fresh-process builds took 16 ms at
64^2, 41 ms at 96^2, 65 ms at 120^2, 0.32 s at 256^2, 1.35 s at 384^2
and 2.07 s at 512^2, against 17, 49 and 73 ms and 0.38, 1.43 and 2.14 s
for a build that made every leaf block first and recompressed its pairs
one at a time (Intel Xeon vCPU, one BLAS thread, medians of 5); both
evaluate the same lines, and their tables stand for the dense reference
equally closely (5e-14 of each frequency's largest entry at 96^2 and
120^2).  At 256^2 potentials agree with ``potential_at``'s direct sums on
sampled nodes to 2e-13 of the largest.  An 8-field even solve took 4.7 ms
against 4.5 ms through a one-leaf table (one dense block over all radii)
at 96^2 and 7.6 against 7.5 at 120^2, and 41 ms against 46 ms at 256^2,
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

#: target radii per evaluation of a diagonal block's kernel lines: the row
#: blocks bound the temporaries of a fill, which sit beside the stacks at
#: the build's peak
_R_BLOCK = 8

#: cross approximation tolerance of the off-diagonal pairs, relative to
#: each frequency's largest diagonal-leaf entry (at 1e-13, white-noise odd
#: sources at 192^2 and 256^2 read up to 1.5e-12 from the dense potential;
#: at this value 5e-13, for 2% more table)
_CROSS_TOL = 5e-14

#: cross terms each frequency of a pair's factors holds before they are
#: widened by as many again
_SLOTS = 8

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
    carries zero quadrature weight.  The squares are taken over 16, which
    leaves m1 as it is and folds the factor 4 into the square root, exactly;
    m1 is floored only where r and r' coincide.  The two full-size arrays
    are reused in place: the result is written over m1.
    """
    sum_sq = np.square(np.add(r, rp)) * 0.0625
    diff_sq = np.square(np.subtract(r, rp)) * 0.0625
    dz_sq = np.square(dz) * 0.0625
    far_sq = sum_sq + dz_sq
    m1 = diff_sq + dz_sq
    if np.any(sum_sq == 0) and np.any(dz_sq == 0):
        on_axis = far_sq == 0  # implies m1 == 0 too
        far_sq[on_axis] = m1[on_axis] = 0.0625
    m1 /= far_sq
    if not np.all(diff_sq >= _M1_FLOOR * sum_sq):  # else m1 >= _M1_FLOOR everywhere
        np.maximum(m1, _M1_FLOOR, out=m1)
    g = ellipkm1(m1, out=m1)
    g /= np.sqrt(far_sq, out=far_sq)
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


def _kernel_lines(rs: np.ndarray, dz: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """ghat[:, i, j] for radius indices i, j (L,), as (L, M + 1) rows: the
    DCT-I over the lags dz = hz (0, 1, ..., M) of the kernel between radii
    i and j.  A radius meeting itself off the axis takes the analytic log
    average over its self cell at lag 0 (the axis entry carries zero
    quadrature weight and is left as is)."""
    g = _ring_green(rs[i, None], rs[j, None], dz)
    selves = np.flatnonzero((i == j) & (i > 0))
    if selves.size:
        cells = np.gradient(rs)  # centred, one step at the last radius
        for p in selves:
            r = i[p]
            mean_ln = rect_log_mean(0.5 * cells[r], 0.5 * dz[1])
            g[p, 0] = (2.0 / rs[r]) * (math.log(8.0 * rs[r]) - mean_ln)
    _dct1(g, dz.size, g)
    return g


def _dense_block(rs: np.ndarray, dz: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Diagonal block ghat[:, lo:hi, lo:hi] of the grid with lags dz, as a
    new (M + 1, hi - lo, hi - lo) array (``_fill_block``)."""
    block = np.empty((dz.size, hi - lo, hi - lo))
    _fill_block(block, rs, dz, lo)
    return block


def _band(n: int) -> tuple:
    """Indices (i, j) of the band j - i <= 1 of the upper triangle of an
    n-radius block."""
    return np.r_[0:n, 0 : n - 1], np.r_[0:n, 1:n]


def _fill_block(block: np.ndarray, rs: np.ndarray, dz: np.ndarray, lo: int, band: tuple | None = None) -> None:
    """Write the diagonal block ghat[:, lo:lo + n, lo:lo + n] into ``block``
    (M + 1, n, n): each kernel line of its upper triangle goes to (i, j) and
    (j, i), so the block is exactly symmetric.  The lines (i, j, lines) of
    its band (``_band``) may be given.  The lines past the band are
    evaluated _R_BLOCK target radii i at a time: a row block's lines are a
    triangle beside the diagonal, written entry by entry, and a rectangle
    of the columns past the block, written by two transposing copies (at
    256^2 a leaf's copies took 0.8 ms against 2.2 ms entry by entry)."""
    F, n = dz.size, block.shape[1]

    def put(i, j, lines):
        block[:, i, j] = lines.T
        block[:, j, i] = lines.T

    if band is None:
        band = (*_band(n), _kernel_lines(rs, dz, *(lo + b for b in _band(n))))
    put(*band)
    for i0 in range(0, n - 2, _R_BLOCK):
        i1 = min(i0 + _R_BLOCK, n)
        a, c = np.triu_indices(i1 - i0 + 1, 2)  # j - i >= 2 inside the block
        a, c = i0 + a[i0 + c < n], i0 + c[i0 + c < n]
        rect = np.arange(i1 + 1, n)
        lines = _kernel_lines(rs, dz, lo + np.r_[a, np.repeat(np.arange(i0, i1), rect.size)],
                              lo + np.r_[c, np.tile(rect, i1 - i0)])
        put(a, c, lines[: a.size])
        if rect.size:
            square = lines[a.size :].reshape(i1 - i0, rect.size, F)
            block[:, i0:i1, i1 + 1 :] = square.transpose(2, 0, 1)
            block[:, i1 + 1 :, i0:i1] = square.transpose(2, 1, 0)


def _probe_rows(n1: int) -> list:
    """A pair's probe rows, local to its lower half of n1 radii: distances
    1, 2, 4, ... below the diagonal row n1 - 1, then the far edge 0."""
    return list(dict.fromkeys([n1 - 1 - d for d in 2 ** np.arange(int(math.log2(n1)) + 1) if d < n1] + [0]))


def _cross_levels(rs: np.ndarray, dz: np.ndarray, pair_spans: list, inv_tol: np.ndarray, sides: list) -> None:
    """Fill the factors [ut, v] of every pair (lo, mid, hi), zeroed arrays
    in ``sides``, by ``_cross_level``, one tree level at a time, outermost
    first; each pair's entry becomes views of its first rank slots.  One
    buffer holds every level's probe rows."""
    if not pair_spans:  # a table of one leaf
        return
    depth = [sum(a <= lo and hi <= b for a, _, b in pair_spans) for lo, _, hi in pair_spans]
    levels = [[p for p, d in enumerate(depth) if d == level] for level in sorted(set(depth))]
    store = np.empty(max(sum(len(_probe_rows(pair_spans[p][1] - pair_spans[p][0])) for p in ps)
                         * dz.size * max(pair_spans[p][2] - pair_spans[p][1] for p in ps) for ps in levels))
    for ps in levels:
        level = _cross_level(rs, dz, [pair_spans[p] for p in ps], inv_tol, [sides[p] for p in ps], store)
        for p, factors in zip(ps, level):
            sides[p] = factors


def _cross_level(rs: np.ndarray, dz: np.ndarray, spans: list, inv_tol: np.ndarray,
                 sides: list, store: np.ndarray) -> list:
    """Factors (ut, v) of the pairs ``spans`` (lo, mid, hi) of one tree
    level, ghat[f, lo + i, mid + j] = sum over t of ut[f, t, i] v[f, t, j],
    by adaptive cross approximation of all the pairs in lockstep.  They are
    written into each pair's zeroed [ut, v] in ``sides``, (M + 1, slots,
    mid - lo) and (M + 1, slots, hi - mid), which are replaced by wider ones
    if a frequency takes more terms than they hold, and returned as views
    of their first rank slots; ``store`` is a buffer for the probe rows.

    A step takes one kernel line per pair still working, a row i (target
    lo + i, sources mid..hi-1) or a column j (target mid + j, sources
    lo..mid-1), all in one ``_ring_green`` call and one DCT-I; lines are
    padded to the level's widest half with zeros.  Each line is shared by
    all frequencies, and each frequency f keeps its own cross terms and its
    tolerance 1 / inv_tol[f]: residuals are kept in units of it.  The first
    row is the one beside the diagonal, which holds the largest entries.
    In a row, the column is taken where the residual row is largest against
    the tolerances; a frequency whose pivot there is inside its tolerance
    takes no update (its pivot is round-off), nor does one whose pivot is
    below _PIVOT_RATIO of its residual row's and column's largest entries.
    The others take the cross term, which clears their residual row, and
    further columns of the same row are taken while the row is outside a
    tolerance and some frequency takes an update.  The next row is the
    unused one where the residual columns were largest.  A fresh row inside
    every tolerance hands over to the probe rows (``_probe_rows``, where
    the high frequencies live): every probe row is evaluated once, in one
    batch before the first step, and the unused ones are checked in order;
    the first outside a tolerance takes columns, the ones before it are
    used up, and the approximation ends when every probe is.  A
    frequency's terms fill its own slots, so a pair's factors are as wide
    as the most terms one of its frequencies took (its rank), and are zero
    past a frequency's terms.
    """
    P, F = len(spans), dz.size
    halves = np.array([[mid - lo, hi - mid] for lo, mid, hi in spans])  # rows, columns
    n = int(halves.max())
    # line (p, side, t) has target radius first[p, side] + t and the sources
    # of the other half, padded with its last radius and zeroed after
    first = np.array([[lo, mid] for lo, mid, _ in spans])
    width = halves[:, ::-1]
    valid = np.arange(n) < width[..., None]
    sources = first[:, ::-1, None] + np.minimum(np.arange(n), width[..., None] - 1)

    def lines(p, side, t, out=None):
        """(L, n, F) kernel lines of (pair, side, index) arrays, in units of
        the tolerances."""
        g = _kernel_lines(rs, dz, np.repeat(first[p, side] + t, n), sources[p, side].ravel())
        out = np.multiply(g.reshape(-1, n, F), inv_tol, out=out)
        if not valid.all():
            out *= valid[p, side][:, :, None]
        return out

    probes = [_probe_rows(n1) for n1 in halves[:, 0]]
    probe_p = np.repeat(np.arange(P), [len(q) for q in probes])
    probe_i = np.concatenate(probes)
    stored = np.full((P, n), -1)  # a row's line in ``store``
    stored[probe_p, probe_i] = np.arange(probe_i.size)
    store = lines(probe_p, np.zeros_like(probe_p), probe_i, store[: probe_i.size * n * F].reshape(-1, n, F))

    terms = np.zeros((P, F), dtype=int)
    row = np.empty((P, n, F))  # each pair's residual row
    big = np.empty((P, F))  # and its largest entry per frequency
    free = valid[:, 1].copy()  # rows not yet taken
    current = [0] * P
    score = [None] * P  # largest residual column entries met in the row
    taken = [0] * P  # columns taken in the row
    want = [(0, n1 - 1) for n1 in halves[:, 0]]  # each pair's next line, None when done

    def correct(p, side, t, residual):
        """Subtract pair p's cross terms from its residual line (side, t)."""
        k = terms[p].max()
        if k:
            basis = sides[p][1 - side][:, :k]
            coef = np.ascontiguousarray(sides[p][side][:, :k, t])  # a strided one defeats BLAS
            residual[: basis.shape[2]] -= (coef[:, None, :] @ basis)[:, 0].T

    def begin_row(p, i, residual, above, largest):
        """Row i of pair p begins with its residual, whose largest entries
        are ``above`` per column and ``largest`` per frequency: its first
        column, or None if the row is inside every tolerance."""
        free[p, i] = False
        current[p], score[p], taken[p] = i, None, 0
        row[p], big[p] = residual, largest
        return (1, int(np.argmax(above))) if above.max() > 1.0 else None

    def next_row(p):
        if score[p] is not None and free[p].any():
            return (0, int(np.argmax(np.where(free[p], score[p], -1.0))))
        for i in probes[p]:
            if free[p, i]:
                residual = store[stored[p, i]].copy()
                correct(p, 0, i, residual)
                mag = np.abs(residual)
                above = mag.max(axis=1)
                if above.max() > 1.0:
                    return begin_row(p, i, residual, above, mag.max(axis=0))
                free[p, i] = False
        return None

    while any(want):
        # the pairs taking a column first, then those taking a row
        act = np.array(sorted((p for p in range(P) if want[p]), key=lambda p: -want[p][0]))
        side, idx = np.array([want[p] for p in act]).T
        C = int(np.count_nonzero(side))
        at = np.where(side == 0, stored[act, idx], -1)
        fresh = at < 0
        if fresh.all():
            res = lines(act, side, idx)
        else:
            res = np.empty((act.size, n, F))
            res[fresh] = lines(act[fresh], side[fresh], idx[fresh])
            res[~fresh] = store[at[~fresh]]
        for a, p in enumerate(act):
            correct(p, side[a], idx[a], res[a])
        mag = np.abs(res)
        above, largest = mag.max(axis=2), mag.max(axis=1)  # each line's largest entries
        del mag
        if C:
            # the columns' cross steps, vectorised over (pair, frequency)
            pc, j, col = act[:C], idx[:C], res[:C]
            rows = row if C == P else row[pc]
            pivot = rows[np.arange(C), j]
            live = (np.abs(pivot) > 1.0) & (np.abs(pivot) >= _PIVOT_RATIO * np.maximum(big[pc], largest[:C]))
            clear = np.where(live, col[np.arange(C), [current[p] for p in pc]], 0.0)
            clear /= np.where(live, pivot, 1.0)  # u[f, i] of each live frequency's new term
            for c, p in enumerate(pc):
                # a frequency that takes no term writes to the last slot, a bin
                slots = sides[p][0].shape[1]
                if (terms[p][live[c]] == slots - 1).any():
                    sides[p] = [_widen(f) for f in sides[p]]
                    slots += _SLOTS
                at = np.arange(F) * slots + np.where(live[c], terms[p], slots - 1)
                for f, new in zip(sides[p], (col[c].T / np.where(live[c], pivot[c], 1.0)[:, None], rows[c].T)):
                    f.reshape(F * slots, -1)[at] = new[:, : f.shape[2]]
                terms[p] += live[c]
            # each live frequency's new term clears its residual row
            rows *= 1.0 - clear[:, None, :]
            mag = np.abs(rows)
            row_above, big[pc] = mag.max(axis=2), mag.max(axis=1)
            del mag
            if C < P:
                row[pc] = rows
        for a, p in enumerate(act):
            if a >= C:
                want[p] = begin_row(p, idx[a], res[a], above[a], largest[a]) or next_row(p)
                continue
            taken[p] += 1
            score[p] = above[a] if score[p] is None else np.maximum(score[p], above[a])
            if live[a].any() and row_above[a].max() > 1.0 and taken[p] < halves[p, 1]:
                want[p] = (1, int(np.argmax(row_above[a])))
            else:
                want[p] = next_row(p)
    for (ut, v), k in zip(sides, terms.max(axis=1)):
        v[:, :k] /= inv_tol[:, None, None]  # back from tolerance units
    return [[ut[:, :k], v[:, :k]] for (ut, v), k in zip(sides, terms.max(axis=1))]


def _widen(factor: np.ndarray) -> np.ndarray:
    """A factor (M + 1, slots, n) with _SLOTS more slots: its terms kept,
    its last slot (a bin for the writes of the frequencies that take no
    term) and the new ones zero."""
    wider = np.zeros((factor.shape[0], factor.shape[1] + _SLOTS, factor.shape[2]))
    wider[:, : factor.shape[1] - 1] = factor[:, :-1]
    return wider


def _build_unit_table(rs: np.ndarray, hz: float, nz: int) -> _Table:
    """Kernel spectrum of the grid (rs, hz, nz) as leaves and pairs.

    The diagonal bands (|i - j| <= 1) of the leaves come first: they hold
    each frequency's largest leaf entry, which sets the pairs' tolerances.
    The pairs follow, one cross approximation per tree level, outermost
    first.  Then each leaf is stacked (``_leaf``), and every factor no
    later leaf reads is dropped: beside the stacks made, the build holds
    the bands, the factors still to be stacked and one row block of a
    leaf's lines.

    The order of allocation keeps the build's resident memory near its
    live bytes and its page faults few under glibc's malloc, whose mmap
    threshold rises to the largest mapped block freed.  The factor arrays
    come first, while the threshold is low, so each is mapped apart from
    the heap and returns its memory once the leaves have copied it.  The
    bands follow in one evaluation, whose freed temporaries lift the
    threshold above a cross approximation step's arrays: those the heap
    recycles, where arrays at the threshold would be mapped, and faulted
    in, afresh at every step.
    """
    half = next_fast_len(2 * nz - 2)  # N / 2
    dz = hz * np.arange(half + 1)
    spans, pair_spans = _bisect(0, rs.size)
    factors = [[np.zeros((dz.size, _SLOTS + 1, mid - lo)), np.zeros((dz.size, _SLOTS + 1, hi - mid))]
               for lo, mid, hi in pair_spans]
    i, j = np.concatenate([lo + np.array(_band(hi - lo)) for lo, hi in spans], axis=1)
    lines = _kernel_lines(rs, dz, i, j)
    inv_tol = 1.0 / (_CROSS_TOL * np.abs(lines).max(axis=0))
    ends = np.cumsum([0] + [2 * (hi - lo) - 1 for lo, hi in spans])
    bands = [(i[a:b] - lo, j[a:b] - lo, lines[a:b].copy()) for (lo, _), a, b in zip(spans, ends[:-1], ends[1:])]
    del lines  # each leaf's band is dropped once it is stacked
    _cross_levels(rs, dz, pair_spans, inv_tol, factors)
    pairs = tuple(_Pair(*span, ut.shape[1]) for span, (ut, _) in zip(pair_spans, factors))
    leaves = []
    for leaf, (lo, hi) in enumerate(spans):
        slices = []
        for p, (a, mid, b) in enumerate(pair_spans):
            if a <= lo < b:
                side, base = int(lo >= mid), (a, mid)[lo >= mid]
                slices.append((p, factors[p][side][:, :, lo - base : hi - base]))
                if hi == (mid, b)[side]:  # the last leaf this factor reaches
                    factors[p][side] = None
        leaves.append(_leaf(rs, dz, lo, hi, bands[leaf], slices))
        bands[leaf] = None
    return _Table(tuple(leaves), pairs)


def _leaf(rs: np.ndarray, dz: np.ndarray, lo: int, hi: int, band: tuple, slices: list) -> _Leaf:
    """The leaf of radii lo..hi-1 as one read-only stack: its (M + 1, n, n)
    block, evaluated straight into the stack (``_fill_block``, its band
    lines given), over the (pair, (M + 1, rank, n) slice) factor slices of
    the pairs that reach it, in their order."""
    n = hi - lo
    stack = np.empty((dz.size, n + sum(part.shape[1] for _, part in slices), n))
    slots, off = [], 0
    for p, part in slices:
        stack[:, n + off : n + off + part.shape[1]] = part
        slots.append((p, off))
        off += part.shape[1]
    _fill_block(stack[:, :n], rs, dz, lo, band)
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

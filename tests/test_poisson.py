import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct, dst, idct, idst
from scipy.special import ellipk, ellipkm1

from rotstar import poisson
from rotstar.eos import polytrope
from rotstar.equilibria import make_grid
from rotstar.numerics import ellipkm1 as ported_ellipkm1
from rotstar.poisson import Grid, RingKernel, rect_log_mean
from rotstar.radial import solve_radial


def _agm_ellipkm1(m1):
    """K(1 - m1) = pi / (2 AGM(1, sqrt(m1))), independent of scipy's ellipkm1.

    Ten steps reach machine precision for m1 >= 1e-15: the mean gap closes
    quadratically.
    """
    a = np.ones_like(m1)
    b = np.sqrt(m1)
    for _ in range(10):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (2.0 * a)


def test_agm_matches_reference():
    m = np.linspace(0.0, 1.0 - 1e-13, 20000)
    assert np.max(np.abs(_agm_ellipkm1(1.0 - m) - ellipk(m))) < 1e-13
    m1 = np.geomspace(1e-15, 1.0, 2000)
    assert np.max(np.abs(_agm_ellipkm1(m1) / ellipkm1(m1) - 1.0)) < 1e-14
    assert np.max(np.abs(_agm_ellipkm1(m1) / ported_ellipkm1(m1) - 1.0)) < 1e-14


def test_rect_log_mean_against_midpoint_quadrature():
    a, b = 0.013, 0.021
    n = 3000
    x = (np.arange(n) + 0.5) / n * a
    y = (np.arange(n) + 0.5) / n * b
    X, Y = np.meshgrid(x, y, indexing="ij")
    ref = np.mean(np.log(np.hypot(X, Y)))
    assert rect_log_mean(a, b) == pytest.approx(ref, abs=1e-7)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.1, 0.2]), np.array([0.0, 0.1]))  # rs not starting at 0
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.2]), np.array([0.0, 0.1, 0.3]))  # z not uniform


def test_potential_of_spherical_star(star53):
    R = star53.radius
    errs = {}
    for n in (48, 96):
        g = Grid(np.linspace(0, 1.4 * R, n + 1), np.linspace(0, 1.4 * R, n + 1))
        RG, ZG = g.meshes()
        S = np.sqrt(RG**2 + ZG**2)
        rho = star53.rho_of(S)
        V = RingKernel(g).potential(rho)
        errs[n] = np.max(np.abs(V - star53.potential_of(S))) / abs(star53.potential_of(np.array([0.0]))[0])
    assert errs[96] < 2e-3
    assert errs[96] < 0.5 * errs[48]  # at least first-order-in-area convergence


def test_multipole_oracle_for_interaction(star53):
    """Ring-kernel double integral against the spherical-expansion oracle."""
    R = star53.radius
    g = Grid(np.linspace(0, 1.25 * R, 97), np.linspace(0, 1.25 * R, 97))
    RG, ZG = g.meshes()
    S = np.sqrt(RG**2 + ZG**2)
    rho = star53.rho_of(S)
    val = g.integrate(rho * -RingKernel(g).potential(rho))

    # oracle: (4 pi)^2 int int f(s) f(t) s^2 t^2 / max(s, t) ds dt on the profile
    s = np.linspace(0, R, 4000)
    f = star53.rho_of(s)
    w = np.gradient(s)
    A = f * s**2 * w
    ker = 1.0 / np.maximum.outer(np.maximum(s, 1e-12), s)
    oracle = (4 * math.pi) ** 2 * float(A @ ker @ A)
    assert val == pytest.approx(oracle, rel=1e-3)


def test_far_field_probe_matches_monopole(axi53):
    R = axi53.support_radius
    rp = np.array([5 * R, 0.0, 3.5 * R])
    zp = np.array([0.0, 5 * R, 3.5 * R])
    V = axi53.kernel.potential_at(axi53.rho, rp, zp)
    S = np.sqrt(rp**2 + zp**2)
    assert np.max(np.abs(V + axi53.mass / S) / (axi53.mass / S)) < 0.01


def test_odd_parity_potential_antisymmetric(axi53):
    # an odd source must produce zero potential on the midplane
    g = axi53.grid
    RG, ZG = g.meshes()
    src = axi53.rho * ZG
    V = axi53.kernel.potential(src, parity="odd")
    interior = np.max(np.abs(V[:, 1:]))
    assert abs(V[:, 0]).max() < 1e-12 * interior


def test_mass_quadrature_consistency(axi53):
    total = axi53.grid.integrate(axi53.rho)
    assert total == pytest.approx(2.0 * math.pi * axi53.m_of_r[-1], rel=1e-12)


def _direct_sum_potential(grid, source, parity):
    """Node quadrature of the ring-kernel integral summed term by term (no FFT)."""
    rs, zs, hz = grid.rs, grid.zs, grid.hz
    nr, nz = grid.shape
    sgn = 1.0 if parity == "even" else -1.0
    wr = np.zeros(nr)  # trapezoid weights in r
    wr[1:] += 0.5 * np.diff(rs)
    wr[:-1] += 0.5 * np.diff(rs)
    cell = np.gradient(rs)  # self-cell widths: centred inside, one step at the ends
    # mirrored source planes z' = -z_{nz-1} .. z_{nz-1}
    zsrc = np.concatenate([-zs[:0:-1], zs])
    ssrc = np.concatenate([sgn * source[:, :0:-1], source], axis=1) * (wr * rs * hz)[:, None]
    ri = rs[:, None, None, None]
    zi = zs[None, :, None, None]
    rj = rs[None, None, :, None]
    zj = zsrc[None, None, None, :]
    denom_sq = (ri + rj) ** 2 + (zi - zj) ** 2
    coincident = (ri == rj) & (zi == zj)
    # complementary parameter 1 - m formed without cancellation, and K from
    # the AGM rather than the kernel's scipy routine
    denom_sq = np.where(coincident, 1.0, denom_sq)
    m1 = np.where(coincident, 1.0, ((ri - rj) ** 2 + (zi - zj) ** 2) / denom_sq)
    G = 4.0 * _agm_ellipkm1(m1) / np.sqrt(denom_sq)
    for i in range(nr):
        for k in range(nz):
            if i == 0:
                G[i, k, i, nz - 1 + k] = 0.0
            else:
                mean_ln = rect_log_mean(0.5 * cell[i], 0.5 * hz)
                G[i, k, i, nz - 1 + k] = (2.0 / rs[i]) * (math.log(8.0 * rs[i]) - mean_ln)
    return -np.einsum("ikjl,jl->ik", G, ssrc)


def _with_parity(src, parity):
    """``src`` as a source of ``parity``: an odd one is a copy that
    vanishes on z = 0, as every odd source must."""
    if parity == "even":
        return src
    src = src.copy()
    src[..., 0] = 0.0
    return src


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("nz", [19, 20, 27])  # next_fast_len(2nz - 2) pads 20 and 27
def test_potential_matches_direct_sum_on_graded_grid(parity, nz):
    grid = make_grid(1.3, 1.1, 21, nz, refine_at=0.8)
    src = _with_parity(np.random.default_rng(7).standard_normal(grid.shape), parity)
    ref = _direct_sum_potential(grid, src, parity)
    V = RingKernel(grid).potential(src, parity)
    assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(21, 19), (5, 21, 19)], ids=["field", "stack"])
def test_odd_source_with_a_nonzero_midplane_is_rejected(monkeypatch, shape):
    """An odd source that does not vanish on z = 0 is not an odd field: it
    is rejected, a stack for any one member, before any transform runs."""
    kernel = RingKernel(make_grid(1.3, 1.1, 21, 19, refine_at=0.8))
    src = _with_parity(np.random.default_rng(5).standard_normal(shape), "odd")
    src[(-1, 3, 0) if len(shape) == 3 else (3, 0)] = 1e-300

    def transform(*args, **kwargs):
        raise AssertionError("a transform ran")

    for name in ("_dct1", "_dst1"):
        monkeypatch.setattr(poisson, name, transform)
    with pytest.raises(ValueError, match="z = 0"):
        kernel.potential(src, "odd")


def test_package_odd_stacks_vanish_on_the_midplane(eos53):
    """The odd stacks the package solves vanish on z = 0 exactly: the odd
    sector of the README star's 10x6 basis (odd Legendre rows and the
    vertical shift) and the divergences of an odd velocity basis."""
    from rotstar.bases import perturbation_basis
    from rotstar.equilibria import solve_fixed_omega
    from rotstar.rotlaw import RigidLaw
    from rotstar.spectral import velocity_basis

    star = solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=96, nz=96)
    basis = perturbation_basis(star, deg_r=10, deg_z=6)
    odd = basis.fields[basis.sectors["odd"].rows]
    div = velocity_basis(star, parity="odd").div_fields
    for stack in (odd, div):
        assert np.any(stack[:, :, 1:])
        assert np.all(stack[:, :, 0] == 0.0)


@pytest.mark.parametrize("shape, refine_at", [((21, 19), 0.8), ((40, 36), None), ((33, 27), 0.5)])
def test_built_table_is_exactly_symmetric(shape, refine_at):
    """Every diagonal leaf is exactly symmetric, and the leaves tile the
    radii: one leaf of at most _LEAF radii, more leaves and pairs past it."""
    table = _fresh_kernel(make_grid(1.3, 1.1, *shape, refine_at=refine_at))._table
    assert table.leaves[0].lo == 0 and table.leaves[-1].hi == shape[0]
    assert (len(table.leaves) == 1) == (shape[0] <= poisson._LEAF)
    assert len(table.pairs) == len(table.leaves) - 1
    for leaf in table.leaves:
        n = leaf.hi - leaf.lo
        assert leaf.block.shape == (table.freqs, n, n)
        assert np.array_equal(leaf.block, leaf.block.transpose(0, 2, 1))


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_trimmed_potential_matches_direct_sum(parity, where):
    """Sources that vanish beyond radius index J solve on columns 0..J only."""
    grid = make_grid(1.3, 1.1, 21, 19, refine_at=0.8)
    J = {"first": 1, "middle": grid.nr // 2, "last": grid.nr - 1}[where]
    src = _with_parity(np.random.default_rng(11).standard_normal(grid.shape), parity)
    src[J + 1 :] = 0.0
    ref = _direct_sum_potential(grid, src, parity)
    V = RingKernel(grid).potential(src, parity)
    assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_zero_source_gives_exactly_zero(parity):
    grid = make_grid(1.3, 1.1, 21, 19, refine_at=0.8)
    for shape in (grid.shape, (3,) + grid.shape):  # a lone field and a stack
        V = RingKernel(grid).potential(np.zeros(shape), parity)
        assert V.shape == shape
        assert np.all(V == 0.0)


def _stack_of_fields(grid, n=19):
    """n random fields sharing a support that ends short of the last radius:
    one all-zero member and one with a shorter support."""
    stack = np.random.default_rng(17).standard_normal((n,) + grid.shape)
    stack[:, -2:] = 0.0
    stack[4] = 0.0
    stack[7, grid.nr // 2 :] = 0.0
    return stack


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_stacked_potential_matches_per_field_solves(parity):
    """A stack longer than two blocks (8 + 8 + 3) solves each field as a
    lone solve does, to round-off of the stack's largest potential (a block
    product sums in another order than a lone field's); a lone field is a
    stack of one, bit for bit."""
    grid = make_grid(1.3, 1.1, 21, 19, refine_at=0.8)
    kernel = RingKernel(grid)
    stack = _with_parity(_stack_of_fields(grid), parity)
    assert 2 * poisson._STACK_BLOCK < stack.shape[0] < 3 * poisson._STACK_BLOCK
    V = kernel.potential(stack, parity)
    assert V.shape == stack.shape
    ref = np.stack([kernel.potential(src, parity) for src in stack])
    for src, want in zip(stack, ref):
        assert np.array_equal(kernel.potential(src[None], parity)[0], want)
    assert np.max(np.abs(V - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.all(V[4] == 0.0)


@pytest.mark.parametrize("shape", [(3, 22, 19), (3, 21, 18), (3, 19, 21), (2, 3, 21, 19), (21,)])
def test_potential_rejects_a_stack_off_the_grid(shape):
    kernel = RingKernel(make_grid(1.3, 1.1, 21, 19, refine_at=0.8))
    with pytest.raises(ValueError):
        kernel.potential(np.ones(shape))


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_stacked_solve_memory_is_bounded(monkeypatch, parity):
    """A 45-field solve holds its result and one block's spectra, not the
    stack's.  A block's spectra are two (M + 1, block, nr) arrays, its
    source rows and its potentials' spectrum; the peak measured 2.01 such
    arrays above the result for an even stack and 2.50 for an odd one (the
    weighted block and its transform meet the rows), so the bound allows 3.
    Solving the whole stack at once measured 11.3 and 14.0."""
    grid = make_grid(1.0, 1.0, 64, 64)
    kernel = RingKernel(grid)
    stack = np.random.default_rng(19).standard_normal((45,) + grid.shape)
    stack[:, :, 0] = 0.0  # odd Galerkin fields vanish on z = 0
    spectrum = poisson._STACK_BLOCK * kernel._table.freqs * grid.nr * 8
    bound = stack.nbytes + 3 * spectrum

    def peak():
        tracemalloc.start()
        try:
            kernel.potential(stack, parity)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= bound
    monkeypatch.setattr(poisson, "_STACK_BLOCK", stack.shape[0])  # one block
    assert peak() > bound


def test_potential_rejects_unknown_parity(axi53):
    with pytest.raises(ValueError):
        axi53.kernel.potential(axi53.rho, parity="none")


def _fresh_kernel(grid):
    """Kernel built from scratch, bypassing the one-entry unit-table cache."""
    poisson._unit_table = None
    return RingKernel(grid)


def _scaled_grid(lam, graded, nr=40, nz=36):
    return make_grid(1.3 * lam, 1.1 * lam, nr, nz, refine_at=0.8 * lam if graded else None)


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("lam", [3.7, 0.31])
def test_cache_hit_matches_fresh_build(graded, lam):
    unit = _fresh_kernel(_scaled_grid(1.0, graded))
    grid = _scaled_grid(lam, graded)
    hit = RingKernel(grid)
    assert hit._table is unit._table
    assert not hit._table.leaves[0].block.flags.writeable
    fresh = _fresh_kernel(grid)
    assert fresh._table is not unit._table
    for parity in ("even", "odd"):
        src = _with_parity(np.random.default_rng(3).standard_normal(grid.shape), parity)
        ref = fresh.potential(src, parity)
        err = np.max(np.abs(hit.potential(src, parity) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


def test_cache_misses_on_other_nz_or_grading():
    base = _fresh_kernel(_scaled_grid(1.0, False))
    taller = RingKernel(_scaled_grid(1.0, False, nz=37))
    assert taller._table is not base._table
    base = RingKernel(_scaled_grid(2.0, False))
    graded = RingKernel(_scaled_grid(2.0, True, nr=base.grid.nr))
    assert graded.grid.shape == base.grid.shape
    assert graded._table is not base._table


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.02, 50.0),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**16),
)
def test_potential_scales_as_lambda_squared(lam, parity, seed):
    """Same density on a grid scaled by lam: V_lam = lam^2 V_1 at matching nodes."""
    src = _with_parity(np.random.default_rng(seed).standard_normal((24, 20)), parity)
    v1 = _fresh_kernel(_scaled_grid(1.0, True, 24, 20)).potential(src, parity)
    v_lam = _fresh_kernel(_scaled_grid(lam, True, 24, 20)).potential(src, parity)
    assert np.max(np.abs(v_lam - lam**2 * v1)) <= 1e-13 * lam**2 * np.max(np.abs(v1))


def test_potential_at_rejects_unknown_parity(axi53):
    with pytest.raises(ValueError):
        axi53.kernel.potential_at(axi53.rho, [2.0], [0.0], parity="none")


def test_kernel_build_memory_is_bounded():
    grid = make_grid(1.0, 1.0, 128, 128)
    poisson._unit_table = None  # measure a real build, not a cache hit
    tracemalloc.start()
    try:
        RingKernel(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poisson._unit_table is not None
    assert peak <= 100 * 2**20
    # the build's temporaries stay small beside the table it returns
    assert peak <= poisson._unit_table.table.nbytes + 8 * 2**20


def test_cache_miss_releases_old_table_first():
    poisson._unit_table = None
    tracemalloc.start()
    try:
        RingKernel(make_grid(1.0, 1.0, 128, 128))  # cached, no kernel keeps it
        one_build = tracemalloc.get_traced_memory()[1]
        table_bytes = poisson._unit_table.table.nbytes
        RingKernel(make_grid(1.0, 1.0, 128, 127))  # miss
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poisson._unit_table.nz == 127
    assert peak <= 100 * 2**20
    # holding both tables would add one whole table to the single-build peak
    assert peak < one_build + 0.5 * table_bytes




def _unit_lags(grid):
    """Unit radii and vertical lags hz (0, 1, ..., M) of a grid's table."""
    s = grid.rs[-1]
    M = poisson.next_fast_len(2 * grid.nz - 2)
    return grid.rs / s, grid.hz / s * np.arange(M + 1)


def _dense_reference(grid):
    """ghat[f, i, j] over all radii, from one dense block."""
    return poisson._dense_block(*_unit_lags(grid), 0, grid.nr)


def _pair_factors(table, p):
    """Pair p's factors (u, v), read back from the leaves' stacks."""
    pair = table.pairs[p]
    us, vs = [], []
    for leaf in table.leaves:
        n = leaf.hi - leaf.lo
        for q, off in leaf.slots:
            if q == p:
                piece = leaf.stack[:, n + off : n + off + pair.rank]
                if leaf.lo < pair.mid:
                    us.append(piece.transpose(0, 2, 1))
                else:
                    vs.append(piece)
    return np.concatenate(us, axis=1), np.concatenate(vs, axis=2)


def _dense_of(table):
    """The dense ghat[f, i, j] a table stands for."""
    nr = table.leaves[-1].hi
    ghat = np.empty((table.freqs, nr, nr))
    for leaf in table.leaves:
        ghat[:, leaf.lo : leaf.hi, leaf.lo : leaf.hi] = leaf.block
    for p, (lo, mid, hi, rank) in enumerate(table.pairs):
        u, v = _pair_factors(table, p)
        assert u.shape == (table.freqs, mid - lo, rank) and v.shape == (table.freqs, rank, hi - mid)
        ghat[:, lo:mid, mid:hi] = u @ v
        ghat[:, mid:hi, lo:mid] = (u @ v).transpose(0, 2, 1)
    return ghat


def _table_product(table, rows, radii):
    """The table's product with (M + 1, J, b) spectrum rows, gathered
    radius major as a solve gathers them."""
    F, J, b = rows.shape
    return table.multiply(table.gather(rows.reshape(F, J * b).T, b), J, radii)


def _force_split(monkeypatch, leaf):
    """Split every table, however small, down to leaves of ``leaf`` radii."""
    monkeypatch.setattr(poisson, "_LEAF", leaf)


def _one_leaf(monkeypatch, grid):
    """A table of one dense leaf over all of the grid's radii."""
    with monkeypatch.context() as patch:
        patch.setattr(poisson, "_LEAF", grid.nr)
        return _fresh_kernel(grid)


@pytest.mark.parametrize("leaf, r_block", [(2, 2), (3, 2), (2, 5), (6, 2)])
@pytest.mark.parametrize("shape, refine_at", [((21, 19), 0.8), ((40, 36), None)])
def test_split_table_equals_one_part_table(monkeypatch, leaf, r_block, shape, refine_at):
    """A split table's leaves are the diagonal blocks of the dense
    reference bit for bit, whatever the row blocks of the reference's fill
    (here r_block target radii), and its pairs stand for the off-diagonal
    blocks to within the cross tolerance of each frequency's largest entry
    (1.2e-13 measured)."""
    grid = make_grid(1.3, 1.1, *shape, refine_at=refine_at)
    with monkeypatch.context() as patch:
        patch.setattr(poisson, "_R_BLOCK", r_block)
        ghat = _dense_reference(grid)
    assert np.array_equal(ghat, ghat.transpose(0, 2, 1))
    _force_split(monkeypatch, leaf)
    split = _fresh_kernel(grid)._table
    spans = [(leaf.lo, leaf.hi) for leaf in split.leaves]
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == grid.nr and all(hi - lo <= leaf for lo, hi in spans)
    assert len(split.pairs) == len(spans) - 1
    for part in split.leaves:
        assert np.array_equal(part.block, ghat[:, part.lo : part.hi, part.lo : part.hi])
    scale = np.max(np.abs(ghat), axis=(1, 2))
    err = np.max(np.abs(_dense_of(split) - ghat), axis=(1, 2))
    assert np.all(err <= 1e-12 * scale)
    assert all(not leaf.stack.flags.writeable for leaf in split.leaves)


@pytest.mark.parametrize("shape, refine_at", [((64, 64), None), ((96, 96), None), ((120, 120), None),
                                              ((40, 36), 0.8), ((33, 27), 0.5)])
def test_table_equals_dense_reference(shape, refine_at):
    """The table the solver builds stands for the dense reference over all
    radii to 1e-12 of each frequency's largest entry, on the uniform grids
    up to 120^2 and on graded grids, in less of its bytes: 62% at 64^2, 40%
    at 96^2, 37% at 120^2."""
    grid = make_grid(1.3, 1.1, *shape, refine_at=refine_at)
    table = _fresh_kernel(grid)._table
    assert len(table.leaves) > 1
    ghat = _dense_reference(grid)
    scale = np.max(np.abs(ghat), axis=(1, 2))
    err = np.max(np.abs(_dense_of(table) - ghat), axis=(1, 2))
    assert np.all(err <= 1e-12 * scale)
    if grid.nr >= 64:
        assert table.nbytes <= 0.7 * ghat.nbytes


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("fields", [1, 8, 9])
@pytest.mark.parametrize("J", [48, 60, 96])  # a leaf edge, inside a leaf, all radii
def test_leaf_product_equals_dense_product(parity, fields, J):
    """One product per output leaf equals ghat[f, :, :J] @ rows through
    the dense reference to 1e-12 of the largest entry (3e-14 measured), for
    spectrum rows of either parity, with the trimmed source ending at a
    leaf edge (24-radius leaves at 96^2) or inside a leaf."""
    grid = make_grid(1.3, 1.3, 96, 96)
    table = _fresh_kernel(grid)._table
    assert [leaf.hi - leaf.lo for leaf in table.leaves] == [24] * 4
    ghat = _dense_reference(grid)
    src = _with_parity(np.random.default_rng(J + fields).standard_normal((fields, J, grid.nz)), parity)
    lines = np.empty((J * fields, table.freqs))
    poisson._spectrum_rows(src.transpose(1, 0, 2).reshape(J * fields, grid.nz), parity == "even",
                           table.freqs - 1, lines)
    rows = lines.reshape(J, fields, table.freqs).transpose(2, 0, 1)
    want = np.einsum("fij,fjb->fib", ghat[:, :, :J], rows)
    got = _table_product(table, rows, grid.nr)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("fields", [None, 1, 9])
@pytest.mark.parametrize("radii", [0, 1, 48, 60, 95, 96])
def test_potential_on_the_first_radii_is_the_full_potential(parity, fields, radii):
    """A solve asked for the first ``radii`` radii returns the full solve's
    potential on them bit for bit, for a lone field and stacks, with the
    cut at a leaf edge (48) or inside a leaf; the source's support (72
    radii) ends before some cuts and after others."""
    grid = make_grid(1.3, 1.3, 96, 96)
    kernel = RingKernel(grid)
    shape = grid.shape if fields is None else (fields,) + grid.shape
    src = _with_parity(np.random.default_rng(radii).standard_normal(shape), parity)
    src[..., 72:, :] = 0.0
    full = kernel.potential(src, parity)
    cut = kernel.potential(src, parity, radii=radii)
    assert cut.shape == shape[:-2] + (radii, grid.nz)
    assert np.array_equal(cut, full[..., :radii, :])


@pytest.mark.parametrize("radii", [-1, 97, 1000])
def test_potential_rejects_radii_off_the_grid(radii):
    kernel = RingKernel(make_grid(1.3, 1.3, 96, 96))
    with pytest.raises(ValueError, match="radii"):
        kernel.potential(np.ones(kernel.grid.shape), radii=radii)


def _split_cases(grid, rng):
    """(source, parity) pairs: both parities, support-trimmed sources and
    stacks of 1, 8 and 9 fields."""
    odd = _with_parity(rng.standard_normal(grid.shape), "odd")
    trimmed = rng.standard_normal(grid.shape)
    trimmed[grid.nr // 2 :] = 0.0
    stack = _stack_of_fields(grid, n=9)
    return [
        (rng.standard_normal(grid.shape), "even"),
        (odd, "odd"),
        (trimmed, "even"),
        (_with_parity(trimmed, "odd"), "odd"),
        (stack[:1], "even"),
        (_with_parity(stack[:8], "odd"), "odd"),
        (stack, "even"),
        (_with_parity(stack, "odd"), "odd"),
    ]


@pytest.mark.parametrize("leaf", [2, 3, 6])
def test_split_potential_equals_one_part_potential(monkeypatch, leaf):
    """Potentials through a split table agree with a one-leaf table's to
    1e-12 of the largest, on a graded and a uniform grid (1.4e-13 measured)."""
    for grid in (make_grid(1.3, 1.1, 21, 19, refine_at=0.8), make_grid(1.3, 1.1, 40, 36)):
        cases = _split_cases(grid, np.random.default_rng(13))
        kernel = _one_leaf(monkeypatch, grid)
        assert not kernel._table.pairs
        ref = [kernel.potential(src, parity) for src, parity in cases]
        with monkeypatch.context() as patch:
            _force_split(patch, leaf)
            split = _fresh_kernel(grid)
        assert split._table.pairs
        for (src, parity), want in zip(cases, ref):
            got = split.potential(src, parity)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_split_table_at_192(monkeypatch):
    """A 192^2 table holds at most a third of its dense bytes (23%
    measured), and its potentials agree with a one-leaf table's to 1e-12
    of the largest: a star density, its odd moment, a 9-field stack of
    density-weighted fields and white noise of both parities (2.8e-13
    measured)."""
    grid = make_grid(1.3, 1.3, 192, 192)
    split = _fresh_kernel(grid)
    table = split._table
    dense_bytes = table.freqs * grid.nr**2 * 8
    assert len(table.leaves) == 8 and len(table.pairs) == 7
    assert split.table_bytes == table.nbytes <= dense_bytes / 3
    rng = np.random.default_rng(23)
    RG, ZG = grid.meshes()
    rho = np.maximum(1.0 - RG**2 - ZG**2, 0.0) ** 1.5
    stack = rng.standard_normal((9,) + grid.shape) * rho
    cases = [(rho, "even"), (rho * ZG, "odd"), (stack, "even"), (_with_parity(stack, "odd"), "odd"),
             (rng.standard_normal(grid.shape), "even"),
             (_with_parity(rng.standard_normal(grid.shape), "odd"), "odd")]
    got = [split.potential(src, parity) for src, parity in cases]
    del split, table
    monkeypatch.setattr(poisson, "_R_BLOCK", 8)  # bounds the dense fill's temporaries
    dense = _one_leaf(monkeypatch, grid)
    for (src, parity), mine in zip(cases, got):
        want = dense.potential(src, parity)
        assert np.max(np.abs(mine - want)) <= 1e-12 * np.max(np.abs(want))
    poisson._unit_table = None


@pytest.mark.parametrize("n", [64, 96, 192])
def test_vertical_transforms_are_scipys(n):
    """The rfft-based DCT-I and DST-I and their inverses equal scipy.fft's
    type-1 transforms bit for bit, on the shapes an n^2 solve gives them:
    sources of nz = n planes padded to M + 1 (or M - 1) points, and the
    potential spectra read column-wise, more lines than one chunk holds."""
    M = poisson.next_fast_len(2 * n - 2)
    rng = np.random.default_rng(n)
    src = rng.standard_normal((8 * n, n))
    out = np.empty((8 * n, M + 1))
    poisson._dct1(src, M + 1, out)
    assert np.array_equal(out, dct(src, type=1, n=M + 1))
    poisson._dst1(src[:, 1:], M - 1, out[:, 1:M])
    assert np.array_equal(out[:, 1:M], dst(src[:, 1:], type=1, n=M - 1))
    spectra = rng.standard_normal((M + 1, 8 * n))
    pot = np.empty((8 * n, n))
    poisson._dct1(spectra.T, M + 1, pot, inverse=True)
    assert np.array_equal(pot, idct(spectra, type=1, axis=0)[:n].T)
    poisson._dst1(spectra.T[:, 1:M], M - 1, pot[:, 1:], inverse=True)
    assert np.array_equal(pot[:, 1:], idst(spectra[1:M], type=1, axis=0)[: n - 1].T)


def _scipy_potential(kernel, source, parity):
    """A lone field's potential solved through scipy.fft's transforms and
    the kernel's own table product."""
    grid, table = kernel.grid, kernel._table
    M, nz = table.freqs - 1, grid.nz
    J = np.flatnonzero(np.any(source, axis=1))[-1] + 1
    w = source[None, :J] * kernel._src_weight[:J, None]
    if parity == "even":
        rows = dct(w, type=1, n=M + 1, axis=2).transpose(2, 1, 0)
    else:
        rows = dst(w[:, :, 1:], type=1, n=M - 1, axis=2).transpose(2, 1, 0)
        rows = np.pad(rows, ((1, 1), (0, 0), (0, 0)))
    vhat = _table_product(table, rows, grid.nr)[:, :, 0]
    out = np.zeros(grid.shape)
    if parity == "even":
        out[:] = idct(vhat, type=1, axis=0)[:nz].T
    else:
        out[:, 1:] = idst(vhat[1:M], type=1, axis=0)[: nz - 1].T
    return out


@pytest.mark.parametrize("n", [64, 96, 192])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_potential_is_the_scipy_transforms_potential(n, parity):
    """A lone field's potential is the one solved through scipy.fft's
    transforms bit for bit, on the split tables of every grid."""
    grid = make_grid(1.3, 1.3, n, n)
    kernel = RingKernel(grid)
    RG, ZG = grid.meshes()
    rho = np.maximum(1.0 - RG**2 - ZG**2, 0.0) ** 1.5
    noise = _with_parity(np.random.default_rng(n).standard_normal(grid.shape) * rho, parity)
    for src in (noise, rho if parity == "even" else rho * ZG):
        assert np.array_equal(kernel.potential(src, parity), _scipy_potential(kernel, src, parity))


def test_split_build_memory_is_bounded():
    """A split build holds its leaves and pairs and little more: at 192^2
    it peaked 5.4 MiB above its 25 MiB table, bound 8 MiB; the dense build
    of the same grid returns 108 MiB."""
    grid = make_grid(1.3, 1.3, 192, 192)
    poisson._unit_table = None
    tracemalloc.start()
    try:
        RingKernel(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = poisson._unit_table.table
    assert table.pairs
    assert peak <= table.nbytes + 8 * 2**20
    poisson._unit_table = None


@pytest.mark.parametrize("n", [96, 120])
def test_small_table_build_memory_is_bounded(n):
    """A 96^2 or 120^2 build holds its leaves and pairs and little more: it
    peaked 3.0 and 3.7 MiB above its 5.3 and 9.6 MiB tables, bound 5 MiB,
    and at 0.61 and 0.50 of the 13.6 and 26.5 MiB a dense table holds,
    bound 0.75."""
    grid = make_grid(1.3, 1.3, n, n)
    poisson._unit_table = None
    tracemalloc.start()
    try:
        RingKernel(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = poisson._unit_table.table
    assert peak <= table.nbytes + 5 * 2**20
    assert peak <= 0.75 * table.freqs * n * n * 8
    poisson._unit_table = None


#: kernel values (lines times M + 1 lags) a fresh build evaluates: 3,408
#: lines of 193 lags at 96^2 and 13,248 lines of 513 lags at 256^2, the
#: leaves' upper triangles and the pairs' cross rows and columns
_BUILD_VALUES = {96: 657_744, 256: 6_796_224}


@pytest.mark.parametrize("n", sorted(_BUILD_VALUES))
def test_build_evaluates_no_more_kernel_values(monkeypatch, n):
    """A build costs little more than its kernel evaluations: the values
    ``_ring_green`` evaluates in a fresh build are pinned as upper bounds."""
    seen = []
    ring_green = poisson._ring_green

    def counted(*args):
        g = ring_green(*args)
        seen.append(g.size)
        return g

    monkeypatch.setattr(poisson, "_ring_green", counted)
    _fresh_kernel(make_grid(1.3, 1.3, n, n))
    assert sum(seen) <= _BUILD_VALUES[n]
    poisson._unit_table = None


@pytest.mark.parametrize("shape, refine_at", [((64, 64), None), ((96, 96), None), ((120, 120), None),
                                              ((97, 90), 0.5)])
def test_leaf_bands_hold_the_largest_leaf_entries(shape, refine_at):
    """The pairs' tolerances scale with each frequency's largest entry on
    the leaves' diagonal bands (|i - j| <= 1): no leaf entry exceeds it."""
    table = _fresh_kernel(make_grid(1.3, 1.1, *shape, refine_at=refine_at))._table
    band = np.max([np.abs(np.concatenate([np.diagonal(leaf.block, 0, 1, 2), np.diagonal(leaf.block, 1, 1, 2)],
                                         axis=1)).max(axis=1) for leaf in table.leaves], axis=0)
    for leaf in table.leaves:
        assert np.all(np.abs(leaf.block).max(axis=(1, 2)) <= band)


def test_potential_at_256_matches_direct_sums():
    """At the largest benchmark grid, where no dense reference fits, table
    potentials agree with ``potential_at``'s direct sums to 1e-12 of the
    largest on 16 sampled nodes: a star density, its odd moment, a 9-field
    stack of density-weighted fields and white noise of both parities.
    The sources vanish at the sampled nodes, whose self cells the direct
    sums do not average."""
    grid = make_grid(1.3, 1.3, 256, 256)
    kernel = _fresh_kernel(grid)
    rng = np.random.default_rng(29)
    i, k = rng.integers(0, 256, 16), rng.integers(0, 256, 16)
    i[:2], k[2:4] = 0, 0  # nodes on the axis and on the midplane
    RG, ZG = grid.meshes()
    rho = np.maximum(1.0 - RG**2 - ZG**2, 0.0) ** 1.5
    stack = rng.standard_normal((9,) + grid.shape) * rho
    cases = [(rho, "even"), (rho * ZG, "odd"), (stack, "even"), (_with_parity(stack, "odd"), "odd"),
             (rng.standard_normal(grid.shape), "even"),
             (_with_parity(rng.standard_normal(grid.shape), "odd"), "odd")]
    for src, parity in cases:
        src = src.copy()
        src[..., i, k] = 0.0
        got = kernel.potential(src, parity)[..., i, k]
        for mine, field in zip(got.reshape(-1, i.size), src.reshape((-1,) + grid.shape)):
            want = kernel.potential_at(field, grid.rs[i], grid.zs[k], parity)
            assert np.max(np.abs(mine - want)) <= 1e-12 * np.max(np.abs(want))
    poisson._unit_table = None

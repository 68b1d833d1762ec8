import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ellipk, ellipkm1

from rotstar import poisson
from rotstar.eos import polytrope
from rotstar.equilibria import make_grid
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


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("nz", [19, 20, 27])  # next_fast_len(2nz - 2) pads 20 and 27
def test_potential_matches_direct_sum_on_graded_grid(parity, nz):
    grid = make_grid(1.3, 1.1, 21, nz, refine_at=0.8)
    src = np.random.default_rng(7).standard_normal(grid.shape)
    ref = _direct_sum_potential(grid, src, parity)
    V = RingKernel(grid).potential(src, parity)
    assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_odd_source_counts_its_midplane_once():
    """An odd-parity source with a nonzero z = 0 plane keeps that plane once."""
    grid = make_grid(1.3, 1.1, 21, 20, refine_at=0.8)
    mid = np.zeros(grid.shape)
    mid[:, 0] = np.random.default_rng(5).standard_normal(grid.nr)
    kernel = RingKernel(grid)
    V = kernel.potential(mid, "odd")
    # a source on z = 0 alone has no mirrored planes, so parity does not matter
    ref = _direct_sum_potential(grid, mid, "even")
    assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(V - kernel.potential(mid, "even"))) <= 1e-13 * np.max(np.abs(ref))
    odd = np.random.default_rng(6).standard_normal(grid.shape)
    odd[:, 0] = 0.0
    src = odd + mid
    ref = _direct_sum_potential(grid, src, "odd")
    assert np.max(np.abs(kernel.potential(src, "odd") - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape, refine_at", [((21, 19), 0.8), ((40, 36), None), ((33, 27), 0.5)])
def test_built_table_is_exactly_symmetric(shape, refine_at):
    ghat = _fresh_kernel(make_grid(1.3, 1.1, *shape, refine_at=refine_at))._ghat
    assert ghat.shape == (ghat.shape[0], shape[0], shape[0])
    assert np.array_equal(ghat, ghat.transpose(0, 2, 1))


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_trimmed_potential_matches_direct_sum(parity, where):
    """Sources that vanish beyond radius index J solve on columns 0..J only."""
    grid = make_grid(1.3, 1.1, 21, 19, refine_at=0.8)
    J = {"first": 1, "middle": grid.nr // 2, "last": grid.nr - 1}[where]
    src = np.random.default_rng(11).standard_normal(grid.shape)
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
    one all-zero member, one with a shorter support, and every third member
    with a zero z = 0 plane (the others keep a nonzero one)."""
    stack = np.random.default_rng(17).standard_normal((n,) + grid.shape)
    stack[:, -2:] = 0.0
    stack[4] = 0.0
    stack[7, grid.nr // 2 :] = 0.0
    stack[::3, :, 0] = 0.0
    return stack


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_stacked_potential_matches_per_field_solves(parity):
    """A stack longer than two blocks (8 + 8 + 3) solves each field as a
    lone solve does, to round-off of the stack's largest potential (a block
    product sums in another order than a lone field's); a lone field is a
    stack of one, bit for bit."""
    grid = make_grid(1.3, 1.1, 21, 19, refine_at=0.8)
    kernel = RingKernel(grid)
    stack = _stack_of_fields(grid)
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
    spectrum = poisson._STACK_BLOCK * kernel._ghat.shape[0] * grid.nr * 8
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
    assert hit._ghat is unit._ghat
    assert not hit._ghat.flags.writeable
    fresh = _fresh_kernel(grid)
    assert fresh._ghat is not unit._ghat
    src = np.random.default_rng(3).standard_normal(grid.shape)
    for parity in ("even", "odd"):
        ref = fresh.potential(src, parity)
        err = np.max(np.abs(hit.potential(src, parity) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


def test_cache_misses_on_other_nz_or_grading():
    base = _fresh_kernel(_scaled_grid(1.0, False))
    taller = RingKernel(_scaled_grid(1.0, False, nz=37))
    assert taller._ghat is not base._ghat
    base = RingKernel(_scaled_grid(2.0, False))
    graded = RingKernel(_scaled_grid(2.0, True, nr=base.grid.nr))
    assert graded.grid.shape == base.grid.shape
    assert graded._ghat is not base._ghat


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.02, 50.0),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**16),
)
def test_potential_scales_as_lambda_squared(lam, parity, seed):
    """Same density on a grid scaled by lam: V_lam = lam^2 V_1 at matching nodes."""
    src = np.random.default_rng(seed).standard_normal((24, 20))
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
    assert peak <= poisson._unit_table.ghat.nbytes + 8 * 2**20


def test_cache_miss_releases_old_table_first():
    poisson._unit_table = None
    tracemalloc.start()
    try:
        RingKernel(make_grid(1.0, 1.0, 128, 128))  # cached, no kernel keeps it
        one_build = tracemalloc.get_traced_memory()[1]
        table_bytes = poisson._unit_table.ghat.nbytes
        RingKernel(make_grid(1.0, 1.0, 128, 127))  # miss
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poisson._unit_table.nz == 127
    assert peak <= 100 * 2**20
    # holding both tables would add one whole table to the single-build peak
    assert peak < one_build + 0.5 * table_bytes


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows, to shake out races."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _force_parts(monkeypatch, parts):
    """Split every build and solve into `parts` thread parts, however small."""
    monkeypatch.setattr(poisson, "_PART_BYTES", 1)
    _set_cpus(monkeypatch, parts)


def _set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(
        poisson.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


@pytest.mark.parametrize("parts, r_block", [(2, 2), (3, 2), (2, 5), (6, 2)])
@pytest.mark.parametrize("shape, refine_at", [((21, 19), 0.8), ((40, 36), None)])
def test_split_table_equals_one_part_table(
    monkeypatch, fast_switching, parts, r_block, shape, refine_at
):
    grid = make_grid(1.3, 1.1, *shape, refine_at=refine_at)
    monkeypatch.setattr(poisson, "_R_BLOCK", r_block)
    one = _fresh_kernel(grid)
    assert one.parts == 1
    _force_parts(monkeypatch, parts)
    split = _fresh_kernel(grid)
    assert split.parts == parts
    assert np.array_equal(split._ghat, one._ghat)


@pytest.mark.parametrize("parts", [2, 3, 6])
def test_split_potential_equals_one_part_potential(monkeypatch, fast_switching, parts):
    grid = make_grid(1.3, 1.1, 21, 19, refine_at=0.8)
    kernel = _fresh_kernel(grid)
    rng = np.random.default_rng(13)
    odd = rng.standard_normal(grid.shape)
    odd[:, 0] = 0.0
    trimmed = rng.standard_normal(grid.shape)
    trimmed[grid.nr // 2 :] = 0.0
    cases = [
        (rng.standard_normal(grid.shape), "even"),
        (odd, "odd"),
        (rng.standard_normal(grid.shape), "odd"),  # nonzero midplane row
        (trimmed, "even"),
        (trimmed, "odd"),
        (_stack_of_fields(grid), "even"),
        (_stack_of_fields(grid), "odd"),
    ]
    ref = [kernel.potential(src, parity) for src, parity in cases]
    _force_parts(monkeypatch, parts)
    for (src, parity), want in zip(cases, ref):
        assert np.array_equal(kernel.potential(src, parity), want)


def test_part_count_rule(monkeypatch):
    """One part per 64 MiB of table, at most one per CPU of the budget."""
    monkeypatch.setattr(poisson, "_cpu_share", 1)

    def parts(cpus, nbytes):
        _set_cpus(monkeypatch, cpus)
        return poisson._part_count(nbytes)

    table_256 = 513 * 256 * 256 * 8  # 256.5 MiB
    table_120 = 241 * 120 * 120 * 8  # the bb1974 scan's table
    assert parts(2, table_256) == 2
    assert parts(8, table_256) == 4
    assert parts(1, table_256) == 1
    assert parts(8, table_120) == 1
    assert parts(8, 63 * 2**20) == 1
    poisson.share_cpus(2)  # a worker of a --jobs 2 scan
    assert parts(2, table_256) == 1
    assert parts(8, table_256) == 4
    poisson.share_cpus(3)
    assert parts(8, table_256) == 2
    assert parts(2, table_256) == 1

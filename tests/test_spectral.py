import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import BSpline

from rotstar.bases import FactoredStack, Term, legendre_table
from rotstar.eos import polytrope
from rotstar.equilibria import solve_fixed_omega
from rotstar.errors import SolverError
from rotstar.forms import QuadraticForm
from rotstar.rotlaw import PowerTailLaw
from rotstar.spectral import (
    RING_DEG_Z,
    VelocityBasis,
    _l1_block,
    assemble_meridional_form,
    evolve_second_order,
    spectrum_report,
    upsilon_range,
    velocity_basis,
)
from rotstar.stability import energy_blocks, pair_integrals


def _factored(stack):
    """A dense (n, nr, nz) stack as a factored one: one term per field,
    with the field as its profile."""
    n, nr, nz = stack.shape
    return FactoredStack(tuple(
        Term(np.ones((1, nr)), np.ones((1, nz)), np.zeros(1, dtype=int), stack[k], k)
        for k in range(n)
    ))


@pytest.fixture(scope="module")
def small_unstable_star():
    """The Rayleigh-unstable power-tail star on a 48^2 grid."""
    law = PowerTailLaw(omega_c=1.0, r_c=0.4, p=2.0)
    return solve_fixed_omega(polytrope(1.0, 1.3), law, 0.25, 1.0, nr=48, nz=48)


@pytest.fixture(scope="module")
def vb(rayleigh_unstable_star):
    return velocity_basis(rayleigh_unstable_star, ring_knots=24)


@pytest.fixture(scope="module")
def form(rayleigh_unstable_star, vb):
    return assemble_meridional_form(vb)


def test_needs_unstable_rotation(rot53):
    with pytest.raises(ValueError):
        assemble_meridional_form(velocity_basis(rot53))


def test_divergence_free_zero_radial_velocity_gives_zero(rayleigh_unstable_star):
    """A field with no radial component and vanishing mass-flux divergence
    scores exactly zero in the form."""
    star = rayleigh_unstable_star
    vz = np.where(star.context.mask, 1.0, 0.0) * star.grid.rs[:, None] * 0 + np.where(
        star.context.mask, 0.3, 0.0
    )
    basis = VelocityBasis(
        star=star,
        u_r=_factored(np.zeros((1,) + star.rho.shape)),
        u_z=_factored(vz[None]),
        div_fields=np.zeros((0,) + star.rho.shape),
        parity="even",
    )
    form = assemble_meridional_form(basis)
    assert abs(form.matrix[0, 0]) < 1e-14 * abs(form.gram[0, 0])


def test_ring_quotients_inside_upsilon_range(rayleigh_unstable_star):
    star = rayleigh_unstable_star
    lo, hi = upsilon_range(star)
    basis = velocity_basis(star, ring_knots=16, grad_deg_r=0, grad_deg_z=0)
    assert basis.n_grad == 0  # no gradient shapes requested
    form = assemble_meridional_form(basis)
    lam = form.eigenvalues
    assert lam[0] >= lo - 1e-9
    assert lam[-1] <= hi + 1e-9


def test_localized_ring_quotient_near_local_discriminant(rayleigh_unstable_star):
    """The radial-kinetic quotient of a narrow stream field stays within the
    local oscillation of the discriminant over the field's radial support."""
    star = rayleigh_unstable_star
    ups = star.context.ups
    rs = star.grid.rs
    w = 2 * math.pi * np.outer(star.grid.wr * star.grid.rs, star.grid.wz_line())
    basis = velocity_basis(star, ring_knots=40, grad_deg_r=0, grad_deg_z=0)
    checked = 0
    fields_r = basis.u_r.dense()
    for k in range(basis.count):
        vr2 = fields_r[k] ** 2 * star.rho * w
        total = vr2.sum()
        if total <= 0:
            continue
        quotient = float((vr2 * ups[:, None]).sum() / total)
        radial_weight = vr2.sum(axis=1)
        support = radial_weight > 1e-10 * radial_weight.max()
        local_lo, local_hi = ups[support].min(), ups[support].max()
        pad = 1e-9 * max(abs(local_lo), abs(local_hi))
        assert local_lo - pad <= quotient <= local_hi + pad
        checked += 1
    assert checked > 20


def test_lower_bound_inequality(rayleigh_unstable_star, vb, form):
    """[form u, u] + m ||u||^2 >= || div(rho0 u) ||^2 in the weighted space,
    with m the assembled gravitational norm bound."""
    star = rayleigh_unstable_star
    g = star.grid
    w = 2 * math.pi * np.outer(g.wr * g.rs, g.wz_line())
    mask = star.context.mask
    phi2 = np.zeros_like(star.rho)
    phi2[mask] = star.eos.enthalpy_second(star.rho[mask])
    n, ng = vb.count, vb.n_grad
    D = vb.div_fields.reshape(ng, -1)
    WD = (vb.div_fields * (w * phi2)[None]).reshape(ng, -1)
    div_norm = np.zeros((n, n))  # the ring fields' divergences vanish
    div_norm[:ng, :ng] = WD @ D.T
    lo, _ = upsilon_range(star)
    # gravitational term plus the discriminant term are bounded below by
    # -m ||u||_Y^2 with a computable m; verify the matrix inequality
    resid = form.matrix - div_norm
    gram = form.gram
    vals = np.linalg.eigvalsh(np.linalg.solve(gram, resid + resid.T) / 2.0)
    m_bound = -vals[0]
    assert np.all(
        np.linalg.eigvalsh(form.matrix + (m_bound + 1e-10) * gram - div_norm) > -1e-8
    )


def test_spectrum_classification(rayleigh_unstable_star):
    rep = spectrum_report(rayleigh_unstable_star, levels=3, ring_knots0=16,
                          grad_deg_r=3, grad_deg_z=3)
    assert rep.essential_lo < 0 < rep.essential_hi
    assert rep.eta0 <= rep.essential_lo + 1e-9
    assert len(rep.discrete_below) == 1  # gravity-driven mode below the interval
    assert not rep.flags
    # the count below the interval is stable across the refinement levels
    margin = 0.1 * (rep.essential_hi - rep.essential_lo)
    for lv in rep.levels:
        assert np.sum(lv < rep.essential_lo - margin) == 1


def test_spectrum_report_solves_the_gradient_fields_once(small_unstable_star, monkeypatch):
    """Every level has the same gradient fields, so their divergences are
    built and L1 is assembled once, and each level's spectrum is still that
    of its own full assembly."""
    from rotstar import spectral

    star = small_unstable_star
    assembled, bases = [], []
    real = spectral.energy_blocks
    monkeypatch.setattr(
        spectral, "energy_blocks", lambda *a: assembled.append(a[1].shape[0]) or real(*a)
    )
    real_basis = spectral.velocity_basis
    monkeypatch.setattr(
        spectral, "velocity_basis", lambda *a, **k: bases.append(real_basis(*a, **k)) or bases[-1]
    )
    rep = spectrum_report(star, levels=3, ring_knots0=6, grad_deg_r=3, grad_deg_z=3)
    n_grad = velocity_basis(star, grad_deg_r=3, grad_deg_z=3).n_grad
    assert assembled == [n_grad]
    assert len(bases) == 3
    assert all(vb.div_fields is bases[0].div_fields for vb in bases)
    monkeypatch.undo()
    for lev, lam in enumerate(rep.levels):
        vb = velocity_basis(star, grad_deg_r=3, grad_deg_z=3, ring_knots=6 * 2**lev)
        assert np.array_equal(lam, np.sort(assemble_meridional_form(vb).eigenvalues))


def test_spectrum_upper_family_grows_with_basis(rayleigh_unstable_star):
    counts = []
    for deg in (3, 5, 7):
        basis = velocity_basis(
            rayleigh_unstable_star, grad_deg_r=deg, grad_deg_z=deg, ring_knots=8
        )
        form = assemble_meridional_form(basis)
        _, hi = upsilon_range(rayleigh_unstable_star)
        counts.append(int(np.sum(form.eigenvalues > hi + 0.1)))
    assert counts[0] < counts[1] < counts[2]


def test_eta0_monotone_under_enrichment(rayleigh_unstable_star):
    etas = []
    for knots in (8, 16, 32):
        basis = velocity_basis(rayleigh_unstable_star, ring_knots=knots)
        form = assemble_meridional_form(basis)
        etas.append(form.eigenvalues[0])
    assert etas[0] >= etas[1] >= etas[2] - 1e-12


def test_eigenmode_growth(form):
    lam0 = form.eigenvalues[0]
    assert lam0 < 0
    n = form.eigenvalues.size
    u0, v0 = np.zeros(n), np.zeros(n)
    u0[0] = 1.0
    v0[0] = math.sqrt(-lam0)
    traj = evolve_second_order(form, u0, v0, T=8.0 / math.sqrt(-lam0), dt_factor=0.015)
    assert traj.growth_rate() == pytest.approx(math.sqrt(-lam0), rel=0.01)
    assert traj.energy_drift < 1e-6


def test_energy_drift_stays_at_round_off(form):
    """The flow is exact: at either sample spacing the energy drift is
    round-off, and the two runs agree at their shared sample times."""
    lam0 = form.eigenvalues[0]
    n = form.eigenvalues.size
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(n)
    u0 /= np.linalg.norm(u0)
    v0 = np.zeros(n)
    coarse, fine = (
        evolve_second_order(form, u0, v0, T=4.0 / math.sqrt(-lam0), dt_factor=f)
        for f in (0.08, 0.04)
    )
    assert coarse.energy_drift <= 1e-12 and fine.energy_drift <= 1e-12
    # the shared times include both ends
    i, j = np.nonzero(np.isclose(coarse.times[:, None], fine.times, rtol=1e-14, atol=0.0))
    assert coarse.times[i[-1]] == fine.times[j[-1]] == fine.times[-1] and i[0] == j[0] == 0
    assert np.allclose(coarse.norms[i], fine.norms[j], rtol=1e-12, atol=0.0)


def test_generic_growth_bounded(form):
    lam0 = form.eigenvalues[0]
    n = form.eigenvalues.size
    rng = np.random.default_rng(11)
    u0 = rng.standard_normal(n)
    u0 /= np.linalg.norm(u0)
    traj = evolve_second_order(
        form, u0, np.zeros(n), T=10.0 / math.sqrt(-lam0), dt_factor=0.02
    )
    assert traj.growth_rate() <= math.sqrt(-lam0) * 1.05


def test_evolution_rejects_a_state_off_the_eigen_coordinates(form):
    n = form.eigenvalues.size
    for u0, v0 in ((np.zeros(n + 1), np.zeros(n)), (np.zeros(n), np.zeros((n, 1)))):
        with pytest.raises(ValueError, match="pencil eigen-coordinates"):
            evolve_second_order(form, u0, v0, T=1.0)


def test_modal_flow_is_the_closed_form():
    """On eigenvalues exactly -4, 0 and 9 each coordinate follows its
    closed form: u0 cosh 2t + v0 sinh(2t) / 2, the line u0 + v0 t, and
    u0 cos 3t + v0 sin(3t) / 3; the zero mode divides by nothing."""
    form = QuadraticForm(np.diag([-4.0, 0.0, 9.0]), np.eye(3))
    assert np.array_equal(form.eigenvalues, [-4.0, 0.0, 9.0])
    for k, closed in enumerate((
        lambda t: 0.5 * np.cosh(2.0 * t) + 1.5 * np.sinh(2.0 * t) / 2.0,
        lambda t: 0.5 + 1.5 * t,
        lambda t: 0.5 * np.cos(3.0 * t) + 1.5 * np.sin(3.0 * t) / 3.0,
    )):
        u0, v0 = np.zeros(3), np.zeros(3)
        u0[k], v0[k] = 0.5, 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_second_order(form, u0, v0, T=2.0, dt_factor=0.05)
        assert np.allclose(traj.norms, np.abs(closed(traj.times)), rtol=1e-14, atol=0.0)
        assert traj.energy_drift <= 1e-15


def test_stiff_stable_mode_does_not_overflow():
    """A stiff stable mode (w = 1e4 over T = 1) beside a growing one takes
    cos and sin, never cosh: no warning, and the energy stays at round-off."""
    form = QuadraticForm(np.diag([-1.0, 1e8]), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve_second_order(form, np.ones(2), np.ones(2), T=1.0)
    assert traj.times[-1] == 1.0
    assert traj.energy_drift <= 1e-14


def test_form_without_a_time_scale_is_a_solver_failure():
    """Every eigenvalue zero, or none retained: no sample spacing
    dt_factor / sqrt(max |eigenvalue|) exists, a named SolverError."""
    flat = QuadraticForm(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SolverError, match="no time scale"):
        evolve_second_order(flat, np.ones(2), np.ones(2), T=1.0)
    empty = QuadraticForm(np.zeros((2, 2)), np.eye(2))
    empty.eigenvalues = np.empty(0)  # a form that retains no direction
    with pytest.raises(SolverError, match="no time scale"):
        evolve_second_order(empty, np.empty(0), np.empty(0), T=1.0)


def test_nonfinite_divergence_rejected(rayleigh_unstable_star):
    star = rayleigh_unstable_star
    zero = _factored(np.zeros((1,) + star.rho.shape))
    bad = VelocityBasis(
        star=star,
        u_r=zero,
        u_z=zero,
        div_fields=np.full((1,) + star.rho.shape, np.nan),
        parity="even",
    )
    with pytest.raises(SolverError, match="undefined divergence"):
        assemble_meridional_form(bad)


def test_strict_mode_escalates_ambiguity(rayleigh_unstable_star, monkeypatch):
    from rotstar import spectral
    from rotstar.errors import AmbiguousClassificationError

    monkeypatch.setattr(spectral, "DISCRETE_DRIFT_TOL", 0.0)
    with pytest.raises(AmbiguousClassificationError):
        spectrum_report(rayleigh_unstable_star, levels=2, ring_knots0=10, strict=True)


def _velocity_basis_loop(star, parity, grad_deg_r, grad_deg_z, ring_knots):
    """Reference: one field at a time, masked with ``np.where``; grad rho0 is
    grad h / h''(rho0), with grad h = (omega^2 r - dV/dr, -dV/dz) differenced
    from the star's own potential."""
    g = star.grid
    rs, zs = g.rs, g.zs
    R0, Z0 = star.support_radius, star.support_height
    mask, inv_phi2 = star.context.mask, star.context.inv_phi2
    rho = np.where(mask, star.rho, 0.0)
    V = star.potential
    dVdr = np.gradient(V, rs, axis=0, edge_order=2)
    dVdz = np.zeros_like(V)  # zero on z = 0 by even reflection
    dVdz[:, 1:-1] = (V[:, 2:] - V[:, :-2]) / (2 * g.hz)
    dVdz[:, -1] = (V[:, -1] - V[:, -2]) / g.hz
    drho_r = ((star.context.omega**2 * rs)[:, None] - dVdr) * inv_phi2
    drho_z = -dVdz * inv_phi2
    RG = rs[:, None]
    fr, fz, divs, kinds = [], [], [], []
    Pr, dPr, d2Pr = legendre_table(2.0 * (rs / R0) ** 2 - 1.0, grad_deg_r)
    Pz, dPz, d2Pz = legendre_table(zs / Z0, grad_deg_z)
    x_r = (4.0 / R0**2) * rs
    for j in range(grad_deg_z + 1):
        if (parity == "even") != (j % 2 == 0):
            continue
        for i in range(grad_deg_r + 1):
            if i == 0 and j == 0:
                continue
            xi_r = np.outer(dPr[i] * x_r, Pz[j])
            xi_z = np.outer(Pr[i], dPz[j]) / Z0
            lap = (
                np.outer(d2Pr[i] * x_r**2 + dPr[i] * (8.0 / R0**2), Pz[j])
                + np.outer(Pr[i], d2Pz[j]) / Z0**2
            )
            div = rho * lap + drho_r * xi_r + drho_z * xi_z
            fr.append(np.where(mask, xi_r, 0.0))
            fz.append(np.where(mask, xi_z, 0.0))
            divs.append(np.where(mask, div, 0.0))
            kinds.append("grad")
    kz = [j for j in range(RING_DEG_Z + 1) if (j % 2 == 1) == (parity == "even")]
    t = np.concatenate([[0.0] * 2, np.linspace(0.0, R0, ring_knots + 1), [R0] * 2])
    Zt, dZt, _ = legendre_table(zs / Z0, RING_DEG_Z)
    dZt = dZt / Z0
    for ib in range(len(t) - 3):
        spl = BSpline(t, np.eye(len(t) - 3)[ib], 2, extrapolate=False)
        beta = np.nan_to_num(spl(rs))
        dbeta = np.nan_to_num(spl.derivative()(rs))
        if not np.any(beta):
            continue
        for j in kz:
            q = np.outer(beta, Zt[j])
            ur = RG * (2.0 * drho_z * q + rho * np.outer(beta, dZt[j]))
            uz = -(2.0 * rho * q + RG * (2.0 * drho_r * q + rho * np.outer(dbeta, Zt[j])))
            fr.append(np.where(mask, ur, 0.0))
            fz.append(np.where(mask, uz, 0.0))
            kinds.append("ring")
    divs = np.stack(divs) if divs else np.empty((0,) + rho.shape)
    return np.stack(fr), np.stack(fz), divs, kinds


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("grad_deg", [4, 0])
def test_velocity_basis_matches_per_field_loop(small_unstable_star, parity, grad_deg):
    star = small_unstable_star
    ring_knots = 40  # fine enough on 48^2 that a bump misses every grid radius
    vb = velocity_basis(star, parity=parity, grad_deg_r=grad_deg, grad_deg_z=grad_deg,
                        ring_knots=ring_knots)
    ref_r, ref_z, ref_div, kinds = _velocity_basis_loop(
        star, parity, grad_deg, grad_deg, ring_knots
    )
    assert vb.n_grad == kinds.count("grad")
    assert kinds == ["grad"] * vb.n_grad + ["ring"] * (vb.count - vb.n_grad)
    assert kinds.count("ring") < 2 * (ring_knots + 2)  # a dropped bump
    assert (grad_deg == 0) == ("grad" not in kinds)
    fields_r, fields_z = vb.u_r.dense(), vb.u_z.dense()
    for got, ref in ((fields_r, ref_r), (fields_z, ref_z), (vb.div_fields, ref_div)):
        assert got.shape == ref.shape
        err = np.max(np.abs(got - ref), axis=(1, 2))
        assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=(1, 2)))
    off = ~star.context.mask
    ring = np.array(kinds) == "ring"
    assert np.all(fields_r[ring][:, off] == 0.0)
    assert np.all(fields_z[ring][:, off] == 0.0)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_meridional_form_matches_dense_reference(small_unstable_star, parity):
    """The factored products give the form of the dense per-field stacks:
    Q and G within 1e-12 of their largest entry, and the same retained
    rank."""
    star = small_unstable_star
    vb = velocity_basis(star, parity=parity, grad_deg_r=3, grad_deg_z=3, ring_knots=24)
    fr, fz, divs, _ = _velocity_basis_loop(star, parity, 3, 3, 24)
    form = assemble_meridional_form(vb)
    ctx = star.context
    rho = np.where(ctx.mask, star.rho, 0.0)
    wk = ctx.weights * rho
    ng = vb.n_grad
    Q = pair_integrals(fr, fr, wk * ctx.ups[:, None])
    pressure, grav = energy_blocks(star, divs, parity)
    Q[:ng, :ng] += pressure + grav
    ref = QuadraticForm(Q, pair_integrals(fr, fr, wk) + pair_integrals(fz, fz, wk))
    for got, want in ((form.matrix, ref.matrix), (form.gram, ref.gram)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert form.rank == ref.rank


def test_criterion_10_ranks_are_pinned(rayleigh_unstable_star):
    """Criterion 10's star (80^2, degree 3x3) keeps 72/129/182 Gram
    directions at ring knots 40/80/160.  At 160 knots the smallest kept
    Gram eigenvalue is 1.015e-12 of the largest, 1.5% above GRAM_CUTOFF,
    so a change of summation order that drops it shows here."""
    ranks = []
    l1 = None
    for knots in (40, 80, 160):
        vb = velocity_basis(rayleigh_unstable_star, grad_deg_r=3, grad_deg_z=3, ring_knots=knots)
        l1 = _l1_block(vb) if l1 is None else l1
        ranks.append(assemble_meridional_form(vb, l1).rank)
    assert ranks == [72, 129, 182]


def test_spectrum_path_memory_is_bounded(small_unstable_star):
    """A three-level spectrum report on the 48^2 star (ring knots 20/40/80)
    peaks at 2.6 MB of allocations past the kernel (measured); the bound is
    3.2 MB.  The dense velocity stacks of the finest level's ring fields
    alone would exceed it: the forms read factored stacks only."""
    star = small_unstable_star
    star.kernel, star.context  # built once per star, outside the measurement
    tracemalloc.start()
    try:
        spectrum_report(star, levels=3, ring_knots0=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 3.2e6
    assert peak <= bound
    finest = velocity_basis(star, ring_knots=80)
    n_ring = finest.count - finest.n_grad
    assert 2 * n_ring * star.rho.nbytes > bound

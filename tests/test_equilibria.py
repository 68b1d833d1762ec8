import dataclasses
import json
import math

import numpy as np
import pytest

from rotstar.eos import polytrope
from rotstar.errors import SolverError
from rotstar.equilibria import (
    RotationSpec,
    axistar_from_radial,
    boundary_asymptotics_check,
    load_axistar,
    make_grid,
    save_axistar,
    solve_fixed_j,
    solve_fixed_omega,
)
from rotstar.radial import solve_radial
from rotstar.rotlaw import FixedTotalMomentum, PowerLawMomentum, RigidLaw
from rotstar.rotlaw import PowerTailLaw, TabulatedLaw, UnitMassMomentum


def test_nonrotating_limit_matches_radial(eos53, star53):
    st = solve_fixed_omega(eos53, RigidLaw(1.0), 0.0, 1.0, nr=80, nz=80)
    RG, ZG = st.grid.meshes()
    S = np.sqrt(RG**2 + ZG**2)
    assert np.max(np.abs(st.rho - star53.rho_of(S))) < 5e-3 * st.mu
    assert st.support_radius == pytest.approx(star53.radius, rel=5e-3)
    assert st.mass == pytest.approx(star53.mass, rel=5e-3)


def test_center_density_pinned(rot53):
    assert rot53.rho[0, 0] == pytest.approx(rot53.mu, abs=1e-12)


def test_centrifugal_flattening(rot53):
    assert rot53.support_radius >= rot53.support_height
    st2 = solve_fixed_omega(rot53.eos, RigidLaw(1.0), 0.12, 1.0, nr=72, nz=72)
    assert (st2.support_radius - st2.support_height) > (
        rot53.support_radius - rot53.support_height
    )


def test_residual_small(rot53):
    assert rot53.residual < 1e-6 * rot53.eos.enthalpy(rot53.mu)


def test_residual_consistent_at_double_resolution(eos53):
    st = solve_fixed_omega(eos53, RigidLaw(1.0), 0.01, 1.0, nr=56, nz=56, tol=1e-11)
    st2 = solve_fixed_omega(eos53, RigidLaw(1.0), 0.01, 1.0, nr=112, nz=112, tol=1e-11)
    h_scale = eos53.enthalpy(1.0)
    assert st.residual < 1e-6 * h_scale
    assert st2.residual < 1e-6 * h_scale
    # the two solutions agree where both grids resolve the star
    RG, ZG = st.grid.meshes()
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        (st2.grid.rs, st2.grid.zs), st2.rho, bounds_error=False, fill_value=0.0
    )
    rho2 = interp(np.stack([RG.ravel(), ZG.ravel()], axis=1)).reshape(RG.shape)
    assert np.max(np.abs(rho2 - st.rho)) < 5e-3 * st.mu


def test_fixed_j_nonrotating_limit(eos53, star53):
    st = solve_fixed_j(eos53, PowerLawMomentum(1.0, 2.0), 0.0, 1.0, nr=72, nz=72)
    RG, ZG = st.grid.meshes()
    S = np.sqrt(RG**2 + ZG**2)
    assert np.max(np.abs(st.rho - star53.rho_of(S))) < 5e-3

def test_fixed_j_soft_polytrope_center_density():
    eos = polytrope(1.0, 4.03 / 3.03)
    st = solve_fixed_j(eos, FixedTotalMomentum(), 0.5, 1.0, nr=64, nz=64)
    assert st.rho[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert st.support_radius >= st.support_height


def test_fixed_j_rotational_integrand_vanishing_at_axis(rot53, eos53):
    mom = FixedTotalMomentum()
    st = solve_fixed_j(eos53, mom, 0.5, 1.0, nr=72, nz=72)
    rs = st.grid.rs
    m = st.m_of_r
    integrand = np.zeros_like(rs)
    off = rs > 0
    integrand[off] = mom.J(m[off], st.mass) / rs[off] ** 3
    first = integrand[1:8]
    # bounded by C * r over the first nodes
    assert np.all(first <= 2.0 * integrand[7] / rs[7] * rs[1:8] + 1e-30)


def test_mass_consistency(rot53):
    assert rot53.grid.integrate(rot53.rho) == pytest.approx(rot53.mass, rel=1e-12)


def test_reflection_symmetry_storage(rot53):
    # half-grid storage: the reflected field is the field itself by definition
    assert rot53.rho.shape == (rot53.grid.nr, rot53.grid.nz)
    assert rot53.grid.zs[0] == 0.0


def test_continuity_in_kappa(eos53):
    kappas = [0.02, 0.01, 0.005]
    base = solve_fixed_omega(eos53, RigidLaw(1.0), 0.0, 1.0, nr=64, nz=64)
    devs = []
    for k in kappas:
        st = solve_fixed_omega(eos53, RigidLaw(1.0), k, 1.0, grid=base.grid)
        devs.append(np.max(np.abs(st.rho - base.rho)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-3 * base.mu


def test_exterior_monopole_at_five_radii(rot53):
    R = rot53.support_radius
    rp = np.array([5 * R, 0.0, 4 * R])
    zp = np.array([0.0, 5 * R, 3 * R])
    V = rot53.kernel.potential_at(rot53.rho, rp, zp)
    S = np.sqrt(rp**2 + zp**2)
    rel = np.abs(V + rot53.mass / S) / (rot53.mass / S)
    assert np.max(rel) < 0.01


def test_grid_too_small(eos53):
    small = make_grid(1.0, 1.0, 48, 48)  # support radius is about 1.63
    with pytest.raises(SolverError, match="non-rotating support"):
        solve_fixed_omega(eos53, RigidLaw(1.0), 0.01, 1.0, grid=small)


def test_fixed_j_grid_too_small(eos53):
    small = make_grid(1.0, 1.0, 48, 48)  # support radius is about 1.63
    with pytest.raises(SolverError, match="non-rotating support"):
        solve_fixed_j(eos53, FixedTotalMomentum(), 0.1, 1.0, grid=small)


def test_sweep_budget_exhausted(eos53):
    with pytest.raises(SolverError, match="no convergence in 2 sweeps"):
        solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=32, nz=32, max_iter=2)


def test_scf_divergence_detected(eos53):
    """Rotation past mass shedding: the defect keeps growing until the
    damping has been halved below 1e-3."""
    with pytest.raises(SolverError, match="iteration diverged at mu=1"):
        solve_fixed_omega(eos53, RigidLaw(1.0), 0.7, 1.0, nr=24, nz=24, pad=3.0)


def test_scf_blowup_reported_as_divergence(eos53):
    """Rotation far past mass shedding: the density runs away within a few
    sweeps while the defect never rises three sweeps in a row, so only the
    blow-up guard (defect above DIVERGENCE_FACTOR times the first sweep's)
    stops it before the sweep budget."""
    with pytest.raises(SolverError, match="iteration diverged at mu=1"):
        solve_fixed_omega(eos53, RigidLaw(1.0), 3.0, 1.0, nr=24, nz=24, pad=3.0)


def test_scf_rejects_a_non_finite_residual(eos53):
    """A NaN amplitude makes every sweep's enthalpy NaN: the density decays
    below the tolerance and the iteration stops, but on no equilibrium."""
    with pytest.raises(SolverError, match="non-finite residual at mu=1"):
        solve_fixed_omega(eos53, RigidLaw(1.0), math.nan, 1.0, nr=24, nz=24)


def test_one_driver_for_both_families(eos53):
    """Without rotation the two families are the same SCF problem and the
    shared driver gives bit-identical stars."""
    omega = solve_fixed_omega(eos53, RigidLaw(1.0), 0.0, 1.0, nr=48, nz=48)
    fixed_j = solve_fixed_j(eos53, FixedTotalMomentum(), 0.0, 1.0, nr=48, nz=48)
    assert np.array_equal(omega.rho, fixed_j.rho)
    assert np.array_equal(omega.potential, fixed_j.potential)
    assert omega.mass == fixed_j.mass
    assert omega.support_radius == fixed_j.support_radius
    assert omega.residual == fixed_j.residual
    assert (omega.rotation.kind, fixed_j.rotation.kind) == ("fixed_omega", "fixed_j")


def test_star_context_is_built_once(rot53):
    """Every context array equals its formula, written out here for the
    rigidly rotating star (kappa 0.05, omega_c 1)."""
    ctx = rot53.context
    assert rot53.context is ctx
    mask = rot53.rho > 1e-12 * rot53.mu
    assert np.array_equal(ctx.mask, mask)
    phi2 = rot53.eos.enthalpy_second(rot53.rho[mask])
    assert np.array_equal(ctx.phi2[mask], phi2)
    assert np.array_equal(ctx.inv_phi2[mask], 1.0 / phi2)
    assert np.all(ctx.phi2[~mask] == 0) and np.all(ctx.inv_phi2[~mask] == 0)
    g = rot53.grid
    assert np.array_equal(ctx.weights, 2.0 * math.pi * np.outer(g.wr * g.rs, g.wz_line()))
    h1 = g.z_integral(rot53.rho)
    assert np.array_equal(ctx.h1, h1)
    assert np.array_equal(ctx.radial_support, (h1 > 0) & (g.rs <= rot53.support_radius))
    kappa, rs = rot53.rotation.amplitude, g.rs
    assert (kappa, rot53.rotation.profile) == (0.05, RigidLaw(1.0))
    assert np.array_equal(ctx.omega, np.full_like(rs, kappa))
    assert np.array_equal(ctx.d_om_r2, kappa * 2.0 * rs)
    assert ctx.ups[0] == 4.0 * kappa**2
    assert np.array_equal(ctx.ups[1:], kappa**2 * 4.0 * rs[1:] ** 3 / rs[1:] ** 3)
    # a copied star with another density gets its own context
    other = dataclasses.replace(rot53, rho=2.0 * rot53.rho)
    assert not np.array_equal(other.context.h1, ctx.h1)


def test_replaced_density_carries_its_own_mass(eos53):
    """Mass, cylinder mass and a fixed-j star's rotation profile follow a
    density swapped in by ``dataclasses.replace``."""
    mom = FixedTotalMomentum()
    star = solve_fixed_j(eos53, mom, 0.4, 1.0, nr=48, nz=48)
    other = dataclasses.replace(star, rho=2.0 * star.rho)
    assert np.array_equal(other.m_of_r, other.grid.cylinder_mass(other.rho))
    assert np.array_equal(other.m_of_r, 2.0 * star.m_of_r)
    assert other.mass == 2.0 * star.mass
    assert other.mass == pytest.approx(other.grid.integrate(other.rho), rel=1e-12)
    rs = other.grid.rs
    off = rs > 0
    want = 0.4 * mom.j(other.m_of_r[off], other.mass) / rs[off] ** 2
    assert np.array_equal(other.context.omega[off], want)
    assert not np.allclose(other.context.omega[off], star.context.omega[off])


@pytest.mark.parametrize(
    "spec, kind",
    [
        (RotationSpec(RigidLaw(), 0.1), "fixed_omega"),
        (RotationSpec(FixedTotalMomentum(), 0.3), "fixed_j"),
        (RotationSpec(), "none"),
    ],
    ids=["law", "distribution", "static"],
)
def test_rotation_kind_follows_the_profile_class(spec, kind):
    assert spec.kind == kind


@pytest.mark.parametrize(
    "profile, amp, bound",
    [
        (PowerTailLaw(1.0, 0.6, 1.0), 0.3, 2.2e-2),
        (PowerLawMomentum(1.0, 2.0), 0.4, 1.3e-2),
        (FixedTotalMomentum(), 0.5, 9.1e-3),
    ],
    ids=["power_tail", "power_j", "bb_j"],
)
def test_rotational_potential_slope_is_the_centrifugal_acceleration(
    eos53, profile, amp, bound
):
    """In both families the SCF's rotational potential has d/dr = omega^2 r,
    the acceleration ``grad_h`` adds.  Each bound is 3x the largest error
    measured at 48^2 relative to max omega^2 r on the radial support (7.3e-3,
    4.3e-3 and 3.0e-3; at 96^2 they fall fourfold, second order)."""
    solve = {"fixed_omega": solve_fixed_omega, "fixed_j": solve_fixed_j}[profile.family]
    star = solve(eos53, profile, amp, 1.0, nr=48, nz=48)
    rs = star.grid.rs
    pot = profile.rotational_potential(amp, star.grid)(star.rho)
    slope = np.gradient(pot, rs, edge_order=2)
    want = star.context.omega**2 * rs
    sup = star.context.radial_support
    assert np.max(np.abs(slope - want)[sup]) < bound * np.max(want[sup])


def test_boundary_asymptotics_targets(eos53):
    rad = solve_radial(eos53, 1.0)
    g = make_grid(1.3 * rad.radius, 1.3 * rad.radius, 140, 120, refine_at=rad.radius)
    st = solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, grid=g)
    slope1, target1 = boundary_asymptotics_check(st, 1.0)
    assert target1 == pytest.approx(2.0)
    assert abs(slope1 - target1) / target1 < 0.10
    lam = 2.0 - eos53.gamma0
    slope2, target2 = boundary_asymptotics_check(st, lam)
    assert target2 == pytest.approx(1.0)
    assert abs(slope2 - target2) / target2 < 0.10


def test_boundary_asymptotics_needs_rows(rot53):
    with pytest.raises(SolverError, match="usable radii in the fit band"):
        boundary_asymptotics_check(rot53, 1.0, band=(0.0004, 0.0005))


def test_save_load_roundtrip(tmp_path, rot53):
    path = tmp_path / "bundle"
    save_axistar(rot53, str(path))
    loaded = load_axistar(str(path))
    assert np.array_equal(loaded.rho, rot53.rho)
    assert loaded.mass == pytest.approx(rot53.mass, rel=1e-14)
    assert loaded.rotation.kind == "fixed_omega"
    assert loaded.rotation.amplitude == rot53.rotation.amplitude
    assert loaded.eos.gamma0 == rot53.eos.gamma0


def test_save_load_fixed_j_bundle(tmp_path, eos53):
    star = solve_fixed_j(eos53, FixedTotalMomentum(), 0.4, 1.0, nr=56, nz=56)
    save_axistar(star, str(tmp_path / "b"))
    loaded = load_axistar(str(tmp_path / "b"))
    assert loaded.rotation.kind == "fixed_j"
    assert loaded.rotation.amplitude == 0.4
    assert np.array_equal(loaded.rho, star.rho)


def test_save_load_tabulated_law(tmp_path, eos53):
    from rotstar.rotlaw import TabulatedLaw

    r = np.linspace(0.0, 3.0, 60)
    law = TabulatedLaw(r, np.full(60, 1.0))
    star = solve_fixed_omega(eos53, law, 0.05, 1.0, nr=48, nz=48)
    save_axistar(star, str(tmp_path / "t"))
    loaded = load_axistar(str(tmp_path / "t"))
    assert loaded.rotation.kind == "fixed_omega"
    omega = loaded.rotation.profile.omega(np.linspace(0, 2, 9))
    assert np.allclose(omega, 1.0)


@pytest.mark.parametrize(
    "spec",
    [
        RotationSpec(RigidLaw(0.7), 0.05),
        RotationSpec(PowerTailLaw(1.2, 0.4, 2.0), 0.25),
        RotationSpec(
            TabulatedLaw(np.linspace(0.0, 2.0, 6), np.linspace(1.0, 0.5, 6)),
            0.1,
        ),
        RotationSpec(FixedTotalMomentum(), 0.4),
        RotationSpec(PowerLawMomentum(1.5, 3.0), 0.2),
        RotationSpec(UnitMassMomentum(0.5, 2.5), 0.3),
        RotationSpec(),
    ],
    ids=["rigid", "power_tail", "table", "bb_j", "power_j", "unit_mass_j", "static"],
)
def test_rotation_spec_config_round_trip(spec):
    section = spec.config()
    back = RotationSpec.from_config(section)
    assert (back.kind, back.amplitude) == (spec.kind, spec.amplitude)
    assert type(back.profile) is type(spec.profile)
    assert back.config() == section
    assert (section is None) == (spec.kind == "none")


@pytest.mark.parametrize(
    "edit, name",
    [(lambda rot: rot.pop("form"), "None"), (lambda rot: rot.update(form="spiral"), "'spiral'")],
    ids=["missing", "unknown"],
)
def test_bundle_with_a_bad_rotation_form_is_a_value_error(tmp_path, rot53, edit, name):
    save_axistar(rot53, str(tmp_path / "b"))
    meta_path = tmp_path / "b" / "meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta["rotation"])
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"unknown rotation form {name}"):
        load_axistar(str(tmp_path / "b"))


def test_save_load_static_star(tmp_path, star53):
    star = axistar_from_radial(star53, nr=32, nz=32)
    save_axistar(star, str(tmp_path / "s"))
    meta = json.loads((tmp_path / "s" / "meta.json").read_text())
    assert meta["rotation"] is None
    loaded = load_axistar(str(tmp_path / "s"))
    assert loaded.rotation == RotationSpec()
    assert not loaded.context.rotating
    assert np.array_equal(loaded.rho, star.rho)

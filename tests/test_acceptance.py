"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Tolerances are pinned here once; every expected value is either a closed
form, an independently computed oracle, or a refinement-checked measurement.
Criteria run at desk scale (grids <= 256 x 256, bases <= ~200 functions).
"""

import math

import numpy as np
import pytest

from rotstar.bases import perturbation_basis
from rotstar.eos import asymptotic_polytrope, polytrope
from rotstar.equilibria import (
    axistar_from_radial,
    boundary_asymptotics_check,
    make_grid,
    solve_fixed_omega,
)
from rotstar.families import bb1974_example, scan_fixed_j, scan_fixed_omega
from rotstar.radial import (
    assemble_oracle_form,
    mass_derivative,
    solve_radial,
    surface_potential_derivative,
)
from rotstar.rotlaw import PowerLawMomentum, PowerTailLaw, RigidLaw
from rotstar.spectral import (
    assemble_meridional_form,
    evolve_second_order,
    spectrum_report,
    upsilon_range,
    velocity_basis,
)
from rotstar.stability import (
    assemble_generator,
    assemble_perturbation_energy,
    assemble_reduced_energy,
    generator_unstable_count,
    lift_azimuthal_velocity,
    mass_constraint,
    restrict_mass_zero,
)


def record(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def blend_eos():
    return asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0))


@pytest.fixture(scope="module")
def unstable_rotating_star():
    """Soft pressure law with centrifugally unstable rotation profile."""
    return solve_fixed_omega(
        polytrope(1.0, 1.3), PowerTailLaw(1.0, 0.4, 2.0), 0.25, 1.0, nr=80, nz=80
    )


@pytest.fixture(scope="module")
def merid_form(unstable_rotating_star):
    vb = velocity_basis(unstable_rotating_star, ring_knots=32, grad_deg_r=3, grad_deg_z=3)
    form = assemble_meridional_form(vb)
    lo, hi = upsilon_range(unstable_rotating_star)
    return form, lo, hi


def test_criterion_01_radial_oracles():
    mu = 1.5
    star = solve_radial(polytrope(1.0, 2.0), mu)
    k = math.sqrt(2.0 * math.pi)
    profile_err = float(np.max(np.abs(star.rho - mu * np.sinc(k * star.r / math.pi))) / mu)

    m1 = solve_radial(polytrope(1.0, 5.0 / 3.0), 1.0).mass
    m2 = solve_radial(polytrope(1.0, 5.0 / 3.0), 2.0).mass
    ratio_err = abs(m2 / m1 - math.sqrt(2.0)) / math.sqrt(2.0)
    record(
        "criterion 1 (radial oracles)",
        profile_err < 1e-4 and ratio_err < 5e-3,
        f"profile err {profile_err:.2e} (<1e-4), mass-ratio err {ratio_err:.2e} (<0.5%)",
    )


def test_criterion_02_operator_oracle_equivalence(blend_eos):
    configs = [
        (polytrope(1.0, 5.0 / 3.0), 1.0),
        (polytrope(1.0, 1.3), 1.0),
        (blend_eos, 6.0),
    ]
    details = []
    ok = True
    for eos, mu in configs:
        rad = solve_radial(eos, mu)
        axi = axistar_from_radial(rad, nr=96, nz=96)
        basis = perturbation_basis(axi)
        n_L = assemble_perturbation_energy(basis).n_minus()
        oracle = sum(
            assemble_oracle_form(rad, p).form.n_minus()
            for p in ("even", "odd")
        )
        ok &= n_L == oracle
        details.append(f"gamma0={eos.gamma0:.3g},mu={mu:g}: n-(L)={n_L} n-(oracle)={oracle}")
    record("criterion 2 (operator-oracle equivalence)", ok, "; ".join(details))


def test_criterion_03_nonrotating_verdicts():
    results = {}
    for gamma, mu in ((5.0 / 3.0, 1.0), (1.3, 1.0)):
        star = axistar_from_radial(solve_radial(polytrope(1.0, gamma), mu), nr=96, nz=96)
        basis = perturbation_basis(star)
        K = assemble_reduced_energy(basis)
        Kc = restrict_mass_zero(K, basis)
        results[gamma] = Kc.n_minus()
        if gamma == 5.0 / 3.0:
            # odd-sector kernel mode direction
            i0 = int(np.argmin(np.abs(K.eigenvalues)))
            fld = basis.combine(K.eigenvector(i0))
            rad = solve_radial(star.eos, star.mu)
            RG, ZG = star.grid.meshes()
            S = np.maximum(np.sqrt(RG**2 + ZG**2), 1e-12)
            from scipy.interpolate import PchipInterpolator

            drho = PchipInterpolator(rad.r, np.gradient(rad.rho, rad.r))
            target = np.where(S < rad.radius, drho(np.clip(S, 0, rad.radius)), 0.0) * ZG / S
            w = 2 * math.pi * np.outer(star.grid.wr * star.grid.rs, star.grid.wz_line())
            phi2 = star.context.phi2
            corr = abs(np.sum(w * phi2 * fld * target)) / math.sqrt(
                np.sum(w * phi2 * fld**2) * np.sum(w * phi2 * target**2)
            )
    ok = results[5.0 / 3.0] == 0 and results[1.3] >= 1 and corr > 0.99
    record(
        "criterion 3 (non-rotating verdicts)",
        ok,
        f"n-(5/3)={results[5.0/3.0]} (=0), n-(1.3)={results[1.3]} (>=1), kernel corr {corr:.6f} (>0.99)",
    )


def test_criterion_04_proof_identity():
    from rotstar.stability import density_form_value

    configs = ((5.0 / 3.0, 1.0, 120), (1.45, 0.8, 120), (1.3, 1.2, 160))
    devs = []
    for gamma, mu, n in configs:
        eos = polytrope(1.0, gamma)
        star = axistar_from_radial(solve_radial(eos, mu), nr=n, nz=n)
        h = 1e-3 * mu
        sp, sm = solve_radial(eos, mu + h), solve_radial(eos, mu - h)
        RG, ZG = star.grid.meshes()
        S = np.sqrt(RG**2 + ZG**2)
        dmu_field = (sp.rho_of(S) - sm.rho_of(S)) / (2 * h)
        lhs = density_form_value(star, dmu_field, "even")
        rhs = surface_potential_derivative(eos, mu) * mass_derivative(eos, mu)
        devs.append(abs(lhs - rhs) / abs(rhs))
    ok = all(d < 0.05 for d in devs)
    record(
        "criterion 4 (proof identity)",
        ok,
        "rel devs " + ", ".join(f"{d:.3f}" for d in devs) + " (<0.05)",
    )


def test_criterion_05_reduced_functional_identity():
    star = solve_fixed_omega(polytrope(1.0, 5.0 / 3.0), RigidLaw(1.0), 0.05, 1.0, nr=80, nz=80)
    basis = perturbation_basis(star)
    L = assemble_perturbation_energy(basis)
    K = assemble_reduced_energy(basis)
    v = mass_constraint(basis)
    ref = np.zeros(basis.count)
    ref[np.argmax(np.abs(v))] = 1.0
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        c = rng.standard_normal(basis.count)
        c -= (v @ c) / (v @ ref) * ref
        lift = lift_azimuthal_velocity(basis, c)
        lhs = float(c @ K.matrix @ c)
        rhs = float(c @ L.matrix @ c) + lift.energy
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    record(
        "criterion 5 (reduced-functional identity)",
        worst < 1e-8,
        f"worst rel residual {worst:.2e} over 50 draws (<1e-8)",
    )


def test_criterion_06_generator_cross_check():
    configs = [
        (polytrope(1.0, 5.0 / 3.0), RigidLaw(1.0), 0.05, 0),
        (polytrope(1.0, 1.3), RigidLaw(1.0), 0.05, 1),
        (polytrope(1.0, 5.0 / 3.0), PowerTailLaw(1.0, 1.5, 0.7), 0.08, 0),
    ]
    ok = True
    details = []
    for eos, law, kappa, expected in configs:
        for n in (64, 88):
            star = solve_fixed_omega(eos, law, kappa, 1.0, nr=n, nz=n)
            basis = perturbation_basis(star)
            Kc = restrict_mass_zero(assemble_reduced_energy(basis), basis)
            nK = Kc.n_minus()
            total, defect = 0, 0.0
            for parity in ("even", "odd"):
                gen = assemble_generator(star, parity=parity)
                c, _, d = generator_unstable_count(gen)
                total += c
                defect = max(defect, d)
            ok &= total == nK == expected and defect < 1e-8
            details.append(f"g={eos.gamma0:.2f},n={n}: gen={total} K={nK} quad={defect:.1e}")
    record("criterion 6 (generator cross-check)", ok, "; ".join(details))


def test_criterion_07_tpp_holds_fixed_j(blend_eos):
    scan = scan_fixed_j(
        blend_eos, PowerLawMomentum(1.0, 2.0), 0.3, np.geomspace(6.0, 22.0, 8),
        nr=72, nz=72,
    )
    mu = np.array([p.mu for p in scan.points])
    n_u = np.array([p.n_u for p in scan.points])
    ok = scan.tpp_verdict == "TPP-holds" and scan.mu_star_kind == "max"
    # strict one-step alignment of the transition with the mass maximum
    lo, hi, _, _ = scan.transitions[0]
    i = int(np.searchsorted(mu, lo))
    step = mu[min(i + 1, mu.size - 1)] - mu[i]
    ok &= (lo - step) <= scan.mu_star <= (hi + step)
    # counts follow the slope sign away from the extremum
    for i, p in enumerate(scan.points):
        if abs(p.mu - scan.mu_star) <= step:
            continue
        ok &= p.n_u == (1 if scan.dM_dmu[i] < 0 else 0)
    record(
        "criterion 7 (TPP holds, fixed momentum distribution)",
        ok,
        f"verdict={scan.tpp_verdict}, mu*={scan.mu_star:.3f}, flip in ({lo:.3f},{hi:.3f}), counts={list(n_u)}",
    )


def test_criterion_08_tpp_fails_fixed_omega(blend_eos):
    mu_grid = np.arange(8.5, 13.01, 0.5)
    scan = scan_fixed_omega(blend_eos, RigidLaw(1.0), 0.4, mu_grid, nr=72, nz=72)
    step = 0.5
    ok = scan.mu_star is not None and scan.mu_hat is not None
    gap = scan.mu_hat - scan.mu_star if ok else float("nan")
    ok &= gap >= step
    ok &= scan.margin_at_mu_star is not None and scan.margin_at_mu_star > 0
    ok &= scan.tpp_verdict.startswith("TPP-fails")
    # wherever the mass slope is nonnegative the star must be counted stable
    for i, p in enumerate(scan.points):
        if scan.dM_dmu[i] >= 0:
            ok &= p.n_u == 0
    record(
        "criterion 8 (TPP fails, fixed angular velocity)",
        ok,
        f"mu*={scan.mu_star:.3f}, mu_hat={scan.mu_hat:.3f}, gap={gap:.3f} (>= {step}), "
        f"margin at mu* = {scan.margin_at_mu_star:+.2e} (> 0)",
    )


def test_criterion_09_mass_minimum_example():
    scan = bb1974_example()
    mu = np.array([p.mu for p in scan.points])
    mass = np.array([p.mass for p in scan.points])
    n_u = np.array([p.n_u for p in scan.points])
    minima = [m for m, kind in scan.mass_extrema if kind == "min"]
    ok = len(minima) == 1
    mu_min = minima[0] if minima else float("nan")
    i_min = int(np.argmin(mass))
    # strictly decreasing then increasing around the minimum
    ok &= 0 < i_min < mu.size - 1
    ok &= mass[i_min - 1] > mass[i_min] < mass[i_min + 1]
    ok &= (mass[i_min - 1] - 2 * mass[i_min] + mass[i_min + 1]) > 0
    # the count flips 1 -> 0 once, within two grid intervals of the minimum
    ok &= scan.transitions and scan.transitions[0][2:] == (1, 0)
    lo, hi, _, _ = scan.transitions[0] if scan.transitions else (0, 0, 0, 0)
    j = int(np.searchsorted(mu, hi))
    ok &= (i_min - j) <= 2
    # away from the displacement window the counts follow the slope sign
    ok &= all(n_u[: max(j - 1, 1)] == 1) and all(n_u[i_min:] == 0)
    record(
        "criterion 9 (mass-minimum example)",
        bool(ok),
        f"min at mu={mu_min:.0f} (grid idx {i_min}), flip in ({lo:.0f},{hi:.0f}), "
        f"counts={list(n_u)}, verdict={scan.tpp_verdict}",
    )


def test_criterion_10_rayleigh_unstable_spectrum(unstable_rotating_star):
    star = unstable_rotating_star
    rep = spectrum_report(star, levels=3, ring_knots0=40, grad_deg_r=3, grad_deg_z=3)
    lo, hi = rep.essential_lo, rep.essential_hi
    width = hi - lo
    ok = True
    fractions = []
    for lev, lam in enumerate(rep.levels):
        delta = 0.1 * width / 2**lev
        frac = float(np.mean((lam >= lo - delta) & (lam <= hi + delta)))
        fractions.append(frac)
        ok &= frac >= 0.9
    below_counts = [int(np.sum(lam < lo - 0.1 * width)) for lam in rep.levels]
    ok &= len(set(below_counts)) == 1 and below_counts[0] >= 1
    ok &= rep.eta0 <= lo + 1e-9
    record(
        "criterion 10 (Rayleigh-unstable spectrum)",
        ok,
        f"fractions per level {['%.3f' % f for f in fractions]} (>=0.9 with halving delta), "
        f"count below -a {below_counts} (stable), eta0={rep.eta0:.4f} <= -a={lo:.4f}",
    )


def test_criterion_11_growth_rates(merid_form):
    form, ess_lo, _ = merid_form
    lam = form.eigenvalues
    eta0 = float(lam[0])
    rate0 = math.sqrt(-eta0)
    n = lam.size
    u0, v0 = np.zeros(n), np.zeros(n)
    u0[0], v0[0] = 1.0, rate0
    traj = evolve_second_order(form, u0, v0, T=8.0 / rate0, dt_factor=0.008)
    eig_dev = abs(traj.growth_rate() - rate0) / rate0
    drift = traj.energy_drift

    rng = np.random.default_rng(99)
    g0 = rng.standard_normal(n)
    g0 /= np.linalg.norm(g0)
    generic = evolve_second_order(form, g0, np.zeros(n), T=10.0 / rate0, dt_factor=0.02)
    upper_ok = generic.growth_rate() <= rate0 * 1.05

    # data projected onto the spectral window [eta0, eta0 + eps]
    a = -ess_lo
    eps = 0.5 * (-eta0 - a)
    window = lam <= eta0 + eps
    p0 = np.where(window, g0, 0.0)
    proj = evolve_second_order(form, p0, np.zeros(n), T=10.0 / rate0, dt_factor=0.02)
    lower_ok = proj.growth_rate() >= math.sqrt(-eta0 - eps) * 0.95

    ok = eig_dev < 0.01 and upper_ok and lower_ok and drift < 1e-6
    record(
        "criterion 11 (growth rates)",
        ok,
        f"eigenmode rate dev {eig_dev:.2e} (<0.01), generic {generic.growth_rate():.4f} <= "
        f"{rate0*1.05:.4f}, windowed {proj.growth_rate():.4f} >= {math.sqrt(-eta0-eps)*0.95:.4f}, "
        f"energy drift {drift:.2e} (<1e-6)",
    )


def test_criterion_12_boundary_asymptotics():
    eos = polytrope(1.0, 5.0 / 3.0)
    rad = solve_radial(eos, 1.0)
    dist = rad.radius - rad.r
    sel = (dist > 1e-6 * rad.radius) & (dist < 0.1 * rad.radius)
    rho_slope = float(np.polyfit(np.log(dist[sel]), np.log(rad.rho[sel]), 1)[0])
    rho_target = 1.0 / (eos.gamma0 - 1.0)

    g = make_grid(1.3 * rad.radius, 1.3 * rad.radius, 140, 120, refine_at=rad.radius)
    star = solve_fixed_omega(eos, RigidLaw(1.0), 0.05, 1.0, grid=g)
    s1, t1 = boundary_asymptotics_check(star, 1.0)
    s2, t2 = boundary_asymptotics_check(star, 2.0 - eos.gamma0)
    ok = (
        abs(rho_slope - rho_target) / rho_target < 0.10
        and abs(s1 - t1) / t1 < 0.10
        and abs(s2 - t2) / t2 < 0.10
    )
    record(
        "criterion 12 (boundary asymptotics)",
        ok,
        f"rho slope {rho_slope:.3f} vs {rho_target:.3f}; column fits {s1:.3f} vs {t1:.1f}, "
        f"{s2:.3f} vs {t2:.1f} (all within 10%)",
    )


def test_criterion_13_hardy_bound_stability():
    eos = polytrope(1.0, 5.0 / 3.0)
    maxima = []
    for n in (64, 96):
        star = solve_fixed_omega(eos, RigidLaw(1.0), 0.05, 1.0, nr=n, nz=n)
        basis = perturbation_basis(star)
        v = mass_constraint(basis)
        ref = np.zeros(basis.count)
        ref[np.argmax(np.abs(v))] = 1.0
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(50):
            c = rng.standard_normal(basis.count)
            c -= (v @ c) / (v @ ref) * ref
            worst = max(worst, lift_azimuthal_velocity(basis, c).ratio)
        maxima.append(worst)
    ratio = max(maxima) / min(maxima)
    record(
        "criterion 13 (Hardy-bound stability)",
        ratio < 2.0,
        f"max lift ratios {maxima[0]:.4f} / {maxima[1]:.4f}, refinement ratio {ratio:.3f} (<2)",
    )

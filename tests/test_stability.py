import inspect
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from rotstar import stability
from rotstar.bases import FactoredStack, PerturbationBasis, Term, perturbation_basis
from rotstar.equilibria import axistar_from_radial, solve_fixed_omega
from rotstar.errors import ConfigError
from rotstar.forms import VERDICT_ZERO_TOL, QuadraticForm, whiten
from rotstar.radial import solve_radial
from rotstar.rotlaw import RigidLaw
from rotstar.stability import (
    Generator,
    assemble_generator,
    assemble_perturbation_energy,
    assemble_reduced_energy,
    cumulative_cylinder_integrals,
    density_form_value,
    generator_unstable_count,
    lift_azimuthal_velocity,
    mass_constraint,
    restrict_mass_zero,
    stability_report,
)
from rotstar.spectral import LinearTrajectory, time_steps


@pytest.fixture(scope="module")
def basis53(axi53):
    return perturbation_basis(axi53)


@pytest.fixture(scope="module")
def L53(axi53, basis53):
    return assemble_perturbation_energy(basis53)


def test_energy_form_symmetric(L53):
    q = L53.matrix
    assert np.max(np.abs(q - q.T)) <= 1e-12 * np.max(np.abs(q))


def test_nonrotating_inertia(axi53, basis53, L53):
    even = basis53.parity > 0
    assert L53.n_minus() == 1
    inertia = L53.inertia()
    assert inertia.n_zero == 1  # vertical-shift mode


def test_kernel_vector_is_vertical_density_shift(axi53, basis53, L53):
    i0 = int(np.argmin(np.abs(L53.eigenvalues)))
    fld = basis53.combine(L53.eigenvector(i0))
    # exact direction for a spherical star: rho'(s) z / s
    star = solve_radial(axi53.eos, axi53.mu)
    RG, ZG = axi53.grid.meshes()
    S = np.maximum(np.sqrt(RG**2 + ZG**2), 1e-12)
    drho = np.gradient(star.rho, star.r)
    from scipy.interpolate import PchipInterpolator

    target = np.where(
        S < star.radius, PchipInterpolator(star.r, drho)(np.clip(S, 0, star.radius)), 0.0
    ) * ZG / S
    w = 2 * math.pi * np.outer(axi53.grid.wr * axi53.grid.rs, axi53.grid.wz_line())
    phi2 = axi53.context.phi2
    corr = abs(np.sum(w * phi2 * fld * target)) / math.sqrt(
        np.sum(w * phi2 * fld**2) * np.sum(w * phi2 * target**2)
    )
    assert corr > 0.99


def test_single_function_value_against_spherical_oracle(axi53, star53):
    """<L rho0, rho0> against an independent 1-D spherical quadrature."""
    val = density_form_value(axi53, axi53.rho, parity="even")
    s = np.linspace(0, star53.radius, 6000)
    f = star53.rho_of(s)
    w = np.gradient(s)
    phi2 = star53.eos.enthalpy_second(np.clip(f, 1e-290, None))
    pressure = 4 * math.pi * np.sum(w * phi2 * f**2 * s**2)
    A = f * s**2 * w
    ker = 1.0 / np.maximum.outer(np.maximum(s, 1e-12), s)
    grav = (4 * math.pi) ** 2 * float(A @ ker @ A)
    oracle = pressure - grav
    assert val == pytest.approx(oracle, rel=1e-3)


def test_reduced_equals_energy_without_rotation(axi53, basis53, L53):
    K = assemble_reduced_energy(basis53)
    assert np.array_equal(K.matrix, L53.matrix)


def test_reduced_correction_psd(rot53):
    basis = perturbation_basis(rot53)
    L = assemble_perturbation_energy(basis)
    K = assemble_reduced_energy(basis)
    diff = K.matrix - L.matrix
    w = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    assert w[0] >= -1e-12 * max(w[-1], 1e-300)


def test_odd_rows_unchanged_by_rotation(rot53):
    basis = perturbation_basis(rot53)
    L = assemble_perturbation_energy(basis)
    K = assemble_reduced_energy(basis)
    odd = basis.parity < 0
    assert np.array_equal(K.matrix[odd][:, odd], L.matrix[odd][:, odd])


def test_constrained_counts(axi53, axi13):
    for star, expected in ((axi53, 0), (axi13, 1)):
        basis = perturbation_basis(star)
        K = assemble_reduced_energy(basis)
        Kc = restrict_mass_zero(K, basis)
        assert Kc.n_minus() == expected


def test_interlacing(axi13):
    basis = perturbation_basis(axi13)
    K = assemble_reduced_energy(basis)
    Kc = restrict_mass_zero(K, basis)
    drop = K.n_minus() - Kc.n_minus()
    assert drop in (0, 1)


def test_cumulative_cylinder_integrals_match_per_field_trapezoid(axi53, basis53):
    g = axi53.grid
    F = cumulative_cylinder_integrals(basis53)
    for k in range(basis53.count):
        ref = np.zeros(g.nr)
        if basis53.parity[k] > 0:
            integrand = g.rs * g.z_integral(basis53.fields[k])
            ref[1:] = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(g.rs))
        assert np.array_equal(F[k], ref)  # odd fields exactly zero
    assert np.array_equal(g.cylinder_mass(basis53.fields[0]), F[0])


def test_constraint_vacuous_flag(axi53):
    basis = perturbation_basis(axi53, parity="odd")
    K = assemble_reduced_energy(basis)
    Kc = restrict_mass_zero(K, basis)
    assert Kc.constraint_vacuous


def test_eigenvalue_ordering_between_restricted_forms(rot53):
    basis = perturbation_basis(rot53)
    L = assemble_perturbation_energy(basis)
    K = assemble_reduced_energy(basis)
    Lc = restrict_mass_zero(L, basis)
    Kc = restrict_mass_zero(K, basis)
    n = min(Lc.eigenvalues.size, Kc.eigenvalues.size)
    assert np.all(Kc.eigenvalues[:n] >= Lc.eigenvalues[:n] - 1e-10)


# -- azimuthal lift -----------------------------------------------------------


def _random_constrained_coeffs(basis, rng):
    c = rng.standard_normal(basis.count)
    v = mass_constraint(basis)
    ref = np.zeros_like(c)
    ref[np.argmax(np.abs(v))] = 1.0
    c -= (v @ c) / (v @ ref) * ref if abs(v @ ref) > 0 else 0.0
    return c


def test_lift_identity_for_random_constrained(rot53, power_j48, eos53):
    # power_j48 has dj/dp(0) = 0: no rotation on the axis, Upsilon(0) = 0
    assert power_j48.context.ups[0] == 0.0
    from rotstar.equilibria import solve_fixed_omega
    from rotstar.rotlaw import PowerTailLaw

    # criterion 6's Rayleigh-stable differentially rotating star
    power_tail = solve_fixed_omega(eos53, PowerTailLaw(1.0, 1.5, 0.7), 0.08, 1.0, nr=48, nz=48)
    for star in (rot53, power_j48, power_tail):
        basis = perturbation_basis(star)
        L = assemble_perturbation_energy(basis)
        K = assemble_reduced_energy(basis)
        rng = np.random.default_rng(42)
        for _ in range(10):
            c = _random_constrained_coeffs(basis, rng)
            lift = lift_azimuthal_velocity(basis, c)
            lhs = float(c @ K.matrix @ c)
            rhs = float(c @ L.matrix @ c) + lift.energy
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-300)


def test_lift_integrates_the_basis_once(rot53, monkeypatch):
    basis = perturbation_basis(rot53)
    c = _random_constrained_coeffs(basis, np.random.default_rng(1))
    calls = []
    real = stability.cumulative_cylinder_integrals
    monkeypatch.setattr(
        stability, "cumulative_cylinder_integrals", lambda *a: calls.append(a) or real(*a)
    )
    lift_azimuthal_velocity(basis, c)
    assert len(calls) == 1


def test_lift_odd_perturbation_vanishes(rot53):
    basis = perturbation_basis(rot53)
    c = np.zeros(basis.count)
    odd = np.nonzero(basis.parity < 0)[0]
    c[odd[0]] = 1.0
    lift = lift_azimuthal_velocity(basis, c)
    assert np.max(np.abs(lift.u_theta)) == 0.0
    assert lift.energy == 0.0


def test_lift_requires_zero_mass(rot53):
    basis = perturbation_basis(rot53)
    v = mass_constraint(basis)
    c = np.zeros(basis.count)
    c[np.argmax(np.abs(v))] = 1.0
    with pytest.raises(ValueError):
        lift_azimuthal_velocity(basis, c)


def test_hardy_ratio_stable_under_refinement(eos53):
    from rotstar.equilibria import solve_fixed_omega
    from rotstar.rotlaw import RigidLaw

    maxima = []
    for n in (64, 96):
        st = solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=n, nz=n)
        basis = perturbation_basis(st)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            c = _random_constrained_coeffs(basis, rng)
            worst = max(worst, lift_azimuthal_velocity(basis, c).ratio)
        maxima.append(worst)
    ratio = max(maxima) / min(maxima)
    assert ratio < 2.0


# -- generator ----------------------------------------------------------------


@pytest.fixture(scope="module")
def generator_of():
    """``generator_of(star, parity)``: the generator read from the star's 8x4
    basis and its energy form, both built once per star."""
    forms = {}

    def build(star, parity):
        if id(star) not in forms:
            basis = perturbation_basis(star, deg_r=8, deg_z=4)
            forms[id(star)] = basis, assemble_perturbation_energy(basis)
        return assemble_generator(*forms[id(star)], parity)

    return build


def test_generator_counts_match_reduced_form(rot53, rot13):
    """At the default basis the generator counts what the reduced form
    counts, so both give one verdict, and its spectrum is Hamiltonian."""
    for star, expected in ((rot53, 0), (rot13, 1)):
        basis = perturbation_basis(star)
        Kc = restrict_mass_zero(assemble_reduced_energy(basis), basis)
        assert Kc.n_minus() == expected
        L = assemble_perturbation_energy(basis)
        total = 0
        for parity in ("even", "odd"):
            gen = assemble_generator(basis, L, parity)
            total += generator_unstable_count(gen)[0]
            assert gen.quadruple_defect() < 1e-10
        assert total == expected


def test_generator_quadruple_symmetry(rot13, generator_of):
    gen = generator_of(rot13, "even")
    lam = gen.eigenvalues()
    scale = np.max(np.abs(lam))
    for v in (lam[np.argmax(lam.real)], lam[np.argmax(np.abs(lam.imag))]):
        assert np.min(np.abs(lam - np.conj(v))) < 1e-8 * scale
        assert np.min(np.abs(lam + v)) < 1e-8 * scale


def test_generator_is_defined_by_its_two_blocks(eos53):
    """``Generator(P, Lh)`` of the README star (rigid kappa 0.05 at 96^2):
    the coordinate counts come from P's shape (27 density plus 27 azimuthal,
    26 meridional), and the matrix equals its block formula, also as
    ``assemble_generator`` built it."""
    from rotstar.equilibria import solve_fixed_omega
    from rotstar.rotlaw import RigidLaw

    star = solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=96, nz=96)
    basis = perturbation_basis(star, deg_r=8, deg_z=4)
    built = assemble_generator(basis, assemble_perturbation_energy(basis), "even")
    gen = Generator(built.P, built.Lh)
    nq = 54
    assert gen.P.shape == (nq, 26) and gen.Lh.shape == (nq, nq)
    want = np.zeros((80, 80))
    want[:nq, nq:] = gen.P
    want[nq:, :nq] = -gen.P.T @ gen.Lh
    assert np.array_equal(gen.matrix, want)
    assert np.array_equal(gen.matrix, built.matrix)


def test_generator_needs_rotation(basis53, L53):
    with pytest.raises(ValueError):
        assemble_generator(basis53, L53, "even")


def test_generator_needs_shapes_of_its_parity(rot53):
    basis = perturbation_basis(rot53, deg_r=4, deg_z=2, parity="even")
    with pytest.raises(ValueError, match="odd basis shapes"):
        assemble_generator(basis, assemble_perturbation_energy(basis), "odd")


def test_report_runs_the_generator_on_each_sector_with_shapes(rot53):
    """A deg_z = 0 basis's odd sector is the shift direction alone, with no
    tensor shape and so no generator: the report runs the generator on the
    even sector only, as for the even basis.  A basis with no shapes in any
    sector has no generator at all."""
    both = stability_report(perturbation_basis(rot53, deg_r=4, deg_z=0), with_generator=True)
    even = stability_report(perturbation_basis(rot53, deg_r=4, deg_z=0, parity="even"),
                            with_generator=True)
    for key in ("generator_unstable_count", "generator_n_zero", "growth_rate"):
        assert both[key] == even[key]
    odd = perturbation_basis(rot53, deg_r=4, deg_z=0, parity="odd")
    assert stability_report(odd)["n_minus_L"] >= 0
    with pytest.raises(ValueError, match="the generator needs basis shapes"):
        stability_report(odd, with_generator=True)


@pytest.mark.parametrize("T, dt, n", [(1.0, 0.3, 4), (0.5, 0.3, 2), (0.001, 0.3, 1), (0.9, 0.3, 3),
                                      (2.1, 0.7, 3), (0.07, 0.01, 7), (2.7, 0.3, 9)])
def test_time_steps_end_at_T(T, dt, n):
    """ceil(T / dt) equal steps, none longer than dt, the last time T; a T
    within round-off of a whole number of dt takes that number (2.1 / 0.7
    reads 3.0000000000000004, 2.7 / 0.3 two ulp above 9)."""
    n_steps, times = time_steps(T, dt)
    assert n_steps == n and times.size == n + 1
    assert times[0] == 0.0 and times[-1] == T
    # the step T / n is at most dt, or dt to round-off for a whole number
    assert T / n <= dt * (1.0 + 1e-12)
    assert np.allclose(np.diff(times), T / n, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
def test_time_steps_need_a_positive_T(T):
    with pytest.raises(ValueError, match="T must be positive"):
        time_steps(T, 0.1)


def test_growth_rate_of_a_one_step_run():
    """Two samples, the norm growing by e^0.3 over 0.5: the fit reads both."""
    traj = LinearTrajectory(np.array([0.0, 0.5]), np.zeros(2), np.exp([0.0, 0.3]), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert traj.growth_rate() == pytest.approx(0.6, abs=1e-12)


def test_verdict_equivalence(rot53, rot13):
    for star in (rot53, rot13):
        basis = perturbation_basis(star)
        Kc = restrict_mass_zero(assemble_reduced_energy(basis), basis)
        reduced_stable = Kc.n_minus() == 0
        L = assemble_perturbation_energy(basis)
        lam = np.concatenate(
            [assemble_generator(basis, L, p).eigenvalues() for p in ("even", "odd")]
        )
        scale = np.max(np.abs(lam))
        generator_stable = np.max(lam.real) < 1e-6 * scale
        assert reduced_stable == generator_stable


@pytest.mark.parametrize("degree", [(8, 4), (10, 6)])
def test_generator_count_is_the_symmetric_reduction_of_eig(rot13, degree):
    """The growing pairs counted on S = P^T Lh P are the full matrix's
    eigenvalues with real part above 1e-6 of its spectral radius, at the
    same growth rate, and each is counted or in the band by the energy
    quotient of its eigenvector's (density, azimuthal) part.  The true
    mode's quotient clears the band tenfold at the default 10x6 basis only
    (8.5-fold at 8x4)."""
    basis = perturbation_basis(rot13, *degree)
    L = assemble_perturbation_energy(basis)
    quotients = []
    for parity in ("even", "odd"):
        gen = assemble_generator(basis, L, parity)
        count, growth, n_zero = generator_unstable_count(gen)
        lam, vec = np.linalg.eig(gen.matrix)
        grows = np.flatnonzero(lam.real > 1e-6 * np.max(np.abs(lam)))
        assert count + n_zero == grows.size
        q = vec[: gen.P.shape[0], grows]
        quot = np.einsum("ik,ij,jk->k", q.conj(), gen.Lh, q).real / np.sum(abs(q) ** 2, 0)
        quot /= np.linalg.norm(gen.Lh, 2)
        assert count == np.sum(quot < -VERDICT_ZERO_TOL)
        if count:
            assert growth == pytest.approx(np.max(lam.real), rel=1e-10)
        quotients.extend(quot)
    assert len(quotients) == 1
    if degree == (10, 6):
        assert quotients[0] <= -10 * VERDICT_ZERO_TOL


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_generator_blocks_are_sub_blocks_of_the_basis_energy(rot53, rot13, parity):
    """The generator's density fields, the sector's tensor shapes, are the
    first rows of the basis's sector bit for bit, so its blocks read from
    the basis's energy form equal ``energy_blocks`` on its own fields to
    round-off."""
    for star in (rot53, rot13):
        basis = perturbation_basis(star, deg_r=10, deg_z=6)
        L = assemble_perturbation_energy(basis)
        sector = basis.sectors[parity]
        fields = sector.shapes.values() * star.context.inv_phi2[None]
        rows = slice(sector.rows.start, sector.rows.start + fields.shape[0])
        assert np.array_equal(fields, basis.fields[rows])
        pressure, grav = stability.energy_blocks(star, fields, parity)
        for own, read in ((pressure, L.gram[rows, rows]), (pressure + grav, L.matrix[rows, rows])):
            assert np.max(np.abs(own - read)) <= 1e-13 * np.max(np.abs(own))


def test_energy_form_is_block_diagonal_by_sector(rot53):
    """Opposite parities do not couple: the cross-sector blocks of L are
    exact zeros, and each sector's block is the energy form of the basis
    of that parity alone, bit for bit."""
    basis = perturbation_basis(rot53, deg_r=6, deg_z=4)
    L = assemble_perturbation_energy(basis)
    even, odd = basis.sectors["even"].rows, basis.sectors["odd"].rows
    for m in (L.matrix, L.gram):
        assert not np.any(m[even, odd]) and not np.any(m[odd, even])
    for name, rows in (("even", even), ("odd", odd)):
        alone = assemble_perturbation_energy(perturbation_basis(rot53, 6, 4, parity=name))
        assert np.array_equal(L.matrix[rows, rows], alone.matrix)
        assert np.array_equal(L.gram[rows, rows], alone.gram)


def test_energy_assembly_memory_is_bounded(axi53):
    """Each sector's potentials are solved from its view of the basis, one
    sector at a time: the 10x6 basis at 96^2 (5.8 MB of fields) assembles
    in 5.9 MB above its start (measured; solving the mixed stack, gathered
    by parity, took 10.3 MB).  The bound is 7 MB."""
    import tracemalloc

    basis = perturbation_basis(axi53, deg_r=10, deg_z=6)
    axi53.kernel  # built once per star, outside the measurement
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assemble_perturbation_energy(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 7e6


def test_generator_flags_an_in_band_pair_on_a_larger_basis(eos53):
    """On a 12x8 basis of the README star (rigid kappa 0.05 at 96^2) one
    odd pair grows at 7.4e-3 with energy quotient -3.1e-5, inside the
    verdict band: the generator does not count it, agreeing with the
    reduced form, and reports it as in the band."""
    from rotstar.equilibria import solve_fixed_omega
    from rotstar.rotlaw import RigidLaw

    star = solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=96, nz=96)
    report = stability_report(perturbation_basis(star, deg_r=12, deg_z=8), with_generator=True)
    assert report["generator_unstable_count"] == report["n_minus_K_constrained"] == 0
    assert report["generator_n_zero"] == 1
    assert report["growth_rate"] == 0.0


def test_stability_report_schema(rot53):
    report = stability_report(perturbation_basis(rot53), with_generator=True)
    assert set(report) >= {"n_minus_L", "n_minus_K_constrained", "n_zero", "verdict"}
    assert report["verdict"] == "stable"
    assert report["generator_unstable_count"] == report["generator_n_zero"] == 0


@pytest.mark.parametrize("with_generator", [False, True])
def test_report_assembles_the_energy_form_once(rot53, monkeypatch, with_generator):
    """The report's reduced form is the rotational correction of its own L:
    equal to ``assemble_reduced_energy`` with one energy assembly, which
    the generator reads too, and one ``energy_blocks`` call per sector."""
    basis = perturbation_basis(rot53)
    K = assemble_reduced_energy(basis)
    assemblies, blocks, forms = [], [], []
    real_assembly = stability.assemble_perturbation_energy
    real_blocks, real_restrict = stability.energy_blocks, stability.restrict_mass_zero
    monkeypatch.setattr(
        stability, "assemble_perturbation_energy", lambda b: assemblies.append(b) or real_assembly(b)
    )
    monkeypatch.setattr(
        stability, "energy_blocks", lambda *a: blocks.append(a) or real_blocks(*a)
    )
    monkeypatch.setattr(
        stability, "restrict_mass_zero", lambda f, b: forms.append(f) or real_restrict(f, b)
    )
    stability_report(basis, with_generator=with_generator)
    assert len(assemblies) == 1
    assert [a[2] for a in blocks] == list(basis.sectors) == ["even", "odd"]
    assert np.array_equal(forms[0].matrix, K.matrix)
    assert np.array_equal(forms[0].gram, K.gram)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_one_sector_report_runs_the_generator_on_its_sector(rot13, parity):
    """A basis of one parity gets the generator of that sector alone (it
    used to ask for the other sector's shapes and raise)."""
    basis = perturbation_basis(rot13, deg_r=6, deg_z=4, parity=parity)
    report = stability_report(basis, with_generator=True)
    count, growth, n_zero = generator_unstable_count(
        assemble_generator(basis, assemble_perturbation_energy(basis), parity)
    )
    assert report["generator_unstable_count"] == count
    assert report["generator_n_zero"] == n_zero
    assert report["growth_rate"] == growth


def test_stable_report_growth_rate_is_zero(rot53):
    # no pair grows past the round-off screen, so none counts
    assert stability_report(perturbation_basis(rot53), with_generator=True)["growth_rate"] == 0.0


def test_pair_integrals_match_einsum():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 9, 7))
    b = rng.standard_normal((3, 9, 7))
    weight = rng.random((9, 7))
    got = stability.pair_integrals(a, b, weight)
    ref = np.einsum("aij,bij,ij->ab", a, b, weight)
    assert got.shape == (5, 3)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(stability.pair_integrals(a[:0], b, weight), np.zeros((0, 3)))
    assert np.array_equal(stability.pair_integrals(a, b[:0], weight), np.zeros((5, 0)))


@pytest.mark.parametrize("J", [6, 9, 0])
def test_pair_integrals_sum_only_radii_with_nonzero_weight(J):
    """Radii past the last nonzero weight row are never read: NaN there
    leaves the product equal to the full-grid contraction of clean stacks."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 9, 7))
    b = rng.standard_normal((6, 9, 7))
    weight = rng.random((9, 7))
    weight[J:] = 0.0
    if J:
        weight[J - 1, :3] = 0.0  # a partly zero last row still counts
    ref = np.einsum("aij,bij,ij->ab", a, b, weight)
    a[:, J:] = np.nan
    b[:, J:] = np.nan
    got = stability.pair_integrals(a, b, weight)
    assert got.shape == (4, 6)
    if J == 0:
        assert np.array_equal(got, np.zeros((4, 6)))
    else:
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _random_factored(rng, n, nr, nz, n_terms, with_profiles):
    """A random factored stack of n members: every term has its own
    vertical table and covers its own run of members, the first term the
    last ones, so the others leave some members out."""
    terms = []
    for t in range(n_terms):
        n_v = 1 + t
        start = int(rng.integers(0, n // 2 + 1))
        stop = n if t == 0 else int(rng.integers(start, n + 1))
        index = rng.integers(0, n_v, stop - start)
        profile = rng.standard_normal((nr, nz)) if with_profiles else None
        if profile is not None:
            profile[rng.random(nr) < 0.3] = 0.0  # zero on some radii
        terms.append(Term(rng.standard_normal((stop - start, nr)), rng.standard_normal((n_v, nz)),
                          index, profile, start))
    return FactoredStack(tuple(terms))


@pytest.mark.parametrize("n_a, n_b", [(7, 5), (0, 4), (6, 0)])
@pytest.mark.parametrize("trailing", [0, 4])
def test_factored_pair_integrals_match_dense(n_a, n_b, trailing):
    """The z-then-r product of two factored stacks equals ``pair_integrals``
    of their dense stacks (empty families give empty blocks), and the dense
    stack is the sum of its terms built member by member."""
    rng = np.random.default_rng(n_a + 10 * n_b + trailing)
    nr, nz = 11, 9
    a = _random_factored(rng, n_a, nr, nz, 3, True)
    b = _random_factored(rng, n_b, nr, nz, 2, n_b % 2 == 0)
    weight = rng.random((nr, nz))
    weight[nr - trailing:] = 0.0  # trailing radii of zero weight
    da, db = a.dense(), b.dense()
    for stack, dense in ((a, da), (b, db)):
        ref = np.zeros_like(dense)
        for t in stack.terms:
            p = 1.0 if t.profile is None else t.profile
            for k, v in enumerate(t.index):
                ref[t.start + k] += np.outer(t.radial[k], t.vertical[v]) * p
        assert np.allclose(dense, ref, rtol=0, atol=1e-14 * max(np.max(np.abs(ref), initial=0), 1))
    got = stability.factored_pair_integrals(a, b, weight)
    want = stability.pair_integrals(da, db, weight)
    assert got.shape == want.shape == (n_a, n_b)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=0.0)


def _dense_generator(basis, energy, parity):
    """Reference: the generator's Galerkin products from dense (n, nr, nz)
    shape stacks, each a broadcast product of the tensor shapes' tables,
    through ``pair_integrals``; and its (P, Lh) whitened from them."""
    star = basis.star
    ctx, g = star.context, star.grid
    # the kinetic weight 4 omega^2 / Upsilon on the radial support off the axis
    off = ctx.radial_support & (g.rs > 0)
    aw = np.zeros_like(g.rs)
    aw[off] = 4.0 * ctx.omega[off] ** 2 / ctx.ups[off]
    sector = basis.sectors[parity]
    dens = sector.shapes
    n = len(dens.degrees)
    rows = list(range(sector.rows.start, sector.rows.start + n))

    def stack(pr, pz):
        return (pr[None, :, :, None] * pz[:, None, None, :]).reshape(n, g.nr, g.nz)

    (Pr, dPr), (Pz, dPz) = dens.radial, dens.vertical
    vals, gr, gz = stack(Pr, Pz), stack(dPr, Pz), stack(Pr, dPz)
    rho = np.where(ctx.mask, star.rho, 0.0)
    rho_w = ctx.weights * rho
    pi = stability.pair_integrals
    dor = stability.d_omega_r2_over_r(ctx.omega, ctx.d_om_r2, g.rs)
    products = (
        pi(vals, vals, rho_w),
        pi(vals, vals, ctx.weights * aw[:, None] * rho),
        pi(gr, gr, rho_w) + pi(gz, gz, rho_w),
        -pi(vals, gr, rho_w * dor[:, None]),
    )
    G2, Aq, grads, coupling = products
    keep = [k for k, d in enumerate(dens.degrees) if d != (0, 0)]
    G1, Lq = (m[np.ix_(rows, rows)] for m in (energy.gram, energy.matrix))
    B1, B2, BY = (whiten(m) for m in (G1, G2, grads[np.ix_(keep, keep)]))
    Lt, At = B1.T @ Lq @ B1, B2.T @ Aq @ B2
    P = np.vstack([B1.T @ grads[:, keep] @ BY, B2.T @ coupling[:, keep] @ BY])
    Lh = scipy.linalg.block_diag(0.5 * (Lt + Lt.T), 0.5 * (At + At.T))
    return dens, products, Generator(P, Lh)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_generator_matches_dense_stack_reference(rot13, parity):
    """The generator's four Galerkin products, factored, equal those of
    dense shape stacks within 1e-12 of their largest entries (measured
    <= 8e-16).  Whitening by Grams of condition up to 6e11 amplifies that
    round-off in P and Lh themselves (up to 2e-5 in the odd Lh at 10x6),
    so those are checked by their shapes and their counts."""
    basis = perturbation_basis(rot13, deg_r=10, deg_z=6)
    L = assemble_perturbation_energy(basis)
    dens, products, ref = _dense_generator(basis, L, parity)
    for got, want in zip(stability._sector_products(rot13, dens), products):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    gen = assemble_generator(basis, L, parity)
    assert gen.P.shape == ref.P.shape and gen.Lh.shape == ref.Lh.shape
    count, growth, n_zero = generator_unstable_count(gen)
    want_count, want_growth, want_zero = generator_unstable_count(ref)
    assert (count, n_zero) == (want_count, want_zero)
    assert growth == pytest.approx(want_growth, rel=1e-6)


def test_generator_reads_rho0_on_its_support_only(eos53):
    """A node inside R0 but above the surface, bumped to half the density
    floor, stays off the support: the generator's Galerkin products weigh
    by the context's rho0, so P and Lh do not move."""
    import dataclasses

    from rotstar.equilibria import solve_fixed_omega
    from rotstar.rotlaw import RigidLaw

    star = solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=32, nz=32)
    above = (star.rho == 0) & (star.grid.rs[:, None] <= star.support_radius)
    i, j = np.argwhere(above & (star.context.weights > 0))[0]
    rho = star.rho.copy()
    rho[i, j] = 0.5 * star.floor
    bumped = dataclasses.replace(star, rho=rho)
    assert np.array_equal(bumped.context.mask, star.context.mask)
    gens = []
    for s in (star, bumped):
        basis = perturbation_basis(s, deg_r=4, deg_z=2, parity="even")
        gens.append(assemble_generator(basis, assemble_perturbation_energy(basis)))
    assert np.array_equal(gens[0].P, gens[1].P)
    assert np.array_equal(gens[0].Lh, gens[1].Lh)


def test_quadruple_defect_equals_per_eigenvalue_loop(rot13, generator_of):
    gen = generator_of(rot13, "odd")
    lam = gen.eigenvalues()
    scale = np.max(np.abs(lam)) + 1e-300
    defect = 0.0
    for v in lam:
        defect = max(defect, float(np.min(np.abs(lam + v))) / scale)
    assert gen.quadruple_defect() == defect


def test_reduced_form_rejects_rayleigh_unstable(rayleigh_unstable_star):
    basis = perturbation_basis(rayleigh_unstable_star, deg_r=4, deg_z=2)
    with pytest.raises(ValueError, match="meridional"):
        assemble_reduced_energy(basis)


def test_generator_and_lift_reject_rayleigh_unstable(rayleigh_unstable_star):
    basis = perturbation_basis(rayleigh_unstable_star, deg_r=4, deg_z=2)
    energy = assemble_perturbation_energy(basis)
    with pytest.raises(ConfigError, match=r"centrifugally \(Rayleigh\) stable rotation"):
        assemble_generator(basis, energy, "even")
    with pytest.raises(ConfigError, match=r"centrifugally \(Rayleigh\) stable rotation"):
        lift_azimuthal_velocity(basis, np.zeros(basis.count))


class _DippedRigidLaw(RigidLaw):
    """A rigid law whose grid Upsilon reads -1e-14 at radius index 5."""

    def grid_profiles(self, amp, rs, m, h1):
        omega, d_om_r2, ups = super().grid_profiles(amp, rs, m, h1)
        ups[5] = -1e-14
        return omega, d_om_r2, ups


def test_one_rayleigh_rule_admits_each_analysis(eos53):
    """A rigid kappa 0.05 star whose Upsilon dips to -1e-14 at one support
    radius is not Rayleigh stable: the first-order report refuses it and
    the meridional form takes it.  (A form that read the minimum of an
    interpolated Upsilon missed the dip and refused both.)"""
    from rotstar.spectral import assemble_meridional_form, velocity_basis

    star = solve_fixed_omega(eos53, _DippedRigidLaw(1.0), 0.05, 1.0, nr=32, nz=32)
    ctx = star.context
    assert ctx.radial_support[5] and ctx.ups[5] == -1e-14
    assert np.all(np.delete(ctx.ups, 5) > 0)
    with pytest.raises(ConfigError, match="Rayleigh unstable on this star"):
        stability_report(perturbation_basis(star, deg_r=4, deg_z=2))
    form = assemble_meridional_form(velocity_basis(star, ring_knots=8))
    assert np.all(np.isfinite(form.eigenvalues))
    assert not ctx.rayleigh_stable


def test_fixed_j_weight_agrees_with_induced_law(eos53):
    """The momentum-distribution form of the rotational weight must agree
    with the discriminant of the induced angular-velocity profile."""
    from scipy.interpolate import PchipInterpolator

    from rotstar.equilibria import solve_fixed_j
    from rotstar.rotlaw import PowerLawMomentum, discriminant, omega_from_j

    mom = PowerLawMomentum(1.0, 2.0)
    star = solve_fixed_j(eos53, mom, 0.4, 1.0, nr=96, nz=96)
    w_direct, sup = star.context.rot_weight, star.context.radial_support

    rs = star.grid.rs
    m_interp = PchipInterpolator(rs, star.m_of_r)
    law = omega_from_j(mom, m_interp, star.mass, star.rotation.amplitude, rs)
    ups_spline = discriminant(law, rs)
    h1 = star.context.h1
    interior = sup & (rs > 0.05 * star.support_radius) & (
        rs < 0.9 * star.support_radius
    )
    w_spline = ups_spline[interior] / (rs[interior] * h1[interior])
    rel = np.abs(w_spline - w_direct[interior]) / np.max(np.abs(w_direct[interior]))
    assert np.max(rel) < 5e-3


@pytest.fixture(scope="module")
def power_j48(eos53):
    from rotstar.equilibria import solve_fixed_j
    from rotstar.rotlaw import PowerLawMomentum

    return solve_fixed_j(eos53, PowerLawMomentum(1.0, 2.0), 0.4, 1.0, nr=48, nz=48)


def _family_closed_forms(star):
    """Centrifugal acceleration and reduced weight written per family:
    kappa^2 omega^2 r and kappa^2 d(omega^2 r^4)/dr / (r^4 h1), expanded as
    2 omega omega' r^4 + 4 omega^2 r^3, for a fixed angular velocity,
    eps^2 J / r^3 and eps^2 dJ/dp / r^3 = eps^2 2 j dj/dp / r^3 for a fixed
    momentum distribution (zero on the axis, the weight also off the
    radial support)."""
    rs, rot = star.grid.rs, star.rotation
    h1 = star.context.h1
    off = rs > 0
    sup = off & star.context.radial_support
    grad, weight = np.zeros_like(rs), np.zeros_like(rs)
    if rot.kind == "fixed_omega":
        grad = rot.amplitude**2 * np.asarray(rot.profile.omega(rs)) ** 2 * rs
        r = rs[sup]
        om, slope = rot.profile.omega(r), rot.profile.omega_slope(r)
        d_om2_r4 = 2.0 * om * slope * r**4 + 4.0 * om**2 * r**3
        weight[sup] = rot.amplitude**2 * d_om2_r4 / (r**4 * h1[sup])
    else:
        m, M = star.m_of_r, star.mass
        grad[off] = rot.amplitude**2 * rot.profile.J(m[off], M) / rs[off] ** 3
        dJ = 2.0 * rot.profile.j(m[sup], M) * rot.profile.dj_dp(m[sup], M)
        weight[sup] = rot.amplitude**2 * dJ / rs[sup] ** 3
    return grad, weight


@pytest.mark.parametrize("name", ["rayleigh_unstable_star", "power_j48"])
def test_profiles_give_each_family_its_gradient_and_weight(request, name):
    """The centrifugal gradient omega^2 r and the context's weight
    Upsilon / (r h1), both from the rotation profiles, equal the per-family
    formulas."""
    star = request.getfixturevalue(name)
    grad, weight = _family_closed_forms(star)
    rotp = star.context.omega**2 * star.grid.rs
    assert np.max(np.abs(rotp - grad)) <= 1e-13 * np.max(np.abs(grad))
    w = star.context.rot_weight
    off = star.context.radial_support & (star.grid.rs > 0)
    assert np.all(w[~off] == 0)
    assert np.max(np.abs(w[off] - weight[off])) <= 1e-13 * np.max(np.abs(weight[off]))


def test_analyses_of_a_basis_take_no_star():
    """A basis carries its star: no analysis of a basis takes a second one."""
    from rotstar import spectral

    analyses = (
        assemble_perturbation_energy,
        cumulative_cylinder_integrals,
        mass_constraint,
        assemble_reduced_energy,
        restrict_mass_zero,
        lift_azimuthal_velocity,
        assemble_generator,
        stability_report,
        spectral.assemble_meridional_form,
    )
    for fn in analyses:
        assert "star" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("family", ["fixed_omega", "fixed_j"])
def test_static_star_of_a_rotating_family(eos53, family):
    """kappa = 0 or eps = 0 gives a static star: the reduced form is the
    energy form, and the lift and the generator refuse it."""
    from rotstar.equilibria import solve_fixed_j, solve_fixed_omega
    from rotstar.rotlaw import FixedTotalMomentum, RigidLaw

    if family == "fixed_omega":
        star = solve_fixed_omega(eos53, RigidLaw(1.0), 0.0, 1.0, nr=48, nz=48)
    else:
        star = solve_fixed_j(eos53, FixedTotalMomentum(), 0.0, 1.0, nr=48, nz=48)
    assert not star.context.rotating
    basis = perturbation_basis(star, deg_r=6, deg_z=2)
    K = assemble_reduced_energy(basis)
    assert np.array_equal(K.matrix, assemble_perturbation_energy(basis).matrix)
    with pytest.raises(ValueError, match="needs a rotating star"):
        assemble_generator(basis, K, "even")
    with pytest.raises(ValueError, match="needs a rotating star"):
        lift_azimuthal_velocity(basis, np.zeros(basis.count))

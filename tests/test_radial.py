import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from rotstar import radial
from rotstar.cli import EXIT_OK, main
from rotstar.eos import asymptotic_polytrope, polytrope
from rotstar.errors import SolverError
from rotstar.radial import (
    assemble_oracle_form,
    family_scan_radial,
    mass_derivative,
    solve_radial,
)


def test_linear_pressure_response_profile(tmp_path):
    # gamma = 2: rho = mu sin(k r)/(k r), k = sqrt(2 pi), R = pi / k
    mu = 1.5
    star = solve_radial(polytrope(1.0, 2.0), mu)
    k = math.sqrt(2.0 * math.pi)
    exact = mu * np.sinc(k * star.r / math.pi)
    assert np.max(np.abs(star.rho - exact)) / mu < 1e-4
    assert star.radius == pytest.approx(math.pi / k, rel=1e-8)


@pytest.mark.parametrize("mu", [0.3, 1.0, 7.0])
def test_linear_pressure_response_star_is_exact(mu):
    """gamma 2, c 1: theta = sin(xi)/xi, so R = pi a and M = 4 pi^2 mu a^3
    with a = sqrt(h(mu) / (4 pi mu)); the bounds leave room above the
    errors of a DOP853 integration at TOL (1.8e-12, 8.9e-12, 1.8e-11)."""
    eos = polytrope(1.0, 2.0)
    star = solve_radial(eos, mu)
    y0 = eos.enthalpy(mu)
    a = math.sqrt(y0 / (4.0 * math.pi * mu))
    assert star.radius == pytest.approx(math.pi * a, rel=1e-11, abs=0.0)
    assert star.mass == pytest.approx(4.0 * math.pi**2 * mu * a**3, rel=3e-11, abs=0.0)
    assert star.r.size == radial.N_PROFILE
    theta = np.sinc(star.r / (math.pi * a))
    assert np.max(np.abs(star.enthalpy / y0 - theta)) <= 5e-11


def test_mass_scaling_gamma53(eos53):
    m1 = solve_radial(eos53, 1.0).mass
    m2 = solve_radial(eos53, 2.0).mass
    assert m2 / m1 == pytest.approx(math.sqrt(2.0), rel=5e-3)


def test_mass_matches_quadrature(star53):
    quad_mass = 4.0 * math.pi * simpson(star53.rho * star53.r**2, x=star53.r)
    assert quad_mass == pytest.approx(star53.mass, rel=1e-7)


def test_hydrostatic_residual_via_independent_potential(star53):
    # rebuild the potential by quadrature of the density and compare the
    # enthalpy with the potential drop to the surface
    r, rho = star53.r, star53.rho
    inner = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(r) * (rho[1:] * r[1:] ** 2 + rho[:-1] * r[:-1] ** 2))])
    outer_total = np.sum(0.5 * np.diff(r) * (rho[1:] * r[1:] + rho[:-1] * r[:-1]))
    outer = outer_total - np.concatenate([[0.0], np.cumsum(0.5 * np.diff(r) * (rho[1:] * r[1:] + rho[:-1] * r[:-1]))])
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -4.0 * math.pi * (np.where(r > 0, inner / r, 0.0) + outer)
    drop = v[-1] - v
    assert np.max(np.abs(star53.enthalpy - drop)) / star53.enthalpy[0] < 1e-4


def test_exterior_potential_is_monopole(star53):
    s = np.array([1.0, 1.7, 3.0]) * star53.radius
    assert np.allclose(star53.potential_of(s), -star53.mass / s, rtol=1e-10)


def test_boundary_exponent(star53):
    dist = star53.radius - star53.r
    sel = (dist > 1e-6 * star53.radius) & (dist < 0.1 * star53.radius)
    slope = np.polyfit(np.log(dist[sel]), np.log(star53.rho[sel]), 1)[0]
    assert abs(slope - 1.5) / 1.5 < 0.05


def test_unbounded_star_error():
    # gamma close to 6/5 keeps the enthalpy positive inside the allowed span
    with pytest.raises(SolverError, match="no surface within"):
        solve_radial(polytrope(1.0, 1.2000001), 1.0)


def test_derivative_sign_flips_across_43():
    assert mass_derivative(polytrope(1.0, 4.0 / 3.0 + 0.01), 1.0) > 0
    assert mass_derivative(polytrope(1.0, 4.0 / 3.0 - 0.01), 1.0) < 0


def test_family_scan_monotone_no_extrema(eos53):
    curves = family_scan_radial(eos53, np.linspace(0.5, 2.0, 8))
    assert curves.mass_extrema == []
    assert math.isinf(curves.mu_tilde)
    assert np.all(np.diff(curves.mass) > 0)


def test_family_scan_blend_has_maximum(eos_blend):
    curves = family_scan_radial(eos_blend, np.geomspace(2.0, 40.0, 9))
    kinds = [k for _, k in curves.mass_extrema]
    assert "max" in kinds
    mu_star = curves.mass_extrema[0][0]
    assert curves.mass_extrema[0][1] == "max"
    # the slope changes sign over [mu_3, mu_5]; the maximum lies past mu_4
    assert mu_star == pytest.approx(10.36408, rel=1e-3)
    assert mu_star < curves.mu_tilde


def test_family_scan_derivative_against_fit(eos53):
    mus = np.linspace(0.9, 1.1, 5)
    curves = family_scan_radial(eos53, mus)
    co = np.polyfit(curves.mu, curves.mass, 2)
    fitted = 2 * co[0] * mus[2] + co[1]
    assert curves.dM_dmu[2] == pytest.approx(fitted, rel=0.02)


@pytest.mark.parametrize(
    "slopes, pairs",
    [
        ([1.0, 2.0, 3.0], []),
        ([1.0, -1.0, 2.0], [(0, 1), (1, 2)]),
        ([1.0, 0.0, 0.0, -1.0, 2.0], [(0, 3), (3, 4)]),
        ([1.0, 0.0, 1.0], []),
    ],
    ids=["no_change", "two_changes", "zero_run", "zeros_without_change"],
)
def test_sign_changes_bracket_across_zero_runs(slopes, pairs):
    assert radial.sign_changes(np.array(slopes)) == pairs


@pytest.mark.parametrize(
    "eos",
    [polytrope(1.0, 5.0 / 3.0), asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0))],
    ids=["polytropic", "blend"],
)
def test_overflowing_profile_is_a_solver_error(eos):
    """At mu 1e300 the profile's slopes overflow; at 1e308 so does 4 pi mu,
    and the central length scale is 0."""
    for mu in (1e300, 1e308):
        with pytest.raises(SolverError, match=re.escape(f"mu={mu:g}")):
            solve_radial(eos, mu)


def test_family_scan_validates_grid(eos53):
    with pytest.raises(ValueError):
        family_scan_radial(eos53, [1.0, 0.5, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        family_scan_radial(eos53, [1.0, 2.0])


def test_family_scan_locates_an_interior_mass_over_radius_maximum(monkeypatch):
    # M = mu and M/R = 2 - (mu - 3.3)^2 / 10: a rising mass and one M/R
    # maximum, at mu 3.3, which central differences of a quadratic place exactly
    def synthetic(eos, mu):
        return SimpleNamespace(mass=mu, radius=mu / (2.0 - (mu - 3.3) ** 2 / 10.0))

    monkeypatch.setattr(radial, "solve_radial", synthetic)
    mus = np.linspace(1.0, 5.0, 5)
    curves = family_scan_radial(None, mus)
    assert curves.mass_extrema == []
    assert abs(curves.mu_tilde - 3.3) <= 1e-4 * mus[3]  # brentq's xtol on (2, 4)


def test_radial_step_underflow_is_a_solver_error():
    class NaNInverse:
        """A pressure law whose enthalpy inverse is NaN everywhere."""

        kind = "stub"

        def enthalpy(self, rho):
            return rho

        def enthalpy_inverse(self, h):
            return math.nan

    with pytest.raises(SolverError, match="radial step size underflow"):
        solve_radial(NaNInverse(), 1.0)


def test_scan_csv_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 5.0 / 3.0},
        "mu_grid": {"start": 0.8, "stop": 1.2, "num": 5, "spacing": "linear"},
    }))
    out = tmp_path / "out"
    assert main(["radial-scan", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "radial_scan.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,R,M,dMdmu,MoverR"
    assert len(lines) == 6
    assert len(lines[1].split(",")) == 5


# -- oracle form -------------------------------------------------------------


def test_oracle_counts_stable(star53):
    even = assemble_oracle_form(star53, "even")
    odd = assemble_oracle_form(star53, "odd")
    assert even.form.n_minus() == 1
    assert odd.form.n_minus() == 0
    assert odd.form.inertia().n_zero == 1


def test_oracle_kernel_is_vertical_derivative_of_potential(star53):
    oracle = assemble_oracle_form(star53, "odd")
    i0 = int(np.argmin(np.abs(oracle.form.eigenvalues)))
    coeffs = oracle.form.eigenvector(i0)
    s = np.linspace(1e-3, 1.999, 400) * star53.radius
    f = oracle.radial_component(coeffs, 1, s)
    target = star53.enclosed_mass(s) / s**2
    w = s**2
    corr = abs(np.sum(w * f * target)) / math.sqrt(
        np.sum(w * f * f) * np.sum(w * target * target)
    )
    assert corr > 0.99


def test_oracle_mesh_validation(star53):
    with pytest.raises(ValueError):
        assemble_oracle_form(star53, "sideways")


# -- homology cache ------------------------------------------------------------


@pytest.mark.parametrize("gamma", [5.0 / 3.0, 1.3, 2.0])
def test_polytrope_homology_scaling(gamma):
    eos = polytrope(1.3, gamma)
    base = solve_radial(eos, 1.0)
    for mu in (0.02, 0.7, 3.0, 2500.0):
        star = solve_radial(eos, mu)
        assert star.radius / base.radius == pytest.approx(mu ** ((gamma - 2.0) / 2.0), rel=1e-12)
        assert star.mass / base.mass == pytest.approx(mu ** ((3.0 * gamma - 4.0) / 2.0), rel=1e-12)


def test_polytrope_does_not_depend_on_first_mu_seen():
    eos = polytrope(1.0, 1.4)
    radial._lane_emden = None
    first = solve_radial(eos, 2.0)
    radial._lane_emden = None
    solve_radial(eos, 0.5)
    second = solve_radial(eos, 2.0)
    assert (first.mass, first.radius) == (second.mass, second.radius)
    assert np.array_equal(first.rho, second.rho)


@pytest.mark.parametrize("mu", [0.01, 1.0, 300.0])
def test_unbounded_star_error_at_every_mu(mu):
    with pytest.raises(SolverError, match=f"mu={mu:g}"):
        solve_radial(polytrope(1.0, 1.2000001), mu)


def _unscaled_surface(eos, mu, tol=1e-11):
    """(R, M) from y'' + (2/r) y' = -4 pi rho(y) integrated in r itself."""
    y0 = eos.enthalpy(mu)
    r_scale = math.sqrt(y0 / (4.0 * math.pi * mu))
    r0 = 1e-8 * r_scale

    def rhs(r, state):
        rho = eos.enthalpy_inverse(max(state[0], 0.0))
        return (state[1], -4.0 * math.pi * rho - 2.0 * state[1] / r)

    def surface(r, state):
        return state[0]

    surface.terminal = True
    sol = solve_ivp(
        rhs, (r0, 100.0 * r_scale),
        (y0 - (2.0 * math.pi / 3.0) * mu * r0**2, -(4.0 * math.pi / 3.0) * mu * r0),
        method="DOP853", rtol=tol, atol=(tol * y0, tol * y0 / r_scale), events=surface,
    )
    radius = sol.t_events[0][0]
    return radius, -(radius**2) * sol.y_events[0][0][1]


@pytest.mark.parametrize("mu", [3.0, 10.0])
def test_blend_star_ignores_polytrope_cache(eos_blend, mu):
    radial._lane_emden = None
    before = solve_radial(eos_blend, mu)
    radial._lane_emden = None
    solve_radial(polytrope(eos_blend.c_minus, eos_blend.gamma0), mu)
    assert radial._lane_emden is not None
    after = solve_radial(eos_blend, mu)
    assert (after.mass, after.radius) == (before.mass, before.radius)
    assert np.array_equal(after.rho, before.rho)
    radius, mass = _unscaled_surface(eos_blend, mu)
    assert after.radius == pytest.approx(radius, rel=1e-8)
    assert after.mass == pytest.approx(mass, rel=1e-8)


@pytest.mark.parametrize("mu", [3.0, 10.0])
def test_blend_star_radius_and_mass_against_an_integration_in_r(eos_blend, mu):
    """The blend star's R and M against DOP853 in r at 1e-13: 6.4e-10 and
    9e-11 apart at mu 3, 1.3e-10 and 7.9e-10 at mu 10, far coarser than
    the 1e-11 tolerance the scaled balance is integrated at."""
    star = solve_radial(eos_blend, mu)
    radius, mass = _unscaled_surface(eos_blend, mu, tol=1e-13)
    assert star.radius == pytest.approx(radius, rel=2.5e-9)
    assert star.mass == pytest.approx(mass, rel=2.5e-9)

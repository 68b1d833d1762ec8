"""Quadratic stability forms, mass-zero restriction, and mode counting.

The linearized dynamics around a rotating equilibrium conserve a quadratic
energy; its density block is the perturbation-energy form

    E[dr] = int h''(rho0) dr^2 dx - int int dr(x) dr(y) / |x - y| dx dy,

and for a Rayleigh stable rotation (``StarContext.rayleigh_stable``) the
number of growing-mode pairs is the number of negative directions of the
reduced form

    E[dr] + 2 pi int_0^R0 W(r) F(r)^2 dr,   F(r) = int_0^r s int dr dz ds,

restricted to zero total mass, where the rotational weight is the context's
W = Upsilon(r) / (r * int rho0 dz) for both rotation families: the star's
rotation enters every form below only through its context, the profiles
omega, d(omega r^2)/dr, Upsilon and the weights W and 4 omega^2 / Upsilon
(for a prescribed momentum distribution W equals eps^2 dJ/dp(m(r), M) / r^3
through Upsilon = 2 omega d(omega r^2)/dr / r).

Grid products of dense field stacks (the energy blocks) go through
``pair_integrals``, one matrix product over the weighted support;
products of factored stacks (the generator's tensor shapes and their
gradients, the meridional velocities of ``spectral``) go through
``factored_pair_integrals``, which contracts z first and r second and
never builds the dense stacks.

A perturbation basis carries its star, so every analysis of a basis takes
the basis alone and reads ``basis.star`` (the generator also its energy
form); only ``energy_blocks`` and ``density_form_value`` take a star.  The
parities do not couple: the energy form is ``energy_blocks`` on each of the
basis's sectors, placed on its diagonal, and a generator reads one sector.

A matched discretization of the full linearized generator on the basis's
shapes is a cross-check: exactly Hamiltonian at the matrix level, its
eigenvalues come in {l, -l, conj l, -conj l} quadruples.  Its growing
pairs, the negative directions of one symmetric matrix, are counted inside
the verdict band like every form's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rotstar.bases import FactoredStack, PerturbationBasis
from rotstar.equilibria import AxiStar
from rotstar.errors import ConfigError
from rotstar.forms import VERDICT_ZERO_TOL, QuadraticForm, restrict_to_complement, whiten
from rotstar.numerics import block_diag
from rotstar.rotlaw import d_omega_r2_over_r

__all__ = [
    "VERDICT_ZERO_TOL",
    "pair_integrals",
    "factored_pair_integrals",
    "energy_blocks",
    "assemble_perturbation_energy",
    "assemble_reduced_energy",
    "restrict_mass_zero",
    "mass_constraint",
    "density_form_value",
    "AzimuthalLift",
    "lift_azimuthal_velocity",
    "Generator",
    "assemble_generator",
    "generator_unstable_count",
    "stability_report",
]

def _weighted_radii(weight: np.ndarray) -> int:
    """Radii a weighted product sums: up to the last with a nonzero weight."""
    rows = np.flatnonzero(np.any(weight, axis=1))
    return rows[-1] + 1 if rows.size else 0


def pair_integrals(a: np.ndarray, b: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Matrix of weighted grid products sum(a_i * weight * b_j) of two
    (n, nr, nz) field stacks; ``weight`` (nr, nz) holds the quadrature
    weights.

    Only the radii up to the last one where ``weight`` is nonzero are
    summed: the products vanish beyond it, and a weight that is zero off a
    star's support keeps the contraction to the star's radii.  ``b`` is
    read through a view of those radii, never copied.  An all-zero weight
    or an empty stack gives zeros.
    """
    J = _weighted_radii(weight)
    m = J * weight.shape[1]
    aw = (a[:, :J] * weight[:J]).reshape(a.shape[0], m)
    return aw @ b[:, :J].reshape(b.shape[0], m).T


def factored_pair_integrals(a: FactoredStack, b: FactoredStack,
                            weight: np.ndarray) -> np.ndarray:
    """``pair_integrals`` of two factored stacks without their dense stacks
    (sum factorization): per pair of terms, z is contracted first, into a
    (vertical rows, radii, vertical rows) table of weight * profile_a *
    profile_b, and r second, one small matrix product per pair of vertical
    rows.  The work is O(n nr nz) plus O(n^2 nr), not O(n^2 nr nz).  Only
    the radii up to the last one where ``weight`` is nonzero are summed, as
    in ``pair_integrals``."""
    J = _weighted_radii(weight)
    out = np.zeros((a.count, b.count))
    for s in a.terms:
        for t in b.terms:
            w = weight[:J]
            for p in (s.profile, t.profile):
                if p is not None:
                    w = w * p[:J]
            ns, nz = s.vertical.shape
            table = (s.vertical[:, None, :] * w).reshape(ns * J, nz) @ t.vertical.T
            table = table.reshape(ns, J, -1)
            block = out[s.start:s.start + s.index.size, t.start:t.start + t.index.size]
            for u, ka in s.groups:
                left = s.radial[ka, :J]
                rows = np.zeros((ka.size, t.index.size))
                for v, kb in t.groups:
                    rows[:, kb] = (left * table[u, :, v]) @ t.radial[kb, :J].T
                block[ka] += rows
    return out


def energy_blocks(star: AxiStar, fields: np.ndarray, parity: str) -> tuple:
    """The two blocks of the energy form on a field stack of one z-parity
    ("even" / "odd"): the pressure Gram int h''(rho0) f_i f_j dx and the
    symmetrized gravity block -int int f_i(x) f_j(y) / |x - y| dx dy, the
    potentials solved in one stacked solve.  The fields vanish off the
    star's support, so both products are weighted on the support only, and
    the potentials are solved on the radii the gravity product sums."""
    ctx = star.context
    pressure = pair_integrals(fields, fields, ctx.weights * ctx.phi2)
    weight = ctx.weights * ctx.mask
    potentials = star.kernel.potential(fields, parity, radii=_weighted_radii(weight))
    grav = pair_integrals(fields, potentials, weight)
    return pressure, 0.5 * (grav + grav.T)


def assemble_perturbation_energy(basis: PerturbationBasis) -> QuadraticForm:
    """Pressure-plus-self-gravity energy form on the basis's star, with its
    weighted-L2 Gram: ``energy_blocks`` on each sector's fields, placed on
    the diagonal.  Opposite parities do not couple, so the cross-sector
    blocks are exact zeros and never quadratured."""
    pressure, grav = zip(*(energy_blocks(basis.star, basis.fields[s.rows], parity)
                           for parity, s in basis.sectors.items()))
    gram = block_diag(*pressure)
    return QuadraticForm(gram + block_diag(*grav), gram)


def cumulative_cylinder_integrals(basis: PerturbationBasis) -> np.ndarray:
    """F_k(r) = int_0^r s [int delta_rho_k dz] ds for every basis field.

    Odd fields integrate to zero over z and get F identically zero.
    """
    F = basis.star.grid.cylinder_mass(basis.fields)
    F[basis.parity < 0] = 0.0
    return F


def mass_constraint(basis: PerturbationBasis) -> np.ndarray:
    """Total-mass functionals int delta_rho_k dx, consistent with the
    cumulative cylinder integrals (2 pi F_k at the outer grid edge)."""
    F = cumulative_cylinder_integrals(basis)
    return 2.0 * math.pi * F[:, -1]


def assemble_reduced_energy(basis: PerturbationBasis) -> QuadraticForm:
    """Perturbation energy plus the rotational correction of the reduced
    stability form.  For a non-rotating star the correction vanishes and the
    result equals the plain energy form."""
    return _add_rotational_correction(assemble_perturbation_energy(basis), basis)


def _add_rotational_correction(base: QuadraticForm, basis: PerturbationBasis) -> QuadraticForm:
    """The reduced form from the basis's perturbation-energy form ``base``."""
    star = basis.star
    ctx = star.context
    if not ctx.rotating:
        return base
    if not ctx.rayleigh_stable:
        raise ConfigError(
            "rotation is Rayleigh unstable on this star; the reduced form "
            "does not apply, use the second-order meridional analysis"
        )
    F = cumulative_cylinder_integrals(basis)
    R = 2.0 * math.pi * (F * (star.grid.wr * ctx.rot_weight)[None, :]) @ F.T
    return QuadraticForm(base.matrix + R, base.gram)


def restrict_mass_zero(form: QuadraticForm, basis: PerturbationBasis) -> QuadraticForm:
    """Restrict a form to perturbations with zero total mass.

    When every basis function already integrates to zero the constraint is
    vacuous; the input is returned with a warning flag set.
    """
    return restrict_to_complement(form, mass_constraint(basis))


def density_form_value(star: AxiStar, fld: np.ndarray, parity: str = "even") -> float:
    """Energy-form value of a single density perturbation field, weighted on
    the star's support like every block of ``energy_blocks``."""
    pressure, grav = energy_blocks(star, fld[None], parity)
    return float(pressure[0, 0] + grav[0, 0])


@dataclass
class AzimuthalLift:
    """Azimuthal velocity induced by a mass-zero density perturbation."""

    u_theta: np.ndarray  # per grid radius
    ratio: float  # ||u_theta||_{L2 rho0} / ||delta_rho||_{L2 h''}
    energy: float  # rotational kinetic quadratic value of the lift


def lift_azimuthal_velocity(basis: PerturbationBasis, coeffs: np.ndarray) -> AzimuthalLift:
    """Lift of a constrained density perturbation to the azimuthal velocity
    that keeps the pair dynamically accessible.

    Requires a Rayleigh stable rotation and zero total mass; the
    returned energy satisfies  reduced_form = energy_form + lift energy
    exactly at the discrete level, because all three are built from the same
    grid profiles of the basis's star.
    """
    star = basis.star
    ctx = star.context
    if not ctx.rayleigh_stable:  # a static star is not
        raise ConfigError("lift needs a rotating star with a centrifugally (Rayleigh) "
                          "stable rotation")
    d_om_r2, h1 = ctx.d_om_r2, ctx.h1
    rs = star.grid.rs
    off = ctx.radial_support & (rs > 0)
    F = np.asarray(coeffs) @ cumulative_cylinder_integrals(basis)
    total = 2.0 * math.pi * float(F[-1])  # mass_constraint(basis) @ coeffs
    scale = np.max(np.abs(F)) + 1e-300
    if abs(total) > 1e-8 * 2.0 * math.pi * scale:
        raise ValueError("lift needs a zero-total-mass perturbation")

    u = np.zeros_like(rs)
    u[off] = d_om_r2[off] / rs[off] ** 2 * F[off] / h1[off]

    u_sq = 2.0 * math.pi * star.grid.wr * rs * u**2 * h1  # per radius, int rho0 u^2 dx
    u_norm_sq = float(np.sum(u_sq))
    energy = float(np.sum(ctx.kin_weight * u_sq))

    dfield = basis.combine(coeffs)
    d_norm_sq = float(np.sum(ctx.weights * ctx.phi2 * dfield * dfield))
    ratio = math.sqrt(u_norm_sq / d_norm_sq) if d_norm_sq > 0 else math.inf
    return AzimuthalLift(u_theta=u, ratio=ratio, energy=energy)


# -- linearized generator -----------------------------------------------------


@dataclass
class Generator:
    """Whitened Galerkin matrices of the linearized dynamics (one z-parity).

    Coordinates: q = (density, azimuthal velocity) and p = meridional
    velocity, all pre-whitened so every Gram is the identity.  The evolution
    is dq/dt = P p, dp/dt = -P^T (Lh q)  with Lh = blockdiag(Lq, Aq); the
    quadratic q^T Lh q + p^T p is conserved exactly.
    """

    P: np.ndarray  # (n_q, n_merid), n_q density plus azimuthal coordinates
    Lh: np.ndarray  # (n_q, n_q), symmetric
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        nq, npp = self.P.shape
        G = np.zeros((nq + npp, nq + npp))
        G[:nq, nq:] = self.P
        G[nq:, :nq] = -self.P.T @ self.Lh
        self.matrix = G
        self._lh_norm = float(np.linalg.norm(self.Lh, 2))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def quadruple_defect(self) -> float:
        """Worst distance of -lambda from the spectrum over its eigenvalues,
        relative to the spectral radius: the Hamiltonian check, zero up to
        round-off when the spectrum maps to itself under negation."""
        lam = self.eigenvalues()
        scale = np.max(np.abs(lam)) + 1e-300
        return float(np.abs(lam[:, None] + lam[None, :]).min(axis=1).max()) / scale


def _sector_products(star: AxiStar, dens) -> tuple:
    """The generator's Galerkin products on one sector's tensor shapes
    ``dens``, each a factored product of the shapes' values or gradients:
    the v_theta Gram int rho0 chi_i chi_j, its kinetic block with the
    context's weight 4 omega^2 / Upsilon, the gradient Gram
    int rho0 grad(chi_i) . grad(chi_j) and the coupling
    -int rho0 chi_i (d(omega r^2)/dr / r) d_r chi_j."""
    ctx = star.context
    w = ctx.weights
    values, grad_r, grad_z = dens.factored(), dens.factored(1, 0), dens.factored(0, 1)
    rho_w = w * star.rho
    dor_over_r = d_omega_r2_over_r(ctx.omega, ctx.d_om_r2, star.grid.rs)
    return (
        factored_pair_integrals(values, values, rho_w),
        factored_pair_integrals(values, values, w * ctx.kin_weight[:, None] * star.rho),
        factored_pair_integrals(grad_r, grad_r, rho_w)
        + factored_pair_integrals(grad_z, grad_z, rho_w),
        -factored_pair_integrals(values, grad_r, rho_w * dor_over_r[:, None]),
    )


def assemble_generator(basis: PerturbationBasis, energy: QuadraticForm,
                       parity: str = "even") -> Generator:
    """Discretize the linearized dynamics of the basis's star on one z-parity
    sector from its energy form ``energy`` (``assemble_perturbation_energy``).

    The scalars are the sector's tensor shapes (``basis.sectors[parity]``):
    the density block is ``energy`` on the sector's rows of them, v_theta
    the plain shapes and v_r, v_z their gradients (an 'even' sector means
    even density, even v_theta, even v_r and odd v_z).
    """
    star = basis.star
    if not star.context.rayleigh_stable:  # a static star is not
        raise ConfigError("the generator needs a rotating star with a centrifugally "
                          "(Rayleigh) stable rotation")
    sector = basis.sectors.get(parity)
    if sector is None or not sector.shapes.degrees:
        raise ConfigError(f"the generator needs {parity} basis shapes")
    dens = sector.shapes
    rows = slice(sector.rows.start, sector.rows.start + len(dens.degrees))
    G1, Lq = energy.gram[rows, rows], energy.matrix[rows, rows]
    # v_theta lives in L2_rho0 on the same scalar shapes, with the
    # azimuthal kinetic block Aq
    G2, Aq, grads, coupling = _sector_products(star, dens)

    # meridional velocities are the gradients of every shape but the
    # constant one, the even sector's first, whose gradient is zero
    keep = slice(int(parity == "even"), None)
    B1, B2, BY = whiten(G1), whiten(G2), whiten(grads[keep, keep])

    # whitened blocks; the couplings are M1[j, a] = int rho0 grad(xi_a) .
    # grad(chi_j) dx and M2[j, a] = -int rho0 chi_j (d(omega r^2)/dr / r)
    # v_r(a) dx
    Lt, At = B1.T @ Lq @ B1, B2.T @ Aq @ B2
    P = np.vstack([B1.T @ grads[:, keep] @ BY, B2.T @ coupling[:, keep] @ BY])
    Lh = block_diag(0.5 * (Lt + Lt.T), 0.5 * (At + At.T))
    return Generator(P, Lh)


def generator_unstable_count(gen: Generator):
    """(count, largest counted growth rate or 0.0, pairs in the band) of the
    generator's growing pairs +-sqrt(-mu): the eigenvalues mu < 0 of
    S = P^T Lh P (d^2p/dt^2 = -S p), those above -1e-12 max|mu| being
    round-off.  A pair counts when its mode's energy quotient
    q.Lh.q / q.q / ||Lh|| with q = P p is below -VERDICT_ZERO_TOL."""
    mu, p = np.linalg.eigh(gen.P.T @ gen.Lh @ gen.P)
    grows = mu < -1e-12 * np.max(np.abs(mu))
    mu = mu[grows]
    quotient = mu / np.sum((gen.P @ p[:, grows]) ** 2, axis=0) / gen._lh_norm
    counted = quotient < -VERDICT_ZERO_TOL
    growth = math.sqrt(-mu[counted].min()) if counted.any() else 0.0
    return int(counted.sum()), growth, int(mu.size - counted.sum())


def stability_report(basis: PerturbationBasis, with_generator: bool = False) -> dict:
    """Counts and verdict of the basis's star in the report schema used by
    the command line."""
    star = basis.star
    L = assemble_perturbation_energy(basis)
    K = _add_rotational_correction(L, basis)
    Kc = restrict_mass_zero(K, basis)
    inertia = Kc.inertia()
    report = {
        "n_minus_L": L.n_minus(),
        "n_minus_K_constrained": inertia.n_minus,
        "n_zero": inertia.n_zero,
        "verdict": "stable" if inertia.n_minus == 0 else "unstable",
    }
    if with_generator and star.context.rotating:
        # a sector of its appended direction alone has no generator
        parities = [name for name, s in basis.sectors.items() if s.shapes.degrees]
        if not parities:
            raise ConfigError("the generator needs basis shapes")
        counts = [generator_unstable_count(assemble_generator(basis, L, parity))
                  for parity in parities]
        count, growth, n_zero = zip(*counts)
        report["generator_unstable_count"] = sum(count)
        report["generator_n_zero"] = sum(n_zero)
        report["growth_rate"] = max(growth)
    return report

"""Quadratic stability forms, mass-zero restriction, and mode counting.

The linearized dynamics around a rotating equilibrium conserve a quadratic
energy; its density block is the perturbation-energy form

    E[dr] = int h''(rho0) dr^2 dx - int int dr(x) dr(y) / |x - y| dx dy,

and for a centrifugally stable rotation the number of growing-mode pairs
equals the number of negative directions of the reduced form

    E[dr] + 2 pi int_0^R0 W(r) F(r)^2 dr,   F(r) = int_0^r s int dr dz ds,

restricted to zero total mass, where the rotational weight is
W = Upsilon(r) / (r * int rho0 dz) for both rotation families: the star's
rotation enters every form below only through its profiles omega,
d(omega r^2)/dr and Upsilon (for a prescribed momentum distribution W equals
eps^2 dJ/dp(m(r), M) / r^3 through Upsilon = 2 omega d(omega r^2)/dr / r).

A perturbation basis carries its star, so every analysis of a basis takes
the basis alone and reads ``basis.star`` (the generator also its energy
form); only ``energy_blocks`` and ``density_form_value`` take a star.

A matched discretization of the full linearized generator on the basis's
shapes is a cross-check: exactly Hamiltonian at the matrix level, its
eigenvalues come in {l, -l, conj l, -conj l} quadruples and the implicit
midpoint evolution conserves the discrete energy to round-off.  Its growing
pairs, the negative directions of one symmetric matrix, are counted inside
the verdict band like every form's.  That energy,
``Generator.energy`` in the generator's whitened coordinates, is the one
conserved quadratic (the Casimir second variation) of the package; states
live only in those coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import eig, eigh

from rotstar.bases import PerturbationBasis, tensor_shapes
from rotstar.equilibria import AxiStar
from rotstar.errors import ConfigError
from rotstar.forms import VERDICT_ZERO_TOL, QuadraticForm, restrict_to_complement, whiten

__all__ = [
    "VERDICT_ZERO_TOL",
    "pair_integrals",
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
    "LinearTrajectory",
    "evolve_linearized",
    "stability_report",
]


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
    rows = np.flatnonzero(np.any(weight, axis=1))
    J = rows[-1] + 1 if rows.size else 0
    m = J * weight.shape[1]
    aw = (a[:, :J] * weight[:J]).reshape(a.shape[0], m)
    return aw @ b[:, :J].reshape(b.shape[0], m).T


def energy_blocks(star: AxiStar, fields: np.ndarray, parities) -> tuple:
    """The two blocks of the energy form on a field stack: the pressure Gram
    int h''(rho0) f_i f_j dx and the symmetrized gravity block
    -int int f_i(x) f_j(y) / |x - y| dx dy, each field's potential solved
    with its parity ("even" / "odd").  The fields vanish off the star's
    support, so both products are weighted on the support only."""
    ctx = star.context
    pressure = pair_integrals(fields, fields, ctx.weights * ctx.phi2)
    grav = pair_integrals(fields, star.potentials(fields, parities), ctx.weights * ctx.mask)
    return pressure, 0.5 * (grav + grav.T)


def _zero_cross_parity(mat: np.ndarray, parity: np.ndarray) -> np.ndarray:
    cross = parity[:, None] != parity[None, :]
    out = mat.copy()
    out[cross] = 0.0
    return out


def assemble_perturbation_energy(basis: PerturbationBasis) -> QuadraticForm:
    """Pressure-plus-self-gravity energy form on the basis's star, with its
    weighted-L2 Gram.  Opposite-parity couplings vanish identically and are
    zeroed instead of quadratured."""
    parities = ["even" if p > 0 else "odd" for p in basis.parity]
    gram, grav = energy_blocks(basis.star, basis.fields, parities)
    gram = _zero_cross_parity(gram, basis.parity)
    return QuadraticForm(gram + _zero_cross_parity(grav, basis.parity), gram)


def rotational_weight(star: AxiStar):
    """Per-radius weight W(r) = Upsilon / (r int rho0 dz) of the reduced
    rotational correction, on the radial support mask (zero outside)."""
    rs = star.grid.rs
    ctx = star.context
    sup = ctx.radial_support
    w = np.zeros_like(rs)
    off = sup & (rs > 0)
    w[off] = ctx.ups[off] / (rs[off] * ctx.h1[off])
    return w, sup


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
    if not star.context.rotating:
        return base
    w, sup = rotational_weight(star)
    if np.any(w[sup] < 0):
        raise ConfigError(
            "rotation is Rayleigh unstable on this star; the reduced form "
            "does not apply, use the second-order meridional analysis"
        )
    F = cumulative_cylinder_integrals(basis)
    wr = star.grid.wr
    R = 2.0 * math.pi * (F * (wr * w)[None, :]) @ F.T
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
    pressure, grav = energy_blocks(star, fld[None], [parity])
    return float(pressure[0, 0] + grav[0, 0])


def _azimuthal_weight(star: AxiStar, user: str) -> tuple:
    """Kinetic weight 4 omega^2 / Upsilon of v_theta on the radial support
    off the axis (zero elsewhere), with that mask; it exists only for a
    Rayleigh stable rotation.  The axis node carries no quadrature weight,
    so its Upsilon, the limit 4 omega(0)^2 that vanishes when dj/dp(0) = 0,
    is not read."""
    ctx = star.context
    off = ctx.radial_support & (star.grid.rs > 0)
    if np.any(ctx.ups[off] <= 0):
        raise ConfigError(f"{user} needs a centrifugally (Rayleigh) stable rotation")
    aw = np.zeros_like(ctx.ups)
    aw[off] = 4.0 * ctx.omega[off] ** 2 / ctx.ups[off]
    return aw, off


@dataclass
class AzimuthalLift:
    """Azimuthal velocity induced by a mass-zero density perturbation."""

    u_theta: np.ndarray  # per grid radius
    ratio: float  # ||u_theta||_{L2 rho0} / ||delta_rho||_{L2 h''}
    energy: float  # rotational kinetic quadratic value of the lift


def lift_azimuthal_velocity(basis: PerturbationBasis, coeffs: np.ndarray) -> AzimuthalLift:
    """Lift of a constrained density perturbation to the azimuthal velocity
    that keeps the pair dynamically accessible.

    Requires a centrifugally stable rotation and zero total mass; the
    returned energy satisfies  reduced_form = energy_form + lift energy
    exactly at the discrete level, because all three are built from the same
    grid profiles of the basis's star.
    """
    star = basis.star
    ctx = star.context
    if not ctx.rotating:
        raise ConfigError("lift needs a rotating star")
    d_om_r2, h1 = ctx.d_om_r2, ctx.h1
    aw, off = _azimuthal_weight(star, "lift")
    rs = star.grid.rs
    F = np.asarray(coeffs) @ cumulative_cylinder_integrals(basis)
    total = 2.0 * math.pi * float(F[-1])  # mass_constraint(basis) @ coeffs
    scale = np.max(np.abs(F)) + 1e-300
    if abs(total) > 1e-8 * 2.0 * math.pi * scale:
        raise ValueError("lift needs a zero-total-mass perturbation")

    u = np.zeros_like(rs)
    u[off] = d_om_r2[off] / rs[off] ** 2 * F[off] / h1[off]

    wr = star.grid.wr
    u_norm_sq = 2.0 * math.pi * float(np.sum(wr[off] * rs[off] * u[off] ** 2 * h1[off]))
    energy = 2.0 * math.pi * float(
        np.sum(wr[off] * aw[off] * rs[off] * u[off] ** 2 * h1[off])
    )

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
        return eig(self.matrix, right=False)

    def quadruple_defect(self) -> float:
        """Worst distance of -lambda from the spectrum over its eigenvalues,
        relative to the spectral radius: the Hamiltonian check, zero up to
        round-off when the spectrum maps to itself under negation."""
        lam = self.eigenvalues()
        scale = np.max(np.abs(lam)) + 1e-300
        return float(np.abs(lam[:, None] + lam[None, :]).min(axis=1).max()) / scale

    def energy(self, z: np.ndarray) -> float:
        nq = self.P.shape[0]
        q, p = z[:nq], z[nq:]
        return float(q @ self.Lh @ q + p @ p)

    def energy_scale(self, z: np.ndarray) -> float:
        nq = self.P.shape[0]
        q, p = z[:nq], z[nq:]
        return float(np.abs(q @ self.Lh @ q) + q @ q * self._lh_norm + p @ p)


def assemble_generator(basis: PerturbationBasis, energy: QuadraticForm,
                       parity: str = "even") -> Generator:
    """Discretize the linearized dynamics of the basis's star on one z-parity
    sector from its energy form ``energy`` (``assemble_perturbation_energy``).

    The scalars are the basis's tensor shapes of the sector at the basis's
    own degree: the density block is ``energy`` on the basis's rows of them,
    v_theta the plain shapes and v_r, v_z their gradients (an 'even' sector
    means even density, even v_theta, even v_r and odd v_z).
    """
    star = basis.star
    ctx = star.context
    if not ctx.rotating:
        raise ConfigError("the generator needs a rotating star (kappa or eps > 0)")
    aw, _ = _azimuthal_weight(star, "the generator")
    omega, d_om_r2, w = ctx.omega, ctx.d_om_r2, ctx.weights
    g = star.grid
    rs = g.rs

    rows = [k for k, (_, j) in enumerate(basis.degrees) if j % 2 == (parity == "odd")]
    if not rows:
        raise ConfigError(f"the generator needs {parity} basis shapes")
    deg_r, deg_z = (max(d) for d in zip(*basis.degrees))
    dens = tensor_shapes(rs, g.zs, star.support_radius, star.support_height,
                         deg_r, deg_z, parity=parity)
    G1, Lq = (m[np.ix_(rows, rows)] for m in (energy.gram, energy.matrix))
    # v_theta lives in L2_rho0; same scalar shapes
    tfields = dens.values

    # meridional velocities are the gradients of every shape but the
    # constant one, whose gradient is zero
    keep = [k for k, d in enumerate(dens.degrees) if d != (0, 0)]
    rho_w = w * star.rho
    grads = (pair_integrals(dens.grad_r, dens.grad_r, rho_w)
             + pair_integrals(dens.grad_z, dens.grad_z, rho_w))
    G2 = pair_integrals(tfields, tfields, rho_w)
    GY = grads[np.ix_(keep, keep)]

    B1 = whiten(G1)
    B2 = whiten(G2)
    BY = whiten(GY)

    # azimuthal kinetic block: weight 4 omega^2 rho0 / Upsilon
    Aq = pair_integrals(tfields, tfields, w * aw[:, None] * star.rho)

    # couplings: M1[j, a] = int rho0 grad(xi_a) . grad(chi_j) dx
    M1 = grads[:, keep]
    # M2[j, a] = -int rho0 chi_j (d(omega r^2)/dr / r) v_r(a) dx
    dor_over_r = np.zeros_like(rs)
    dor_over_r[rs > 0] = d_om_r2[rs > 0] / rs[rs > 0]
    dor_over_r[0] = 2.0 * omega[0]
    M2 = -pair_integrals(tfields, dens.grad_r, rho_w * dor_over_r[:, None])[:, keep]

    # whitened blocks
    Lt = B1.T @ Lq @ B1
    At = B2.T @ Aq @ B2
    P1 = B1.T @ M1 @ BY
    P2 = B2.T @ M2 @ BY
    Lh = sla.block_diag(0.5 * (Lt + Lt.T), 0.5 * (At + At.T))
    return Generator(np.vstack([P1, P2]), Lh)


def generator_unstable_count(gen: Generator):
    """(count, largest counted growth rate or 0.0, pairs in the band) of the
    generator's growing pairs +-sqrt(-mu): the eigenvalues mu < 0 of
    S = P^T Lh P (d^2p/dt^2 = -S p), those above -1e-12 max|mu| being
    round-off.  A pair counts when its mode's energy quotient
    q.Lh.q / q.q / ||Lh|| with q = P p is below -VERDICT_ZERO_TOL."""
    mu, p = eigh(gen.P.T @ gen.Lh @ gen.P)
    grows = mu < -1e-12 * np.max(np.abs(mu))
    mu = mu[grows]
    quotient = mu / np.sum((gen.P @ p[:, grows]) ** 2, axis=0) / gen._lh_norm
    counted = quotient < -VERDICT_ZERO_TOL
    growth = math.sqrt(-mu[counted].min()) if counted.any() else 0.0
    return int(counted.sum()), growth, int(mu.size - counted.sum())


@dataclass
class LinearTrajectory:
    """Time series of a linear evolution: the generator's first-order flow
    or the meridional second-order wave equation."""

    times: np.ndarray
    energies: np.ndarray  # conserved quadratic per step
    norms: np.ndarray  # state norm per step
    energy_scales: np.ndarray  # magnitude of the energy terms per step

    @property
    def energy_drift(self) -> float:
        """Conservation defect relative to the size of the energy terms.

        On growing trajectories the conserved quadratic is an O(eps)
        cancellation of huge terms, so the defect is normalized by the term
        magnitude rather than by the (possibly tiny) conserved value.
        """
        scale = np.max(self.energy_scales) + 1e-300
        return float(np.max(np.abs(self.energies - self.energies[0]))) / scale

    def growth_rate(self) -> float:
        """Log-slope of the state norm over the trailing half of the run."""
        n = self.times.size
        i0 = int(0.5 * n)
        y = np.log(self.norms[i0:])
        return float(np.polyfit(self.times[i0:], y, 1)[0])


def evolve_linearized(gen: Generator, z0: np.ndarray, T: float, dt: float) -> LinearTrajectory:
    """Implicit-midpoint evolution of the generator; conserves the discrete
    energy (the Casimir second variation in whitened coordinates) exactly up
    to linear-solver round-off."""
    n_steps = max(int(round(T / dt)), 1)
    dim = gen.matrix.shape[0]
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (dim,):
        raise ValueError(f"state dimension should be {dim}")
    A = np.eye(dim) - 0.5 * dt * gen.matrix
    B = np.eye(dim) + 0.5 * dt * gen.matrix
    lu, piv = sla.lu_factor(A)
    times = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    scales = np.empty(n_steps + 1)
    for i in range(n_steps + 1):
        times[i] = i * dt
        energies[i] = gen.energy(z)
        scales[i] = gen.energy_scale(z)
        norms[i] = math.sqrt(float(z @ z))
        if i < n_steps:
            z = sla.lu_solve((lu, piv), B @ z)
    return LinearTrajectory(times, energies, norms, scales)


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
        counts = [generator_unstable_count(assemble_generator(basis, L, parity))
                  for parity in ("even", "odd")]
        count, growth, n_zero = zip(*counts)
        report["generator_unstable_count"] = sum(count)
        report["generator_n_zero"] = sum(n_zero)
        report["growth_rate"] = max(growth)
    return report

"""Axisymmetric rotating equilibria by self-consistent-field iteration.

Both slow-rotation families are one Euler-Poisson problem on a half-plane
(r, z >= 0) grid with even reflection, solved by one SCF driver keyed on a
``RotationSpec``; the families differ only in the rotational potential:

* fixed angular velocity: the centrifugal potential kappa^2 int_0^r w^2 s ds
  is a fixed function of radius;
* fixed momentum distribution: the rotational potential
  eps^2 int_0^r J(m(s), M) s^-3 ds is rebuilt each sweep from the current
  iterate's cylinder mass.

Each sweep solves the Poisson problem for the current density, forms the
effective enthalpy h = rot - V - c with the constant c pinned so that
h(0, 0) equals the target center enthalpy, and maps back through the
enthalpy inverse.  Updates are damped and the damping halves whenever the
defect grows; a defect that turns non-finite or exceeds the first sweep's
by ``DIVERGENCE_FACTOR`` stops the iteration as diverged.

A solved star carries one lazily built ``StarContext``: the volume weights,
the support mask, h''(rho0) and its inverse, the column density, the radial
support and the rotation profiles that the bases and stability forms share.
The profiles (omega, d(omega r^2)/dr, Upsilon) are the only way the rotation
reaches those analyses; the family itself is read here only where the
physics differs (rotational potential, fixed-j origin check, profile
definitions).

A saved bundle's ``meta.json`` describes the star's physics in the config's
own format: its ``eos`` and ``rotation`` entries are the sections
``EquationOfState.from_config`` and ``RotationSpec.from_config`` read (a
static star's rotation is null), so a bundle can be replayed as a config.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from rotstar.eos import EquationOfState
from rotstar.errors import SolverError
from rotstar.poisson import Grid, RingKernel
from rotstar.radial import RadialStar, solve_radial
from rotstar.rotlaw import (
    AngularVelocityLaw,
    FORMS,
    MomentumDistribution,
    profile_config,
    profile_from_config,
)

__all__ = [
    "RotationSpec",
    "StarContext",
    "AxiStar",
    "make_grid",
    "solve_fixed_omega",
    "solve_fixed_j",
    "axistar_from_radial",
    "boundary_asymptotics_check",
    "save_axistar",
    "load_axistar",
]

DENSITY_FLOOR_REL = 1e-12
#: a sweep whose defect exceeds the first sweep's by this factor has diverged
DIVERGENCE_FACTOR = 1e3


@dataclass(frozen=True)
class RotationSpec:
    """Rotation metadata of an equilibrium.

    kind is 'none', 'fixed_omega' (law, kappa) or 'fixed_j' (j, eps).  The
    actual azimuthal velocity is kappa * law.omega(r) * r for the first
    family and eps * j(m(r), M) / r for the second.
    """

    kind: str
    law: AngularVelocityLaw | None = None
    kappa: float = 0.0
    momentum: MomentumDistribution | None = None
    eps: float = 0.0

    @classmethod
    def from_config(cls, section: dict | None) -> RotationSpec:
        """The rotation a config section names: a law's section adds its
        amplitude as ``kappa``, a distribution's as ``eps``; None is a
        static star."""
        if section is None:
            return cls(kind="none")
        params = dict(section)
        form = params["form"]
        fixed_omega = issubclass(FORMS[form], AngularVelocityLaw)
        key = "kappa" if fixed_omega else "eps"
        if key not in params:
            raise ValueError(f"rotation form {form!r} requires {key!r}")
        amplitude = params.pop(key)
        profile = profile_from_config(params)
        if fixed_omega:
            return cls(kind="fixed_omega", law=profile, kappa=amplitude)
        return cls(kind="fixed_j", momentum=profile, eps=amplitude)

    def config(self) -> dict | None:
        """The config section ``from_config`` reads back into this spec."""
        if self.kind == "fixed_omega":
            return {**profile_config(self.law), "kappa": self.kappa}
        if self.kind == "fixed_j":
            return {**profile_config(self.momentum), "eps": self.eps}
        return None


@dataclass(frozen=True)
class StarContext:
    """Arrays the analyses of one equilibrium share, built once; callers
    read them and never write into them."""

    weights: np.ndarray  # volume weights 2 pi (wr r) (x) wz
    mask: np.ndarray  # support, rho0 > floor
    phi2: np.ndarray  # h''(rho0) on the support, 0 outside
    inv_phi2: np.ndarray  # 1 / h''(rho0) on the support, 0 outside
    h1: np.ndarray  # int rho0 dz per radius
    radial_support: np.ndarray  # (h1 > 0) & (r <= R0)
    omega: np.ndarray  # this and the next two: azimuthal_velocity_profiles()
    d_om_r2: np.ndarray
    ups: np.ndarray

    @property
    def rotating(self) -> bool:
        """Whether the star rotates at all (a kappa = 0 or eps = 0 star of a
        rotating family does not)."""
        return bool(np.any(self.omega))


@dataclass
class AxiStar:
    """Axisymmetric equilibrium on a half-plane grid (even in z)."""

    eos: EquationOfState
    grid: Grid
    rho: np.ndarray
    potential: np.ndarray
    mu: float
    c_const: float
    residual: float
    support_radius: float  # R0
    support_height: float  # Z0
    mass: float
    m_of_r: np.ndarray  # cylinder mass per grid radius, m(R0) = M / (2 pi)
    rotation: RotationSpec
    floor: float
    _kernel: RingKernel | None = field(default=None, repr=False, compare=False)
    _context: StarContext | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def support_mask(self) -> np.ndarray:
        return self.rho > self.floor

    @property
    def context(self) -> StarContext:
        """The star's shared derived arrays, built on first use from its
        fields as they stand (a solved star's fields are not modified)."""
        if self._context is None:
            self._context = _star_context(self)
        return self._context

    @property
    def kernel(self) -> RingKernel:
        if self._kernel is None:
            self._kernel = RingKernel(self.grid)
        return self._kernel

    def potentials(self, fields: np.ndarray, parities) -> np.ndarray:
        """Gravitational potential of each field, one Poisson solve per field."""
        pots = np.empty_like(fields)
        for k, par in enumerate(parities):
            pots[k] = self.kernel.potential(fields[k], parity=par)
        return pots

    def h_column(self) -> np.ndarray:
        """int rho dz per radius (full line, even reflection)."""
        return self.grid.z_integral(self.rho)

    def grad_h(self):
        """Gradient of the effective enthalpy field, (d/dr, d/dz).

        The potential is differenced (it is smooth through the surface) and
        the rotational part is added analytically; h = rot - V - c, so
        grad h = (rot'(r) - dV/dr, -dV/dz) with the centrifugal acceleration
        rot'(r) = omega^2 r in both families.  Used to form grad rho =
        grad h / h'(rho) without ever differencing the density itself.
        """
        dVdr = np.gradient(self.potential, self.grid.rs, axis=0, edge_order=2)
        dVdz = np.empty_like(self.potential)
        hz = self.grid.hz
        dVdz[:, 1:-1] = (self.potential[:, 2:] - self.potential[:, :-2]) / (2 * hz)
        dVdz[:, 0] = 0.0  # even reflection
        dVdz[:, -1] = (self.potential[:, -1] - self.potential[:, -2]) / hz
        rotp = self.context.omega**2 * self.grid.rs
        return rotp[:, None] - dVdr, -dVdz

    def azimuthal_velocity_profiles(self):
        """Consistent rotation profiles on the grid radii.

        Returns (omega, d(omega r^2)/dr, Upsilon) for the actual rotation,
        built from the same arrays everywhere so that discrete identities
        relating the reduced rotational correction and the azimuthal-lift
        energy hold to round-off.
        """
        rs = self.grid.rs
        rot = self.rotation
        if rot.kind == "none":
            z = np.zeros_like(rs)
            return z, z.copy(), z.copy()
        if rot.kind == "fixed_omega":
            omega = rot.kappa * np.asarray(rot.law.omega(rs))
            d_om_r2 = rot.kappa * np.asarray(rot.law.d_omega_r2(rs))
            ups = np.empty_like(rs)
            ups[0] = 4.0 * omega[0] ** 2
            ups[1:] = rot.kappa**2 * rot.law.omega_sq_r4_derivative(rs[1:]) / rs[1:] ** 3
            return omega, d_om_r2, ups
        # fixed_j: omega = eps j(m(r), M)/r^2; chain rule through m'(r) = r h1(r)
        M = self.mass
        h1 = self.h_column()
        m = self.m_of_r
        omega = np.empty_like(rs)
        off = rs > 0
        omega[off] = rot.eps * rot.momentum.j(m[off], M) / rs[off] ** 2
        omega[0] = float(rot.eps * rot.momentum.dj_dp(0.0, M) * 0.5 * h1[0]) if np.isfinite(
            rot.momentum.dj_dp(0.0, M)
        ) else 0.0
        # d/dr (omega r^2) = eps dj/dp(m) m'(r)
        d_om_r2 = rot.eps * rot.momentum.dj_dp(m, M) * rs * h1
        ups = np.empty_like(rs)
        ups[off] = rot.eps**2 * rot.momentum.dJ_dp(m[off], M) * h1[off] / rs[off] ** 2
        ups[0] = 4.0 * omega[0] ** 2
        return omega, d_om_r2, ups


def _star_context(star: AxiStar) -> StarContext:
    g, mask = star.grid, star.support_mask
    phi2 = np.zeros_like(star.rho)
    phi2[mask] = star.eos.enthalpy_second(star.rho[mask])
    inv_phi2 = np.zeros_like(star.rho)
    inv_phi2[mask] = 1.0 / phi2[mask]
    h1 = star.h_column()
    weights = 2.0 * math.pi * np.outer(g.wr * g.rs, g.wz_line())
    support = (h1 > 0) & (g.rs <= star.support_radius)
    return StarContext(weights, mask, phi2, inv_phi2, h1, support,
                       *star.azimuthal_velocity_profiles())


def make_grid(
    r_max: float,
    z_max: float,
    nr: int,
    nz: int,
    refine_at: float | None = None,
) -> Grid:
    """Uniform tensor grid, optionally r-graded around ``refine_at``.

    Grading keeps z uniform (the Poisson kernel convolves in z) and places a
    denser uniform band of radii around the requested radius, which surface
    diagnostics need: 45% of the radii (at least 8) within 14% of
    ``refine_at`` on either side.
    """
    zs = np.linspace(0.0, z_max, nz)
    if refine_at is None:
        return Grid(np.linspace(0.0, r_max, nr), zs)
    band = 0.14 * refine_at
    lo, hi = max(refine_at - band, 0.0), min(refine_at + band, r_max)
    n_fine = max(int(0.45 * nr), 8)
    n_coarse = nr - n_fine
    coarse = np.linspace(0.0, r_max, n_coarse)
    fine = np.linspace(lo, hi, n_fine)
    rs = np.unique(np.concatenate([coarse, fine]))
    keep = np.concatenate([[True], np.diff(rs) > 1e-9 * r_max])
    return Grid(rs[keep], zs)


def _scf_iterate(
    eos: EquationOfState,
    kernel: RingKernel,
    mu: float,
    rho0: np.ndarray,
    rot_potential,  # callable(rho) -> per-radius rotational potential
    tol: float,
    max_iter: int,
    damping: float,
):
    h_center = eos.enthalpy(mu)
    floor = DENSITY_FLOOR_REL * mu

    def fields(rho):
        """Potential, constant c and effective enthalpy h = rot - V - c."""
        V = kernel.potential(rho)
        rot = rot_potential(rho)
        c = -V[0, 0] - h_center
        return V, c, rot[:, None] - V - c

    rho = rho0.copy()
    theta = damping
    prev_err = math.inf
    grow_count = 0
    err = math.inf
    blowup = math.inf  # set from the first sweep's defect
    for _ in range(max_iter):
        _, _, h = fields(rho)
        # the inverse maps h = 0 to 0, so only the support needs it
        pos = h > 0
        rho_raw = np.zeros_like(h)
        rho_raw[pos] = eos.enthalpy_inverse(h[pos])
        rho_new = (1.0 - theta) * rho + theta * rho_raw
        err = float(np.max(np.abs(rho_new - rho))) / mu
        rho = rho_new
        if err < tol:
            break
        if err > prev_err * (1.0 + 1e-12):
            grow_count += 1
            if grow_count >= 3:
                theta *= 0.5
                grow_count = 0
        else:
            grow_count = 0
        if theta < 1e-3 or not math.isfinite(err) or err > blowup:
            raise SolverError(f"iteration diverged at mu={mu:g} (defect {err:.3e})")
        if blowup == math.inf:
            blowup = DIVERGENCE_FACTOR * err
        prev_err = err
    else:
        raise SolverError(
            f"no convergence in {max_iter} sweeps at mu={mu:g} (defect {err:.3e})"
        )

    if np.any(rho[-1, :] > floor) or np.any(rho[:, -1] > floor):
        raise SolverError("density support touches the grid boundary")

    # final consistent fields and residual
    V, c, h = fields(rho)
    mask = rho > floor
    residual = float(np.max(np.abs(eos.enthalpy(rho[mask]) - h[mask])))
    return rho, V, float(c), h, residual, floor


def _support_extent(grid: Grid, h_equator: np.ndarray, h_axis: np.ndarray):
    """Zero crossings of the effective enthalpy along the equator and axis."""

    def crossing(x, f):
        pos = np.nonzero(f > 0)[0]
        if pos.size == 0:
            return 0.0
        i = pos[-1]
        if i + 1 >= f.size:
            return float(x[-1])
        f0, f1 = f[i], f[i + 1]
        return float(x[i] + (x[i + 1] - x[i]) * f0 / (f0 - f1))

    return crossing(grid.rs, h_equator), crossing(grid.zs, h_axis)


def _rot_potential_of(grid: Grid, rot: RotationSpec):
    """rho -> rotational potential per grid radius (only the fixed-j one
    depends on rho)."""
    if rot.kind == "fixed_j":
        return lambda rho: _momentum_potential(grid, rho, rot.momentum, rot.eps)
    arr = rot.kappa**2 * np.asarray(rot.law.centrifugal_integral(grid.rs))
    return lambda rho: arr


def _momentum_potential(
    grid: Grid, rho: np.ndarray, momentum: MomentumDistribution, eps: float
) -> np.ndarray:
    """eps^2 int_0^r J(m(s), M) s^-3 ds on the grid radii.

    The integrand vanishes at the axis because J = O(m^2) and m = O(s^2).
    """
    rs = grid.rs
    m = grid.cylinder_mass(rho)
    M = 2.0 * math.pi * float(m[-1])
    integrand = np.zeros_like(rs)
    off = rs > 0
    integrand[off] = momentum.J(m[off], M) / rs[off] ** 3
    return cumulative_trapezoid(integrand, rs, initial=0) * eps**2


def _solve(
    eos: EquationOfState,
    rotation: RotationSpec,
    mu: float,
    grid: Grid | None,
    tol: float,
    max_iter: int,
    damping: float,
    nr: int,
    nz: int,
    pad: float,
) -> AxiStar:
    """SCF equilibrium of either rotation family, seeded by the non-rotating
    profile with the same center density."""
    seed = solve_radial(eos, mu)
    if rotation.kind == "fixed_j":
        rotation.momentum.validate_origin(seed.mass)
    if grid is None:
        grid = make_grid(pad * seed.radius, pad * seed.radius, nr, nz)
    if grid.rs[-1] <= seed.radius:
        raise SolverError("grid does not contain the non-rotating support")
    kernel = RingKernel(grid)
    RG, ZG = grid.meshes()
    rho0 = seed.rho_of(np.sqrt(RG**2 + ZG**2))
    rho, V, c, h, residual, floor = _scf_iterate(
        eos, kernel, mu, rho0, _rot_potential_of(grid, rotation), tol, max_iter, damping
    )
    R0, Z0 = _support_extent(grid, h[:, 0], h[0, :])
    m_of_r = grid.cylinder_mass(rho)
    return AxiStar(
        eos=eos,
        grid=grid,
        rho=rho,
        potential=V,
        mu=mu,
        c_const=c,
        residual=residual,
        support_radius=R0,
        support_height=Z0,
        mass=2.0 * math.pi * float(m_of_r[-1]),
        m_of_r=m_of_r,
        rotation=rotation,
        floor=floor,
        _kernel=kernel,
    )


def solve_fixed_omega(
    eos: EquationOfState,
    law: AngularVelocityLaw,
    kappa: float,
    mu: float,
    grid: Grid | None = None,
    tol: float = 1e-10,
    max_iter: int = 400,
    damping: float = 0.5,
    nr: int = 96,
    nz: int = 96,
    pad: float = 1.35,
) -> AxiStar:
    """Equilibrium with azimuthal velocity kappa * law.omega(r) * r; the
    kappa = 0 limit reproduces the non-rotating profile up to grid
    interpolation."""
    rotation = RotationSpec(kind="fixed_omega", law=law, kappa=kappa)
    return _solve(eos, rotation, mu, grid, tol, max_iter, damping, nr, nz, pad)


def solve_fixed_j(
    eos: EquationOfState,
    momentum: MomentumDistribution,
    eps: float,
    mu: float,
    grid: Grid | None = None,
    tol: float = 1e-10,
    max_iter: int = 400,
    damping: float = 0.5,
    nr: int = 96,
    nz: int = 96,
    pad: float = 1.35,
) -> AxiStar:
    """Equilibrium whose specific angular momentum follows a fixed
    distribution over cylinder mass; the rotational potential is rebuilt
    from the current iterate each sweep."""
    rotation = RotationSpec(kind="fixed_j", momentum=momentum, eps=eps)
    return _solve(eos, rotation, mu, grid, tol, max_iter, damping, nr, nz, pad)


def axistar_from_radial(
    star: RadialStar,
    grid: Grid | None = None,
    nr: int = 96,
    nz: int = 96,
    pad: float = 1.35,
) -> AxiStar:
    """Sample a non-rotating profile onto a half-plane grid.

    The potential comes from the radial profile (exterior monopole included),
    so no field solve is needed; useful as the exact kappa = 0 reference and
    as the substrate for stability assemblies on non-rotating stars.
    """
    if grid is None:
        grid = make_grid(pad * star.radius, pad * star.radius, nr, nz)
    if grid.rs[-1] <= star.radius:
        raise SolverError("grid does not contain the support")
    RG, ZG = grid.meshes()
    S = np.sqrt(RG**2 + ZG**2)
    rho = star.rho_of(S)
    V = star.potential_of(S)
    floor = DENSITY_FLOOR_REL * star.mu
    m_of_r = grid.cylinder_mass(rho)
    return AxiStar(
        eos=star.eos,
        grid=grid,
        rho=rho,
        potential=V,
        mu=star.mu,
        c_const=star.mass / star.radius,
        residual=0.0,
        support_radius=star.radius,
        support_height=star.radius,
        mass=2.0 * math.pi * float(m_of_r[-1]),
        m_of_r=m_of_r,
        rotation=RotationSpec(kind="none"),
        floor=floor,
    )


def boundary_asymptotics_check(
    star: AxiStar,
    lam: float,
    band: tuple[float, float] = (0.01, 0.1),
):
    """Fit the decay exponent of r -> int rho^lam dz toward the support edge.

    Returns (fitted_slope, target_slope) where the target is
    lam / (gamma0 - 1) + 1/2.  Radii with support distance in
    ``band`` (fractions of R0) enter the fit; fewer than 8 usable rows
    raises SolverError.
    """
    if lam <= 0:
        raise ValueError("exponent lambda must be positive")
    R0 = star.support_radius
    rs = star.grid.rs
    q = star.grid.z_integral(np.where(star.rho > star.floor, star.rho, 0.0) ** lam)
    dist = R0 - rs
    sel = (dist > band[0] * R0) & (dist < band[1] * R0) & (q > 0)
    if np.count_nonzero(sel) < 8:
        raise SolverError(
            f"only {np.count_nonzero(sel)} usable radii in the fit band"
        )
    slope = float(np.polyfit(np.log(dist[sel]), np.log(q[sel]), 1)[0])
    target = lam / (star.eos.gamma0 - 1.0) + 0.5
    return slope, target


# -- persistence --------------------------------------------------------------


def save_axistar(star: AxiStar, path: str) -> None:
    """Write a self-describing bundle: metadata JSON + row-major density CSV."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "mu": star.mu,
        "mass": star.mass,
        "support_radius": star.support_radius,
        "support_height": star.support_height,
        "c_const": star.c_const,
        "residual": star.residual,
        "floor": star.floor,
        "rotation": star.rotation.config(),
        "eos": star.eos.config(),
        "grid": {"rs": star.grid.rs.tolist(), "zs": star.grid.zs.tolist()},
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    np.savetxt(os.path.join(path, "density.csv"), star.rho, delimiter=",", fmt="%.16e")
    np.savetxt(
        os.path.join(path, "potential.csv"), star.potential, delimiter=",", fmt="%.16e"
    )


def load_axistar(path: str) -> AxiStar:
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    grid = Grid(np.asarray(meta["grid"]["rs"]), np.asarray(meta["grid"]["zs"]))
    rho = np.loadtxt(os.path.join(path, "density.csv"), delimiter=",")
    V = np.loadtxt(os.path.join(path, "potential.csv"), delimiter=",")
    m_of_r = grid.cylinder_mass(rho)
    return AxiStar(
        eos=EquationOfState.from_config(meta["eos"]),
        grid=grid,
        rho=rho,
        potential=V,
        mu=meta["mu"],
        c_const=meta["c_const"],
        residual=meta["residual"],
        support_radius=meta["support_radius"],
        support_height=meta["support_height"],
        mass=meta["mass"],
        m_of_r=m_of_r,
        rotation=RotationSpec.from_config(meta["rotation"]),
        floor=meta["floor"],
    )

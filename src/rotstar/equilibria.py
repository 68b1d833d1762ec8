"""Axisymmetric rotating equilibria by self-consistent-field iteration.

Both slow-rotation families are one Euler-Poisson problem on a half-plane
(r, z >= 0) grid with even reflection, solved by one SCF driver keyed on a
``RotationSpec(profile, amplitude)`` (``rotstar.rotlaw``).  The families
differ only in the rotational potential, and each profile class carries its
own (``rotational_potential``): fixed in radius for an angular velocity law,
rebuilt each sweep from the current iterate's cylinder mass for a momentum
distribution.

Each sweep projects the current density rho to g = G(rho): it solves the
Poisson problem, forms the effective enthalpy h = rot - V - c with the
constant c pinned so that h(0, 0) equals the target center enthalpy, and
maps back through the enthalpy inverse.  The defect is max|g - rho| / mu.
The next iterate is a type-II Anderson step over the last
``ANDERSON_DEPTH`` sweeps, g - (dX + dF) gamma clipped at 0, with gamma the
least-squares fit of the defect f = g - rho by the defect differences dF
(dX: the iterate differences).  The damped step rho + theta * f, theta
starting at ``DAMPING``, stands in on the first sweep, after a restart, and
when the Anderson step puts density on the grid's outer row or column; a
restart clears the history and happens when that step touches the boundary
or when the defect has grown three sweeps in a row, which also halves theta.
The iteration ends on the projection g itself, which is exactly zero off the
support.  A defect that turns non-finite or exceeds the first sweep's by
``DIVERGENCE_FACTOR`` stops the iteration as diverged; the star records its
sweep count.

A star stores only what defines it: its mass, cylinder mass, density
floor and SCF constant c = -V(0, 0) - h(mu) are properties of its grid,
density, potential and center density.  Its density
is rho0, zero at and below the floor by construction (solved, sampled,
loaded or replaced), so its mass and every analysis read the support alone.
Its ring kernel (``AxiStar.kernel``) solves the potentials of any field
stack of one parity.  It carries one lazily built ``StarContext``, the only
copy of the volume weights, the support mask, grad rho0 = grad h / h''(rho0),
h''(rho0) and its inverse, the column density, the radial support, the
rotation profiles, the two rotational weights and the rotation regime
(``rayleigh_stable``) that the bases and stability forms share; no analysis
masks the density, differences the potential or compares Upsilon with 0.
The profiles (omega, d(omega r^2)/dr, Upsilon) come from the profile class
(``grid_profiles``) and are the only way the rotation reaches those
analyses; this module reads the family only for the fixed-j origin check.

Each option of a solve is declared once: the grid's (``grid``, ``nr``,
``nz``, ``pad``) on ``_star_grid``, which the SCF and the sampled star
share, and the SCF's (``tol``, ``max_iter``) on ``_solve``.

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
from functools import cached_property

import numpy as np

from rotstar.eos import EquationOfState
from rotstar.errors import SolverError
from rotstar.poisson import Grid, RingKernel
from rotstar.radial import RadialStar, solve_radial
from rotstar.rotlaw import AngularVelocityLaw, MomentumDistribution, RotationSpec

__all__ = [
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
#: past sweeps an Anderson step extrapolates over
ANDERSON_DEPTH = 5
#: first step of the damped sweep that stands in for an Anderson step
DAMPING = 0.5


@dataclass(frozen=True)
class StarContext:
    """Arrays the analyses of one equilibrium share, built once; callers
    read them and never write into them."""

    weights: np.ndarray  # volume weights 2 pi (wr r) (x) wz
    mask: np.ndarray  # support, rho0 > 0
    grad_rho: np.ndarray  # (d/dr, d/dz) of rho0, grad h / h''(rho0) on the support, 0 outside
    phi2: np.ndarray  # h''(rho0) on the support, 0 outside
    inv_phi2: np.ndarray  # 1 / h''(rho0) on the support, 0 outside
    h1: np.ndarray  # int rho0 dz per radius
    radial_support: np.ndarray  # (h1 > 0) & (r <= R0)
    omega: np.ndarray  # this and the next two: the profile's grid_profiles()
    d_om_r2: np.ndarray
    ups: np.ndarray
    rot_weight: np.ndarray  # Upsilon / (r h1) on the radial support off the axis, else 0
    kin_weight: np.ndarray  # 4 omega^2 / Upsilon there where Upsilon > 0, else 0

    @property
    def rotating(self) -> bool:
        """Whether the star rotates at all (a kappa = 0 or eps = 0 star of a
        rotating family does not)."""
        return bool(np.any(self.omega))

    @property
    def rayleigh_stable(self) -> bool:
        """Upsilon > 0 on every radial-support radius off the axis (index
        0): the one rule that admits the reduced form, the lift and the
        generator and refuses the meridional form; a static star fails it."""
        return bool(np.all(self.ups[1:][self.radial_support[1:]] > 0))


@dataclass
class AxiStar:
    """Axisymmetric equilibrium on a half-plane grid (even in z); a copy
    with another density or potential (``dataclasses.replace``) derives its
    own mass and c.  ``rho`` is rho0: any density it is given is cut to 0
    at the floor."""

    eos: EquationOfState
    grid: Grid
    rho: np.ndarray
    potential: np.ndarray
    mu: float
    residual: float
    support_radius: float  # R0
    support_height: float  # Z0
    rotation: RotationSpec
    sweeps: int = 0  # SCF sweeps that produced rho; 0 for a sampled or loaded star
    _kernel: RingKernel | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.rho = np.where(self.rho <= self.floor, 0.0, self.rho)  # a NaN stays

    @cached_property
    def m_of_r(self) -> np.ndarray:
        """Cylinder mass per grid radius, m(R0) = M / (2 pi)."""
        return self.grid.cylinder_mass(self.rho)

    @property
    def mass(self) -> float:
        return 2.0 * math.pi * float(self.m_of_r[-1])

    @property
    def floor(self) -> float:
        """Density below which a node is outside the support."""
        return DENSITY_FLOOR_REL * self.mu

    @property
    def c_const(self) -> float:
        """c of h = rot - V - c, pinning h(0, 0) to h(mu) as the SCF does."""
        return float(-self.potential[0, 0] - self.eos.enthalpy(self.mu))

    def summary(self) -> dict:
        """The star's record, which ``equilibrium.json`` and ``meta.json`` share."""
        keys = ("mu", "mass", "support_radius", "support_height", "c_const", "residual")
        return {key: getattr(self, key) for key in keys}

    @cached_property
    def context(self) -> StarContext:
        """The star's shared derived arrays, built on first use from its
        fields as they stand (a solved star's fields are not modified)."""
        return _star_context(self)

    @property
    def kernel(self) -> RingKernel:
        if self._kernel is None:
            self._kernel = RingKernel(self.grid)
        return self._kernel


def _star_context(star: AxiStar) -> StarContext:
    g = star.grid
    mask = star.rho > 0
    phi2 = np.zeros_like(star.rho)
    phi2[mask] = star.eos.enthalpy_second(star.rho[mask])
    inv_phi2 = np.zeros_like(star.rho)
    inv_phi2[mask] = 1.0 / phi2[mask]
    h1 = g.z_integral(star.rho)
    weights = 2.0 * math.pi * np.outer(g.wr * g.rs, g.wz_line())
    support = (h1 > 0) & (g.rs <= star.support_radius)
    rot = star.rotation
    if rot.profile is None:
        profiles = [np.zeros_like(g.rs) for _ in range(3)]
    else:
        profiles = rot.profile.grid_profiles(rot.amplitude, g.rs, star.m_of_r, h1)
    # grad rho0 = grad h / h''(rho0) with grad h = (omega^2 r - dV/dr, -dV/dz),
    # h = rot - V - c: the potential is differenced (it is smooth through
    # the surface), the density never
    V = star.potential
    dVdr = np.gradient(V, g.rs, axis=0, edge_order=2)
    dVdz = np.gradient(V, g.hz, axis=1)
    dVdz[:, 0] = 0.0  # even reflection
    omega, _, ups = profiles
    grad_rho = np.stack(((omega**2 * g.rs)[:, None] - dVdr, -dVdz)) * inv_phi2
    off = support & (g.rs > 0)
    rot_weight = np.divide(ups, g.rs * h1, out=np.zeros_like(ups), where=off)
    kin_weight = np.divide(4.0 * omega**2, ups, out=np.zeros_like(ups), where=off & (ups > 0))
    return StarContext(weights, mask, grad_rho, phi2, inv_phi2, h1, support, *profiles,
                       rot_weight, kin_weight)


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
):
    h_center = eos.enthalpy(mu)
    floor = DENSITY_FLOOR_REL * mu

    def fields(rho):
        """Potential and effective enthalpy h = rot - V - c."""
        V = kernel.potential(rho)
        c = -V[0, 0] - h_center
        return V, rot_potential(rho)[:, None] - V - c

    def project(rho):
        """G(rho): the density the enthalpy of rho's fields maps back to; the
        inverse maps h = 0 to 0, so only the support needs it."""
        h = fields(rho)[1]
        pos = h > 0
        g = np.zeros_like(h)
        g[pos] = eos.enthalpy_inverse(h[pos])
        return g

    def touches_boundary(rho):
        return bool(np.any(rho[-1, :] > floor) or np.any(rho[:, -1] > floor))

    # Anderson history: differences of successive iterates and defects,
    # ANDERSON_DEPTH rows each, overwritten oldest first
    dX = np.empty((ANDERSON_DEPTH, rho0.size))
    dF = np.empty_like(dX)
    depth = 0
    head = 0
    rho = rho0  # never written into: every iterate is a new array
    rho_prev = f_prev = None
    theta = DAMPING
    prev_err = math.inf
    grow_count = 0
    err = math.inf
    blowup = math.inf  # set from the first sweep's defect
    for sweep in range(1, max_iter + 1):
        g = project(rho)
        f = g - rho
        err = float(np.max(np.abs(f))) / mu
        if err < tol:
            rho = g
            break
        restart = False
        if err > prev_err * (1.0 + 1e-12):
            grow_count += 1
            if grow_count >= 3:
                theta *= 0.5
                grow_count = 0
                restart = True
        else:
            grow_count = 0
        if theta < 1e-3 or not math.isfinite(err) or err > blowup:
            raise SolverError(f"iteration diverged at mu={mu:g} (defect {err:.3e})")
        if blowup == math.inf:
            blowup = DIVERGENCE_FACTOR * err
        prev_err = err

        if restart:
            depth = head = 0
        elif rho_prev is not None:
            dX[head] = (rho - rho_prev).ravel()
            dF[head] = (f - f_prev).ravel()
            head = (head + 1) % ANDERSON_DEPTH
            depth = min(depth + 1, ANDERSON_DEPTH)
        rho_prev, f_prev = rho, f
        if depth:
            hf = dF[:depth]
            gamma = np.linalg.lstsq(hf.T, f.ravel(), rcond=None)[0]
            # g becomes the Anderson step g - (dX + dF) gamma, clipped at 0
            np.subtract(g, (gamma @ dX[:depth] + gamma @ hf).reshape(g.shape), out=g)
            np.maximum(g, 0.0, out=g)
            if touches_boundary(g):
                depth = head = 0
        rho = g if depth else rho + theta * f
    else:
        raise SolverError(
            f"no convergence in {max_iter} sweeps at mu={mu:g} (defect {err:.3e})"
        )

    if touches_boundary(rho):
        raise SolverError("density support touches the grid boundary")

    # final consistent fields and residual
    V, h = fields(rho)
    mask = rho > floor
    residual = math.nan  # an empty support or a non-finite h has none
    if mask.any() and np.all(np.isfinite(h)):
        residual = float(np.max(np.abs(eos.enthalpy(rho[mask]) - h[mask])))
    if not math.isfinite(residual):
        raise SolverError(f"converged to a non-finite residual at mu={mu:g}")
    return rho, V, h, residual, sweep


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


def _star_grid(radius: float, grid: Grid | None = None, nr: int = 96, nz: int = 96,
               pad: float = 1.35) -> Grid:
    """``grid``, or the square pad * radius grid of nr x nz nodes; either
    must reach past the non-rotating radius."""
    if grid is None:
        grid = make_grid(pad * radius, pad * radius, nr, nz)
    if grid.rs[-1] <= radius:
        raise SolverError("grid does not contain the non-rotating support")
    return grid


def _solve(eos: EquationOfState, rotation: RotationSpec, mu: float, tol: float = 1e-10,
           max_iter: int = 400, **grid_options) -> AxiStar:
    """SCF equilibrium of either rotation family, seeded by the non-rotating
    profile with the same center density."""
    seed = solve_radial(eos, mu)
    if rotation.kind == "fixed_j":
        rotation.profile.validate_origin(seed.mass)
    grid = _star_grid(seed.radius, **grid_options)
    kernel = RingKernel(grid)
    rho0 = seed.rho_of(grid.spherical_radius())
    rot_potential = rotation.profile.rotational_potential(rotation.amplitude, grid)
    rho, V, h, residual, sweeps = _scf_iterate(
        eos, kernel, mu, rho0, rot_potential, tol, max_iter
    )
    R0, Z0 = _support_extent(grid, h[:, 0], h[0, :])
    return AxiStar(
        eos=eos,
        grid=grid,
        rho=rho,
        potential=V,
        mu=mu,
        residual=residual,
        support_radius=R0,
        support_height=Z0,
        rotation=rotation,
        sweeps=sweeps,
        _kernel=kernel,
    )


def solve_fixed_omega(eos: EquationOfState, law: AngularVelocityLaw, kappa: float, mu: float,
                      **options) -> AxiStar:
    """Equilibrium with azimuthal velocity kappa * law.omega(r) * r; the
    kappa = 0 limit reproduces the non-rotating profile up to grid
    interpolation.

    Keyword options: ``grid``, or the square pad * R grid of nr x nz nodes
    (R the non-rotating radius; ``nr``, ``nz`` 96, ``pad`` 1.35), which
    must reach past R (SolverError); ``tol`` (1e-10) and ``max_iter`` (400)
    end the SCF.  An unknown option is a TypeError.
    """
    return _solve(eos, RotationSpec(law, kappa), mu, **options)


def solve_fixed_j(eos: EquationOfState, momentum: MomentumDistribution, eps: float, mu: float,
                  **options) -> AxiStar:
    """Equilibrium whose specific angular momentum follows a fixed
    distribution over cylinder mass; the rotational potential is rebuilt
    from the current iterate each sweep.  Options as ``solve_fixed_omega``."""
    return _solve(eos, RotationSpec(momentum, eps), mu, **options)


def axistar_from_radial(star: RadialStar, **grid_options) -> AxiStar:
    """Sample a non-rotating profile onto a half-plane grid.

    The potential comes from the radial profile (exterior monopole included),
    so no field solve is needed; useful as the exact kappa = 0 reference and
    as the substrate for stability assemblies on non-rotating stars.  The
    grid options are ``grid``, ``nr``, ``nz`` and ``pad`` of
    ``solve_fixed_omega``.
    """
    grid = _star_grid(star.radius, **grid_options)
    S = grid.spherical_radius()
    return AxiStar(
        eos=star.eos,
        grid=grid,
        rho=star.rho_of(S),
        potential=star.potential_of(S),
        mu=star.mu,
        residual=0.0,
        support_radius=star.radius,
        support_height=star.radius,
        rotation=RotationSpec(),
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
    q = star.grid.z_integral(star.rho ** lam)
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
        **star.summary(),
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
    return AxiStar(
        eos=EquationOfState.from_config(meta["eos"]),
        grid=grid,
        rho=rho,
        potential=V,
        mu=meta["mu"],
        residual=meta["residual"],
        support_radius=meta["support_radius"],
        support_height=meta["support_height"],
        rotation=RotationSpec.from_config(meta["rotation"]),
    )

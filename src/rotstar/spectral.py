"""Spectrum and growth analysis for centrifugally unstable rotation.

When the discriminant Upsilon dips below zero the azimuthal-velocity weight
of the first-order formulation blows up, and the meridional velocity obeys
the second-order system  u_tt = -(L1 + L2) u  instead, with

    [L1 u, u] = int h''(rho0) D(u)^2 dx - int int D(u)(x) D(u)(y)/|x-y|,
    [L2 u, u] = int rho0 Upsilon(r) u_r^2 dx,        D(u) = div(rho0 u).

L1 is the density energy form evaluated on D(u): it is assembled by the
same ``stability.energy_blocks`` as the reduced form and the generator, and
every grid product goes through ``stability.pair_integrals``.

Its essential spectrum is the closed range of Upsilon, an interval [-a, b]
with a > 0; finitely many eigenvalues sit below -a and a sequence of
eigenvalues escapes upward.  The Galerkin velocity space combines gradient
fields (which feel the compressible part L1) with exactly divergence-free
stream-function fields built from radial spline bumps; refining the bump
family makes the discrete spectrum fill the essential interval while the
edges sharpen.  A velocity basis stores its gradient fields first and the
mass-flux divergences of those alone, whose count is the number of
gradient fields; it carries the star it was built on, so
``assemble_meridional_form`` takes the basis alone.  A spectrum report
stores the sorted eigenvalues of every level, and its finest level and
lowest eigenvalue eta0 are read from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from rotstar.bases import legendre_table
from rotstar.equilibria import AxiStar
from rotstar.errors import AmbiguousClassificationError, ConfigError, SolverError
from rotstar.forms import QuadraticForm
from rotstar.stability import LinearTrajectory, energy_blocks, pair_integrals

__all__ = [
    "VelocityBasis",
    "velocity_basis",
    "assemble_meridional_form",
    "SpectrumReport",
    "spectrum_report",
    "evolve_second_order",
    "upsilon_range",
]


@dataclass
class VelocityBasis:
    """Meridional velocity fields with their mass-flux divergences.

    The first ``n_grad`` fields are gradient fields, the rest stream (ring)
    fields.  ``div_fields`` stores div(rho0 u) of the gradient fields only:
    it is identically zero for the ring members by construction, so the
    compressible part of the form never sees quadrature noise from them.
    """

    star: AxiStar
    fields_r: np.ndarray  # (n, nr, nz)
    fields_z: np.ndarray
    div_fields: np.ndarray  # (n_grad, nr, nz)
    parity: str

    @property
    def count(self) -> int:
        return self.fields_r.shape[0]

    @property
    def n_grad(self) -> int:
        return self.div_fields.shape[0]

    def combine(self, coeffs):
        c = np.asarray(coeffs)
        return (
            np.tensordot(c, self.fields_r, axes=(0, 0)),
            np.tensordot(c, self.fields_z, axes=(0, 0)),
            np.tensordot(c[:self.n_grad], self.div_fields, axes=(0, 0)),
        )


def velocity_basis(
    star: AxiStar,
    parity: str = "even",
    grad_deg_r: int = 4,
    grad_deg_z: int = 4,
    ring_knots: int = 12,
    ring_deg_z: int = 3,
) -> VelocityBasis:
    """Gradient plus divergence-free stream fields on the star.

    Gradient potentials use an r^2 radial argument so their axis behaviour
    is regular (the mass-flux divergence stays square-integrable in the
    h''-weighted space).  Stream functions are r^2 rho0^2 times a spline
    bump in radius and a Legendre factor in z; parity bookkeeping: an
    'even' basis has even v_r and odd v_z.

    All spline bumps come from one ``BSpline`` evaluation on the identity
    coefficients (bumps that miss every grid radius are dropped), and each
    family of fields is broadcast straight into preallocated stacks:
    gradient fields first (z degree outer), then ring fields (bump outer,
    z factor inner).  Every field is exactly zero off the support.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    g = star.grid
    rs, zs = g.rs, g.zs
    R0, Z0 = star.support_radius, star.support_height
    mask, inv_phi2 = star.context.mask, star.context.inv_phi2
    rho = np.where(mask, star.rho, 0.0)
    # grad rho0 = grad h / h''(rho0) on the support, zero outside
    ghr, ghz = star.grad_h()
    drho_r, drho_z = ghr * inv_phi2, ghz * inv_phi2

    # gradient fields: xi = P_i(2 (r/R0)^2 - 1) * P_j(z/Z0), the constant
    # (0, 0) left out (zero field); j outer, i inner
    pairs = [
        (i, j)
        for j in range(grad_deg_z + 1)
        if (parity == "even") == (j % 2 == 0)
        for i in range(grad_deg_r + 1)
        if (i, j) != (0, 0)
    ]
    gi = np.array([i for i, _ in pairs], dtype=int)
    gj = np.array([j for _, j in pairs], dtype=int)
    x = 2.0 * (rs / R0) ** 2 - 1.0
    zeta = zs / Z0
    Pr, dPr, d2Pr = legendre_table(x, grad_deg_r)
    Pz, dPz, d2Pz = legendre_table(zeta, grad_deg_z)
    x_r = (4.0 / R0**2) * rs

    # stream fields: Psi = r^2 rho0^2 beta_b(r) Z_j(z); u = curl-type, div-free
    kz = [j for j in range(ring_deg_z + 1) if (j % 2 == 1) == (parity == "even")]
    knots = np.linspace(0.0, R0, ring_knots + 1)
    deg = 2
    t = np.concatenate([[0.0] * deg, knots, [R0] * deg])
    spl = BSpline(t, np.eye(len(t) - deg - 1), deg, extrapolate=False)
    beta = np.nan_to_num(spl(rs)).T  # (n_bumps, nr), one row per bump
    keep = np.any(beta, axis=1)  # a bump between two grid radii is dropped
    beta = beta[keep]
    dbeta = np.nan_to_num(spl.derivative()(rs)).T[keep]
    Zt, dZt, _ = legendre_table(zeta, ring_deg_z)
    Z, dZ = Zt[kz], dZt[kz] / Z0

    n_grad, n_ring = len(pairs), beta.shape[0] * len(kz)
    shape = (n_grad + n_ring,) + rho.shape
    fields_r, fields_z = np.empty(shape), np.empty(shape)
    div = np.empty((n_grad,) + rho.shape)

    xi_r, xi_z = fields_r[:n_grad], fields_z[:n_grad]
    np.multiply((dPr * x_r)[gi][:, :, None], Pz[gj][:, None, :], out=xi_r)
    np.multiply(Pr[gi][:, :, None], dPz[gj][:, None, :], out=xi_z)
    xi_z /= Z0
    # laplacian: xi_rr + xi_r / r + xi_zz, with the r^2 argument
    lap_r = d2Pr * x_r**2 + dPr * (8.0 / R0**2)
    np.multiply(lap_r[gi][:, :, None], Pz[gj][:, None, :], out=div)
    div += Pr[gi][:, :, None] * d2Pz[gj][:, None, :] / Z0**2
    div *= rho
    div += drho_r * xi_r
    div += drho_z * xi_z
    for stack in (xi_r, xi_z, div):
        stack[:, ~mask] = 0.0

    # ring fields, bump b outer and z factor j inner:
    # u_r = r beta_b (2 rho_z Z_j + rho Z_j'),
    # u_z = -Z_j (beta_b (2 rho + 2 r rho_r) + r rho beta_b');
    # rho0 and its gradient vanish off the support, so these do too
    ring_shape = (beta.shape[0], len(kz)) + rho.shape
    RG = rs[:, None]
    flux_z = 2.0 * drho_z[None] * Z[:, None, :] + rho[None] * dZ[:, None, :]
    np.multiply(
        (rs * beta)[:, None, :, None], flux_z[None],
        out=fields_r[n_grad:].reshape(ring_shape),
    )
    radial = beta[:, :, None] * (2.0 * rho + 2.0 * RG * drho_r)
    radial += dbeta[:, :, None] * (RG * rho)
    np.multiply(
        radial[:, None], -Z[None, :, None, :], out=fields_z[n_grad:].reshape(ring_shape)
    )

    return VelocityBasis(
        star=star,
        fields_r=fields_r,
        fields_z=fields_z,
        div_fields=div,
        parity=parity,
    )


def upsilon_range(star: AxiStar):
    """Range [min, max] of the actual discriminant over the support radii,
    read on 2048 radii interpolated from the grid profile."""
    rs = star.grid.rs
    ups = star.context.ups
    sup = rs <= star.support_radius
    fine = np.interp(np.linspace(0.0, star.support_radius, 2048), rs[sup], ups[sup])
    return float(np.min(fine)), float(np.max(fine))


def assemble_meridional_form(basis: VelocityBasis) -> QuadraticForm:
    """Quadratic form of the second-order meridional dynamics on the basis's
    star over the kinetic-energy Gram.  Requires a centrifugally unstable
    rotation (the first-order route handles the stable case)."""
    star = basis.star
    lo, _ = upsilon_range(star)
    if lo >= 0:
        raise ConfigError(
            "rotation is Rayleigh stable on this star; use the reduced "
            "first-order stability analysis instead"
        )
    ctx = star.context
    w = ctx.weights
    rho = np.where(ctx.mask, star.rho, 0.0)
    if not np.all(np.isfinite(basis.div_fields)):
        raise SolverError("velocity basis has entries with undefined divergence norm")

    # L1 is the energy form of div(rho0 u); the ring rows stay exact zeros
    n, ng = basis.count, basis.n_grad
    pressure, grav = energy_blocks(star, basis.div_fields, [basis.parity] * ng)
    Q = np.zeros((n, n))
    Q[:ng, :ng] = pressure + grav
    Q += pair_integrals(basis.fields_r, basis.fields_r, w * (rho * ctx.ups[:, None]))

    wk = w * rho
    G = pair_integrals(basis.fields_r, basis.fields_r, wk)
    G += pair_integrals(basis.fields_z, basis.fields_z, wk)
    return QuadraticForm(Q, G)


@dataclass
class SpectrumReport:
    essential_lo: float  # -a
    essential_hi: float  # b
    discrete_below: list
    discrete_above_count: int
    cluster_fraction: float
    flags: list
    levels: list  # sorted eigenvalue arrays per refinement level

    @property
    def eigenvalues(self) -> np.ndarray:  # the finest level's
        return self.levels[-1]

    @property
    def eta0(self) -> float:
        return float(self.eigenvalues[0])

    def as_dict(self) -> dict:
        return {
            "a": -self.essential_lo,
            "b": self.essential_hi,
            "eta0": self.eta0,
            "discrete_below": list(map(float, self.discrete_below)),
            "discrete_above_count": int(self.discrete_above_count),
            "cluster_fraction": float(self.cluster_fraction),
            "flags": list(self.flags),
        }


def spectrum_report(
    star: AxiStar,
    levels: int = 3,
    ring_knots0: int = 10,
    grad_deg_r: int = 4,
    grad_deg_z: int = 4,
    discrete_drift_tol: float = 1e-3,
    strict: bool = False,
) -> SpectrumReport:
    """Eigenvalues of the meridional form across nested bases with
    essential / discrete classification, on the even sector.

    An eigenvalue is binned essential when its local spacing contracts by at
    least a factor two per refinement (the cluster filling the interval);
    discrete when it moves by less than ``discrete_drift_tol`` relatively
    between the two finest levels while staying outside the interval.
    Ambiguous values are flagged; ``strict`` escalates them to an error.
    """
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    lo, hi = upsilon_range(star)
    spectra = []
    for lev in range(levels):
        vb = velocity_basis(
            star,
            grad_deg_r=grad_deg_r,
            grad_deg_z=grad_deg_z,
            ring_knots=ring_knots0 * 2**lev,
        )
        form = assemble_meridional_form(vb)
        spectra.append(np.sort(form.eigenvalues))

    lam = spectra[-1]
    prev = spectra[-2]
    scale = max(abs(lo), abs(hi), np.max(np.abs(lam)))
    margin = 0.10 * (hi - lo)  # band beside [-a, b] counted with the cluster
    inside = (lam >= lo - margin) & (lam <= hi + margin)

    def local_spacing(arr, v):
        i = np.searchsorted(arr, v)
        cands = []
        if 0 < i < arr.size:
            cands.append(arr[i] - arr[i - 1])
        if i + 1 < arr.size:
            cands.append(arr[i + 1] - arr[i])
        if i >= 2:
            cands.append(arr[i - 1] - arr[i - 2])
        return float(np.median(cands)) if cands else math.inf

    discrete_below, flags = [], []
    n_above = int(np.sum(lam > hi + margin))
    for v in lam[lam < lo - margin]:
        nearest = prev[np.argmin(np.abs(prev - v))]
        drift = abs(nearest - v) / scale
        if drift < discrete_drift_tol:
            discrete_below.append(float(v))
            continue
        # a late-arriving cluster member crowding the lower edge contracts
        # its local spacing under refinement; anything else is ambiguous
        sp_fine = local_spacing(lam, v)
        sp_coarse = local_spacing(prev, nearest)
        if not sp_coarse / max(sp_fine, 1e-300) >= 2.0:
            flags.append(float(v))
    if flags and strict:
        raise AmbiguousClassificationError(
            f"{len(flags)} eigenvalue(s) drifted across the interval edge: {flags}"
        )
    return SpectrumReport(
        essential_lo=lo,
        essential_hi=hi,
        discrete_below=discrete_below,
        discrete_above_count=n_above,
        cluster_fraction=float(np.mean(inside)),
        flags=flags,
        levels=spectra,
    )


def evolve_second_order(
    form: QuadraticForm,
    u0: np.ndarray,
    v0: np.ndarray,
    T: float,
    dt: float | None = None,
    dt_factor: float = 0.1,
) -> LinearTrajectory:
    """Leapfrog integration of  u_tt = -(form) u  in whitened coordinates.

    ``u0``/``v0`` are coordinates in the pencil eigenbasis, whose columns
    ``form.vectors`` are Gram-orthonormal: a field with basis coefficients x
    has coordinates ``form.vectors.T @ form.gram @ x``, and a unit vector
    starts a pure eigenmode.  The default step is
    dt_factor / sqrt(max eigenvalue), within the leapfrog stability bound.
    """
    lam = form.eigenvalues
    lam_max = float(np.max(np.abs(lam)))
    if dt is None:
        dt = dt_factor / math.sqrt(lam_max)
    if dt * math.sqrt(lam_max) >= 2.0:
        raise ValueError("time step exceeds the leapfrog stability bound")
    n_steps = max(int(round(T / dt)), 1)
    # whitened coordinates diagonalize the pencil: u'' = -diag(lam) u
    c = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if c.shape != lam.shape or v.shape != lam.shape:
        raise ValueError("state must be given in pencil eigen-coordinates")
    times = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)
    scales = np.empty(n_steps + 1)
    a = -lam * c
    for i in range(n_steps + 1):
        times[i] = i * dt
        norms[i] = float(np.linalg.norm(c))
        energies[i] = float(v @ v + lam @ (c * c))
        scales[i] = float(v @ v + np.abs(lam) @ (c * c))
        if i < n_steps:
            c = c + dt * v + 0.5 * dt * dt * a
            a_new = -lam * c
            v = v + 0.5 * dt * (a + a_new)
            a = a_new
    return LinearTrajectory(times, energies, norms, scales)

"""Spectrum and growth analysis for centrifugally unstable rotation.

When Upsilon > 0 fails on the support (``StarContext.rayleigh_stable``)
the azimuthal-velocity weight of the first-order formulation blows up, and
the meridional velocity obeys u_tt = -(L1 + L2) u instead, with

    [L1 u, u] = int h''(rho0) D(u)^2 dx - int int D(u)(x) D(u)(y)/|x-y|,
    [L2 u, u] = int rho0 Upsilon(r) u_r^2 dx,        D(u) = div(rho0 u).

L1 is the density energy form evaluated on D(u): it is assembled by the
same ``stability.energy_blocks`` as the reduced form and the generator.
The velocity components are factored stacks of the star's rho0 and its
context's grad rho0 (a radial x vertical x shared profile product
per term, over the term's own fields), so the Upsilon block and the
kinetic Gram go through ``stability.factored_pair_integrals`` (z first,
then r) and no dense velocity stack is built for a form.

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

from rotstar.bases import FactoredStack, Term, legendre_table
from rotstar.equilibria import AxiStar
from rotstar.errors import AmbiguousClassificationError, ConfigError, SolverError
from rotstar.forms import QuadraticForm
from rotstar.numerics import bspline_table
from rotstar.stability import energy_blocks, factored_pair_integrals

__all__ = [
    "VelocityBasis",
    "velocity_basis",
    "assemble_meridional_form",
    "SpectrumReport",
    "spectrum_report",
    "LinearTrajectory",
    "time_steps",
    "evolve_second_order",
    "upsilon_range",
]

#: highest Legendre degree of a stream field's vertical factor
RING_DEG_Z = 3
#: relative drift between the two finest levels below which an eigenvalue
#: under the interval is discrete
DISCRETE_DRIFT_TOL = 1e-3
#: relative distance from a whole number within which T / dt counts as
#: that number of steps in ``time_steps``
_STEP_ROUNDOFF = 1e-12


@dataclass
class VelocityBasis:
    """Meridional velocity fields with their mass-flux divergences.

    The first ``n_grad`` fields are gradient fields, the rest stream (ring)
    fields.  ``u_r`` and ``u_z`` hold the velocity components as factored
    stacks.  ``div_fields`` stores div(rho0 u) of the gradient fields only:
    it is identically zero for the ring members by construction, so the
    compressible part of the form never sees quadrature noise from them.
    """

    star: AxiStar
    u_r: FactoredStack
    u_z: FactoredStack
    div_fields: np.ndarray  # (n_grad, nr, nz)
    parity: str

    @property
    def count(self) -> int:
        return self.u_r.count

    @property
    def n_grad(self) -> int:
        return self.div_fields.shape[0]


def velocity_basis(
    star: AxiStar,
    parity: str = "even",
    grad_deg_r: int = 4,
    grad_deg_z: int = 4,
    ring_knots: int = 12,
    div_fields: np.ndarray | None = None,
) -> VelocityBasis:
    """Gradient plus divergence-free stream fields on the star.

    Gradient potentials use an r^2 radial argument so their axis behaviour
    is regular (the mass-flux divergence stays square-integrable in the
    h''-weighted space).  Stream functions are r^2 rho0^2 times a spline
    bump in radius and a Legendre factor in z of degree at most
    ``RING_DEG_Z``; an 'even' basis has even v_r and odd v_z.

    All spline bumps and their slopes come from one ``bspline_table`` of the
    clamped quadratic B-splines on uniform knots (bumps that miss every grid
    radius are dropped).  The fields are gradient fields first (z degree
    outer), then ring fields (bump outer, z factor inner).  Each velocity
    component is a factored stack: a gradient field is one radial x
    vertical product on the support mask, a ring field the sum of two such
    products with profiles of rho0 and the context's grad rho0; each term
    covers its own fields only.  Only the gradient fields' divergences,
    which L1's Poisson solves need, are dense.  Every field is exactly zero
    off the support.
    ``div_fields``, when given, are those divergences from a basis of the
    same star, parity and gradient degrees (the ring fields may differ),
    and are reused instead of built again.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    g = star.grid
    rs, zs = g.rs, g.zs
    R0, Z0 = star.support_radius, star.support_height
    ctx = star.context
    mask, rho = ctx.mask, star.rho
    drho_r, drho_z = ctx.grad_rho

    # gradient fields: xi = P_i(2 (r/R0)^2 - 1) * P_j(z/Z0), the constant
    # (0, 0) left out (zero field); j outer, i inner
    js = [j for j in range(grad_deg_z + 1) if (parity == "even") == (j % 2 == 0)]
    pairs = [(i, j) for j in js for i in range(grad_deg_r + 1) if (i, j) != (0, 0)]
    gi = np.array([i for i, _ in pairs], dtype=int)
    gj = np.array([j for _, j in pairs], dtype=int)
    x = 2.0 * (rs / R0) ** 2 - 1.0
    zeta = zs / Z0
    Pr, dPr, d2Pr = legendre_table(x, grad_deg_r)
    Pz, dPz, d2Pz = legendre_table(zeta, grad_deg_z)
    x_r = (4.0 / R0**2) * rs

    # stream fields: Psi = r^2 rho0^2 beta_b(r) Z_j(z); u = curl-type, div-free
    kz = [j for j in range(RING_DEG_Z + 1) if (j % 2 == 1) == (parity == "even")]
    knots = np.linspace(0.0, R0, ring_knots + 1)
    beta, dbeta = bspline_table(np.concatenate([[0.0] * 2, knots, [R0] * 2]), 2, rs)
    keep = np.any(beta, axis=1)  # a bump between two grid radii is dropped
    beta, dbeta = beta[keep], dbeta[keep]
    Zt, dZt, _ = legendre_table(zeta, RING_DEG_Z)
    Z, dZ = Zt[kz], dZt[kz] / Z0

    # gradient fields, on the support: xi_r = P_i' x_r P_j, xi_z = P_i P_j' / Z0
    on = mask.astype(float)
    gpos = np.searchsorted(js, gj)
    dxi = (dPr * x_r)[gi]
    grad_r = Term(dxi, Pz[js], gpos, on)
    grad_z = Term(Pr[gi], dPz[js] / Z0, gpos, on)
    if div_fields is None:
        # laplacian: xi_rr + xi_r / r + xi_zz, with the r^2 argument; the
        # divergence alone is dense, read from unmasked gradient stacks
        xi_r = dxi[:, :, None] * Pz[gj][:, None, :]
        xi_z = Pr[gi][:, :, None] * dPz[gj][:, None, :]
        xi_z /= Z0
        lap_r = d2Pr * x_r**2 + dPr * (8.0 / R0**2)
        div_fields = lap_r[gi][:, :, None] * Pz[gj][:, None, :]
        div_fields += Pr[gi][:, :, None] * d2Pz[gj][:, None, :] / Z0**2
        div_fields *= rho
        div_fields += drho_r * xi_r
        div_fields += drho_z * xi_z
        del xi_r, xi_z

    # ring fields, bump b outer and z factor j inner:
    # u_r = r beta_b (2 rho_z Z_j + rho Z_j'),
    # u_z = -Z_j (beta_b (2 rho + 2 r rho_r) + r rho beta_b');
    # rho0 and its gradient vanish off the support, so these do too
    RG = rs[:, None]
    n_grad = len(pairs)
    zpos = np.tile(np.arange(len(kz)), beta.shape[0])
    rbeta = np.repeat(rs * beta, len(kz), axis=0)
    u_r = FactoredStack((
        grad_r,
        Term(rbeta, Z, zpos, 2.0 * drho_z, n_grad),
        Term(rbeta, dZ, zpos, rho, n_grad),
    ))
    u_z = FactoredStack((
        grad_z,
        Term(np.repeat(beta, len(kz), axis=0), -Z, zpos, 2.0 * rho + 2.0 * RG * drho_r, n_grad),
        Term(np.repeat(dbeta, len(kz), axis=0), -Z, zpos, RG * rho, n_grad),
    ))
    return VelocityBasis(star=star, u_r=u_r, u_z=u_z, div_fields=div_fields, parity=parity)


def upsilon_range(star: AxiStar):
    """Range [min, max] of the actual discriminant over the support radii,
    read on 2048 radii interpolated from the grid profile."""
    ctx = star.context
    sup = ctx.radial_support
    fine = np.interp(np.linspace(0.0, star.support_radius, 2048), star.grid.rs[sup], ctx.ups[sup])
    return float(np.min(fine)), float(np.max(fine))


def _l1_block(basis: VelocityBasis) -> np.ndarray:
    """L1 on the basis's gradient fields: the energy form of their
    div(rho0 u), pressure plus gravity."""
    if not np.all(np.isfinite(basis.div_fields)):
        raise SolverError("velocity basis has entries with undefined divergence norm")
    pressure, grav = energy_blocks(basis.star, basis.div_fields, basis.parity)
    return pressure + grav


def assemble_meridional_form(basis: VelocityBasis, l1: np.ndarray | None = None) -> QuadraticForm:
    """Quadratic form of the second-order meridional dynamics on the basis's
    star over the kinetic-energy Gram, for a rotating star that is not
    ``rayleigh_stable`` (the first-order route handles the stable case).

    L1 depends on the gradient fields alone, not on the ring fields; ``l1``,
    when given, is its block from a basis with the same gradient fields,
    reused instead of solving their potentials again.
    """
    star = basis.star
    ctx = star.context
    if not ctx.rotating or ctx.rayleigh_stable:
        reason = ("rotation is Rayleigh stable on this star" if ctx.rotating
                  else "the star does not rotate (kappa = 0 or eps = 0)")
        raise ConfigError(f"{reason}; use the reduced first-order stability analysis instead")
    w, rho = ctx.weights, star.rho

    # L1 is the energy form of div(rho0 u); the ring rows stay exact zeros
    n, ng = basis.count, basis.n_grad
    Q = np.zeros((n, n))
    Q[:ng, :ng] = _l1_block(basis) if l1 is None else l1
    u_r, u_z = basis.u_r, basis.u_z
    Q += factored_pair_integrals(u_r, u_r, w * (rho * ctx.ups[:, None]))

    wk = w * rho
    G = factored_pair_integrals(u_r, u_r, wk) + factored_pair_integrals(u_z, u_z, wk)
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

    def summary(self) -> dict:
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
    strict: bool = False,
) -> SpectrumReport:
    """Eigenvalues of the meridional form across nested bases with
    essential / discrete classification, on the even sector.

    An eigenvalue is binned essential when its local spacing contracts by at
    least a factor two per refinement (the cluster filling the interval);
    discrete when it moves by less than ``DISCRETE_DRIFT_TOL`` relatively
    between the two finest levels while staying outside the interval.
    Ambiguous values are flagged; ``strict`` escalates them to an error.
    The levels differ in their ring fields only, so the gradient fields'
    divergences are built and L1 is assembled once, on the first level,
    and both are reused at every level.
    """
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    lo, hi = upsilon_range(star)
    spectra, l1, div = [], None, None
    for lev in range(levels):
        vb = velocity_basis(
            star,
            grad_deg_r=grad_deg_r,
            grad_deg_z=grad_deg_z,
            ring_knots=ring_knots0 * 2**lev,
            div_fields=div,
        )
        div = vb.div_fields
        if l1 is None:  # every level has the same gradient fields
            l1 = _l1_block(vb)
        form = assemble_meridional_form(vb, l1)
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
        if drift < DISCRETE_DRIFT_TOL:
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


@dataclass
class LinearTrajectory:
    """Time series of the meridional second-order wave equation."""

    times: np.ndarray
    energies: np.ndarray  # conserved quadratic per sample
    norms: np.ndarray  # state norm per sample
    energy_scales: np.ndarray  # magnitude of the energy terms per sample

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
        """Log-slope of the state norm over the trailing half of the run,
        and over no fewer than its last two samples."""
        n = self.times.size
        i0 = min(n // 2, n - 2)
        y = np.log(self.norms[i0:])
        return float(np.polyfit(self.times[i0:], y, 1)[0])


def time_steps(T: float, dt: float):
    """(n, times) of a run over [0, T] in n = ceil(T / dt) equal steps of
    at most dt: the n + 1 sample times, the last exactly T.  A T / dt within
    round-off (_STEP_ROUNDOFF relative) of a whole number takes that number
    of steps: 2.1 / 0.7 reads 3.0000000000000004 and takes 3."""
    if not T > 0:
        raise ValueError("the run time T must be positive")
    ratio = T / dt
    whole = round(ratio)
    n_steps = whole if abs(ratio - whole) <= _STEP_ROUNDOFF * ratio else math.ceil(ratio)
    n_steps = max(n_steps, 1)
    return n_steps, np.linspace(0.0, T, n_steps + 1)


def evolve_second_order(
    form: QuadraticForm,
    u0: np.ndarray,
    v0: np.ndarray,
    T: float,
    dt_factor: float = 0.1,
) -> LinearTrajectory:
    """Exact flow of  u_tt = -(form) u  in whitened coordinates.

    ``u0``/``v0`` are coordinates in the pencil eigenbasis, whose columns
    ``form.vectors`` are Gram-orthonormal: a field with basis coefficients x
    has coordinates ``form.vectors.T @ form.gram @ x``, and a unit vector
    starts a pure eigenmode.  There u'' = -diag(lam) u, so each coordinate
    is u0 C + v0 S with, for w = sqrt|lam|, C = cosh(w t) and S = sinh(w t)
    / w where lam < 0, cos and sin where lam > 0, and the line C = 1, S = t
    where lam = 0.  The flow is sampled at the ``time_steps(T, dt)`` times,
    dt = dt_factor / sqrt(max |eigenvalue|), the last T.  A form with no
    nonzero eigenvalue (no time scale), and a run whose growing modes leave
    the float range by T, are a ``SolverError``.
    """
    lam = form.eigenvalues
    u0, v0 = (np.asarray(x, dtype=float) for x in (u0, v0))
    if u0.shape != lam.shape or v0.shape != lam.shape:
        raise ValueError("state must be given in pencil eigen-coordinates")
    scale = float(np.max(np.abs(lam), initial=0.0))
    if scale == 0.0:
        raise SolverError("the form has no time scale: it has no nonzero eigenvalue")
    _, times = time_steps(T, dt_factor / math.sqrt(scale))
    g, s = np.flatnonzero(lam < 0), np.flatnonzero(lam > 0)
    wg, ws = np.sqrt(-lam[g]), np.sqrt(lam[s])
    # a growing mode's |u|, |v| and w |u| stay below 2 size exp(rate t), and
    # the energy terms and the squared norm sum squares of them
    rate = float(np.max(wg, initial=0.0))
    size = max(1.0, rate) * np.max(np.maximum(np.abs(u0[g]), np.abs(v0[g]) / wg), initial=1.0)
    if rate * T + math.log(size) > 0.5 * math.log(np.finfo(float).max / (16 * lam.size)):
        raise SolverError(
            f"evolve.T = {T:g} overflows the float range: the largest growth rate "
            f"{rate:.6g} grows the state by exp({rate * T:.6g})"
        )
    # one sample time at a time, so memory does not grow with the samples;
    # the rows are energies, norms and energy scales
    lam_u0, abs_lam = lam * u0, np.abs(lam)
    out = np.empty((3, times.size))
    for i, t in enumerate(times):
        C, S = np.ones(lam.size), np.full(lam.size, t)
        C[g], S[g] = np.cosh(wg * t), np.sinh(wg * t) / wg
        C[s], S[s] = np.cos(ws * t), np.sin(ws * t) / ws
        u = C * u0 + S * v0
        v = C * v0 - S * lam_u0
        uu, vv = u * u, v @ v
        out[:, i] = vv + lam @ uu, math.sqrt(np.sum(uu)), vv + abs_lam @ uu
    return LinearTrajectory(times, *out)

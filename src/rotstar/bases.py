"""Galerkin bases on a star's support.

Density perturbations are represented as delta_rho = chi / h''(rho0) with
chi smooth tensor-polynomial shape functions (Legendre in r/R0 and z/Z0,
z-parity given by the vertical degree).  The 1/h'' weighting keeps every
basis function inside the weighted space the stability forms act on (the
weight decays like rho0^(2-gamma0) toward the surface) and lets the grid
quadrature see smooth integrands.  The shapes are tensor products of two
Legendre tables, each built with one ``legval`` per derivative order, and
every stack is one broadcast product of those tables.

Two physically distinguished directions can be appended: the center-density
derivative of the non-rotating family (even sector) and the vertical-shift
direction d(rho0)/dz (odd sector, the expected kernel of the perturbation
forms).

A basis carries the star it was built on (``PerturbationBasis.star``);
every analysis of a basis in ``stability`` reads the star from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as npleg

from rotstar.equilibria import AxiStar
from rotstar.radial import solve_radial

__all__ = ["legendre_table", "ScalarShapes", "PerturbationBasis", "perturbation_basis"]


def legendre_table(arg, deg):
    """Legendre polynomials P_0..P_deg at ``arg`` with their first and second
    derivatives, one row per degree: one ``legval`` per derivative order on
    the identity coefficient matrix, whose column i is P_i."""
    eye = np.eye(deg + 1)
    vals = npleg.legval(arg, eye)
    ders = npleg.legval(arg, npleg.legder(eye))
    der2 = npleg.legval(arg, npleg.legder(eye, 2))
    return vals, ders, der2


@dataclass
class ScalarShapes:
    """Tensor Legendre shapes chi_(i,j)(r, z) on a grid.  Each (n, nr, nz)
    stack, the values and the two gradient components, is one broadcast
    product of a radial and a vertical table, built when first read."""

    radial: tuple  # (P_i, dP_i/dr), each (deg_r + 1, nr)
    vertical: tuple  # (P_j, dP_j/dz) of the kept z degrees, each (n_j, nz)
    degrees: list  # (i, j) per shape, z degree outer and r degree inner

    @property
    def parity(self) -> np.ndarray:
        """+1 even / -1 odd in z, per shape."""
        return np.array([+1 if j % 2 == 0 else -1 for _, j in self.degrees])

    def _stack(self, pr: np.ndarray, pz: np.ndarray) -> np.ndarray:
        # shape (i, j) is pr[i] (x) pz[j], j outer and i inner as in
        # ``degrees``, broadcast straight into the (n, nr, nz) stack
        out = pr[None, :, :, None] * pz[:, None, None, :]
        return out.reshape(len(self.degrees), pr.shape[1], pz.shape[1])

    @cached_property
    def values(self) -> np.ndarray:
        return self._stack(self.radial[0], self.vertical[0])

    @cached_property
    def grad_r(self) -> np.ndarray:
        return self._stack(self.radial[1], self.vertical[0])

    @cached_property
    def grad_z(self) -> np.ndarray:
        return self._stack(self.radial[0], self.vertical[1])


def tensor_shapes(
    rs: np.ndarray,
    zs: np.ndarray,
    r_scale: float,
    z_scale: float,
    deg_r: int,
    deg_z: int,
    parity: str = "both",
) -> ScalarShapes:
    """Legendre tensor shapes on the (r, z) grid.

    The radial argument is 2 r / r_scale - 1 and the vertical argument
    z / z_scale, so vertical parity equals the parity of the z degree.
    Shapes are ordered z degree outer and r degree inner.
    """
    Pr, dPr, _ = legendre_table(2.0 * rs / r_scale - 1.0, deg_r)
    dPr = dPr * (2.0 / r_scale)
    Pz, dPz, _ = legendre_table(zs / z_scale, deg_z)
    dPz = dPz / z_scale

    skip = {"even": 1, "odd": 0}.get(parity)  # z-degree parity left out
    js = [j for j in range(deg_z + 1) if j % 2 != skip]
    degs = [(i, j) for j in js for i in range(deg_r + 1)]
    return ScalarShapes(radial=(Pr, dPr), vertical=(Pz[js], dPz[js]), degrees=degs)


@dataclass
class PerturbationBasis:
    """Density perturbation fields delta_rho_k on a star grid with parity tags."""

    star: AxiStar
    fields: np.ndarray  # (n, nr, nz)
    parity: np.ndarray  # (n,), +1 / -1

    @property
    def count(self) -> int:
        return self.fields.shape[0]

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs), self.fields, axes=(0, 0))


def perturbation_basis(
    star: AxiStar,
    deg_r: int = 10,
    deg_z: int = 6,
    parity: str = "both",
) -> PerturbationBasis:
    """Tensor-polynomial perturbation basis weighted by 1/h''(rho0).

    The even sector also gets the central difference (step 1e-3 mu) of the
    non-rotating family's density in the star's center density, the odd
    sector grad_z(h)/h''(rho0), the discrete vertical-translation mode.
    """
    grid = star.grid
    mask, inv_phi2 = star.context.mask, star.context.inv_phi2

    shapes = tensor_shapes(
        grid.rs,
        grid.zs,
        r_scale=star.support_radius,
        z_scale=star.support_height,
        deg_r=deg_r,
        deg_z=deg_z,
        parity=parity,
    )
    fields = shapes.values * inv_phi2[None, :, :]
    tags = list(shapes.parity)
    extra_fields = []

    if parity in ("both", "even"):
        h = 1e-3 * star.mu
        sp = solve_radial(star.eos, star.mu + h)
        sm = solve_radial(star.eos, star.mu - h)
        RG, ZG = grid.meshes()
        S = np.sqrt(RG**2 + ZG**2)
        dmu = (sp.rho_of(S) - sm.rho_of(S)) / (2.0 * h)
        dmu[~mask] = 0.0
        extra_fields.append(dmu)
        tags.append(+1)

    if parity in ("both", "odd"):
        _, hz_grad = star.grad_h()
        shift = hz_grad * inv_phi2
        shift[~mask] = 0.0
        extra_fields.append(shift)
        tags.append(-1)

    if extra_fields:
        fields = np.concatenate([fields, np.stack(extra_fields)], axis=0)
    return PerturbationBasis(star=star, fields=fields, parity=np.array(tags))

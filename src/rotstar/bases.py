"""Galerkin bases on a star's support.

Density perturbations are represented as delta_rho = chi / h''(rho0) with
chi smooth tensor-polynomial shape functions (Legendre in r/R0 and z/Z0,
z-parity given by the vertical degree).  The 1/h'' weighting keeps every
basis function inside the weighted space the stability forms act on (the
weight decays like rho0^(2-gamma0) toward the surface) and lets the grid
quadrature see smooth integrands.  The shapes are tensor products of two
Legendre tables, each built with one ``legval`` per derivative order.

A field stack whose members are sums of a few radial x vertical x shared
profile products is kept factored (``FactoredStack``, one ``Term`` per
product): ``stability.factored_pair_integrals`` contracts two of them z
first and r second, and the dense (n, nr, nz) stack is built only when
asked for.  The shapes' values and gradients are such stacks.

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

__all__ = [
    "legendre_table",
    "Term",
    "FactoredStack",
    "ScalarShapes",
    "PerturbationBasis",
    "perturbation_basis",
]


def legendre_table(arg, deg):
    """Legendre polynomials P_0..P_deg at ``arg`` with their first and second
    derivatives, one row per degree: one ``legval`` per derivative order on
    the identity coefficient matrix, whose column i is P_i."""
    eye = np.eye(deg + 1)
    vals = npleg.legval(arg, eye)
    ders = npleg.legval(arg, npleg.legder(eye))
    der2 = npleg.legval(arg, npleg.legder(eye, 2))
    return vals, ders, der2


@dataclass(frozen=True, eq=False)
class Term:
    """One term of a factored field stack: member k is
    radial[k](r) * vertical[index[k]](z) * profile(r, z).  A member whose
    index is -1 has no part in the term; a ``None`` profile is 1."""

    radial: np.ndarray  # (n, nr), one row per member
    vertical: np.ndarray  # (n_v, nz), a small table of vertical factors
    index: np.ndarray  # (n,), row of ``vertical`` per member, or -1
    profile: np.ndarray | None = None  # (nr, nz), shared by every member

    @cached_property
    def groups(self) -> list:
        """(vertical row, members that read it) for every row in use."""
        return [(v, np.flatnonzero(self.index == v)) for v in np.unique(self.index) if v >= 0]

    def dense(self) -> np.ndarray:
        out = np.zeros(self.index.shape + (self.radial.shape[1], self.vertical.shape[1]))
        live = self.index >= 0
        out[live] = self.radial[live][:, :, None] * self.vertical[self.index[live]][:, None, :]
        if self.profile is not None:
            out *= self.profile
        return out


@dataclass(frozen=True, eq=False)
class FactoredStack:
    """A stack of fields, each the sum of its parts in a few ``Term``s; the
    dense (n, nr, nz) stack is built only when asked for."""

    terms: tuple

    @property
    def count(self) -> int:
        return self.terms[0].index.size

    def dense(self) -> np.ndarray:
        return sum(t.dense() for t in self.terms)


@dataclass
class ScalarShapes:
    """Tensor Legendre shapes chi_(i,j)(r, z) on a grid: shape (i, j) is a
    radial table row times a vertical table row.  The values and the two
    gradient components are factored stacks of those tables; the dense
    (n, nr, nz) values are built when first read."""

    radial: tuple  # (P_i, dP_i/dr), each (deg_r + 1, nr)
    vertical: tuple  # (P_j, dP_j/dz) of the kept z degrees, each (n_j, nz)
    degrees: list  # (i, j) per shape, z degree outer and r degree inner

    @property
    def parity(self) -> np.ndarray:
        """+1 even / -1 odd in z, per shape."""
        return np.array([+1 if j % 2 == 0 else -1 for _, j in self.degrees])

    def factored(self, d_r: int = 0, d_z: int = 0) -> FactoredStack:
        """The shapes' d_r-th r and d_z-th z derivatives (0 or 1 each), one
        term of the two tables' rows (j outer and i inner, as in
        ``degrees``)."""
        k = np.arange(len(self.degrees))
        n_i = self.radial[0].shape[0]
        return FactoredStack((Term(self.radial[d_r][k % n_i], self.vertical[d_z], k // n_i),))

    @cached_property
    def values(self) -> np.ndarray:
        # broadcast straight into the (n, nr, nz) stack
        pr, pz = self.radial[0], self.vertical[0]
        out = pr[None, :, :, None] * pz[:, None, None, :]
        return out.reshape(len(self.degrees), pr.shape[1], pz.shape[1])


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
    degrees: list  # (i, j) of each tensor row; the appended directions follow them

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
    return PerturbationBasis(star, fields, np.array(tags), shapes.degrees)

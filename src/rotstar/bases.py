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
product, over a run of members of its own from ``Term.start``):
``stability.factored_pair_integrals`` contracts two of them z first and r
second, and the dense (n, nr, nz) stack is built only when asked for.  The
shapes' values and gradients are such stacks.

A basis is its even sector's rows followed by its odd sector's
(``PerturbationBasis.sectors``), each a contiguous slice of one field
stack: the sector's tensor shapes, then one appended direction, the
center-density derivative of the non-rotating family (even) or the
vertical shift d(rho0)/dz, read from the star's context (odd, the expected
kernel of the perturbation forms).  A sector keeps its shapes' tables,
never their dense stack.

A basis carries the star it was built on (``PerturbationBasis.star``);
every analysis of a basis in ``stability`` reads the star from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from rotstar.equilibria import AxiStar
from rotstar.radial import solve_radial

__all__ = [
    "legendre_table",
    "Term",
    "FactoredStack",
    "ScalarShapes",
    "Sector",
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
    """One term of a factored field stack, over the stack's members start
    to start + m: its row k adds radial[k](r) * vertical[index[k]](z) *
    profile(r, z) to member start + k, and the other members have no part
    in it.  A ``None`` profile is 1."""

    radial: np.ndarray  # (m, nr), one row per member of the term
    vertical: np.ndarray  # (n_v, nz), a small table of vertical factors
    index: np.ndarray  # (m,), row of ``vertical`` per member of the term
    profile: np.ndarray | None = None  # (nr, nz), shared by every member
    start: int = 0  # stack member of row 0

    @cached_property
    def groups(self) -> list:
        """(vertical row, term rows that read it) for every row in use, in
        row order (the rows in use by bincount: np.unique would load
        numpy.ma, 10 ms of a cold command)."""
        rows = np.flatnonzero(np.bincount(self.index))
        return [(v, np.flatnonzero(self.index == v)) for v in rows]

    def dense(self) -> np.ndarray:
        """The term's (m, nr, nz) share of its members."""
        out = self.radial[:, :, None] * self.vertical[self.index][:, None, :]
        if self.profile is not None:
            out *= self.profile
        return out


@dataclass(frozen=True, eq=False)
class FactoredStack:
    """A stack of fields, each the sum of its parts in the ``Term``s that
    cover it; the dense (n, nr, nz) stack is built only when asked for."""

    terms: tuple

    @property
    def count(self) -> int:
        return max(t.start + t.index.size for t in self.terms)

    def dense(self) -> np.ndarray:
        nr, nz = self.terms[0].radial.shape[1], self.terms[0].vertical.shape[1]
        out = np.zeros((self.count, nr, nz))
        for t in self.terms:
            out[t.start:t.start + t.index.size] += t.dense()
        return out


@dataclass
class ScalarShapes:
    """Tensor Legendre shapes chi_(i,j)(r, z) of one z-parity on a grid:
    shape (i, j) is a radial table row times a vertical table row.  The
    values and the two gradient components are factored stacks of those
    tables; the dense (n, nr, nz) values are built only when asked for."""

    radial: tuple  # (P_i, dP_i/dr), each (deg_r + 1, nr)
    vertical: tuple  # (P_j, dP_j/dz) of the kept z degrees, each (n_j, nz)
    degrees: list  # (i, j) per shape, z degree outer and r degree inner

    def factored(self, d_r: int = 0, d_z: int = 0) -> FactoredStack:
        """The shapes' d_r-th r and d_z-th z derivatives (0 or 1 each), one
        term of the two tables' rows (j outer and i inner, as in
        ``degrees``)."""
        k = np.arange(len(self.degrees))
        n_i = self.radial[0].shape[0]
        return FactoredStack((Term(self.radial[d_r][k % n_i], self.vertical[d_z], k // n_i),))

    def values(self, out: np.ndarray | None = None) -> np.ndarray:
        """The dense (n, nr, nz) values, broadcast straight into ``out`` (a
        C-contiguous stack, such as a basis's rows) when given."""
        pr, pz = self.radial[0], self.vertical[0]
        if out is None:
            out = np.empty((len(self.degrees), pr.shape[1], pz.shape[1]))
        np.multiply(pr[None, :, :, None], pz[:, None, None, :],
                    out=out.reshape(pz.shape[0], pr.shape[0], pr.shape[1], pz.shape[1]))
        return out


def tensor_shapes(
    rs: np.ndarray,
    zs: np.ndarray,
    r_scale: float,
    z_scale: float,
    deg_r: int,
    deg_z: int,
    parity: str,
) -> ScalarShapes:
    """Legendre tensor shapes of one z-parity ("even" or "odd") on the
    (r, z) grid.

    The radial argument is 2 r / r_scale - 1 and the vertical argument
    z / z_scale, so vertical parity equals the parity of the z degree.
    Shapes are ordered z degree outer and r degree inner.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    Pr, dPr, _ = legendre_table(2.0 * rs / r_scale - 1.0, deg_r)
    dPr = dPr * (2.0 / r_scale)
    Pz, dPz, _ = legendre_table(zs / z_scale, deg_z)
    dPz = dPz / z_scale

    js = list(range(int(parity == "odd"), deg_z + 1, 2))
    degs = [(i, j) for j in js for i in range(deg_r + 1)]
    return ScalarShapes(radial=(Pr, dPr), vertical=(Pz[js], dPz[js]), degrees=degs)


class Sector(NamedTuple):
    """One z-parity sector of a basis: its rows of the field stack (its
    tensor shapes, then its appended direction) and those shapes."""

    rows: slice
    shapes: ScalarShapes


@dataclass
class PerturbationBasis:
    """Density perturbation fields delta_rho_k on a star grid, sector by
    sector: the even sector's rows, then the odd sector's."""

    star: AxiStar
    fields: np.ndarray  # (n, nr, nz)
    sectors: dict  # "even" / "odd" -> Sector, in row order

    @property
    def count(self) -> int:
        return self.fields.shape[0]

    @property
    def parity(self) -> np.ndarray:
        """+1 even / -1 odd in z, per field."""
        return np.concatenate([np.full(s.rows.stop - s.rows.start, 1 if name == "even" else -1)
                               for name, s in self.sectors.items()])

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs), self.fields, axes=(0, 0))


def perturbation_basis(
    star: AxiStar,
    deg_r: int = 10,
    deg_z: int = 6,
    parity: str = "both",
) -> PerturbationBasis:
    """Tensor-polynomial perturbation basis weighted by 1/h''(rho0), of one
    sector ("even" or "odd") or of both, even first.

    Each sector's shapes are broadcast straight into their rows of the one
    field stack.  The even sector then gets the central difference (step
    1e-3 mu) of the non-rotating family's density in the star's center
    density, the odd sector a copy of the context's d(rho0)/dz
    (``StarContext.grad_rho``), the discrete vertical-translation mode.
    """
    names = {"even": ("even",), "odd": ("odd",), "both": ("even", "odd")}.get(parity)
    if names is None:
        raise ValueError("parity must be 'even', 'odd' or 'both'")
    grid, ctx = star.grid, star.context
    shapes = [tensor_shapes(grid.rs, grid.zs, star.support_radius, star.support_height,
                            deg_r, deg_z, name) for name in names]
    fields = np.empty((sum(len(s.degrees) + 1 for s in shapes), grid.nr, grid.nz))
    sectors, start = {}, 0
    for name, sh in zip(names, shapes):
        stop = start + len(sh.degrees)
        sh.values(out=fields[start:stop])
        fields[start:stop] *= ctx.inv_phi2
        if name == "even":
            h = 1e-3 * star.mu
            sp = solve_radial(star.eos, star.mu + h)
            sm = solve_radial(star.eos, star.mu - h)
            S = grid.spherical_radius()
            fields[stop] = (sp.rho_of(S) - sm.rho_of(S)) / (2.0 * h)
            fields[stop, ~ctx.mask] = 0.0  # a non-rotating profile's support
        else:
            fields[stop] = ctx.grad_rho[1]  # zero off the support
        sectors[name] = Sector(slice(start, stop + 1), sh)
        start = stop + 1
    return PerturbationBasis(star, fields, sectors)

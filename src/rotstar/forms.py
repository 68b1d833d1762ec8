"""Symmetric quadratic forms as matrix pencils with inertia bookkeeping.

All stability classifications in this package reduce to counting negative
directions of a symmetric bilinear form against a positive (semi)definite
Gram matrix on a finite Galerkin subspace.  The count is performed on the
whitened pencil: the Gram is eigendecomposed, directions below a relative
cutoff are dropped (they carry no resolvable mass), and the form is
diagonalized in the remaining well-conditioned subspace.  Every verdict
counts its modes with one relative kernel band, VERDICT_ZERO_TOL: it is
the only band ``inertia`` and ``n_minus`` count with, and ``stability``
re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rotstar.errors import SolverError

__all__ = [
    "VERDICT_ZERO_TOL", "Inertia", "QuadraticForm", "restrict_to_complement", "whiten",
]

#: relative half-width (scaled by the largest |eigenvalue|) of the kernel band
#: every verdict is counted with: discrete kernels of the continuum forms (the
#: vertical-shift mode) carry O(quadrature) leakage, well above pencil
#: round-off but far below the physical gaps.
VERDICT_ZERO_TOL = 1e-3
#: relative Gram eigenvalue cutoff below which directions are discarded
GRAM_CUTOFF = 1e-12


@dataclass(frozen=True)
class Inertia:
    n_minus: int
    n_zero: int
    n_plus: int


@dataclass
class QuadraticForm:
    """A symmetric form matrix with its Gram matrix and derived inertia.

    ``eigenvalues`` are those of the whitened pencil Q v = lambda G v in the
    retained subspace; ``vectors`` hold the corresponding coefficient vectors
    in the original basis (columns).  The inertia counts a mode as kernel
    inside the relative band VERDICT_ZERO_TOL.
    """

    matrix: np.ndarray
    gram: np.ndarray
    constraint_vacuous: bool = False
    eigenvalues: np.ndarray = field(init=False)
    vectors: np.ndarray = field(init=False)

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        g = np.asarray(self.gram, dtype=float)
        if q.shape != g.shape or q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("form and gram must be square matrices of equal size")
        asym = np.max(np.abs(q - q.T)) / max(np.max(np.abs(q)), 1e-300)
        if asym > 1e-10:
            raise ValueError(f"form matrix is not symmetric (rel. asymmetry {asym:.2e})")
        self.matrix = 0.5 * (q + q.T)
        self.gram = 0.5 * (g + g.T)
        lam, vec = _pencil_eig(self.matrix, self.gram)
        self.eigenvalues = lam
        self.vectors = vec

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    def inertia(self) -> Inertia:
        lam = self.eigenvalues
        tol = VERDICT_ZERO_TOL * (np.max(np.abs(lam)) if lam.size else 0.0)
        n_minus = int(np.sum(lam < -tol))
        n_zero = int(np.sum(np.abs(lam) <= tol))
        return Inertia(n_minus, n_zero, lam.size - n_minus - n_zero)

    def n_minus(self) -> int:
        return self.inertia().n_minus

    def smallest(self) -> float:
        return float(self.eigenvalues[0])

    def eigenvector(self, i: int) -> np.ndarray:
        return self.vectors[:, i]


def whiten(g: np.ndarray) -> np.ndarray:
    """Columns B with B^T G B = I spanning the numerically resolved range of
    G: Gram eigen-directions below GRAM_CUTOFF times the largest are dropped."""
    w, u = np.linalg.eigh(g)
    keep = w > GRAM_CUTOFF * w[-1]
    if not np.any(keep):
        raise SolverError("gram matrix is numerically zero")
    return u[:, keep] / np.sqrt(w[keep])


def _pencil_eig(q: np.ndarray, g: np.ndarray):
    """Eigenpairs of Q v = lambda G v on the numerically resolved span of G."""
    basis = whiten(g)
    lam, vec = np.linalg.eigh(basis.T @ q @ basis)
    return lam, basis @ vec


def restrict_to_complement(form: QuadraticForm, constraints: np.ndarray) -> QuadraticForm:
    """Restrict a form to the subspace annihilated by linear constraint rows.

    ``constraints`` has shape (m, n); rows below 1e-12 of the largest entry
    are numerically zero and dropped.  If every row is zero the input is
    returned unchanged with the ``constraint_vacuous`` flag set.
    """
    c = np.atleast_2d(np.asarray(constraints, dtype=float))
    scale = np.max(np.abs(c)) if c.size else 0.0
    live = (
        np.max(np.abs(c), axis=1) > 1e-12 * scale if scale > 0 else np.zeros(c.shape[0], bool)
    )
    c = c[live]
    if c.shape[0] == 0:
        return QuadraticForm(form.matrix, form.gram, constraint_vacuous=True)
    _, _, vt = np.linalg.svd(c, full_matrices=True)
    null_basis = vt[c.shape[0]:].T  # (n, n-m)
    # the projections are symmetric up to round-off amplified by any large
    # dynamic range in the form entries; re-symmetrize explicitly
    q = null_basis.T @ form.matrix @ null_basis
    g = null_basis.T @ form.gram @ null_basis
    return QuadraticForm(0.5 * (q + q.T), 0.5 * (g + g.T))

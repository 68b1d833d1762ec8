import numpy as np
import pytest

from rotstar import forms, stability
from rotstar.errors import SolverError
from rotstar.forms import Inertia, QuadraticForm, restrict_to_complement


def test_inertia_diagonal():
    q = np.diag([-2.0, -1e-12, 3.0])
    form = QuadraticForm(q, np.eye(3))
    assert form.inertia() == Inertia(1, 1, 1)


def test_default_band_is_the_verdict_band():
    form = QuadraticForm(np.diag([-1.0, 5e-4, 1.0]), np.eye(3))
    assert form.inertia() == Inertia(1, 1, 1)
    assert form.n_minus() == 1
    assert stability.VERDICT_ZERO_TOL is forms.VERDICT_ZERO_TOL


def test_asymmetric_matrix_rejected():
    q = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        QuadraticForm(q, np.eye(2))


def test_zero_gram_is_a_solver_error():
    with pytest.raises(SolverError, match="gram matrix is numerically zero"):
        QuadraticForm(np.zeros((2, 2)), np.zeros((2, 2)))


def test_gram_cutoff_drops_null_directions():
    g = np.diag([1.0, 1e-16])
    q = np.diag([1.0, -5.0])
    form = QuadraticForm(q, g)
    assert form.rank == 1
    assert form.n_minus() == 0


def test_pencil_matches_reference():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    q = a + a.T
    b = rng.standard_normal((6, 6))
    g = b @ b.T + 6 * np.eye(6)
    form = QuadraticForm(q, g)
    from scipy.linalg import eigh

    ref = eigh(q, g, eigvals_only=True)
    assert np.allclose(form.eigenvalues, ref, atol=1e-10)


def test_restriction_interlaces():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8))
    q = a + a.T
    form = QuadraticForm(q, np.eye(8))
    c = rng.standard_normal(8)
    sub = restrict_to_complement(form, c)
    assert sub.rank == 7
    full = form.eigenvalues
    restr = sub.eigenvalues
    # Cauchy interlacing: lambda_k <= mu_k <= lambda_{k+1}
    for k in range(7):
        assert full[k] - 1e-10 <= restr[k] <= full[k + 1] + 1e-10


def test_vacuous_constraint_flag():
    form = QuadraticForm(np.eye(3), np.eye(3))
    out = restrict_to_complement(form, np.zeros(3))
    assert out.constraint_vacuous
    assert out.rank == 3

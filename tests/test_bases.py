import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from rotstar import bases
from rotstar.bases import legendre_table, perturbation_basis, tensor_shapes


def _legendre_loop(arg, deg):
    """Reference: one ``legval`` per degree and derivative order."""
    eye = np.eye(deg + 1)
    return tuple(
        np.stack([npleg.legval(arg, npleg.legder(eye[i], m)) for i in range(deg + 1)])
        for m in (0, 1, 2)
    )


def _shapes_loop(rs, zs, r_scale, z_scale, deg_r, deg_z, parity):
    """Reference: one ``np.outer`` per shape, z degree outer, r degree inner."""
    Pr, dPr, _ = _legendre_loop(2.0 * rs / r_scale - 1.0, deg_r)
    dPr = dPr * (2.0 / r_scale)
    Pz, dPz, _ = _legendre_loop(zs / z_scale, deg_z)
    dPz = dPz / z_scale
    vals, gr, gz, par, degs = [], [], [], [], []
    for j in range(deg_z + 1):
        p = +1 if j % 2 == 0 else -1
        if (parity == "even" and p < 0) or (parity == "odd" and p > 0):
            continue
        for i in range(deg_r + 1):
            vals.append(np.outer(Pr[i], Pz[j]))
            gr.append(np.outer(dPr[i], Pz[j]))
            gz.append(np.outer(Pr[i], dPz[j]))
            par.append(p)
            degs.append((i, j))
    return np.stack(vals), np.stack(gr), np.stack(gz), np.array(par), degs


@pytest.mark.parametrize("deg", [0, 1, 2, 7])
def test_legendre_table_matches_per_degree_loop(deg):
    arg = np.linspace(-1.2, 1.3, 37)
    got = legendre_table(arg, deg)
    for g, ref in zip(got, _legendre_loop(arg, deg)):
        assert g.shape == (deg + 1, arg.size)
        assert np.array_equal(g, ref)


@pytest.mark.parametrize(
    "parity, degs",
    [(p, d) for p in ("even", "odd", "both") for d in ((5, 3), (3, 1))]
    + [("even", (0, 0)), ("both", (0, 0))],
)
def test_tensor_shapes_match_per_shape_outer_products(parity, degs):
    rs = np.linspace(0.0, 1.4, 23)
    zs = np.linspace(0.0, 1.1, 17)
    got = tensor_shapes(rs, zs, 1.2, 0.9, *degs, parity=parity)
    values, grad_r, grad_z, par, order = _shapes_loop(rs, zs, 1.2, 0.9, *degs, parity)
    # the arithmetic per entry is unchanged, so the stacks are equal
    assert got.degrees == order
    assert np.array_equal(got.parity, par)
    assert np.array_equal(got.values, values)
    assert np.array_equal(got.grad_r, grad_r)
    assert np.array_equal(got.grad_z, grad_z)


def test_perturbation_basis_builds_no_gradient_stack(axi53, monkeypatch):
    """The basis reads only the shape values; the gradient stacks, which
    only the generator reads, are never built."""
    built = []

    def recording(*args, **kwargs):
        built.append(tensor_shapes(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bases, "tensor_shapes", recording)
    perturbation_basis(axi53, deg_r=4, deg_z=2)
    (shapes,) = built
    assert "values" in vars(shapes)
    assert "grad_r" not in vars(shapes) and "grad_z" not in vars(shapes)

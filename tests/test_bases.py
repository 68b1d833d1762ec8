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
    """Reference: one ``np.outer`` per shape, z degree outer, r degree inner
    within a sector; "both" is the even sector, then the odd one."""
    Pr, dPr, _ = _legendre_loop(2.0 * rs / r_scale - 1.0, deg_r)
    dPr = dPr * (2.0 / r_scale)
    Pz, dPz, _ = _legendre_loop(zs / z_scale, deg_z)
    dPz = dPz / z_scale
    vals, gr, gz, degs = [], [], [], []
    for sector in ("even", "odd"):
        if parity not in (sector, "both"):
            continue
        for j in range(deg_z + 1):
            if (j % 2 == 0) != (sector == "even"):
                continue
            for i in range(deg_r + 1):
                vals.append(np.outer(Pr[i], Pz[j]))
                gr.append(np.outer(dPr[i], Pz[j]))
                gz.append(np.outer(Pr[i], dPz[j]))
                degs.append((i, j))
    return np.stack(vals), np.stack(gr), np.stack(gz), degs


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
    """Each sector's shapes (both sectors, even first, for "both") equal
    per-shape outer products."""
    rs = np.linspace(0.0, 1.4, 23)
    zs = np.linspace(0.0, 1.1, 17)
    names = ("even", "odd") if parity == "both" else (parity,)
    got = [tensor_shapes(rs, zs, 1.2, 0.9, *degs, parity=p) for p in names]
    values, grad_r, grad_z, order = _shapes_loop(rs, zs, 1.2, 0.9, *degs, parity)
    # the arithmetic per entry is unchanged, so the stacks are equal; the
    # gradients are the factored stacks of the derivative tables
    assert [d for shapes in got for d in shapes.degrees] == order
    for stack, want in (
        (lambda s: s.values(), values),
        (lambda s: s.factored().dense(), values),
        (lambda s: s.factored(1, 0).dense(), grad_r),
        (lambda s: s.factored(0, 1).dense(), grad_z),
    ):
        assert np.array_equal(np.concatenate([stack(shapes) for shapes in got]), want)


@pytest.mark.parametrize("parity", ["evn", "", "both", None])
def test_tensor_shapes_reject_a_parity_other_than_even_or_odd(parity):
    with pytest.raises(ValueError, match="parity"):
        tensor_shapes(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4), 1.0, 1.0, 2, 2, parity)


@pytest.mark.parametrize("parity", ["evn", "", "Even", None])
def test_perturbation_basis_rejects_an_unknown_parity(axi53, parity):
    """An unknown parity raises before any compute; it used to build a
    mixed basis with no appended directions."""
    with pytest.raises(ValueError, match="parity"):
        perturbation_basis(axi53, deg_r=4, deg_z=2, parity=parity)


def test_perturbation_basis_builds_no_gradient_stack(axi53):
    """The basis keeps each sector's shapes as their tables alone: no dense
    value or gradient stack stays alive in it (the generator reads
    factored stacks)."""
    basis = perturbation_basis(axi53, deg_r=4, deg_z=2)
    for sector in basis.sectors.values():
        shapes = sector.shapes
        assert set(vars(shapes)) == {"radial", "vertical", "degrees"}
        assert all(a.ndim == 2 for a in shapes.radial + shapes.vertical)


def test_both_parity_basis_is_its_even_sector_then_its_odd_sector(axi53):
    """A both-parity basis's sectors are contiguous slices, even first, and
    each equals bit for bit the basis of that parity alone: its tensor
    shapes times 1/h''(rho0), then its appended direction."""
    basis = perturbation_basis(axi53, deg_r=5, deg_z=3)
    assert list(basis.sectors) == ["even", "odd"]
    start = 0
    for name, sector in basis.sectors.items():
        alone = perturbation_basis(axi53, deg_r=5, deg_z=3, parity=name)
        assert list(alone.sectors) == [name]
        assert sector.rows == slice(start, start + alone.count)
        assert sector.shapes.degrees == alone.sectors[name].shapes.degrees
        part = basis.fields[sector.rows]
        assert np.array_equal(part, alone.fields)
        n = len(sector.shapes.degrees)
        assert np.array_equal(part[:n], sector.shapes.values() * axi53.context.inv_phi2)
        assert np.all(basis.parity[sector.rows] == (1 if name == "even" else -1))
        start = sector.rows.stop
    assert start == basis.count == 4 * 6 + 2


def test_perturbation_basis_memory_is_bounded(axi53):
    """The 10x6 basis at 96^2 writes each sector's shapes straight into
    their rows: it peaks at 1.16 times its fields' bytes (measured; building
    the mixed stack and then appending the directions peaked at 3.11
    times).  The bound is 1.5."""
    import tracemalloc

    axi53.context  # built once per star, outside the measurement
    tracemalloc.start()
    try:
        basis = perturbation_basis(axi53, deg_r=10, deg_z=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.count == 79
    assert peak <= 1.5 * basis.fields.nbytes

"""The benchmark's tracer still sees every call it times.

``perfbench/tracer.py`` wraps rotstar callables by module and attribute
name, so a renamed target or a reference captured at import time would hide
its spans.  These tests read that file, write nothing under ``perfbench/``,
and undo every wrapper they install.
"""

import pathlib
import types

import numpy as np
import pytest

from rotstar.eos import polytrope
from rotstar.rotlaw import PowerLawMomentum

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

STAR_24 = {
    "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 1.6666666666666667},
    "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.05},
    "mu": 1.0,
    "grid": {"nr": 24, "nz": 24},
}


@pytest.fixture(scope="module")
def tracer():
    """The tracer module, executed from its source."""
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


@pytest.fixture
def recorder(tracer):
    """A span recorder, installed for the test."""
    rec = tracer.Tracer()
    patched = tracer.install(rec)
    try:
        yield rec
    finally:
        tracer.uninstall(patched)


@pytest.fixture
def spans(recorder):
    """Number of spans of a name recorded while the tracer is installed."""
    return lambda name: sum(1 for s in recorder.spans if s[1] == name)


def test_every_target_resolves(tracer):
    import rotstar.cli  # noqa: F401  (loads every module with a target)

    for name, module, path in tracer.TARGETS:
        owner, attr = tracer.resolve(module, path)
        assert callable(getattr(owner, attr, None)), (name, module, path)


def test_install_wraps_every_reference(tracer):
    from rotstar import cli, equilibria, families

    patched = tracer.install(tracer.Tracer())
    try:
        assert tracer.unwrapped_references() == []
    finally:
        tracer.uninstall(patched)
    for mod in (cli, families):
        assert mod.solve_fixed_j is equilibria.solve_fixed_j
    assert not hasattr(equilibria.solve_fixed_j, "__wrapped__")


def test_configured_solve_records_one_solve_span(spans):
    from rotstar import cli

    star = cli.solve_configured_star(cli._with_defaults(STAR_24))
    assert star.rho.shape == (24, 24)
    assert spans("equilibria.solve") == 1


def test_scan_records_a_solve_and_a_point_span_per_point(spans):
    from rotstar import families

    scan = families.scan_fixed_j(
        polytrope(1.0, 5.0 / 3.0), PowerLawMomentum(1.0, 2.0), 0.2, [0.9, 1.0],
        nr=24, nz=24, deg_r=4, deg_z=2,
    )
    assert len(scan.points) == 2
    assert spans("equilibria.solve") == 2
    assert spans("families.point") == 2
    assert spans("families.scan") == 1
    assert np.isfinite([p.mass for p in scan.points]).all()


def test_generator_report_solves_each_basis_field_once(recorder, spans):
    """A report with the generator assembles the energy form once, and both
    generator sectors read it: each basis field is solved once, in one
    stacked Poisson solve per parity."""
    from rotstar import cli
    from rotstar.bases import perturbation_basis
    from rotstar.stability import stability_report

    star = cli.solve_configured_star(cli._with_defaults(STAR_24))
    basis = perturbation_basis(star, deg_r=8, deg_z=4)
    before = len(recorder.spans)
    report = stability_report(basis, with_generator=True)
    assert "generator_unstable_count" in report and "generator_n_zero" in report
    assert spans("stability.generator") == 2
    assert spans("stability.generator_eig") == 2
    assert spans("stability.energy_assembly") == 1
    solves = [s for s in recorder.spans[before:] if s[1] == "poisson.potential"]
    assert sum(s[5]["fields"] for s in solves) == basis.count
    assert len(solves) == len(set(basis.parity)) == 2

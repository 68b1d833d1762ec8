import json

import numpy as np
import pytest

from rotstar import families
from rotstar.cli import EXIT_OK, main
from rotstar.equilibria import RotationSpec
from rotstar.errors import SolverError
from rotstar.families import (
    FamilyPoint,
    FamilyScanResult,
    _run_scan,
    bb1974_example,
    scan_fixed_j,
    scan_fixed_omega,
)
from rotstar.rotlaw import PowerLawMomentum, RigidLaw


#: a rotation of each family, with amplitude 0.1
ROTATIONS = {
    "fixed_omega": RotationSpec(RigidLaw(1.0), 0.1),
    "fixed_j": RotationSpec(PowerLawMomentum(1.0, 2.0), 0.1),
}


def _result(kind, mus, masses, counts):
    points = [
        FamilyPoint(mu=m, mass=M, n_u=n) for m, M, n in zip(mus, masses, counts)
    ]
    return FamilyScanResult(rotation=ROTATIONS[kind], points=points)


def test_extrema_and_transition_detection():
    mus = np.linspace(1.0, 9.0, 9)
    masses = -((mus - 5.0) ** 2)  # single maximum at mu = 5
    counts = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    res = _result("fixed_j", mus, masses, counts)
    assert res.mu_star == pytest.approx(5.0, abs=0.6)
    assert res.mu_star_kind == "max"
    assert res.transitions == [(5.0, 6.0, 0, 1)]
    assert res.tpp_verdict == "TPP-holds"


def test_extremum_across_a_zero_smoothed_slope():
    # the smoothed slope is exactly 0 at the peak's grid step
    mus = np.linspace(1.0, 3.5, 6)
    res = _result("fixed_j", mus, 1.0 - (mus - 2.25) ** 2, [0] * 6)
    assert [kind for _, kind in res.mass_extrema] == ["max"]
    assert res.mu_star == pytest.approx(2.25, rel=1e-12)


def test_fixed_j_verdict_fails_on_misaligned_transition():
    mus = np.linspace(1.0, 9.0, 9)
    masses = -((mus - 4.0) ** 2)
    counts = [0, 0, 0, 0, 0, 0, 0, 1, 1]  # flips four steps beyond the max
    res = _result("fixed_j", mus, masses, counts)
    assert res.tpp_verdict == "TPP-fails"


def test_fixed_j_verdict_fails_on_a_count_off_the_slope_rule():
    mus = np.linspace(1.0, 9.0, 9)
    masses = -((mus - 5.0) ** 2)
    # the one transition sits at the max, but the counts have the wrong
    # sign of the slope on both sides of it
    counts = [1, 1, 1, 1, 1, 0, 0, 0, 0]
    res = _result("fixed_j", mus, masses, counts)
    assert res.transitions == [(5.0, 6.0, 1, 0)]
    assert res.tpp_verdict == "TPP-fails"


def test_extremum_fit_outside_its_bracket_falls_back_to_the_midpoint():
    mus = np.arange(1.0, 8.0)
    masses = np.array([0.126, -0.006, 0.634, 0.739, 0.203, 0.565, 1.869])
    # the quadratic through mu 1..4 has its vertex below mu 1
    co = np.polyfit(mus[:4], masses[:4], 2)
    assert -co[1] / (2 * co[0]) < mus[0]
    res = _result("fixed_j", mus, masses, [0] * 7)
    assert res.mass_extrema[0] == (2.0, "min")


def test_fixed_omega_verdict_reports_gap():
    mus = np.linspace(1.0, 9.0, 9)
    masses = -((mus - 4.0) ** 2)
    counts = [0, 0, 0, 0, 0, 0, 1, 1, 1]
    res = _result("fixed_omega", mus, masses, counts)
    assert res.tpp_verdict.startswith("TPP-fails")
    assert res.mu_hat > res.mu_star


def test_partial_scan_flag():
    points = [FamilyPoint(mu=1.0, mass=1.0, n_u=0), FamilyPoint(mu=2.0, error="x")]
    res = FamilyScanResult(rotation=ROTATIONS["fixed_j"], points=points)
    assert res.partial
    assert res.tpp_verdict == "partial"


def test_a_point_with_an_error_has_failed():
    assert FamilyPoint(mu=1.0, error="x").failed
    assert not FamilyPoint(mu=1.0, mass=1.0, n_u=0).failed


def test_monotone_stretch_no_spurious_transitions(eos53):
    scan = scan_fixed_j(
        eos53, PowerLawMomentum(1.0, 2.0), 0.3, np.linspace(0.8, 1.3, 5), nr=56, nz=56
    )
    assert [p.n_u for p in scan.points] == [0] * 5
    assert scan.transitions == []


def test_eps_zero_scan_reduces_to_nonrotating(eos13):
    scan = scan_fixed_j(
        eos13, PowerLawMomentum(1.0, 2.0), 0.0, np.linspace(0.9, 1.2, 5), nr=56, nz=56
    )
    assert [p.n_u for p in scan.points] == [1] * 5


def test_unstable_eos_stays_unstable_rotating(eos13):
    scan = scan_fixed_omega(
        eos13, RigidLaw(1.0), 0.05, np.linspace(0.9, 1.2, 5), nr=56, nz=56,
    )
    assert all(p.n_u >= 1 for p in scan.points)


def test_scan_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "eos": {"kind": "polytropic", "c_minus": 1.0, "gamma0": 5.0 / 3.0},
        "rotation": {"form": "rigid", "omega_c": 1.0, "kappa": 0.02},
        "mu_grid": {"start": 0.9, "stop": 1.1, "num": 5, "spacing": "linear"},
        "grid": {"nr": 56, "nz": 56},
        "basis": {"deg_r": 8, "deg_z": 4},
    }))
    out = tmp_path / "out"
    assert main(["tpp-scan", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,M,dMdmu,n_u,verdict"
    assert len(lines) == 6
    assert lines[1].endswith("stable")
    assert lines[1].split(",")[3] == "0"  # a count prints as an integer
    assert all(len(line.split(",")) == 5 for line in lines)


def test_jobs_start_at_most_one_worker_per_point(eos53, monkeypatch):
    seen = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its worker count and
        maps in this process, so no worker starts."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the scan imports the pool from concurrent.futures when it uses one
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    scan = scan_fixed_omega(
        eos53, RigidLaw(1.0), 0.02, np.linspace(0.9, 1.1, 3), nr=24, nz=24, jobs=10_000,
    )
    assert seen == [3]
    assert not scan.partial


def test_parallel_scan_matches_serial(eos53):
    grid = np.linspace(0.9, 1.1, 4)
    serial = scan_fixed_j(eos53, PowerLawMomentum(1.0, 2.0), 0.2, grid, nr=48, nz=48)
    parallel = scan_fixed_j(
        eos53, PowerLawMomentum(1.0, 2.0), 0.2, grid, nr=48, nz=48, jobs=2
    )
    for a, b in zip(serial.points, parallel.points):
        assert a.mass == b.mass
        assert a.n_u == b.n_u


def test_scan_records_failures_as_partial(eos13):
    # an untractable pressure law at some mu must be recorded, not crash
    from rotstar.eos import polytrope

    soft = polytrope(1.0, 1.2000001)  # no bounded star at any mu
    scan = scan_fixed_omega(
        soft, RigidLaw(1.0), 0.01, np.linspace(0.9, 1.1, 3), nr=40, nz=40,
    )
    assert scan.partial
    assert all(p.failed for p in scan.points)
    assert scan.tpp_verdict == "partial"


def test_transitions_stable_under_grid_refinement(eos_blend):
    from rotstar.rotlaw import PowerLawMomentum as PLM

    coarse = scan_fixed_j(
        eos_blend, PLM(1.0, 2.0), 0.3, np.geomspace(6.0, 22.0, 8), nr=64, nz=64
    )
    fine = scan_fixed_j(
        eos_blend, PLM(1.0, 2.0), 0.3, np.geomspace(6.0, 22.0, 15), nr=64, nz=64
    )
    coarse_mu = np.array([p.mu for p in coarse.points])
    step = np.max(np.diff(coarse_mu))
    assert abs(coarse.mu_hat - fine.mu_hat) < step
    assert abs(coarse.mu_star - fine.mu_star) < step
    assert coarse.tpp_verdict == fine.tpp_verdict == "TPP-holds"


class _TrivialJob:
    """Scan job whose points carry their own mu as the mass."""

    rotation = ROTATIONS["fixed_j"]

    def run(self, mu):
        return FamilyPoint(mu=mu, mass=mu, n_u=0)


@pytest.mark.parametrize("jobs", [0, -1])
def test_scan_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        _run_scan(_TrivialJob(), [1.0, 2.0], jobs=jobs)


class _PeakJob:
    """Scan job whose masses peak at mu = 2; it records every mu it runs."""

    def __init__(self, kind):
        self.rotation = ROTATIONS[kind]
        self.calls = []

    def run(self, mu):
        self.calls.append(mu)
        return FamilyPoint(mu=mu, mass=-((mu - 2.0) ** 2), n_u=0, lam_min=0.5 * mu)


@pytest.mark.parametrize("kind", ["fixed_omega", "fixed_j"])
def test_margin_is_solved_for_fixed_omega_only(kind):
    job = _PeakJob(kind)
    mus = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    res = _run_scan(job, mus, jobs=1)
    assert res.mu_star is not None
    if kind == "fixed_omega":
        assert job.calls == mus + [res.mu_star]  # one extra point, at mu_star
        assert res.margin_at_mu_star == 0.5 * res.mu_star
    else:
        assert job.calls == mus
        assert res.margin_at_mu_star is None


class _TurningJob:
    """Fixed-omega scan job: M = 1 - (mu - 2)^2, one unstable mode from
    mu = 2.25 on; it records every mu it runs."""

    rotation = ROTATIONS["fixed_omega"]

    def __init__(self):
        self.calls = []

    def run(self, mu):
        self.calls.append(mu)
        return FamilyPoint(mu=mu, mass=1.0 - (mu - 2.0) ** 2, n_u=int(mu >= 2.25))


def test_bb1974_without_a_mass_minimum_is_a_solver_error(monkeypatch):
    mus = np.linspace(1.0, 9.0, 9)
    only_max = _result("fixed_j", mus, -((mus - 5.0) ** 2), [0] * 9)
    monkeypatch.setattr(families, "scan_fixed_j", lambda *args, **kwargs: only_max)
    with pytest.raises(SolverError, match="no mass minimum bracketed"):
        bb1974_example()


def test_scan_rejects_unsorted_mu_grid_before_any_solve():
    mus = np.linspace(1.0, 3.0, 9)
    job = _TurningJob()
    assert _run_scan(job, mus, jobs=1).tpp_verdict == "TPP-holds"
    # unsorted, the verdict would misread these points (TPP-fails, mu_hat 2.125)
    for grid in (mus[::-1], np.r_[mus[:4], mus[3:]]):
        job = _TurningJob()
        with pytest.raises(ValueError, match="mu_grid must increase strictly"):
            _run_scan(job, grid, jobs=1)
        assert job.calls == []


def _no_solve(*args, **kwargs):
    raise AssertionError("a point was solved")


def test_unknown_scan_option_is_a_type_error_before_any_solve(eos53, monkeypatch):
    monkeypatch.setattr(families, "solve_fixed_omega", _no_solve)
    with pytest.raises(TypeError, match="nrr"):
        scan_fixed_omega(eos53, RigidLaw(1.0), 0.05, [0.9, 1.0], nrr=24)


def test_scan_jobs_is_keyword_only(eos53, monkeypatch):
    """A grid size passed as the fifth positional argument cannot set jobs."""
    monkeypatch.setattr(families, "solve_fixed_j", _no_solve)
    with pytest.raises(TypeError, match="positional"):
        scan_fixed_j(eos53, PowerLawMomentum(1.0, 2.0), 0.2, [0.9, 1.0], 24)

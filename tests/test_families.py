import numpy as np
import pytest

from rotstar import poisson
from rotstar.equilibria import RotationSpec
from rotstar.families import (
    FamilyPoint,
    FamilyScanResult,
    _run_scan,
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


def test_fixed_j_verdict_fails_on_misaligned_transition():
    mus = np.linspace(1.0, 9.0, 9)
    masses = -((mus - 4.0) ** 2)
    counts = [0, 0, 0, 0, 0, 0, 0, 1, 1]  # flips four steps beyond the max
    res = _result("fixed_j", mus, masses, counts)
    assert res.tpp_verdict == "TPP-fails"


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


def test_scan_csv(tmp_path, eos53):
    scan = scan_fixed_omega(
        eos53, RigidLaw(1.0), 0.02, np.linspace(0.9, 1.1, 5), nr=56, nz=56,
    )
    path = tmp_path / "scan.csv"
    scan.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "mu,M,dMdmu,n_u,verdict"
    assert len(lines) == 6
    assert lines[1].endswith("stable")


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


class _CpuShareJob:
    """Scan job whose points report the Poisson CPU share of their process."""

    rotation = ROTATIONS["fixed_j"]

    def run(self, mu):
        return FamilyPoint(mu=mu, mass=float(poisson._cpu_share), n_u=0)


def test_scan_workers_share_the_cpus():
    res = _run_scan(_CpuShareJob(), [1.0, 2.0, 3.0], jobs=2)
    assert [p.mass for p in res.points] == [2.0, 2.0, 2.0]
    assert poisson._cpu_share == 1  # the parent keeps the whole budget
    serial = _run_scan(_CpuShareJob(), [1.0, 2.0, 3.0], jobs=1)
    assert [p.mass for p in serial.points] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("jobs", [0, -1])
def test_scan_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        _run_scan(_CpuShareJob(), [1.0, 2.0], jobs=jobs)


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

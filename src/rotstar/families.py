"""Center-density family scans and turning-point verdicts.

A scan solves one equilibrium per center density, counts unstable modes
through the constrained reduced form, and relates the count transitions to
the extrema of the total mass curve:

* families with a fixed momentum distribution change stability exactly at
  mass extrema (the turning-point rule holds);
* families with a fixed angular velocity stay stable strictly beyond the
  first mass maximum (the rule fails), with a quantified positive margin at
  the maximum itself.

Mass extrema are bracketed by ``radial.sign_changes`` on the smoothed
mass slope and placed by a 4-point quadratic fit.

A scan carries its family as one ``RotationSpec`` (profile and amplitude)
from every point's solve to its result, whose summary writes the spec's
``kind`` and amplitude (``parameter``).  Only a fixed-angular-velocity scan
solves one extra point at the located mu_star, whose smallest constrained
eigenvalue is ``margin_at_mu_star``.  A point failed exactly when it
records an error.

A scan's options are the fields of ``_ScanJob``, declared there once with
their defaults; ``scan_fixed_omega`` and ``scan_fixed_j`` only name the
family.  ``jobs`` (keyword-only) > 1 solves the points in a process pool of
at most one worker per point.  The CLI writes a result's ``table()`` and
``summary()``.

Counts are taken in the even-vertical-parity sector: the odd sector carries
only the neutral vertical-shift mode and no negative directions, which the
stability tests verify separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rotstar.bases import perturbation_basis
from rotstar.eos import EquationOfState, polytrope
from rotstar.equilibria import solve_fixed_j, solve_fixed_omega
from rotstar.errors import SolverError
from rotstar.radial import sign_changes
from rotstar.rotlaw import AngularVelocityLaw, MomentumDistribution, RotationSpec
from rotstar.rotlaw import FixedTotalMomentum
from rotstar.stability import assemble_reduced_energy, restrict_mass_zero

__all__ = [
    "FamilyPoint",
    "FamilyScanResult",
    "scan_fixed_omega",
    "scan_fixed_j",
    "bb1974_example",
]


@dataclass
class FamilyPoint:
    """One scan point: its counts, or the cause it failed with."""

    mu: float
    mass: float = math.nan
    n_u: int = -1
    lam_min: float = math.nan
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class FamilyScanResult:
    rotation: RotationSpec  # the family and its amplitude (kappa or eps)
    points: list
    dM_dmu: np.ndarray = field(init=False)
    mass_extrema: list = field(init=False)
    transitions: list = field(init=False)
    mu_star: float | None = field(init=False)
    mu_star_kind: str | None = field(init=False)
    mu_hat: float | None = field(init=False)
    tpp_verdict: str = field(init=False)
    partial: bool = field(init=False)
    margin_at_mu_star: float | None = None

    def __post_init__(self):
        self.partial = any(p.failed for p in self.points)
        ok = [p for p in self.points if not p.failed]
        mu = np.array([p.mu for p in ok])
        mass = np.array([p.mass for p in ok])
        n_u = np.array([p.n_u for p in ok])
        self.dM_dmu = np.gradient(mass, mu) if mu.size >= 3 else np.full(mu.size, math.nan)

        # extrema: sign changes of the 3-point-smoothed discrete slope, each
        # bracket (mu[i], mu[j + 1]) refined by a 4-point quadratic fit
        diffs = np.diff(mass)
        smooth = diffs.copy()
        if diffs.size >= 3:
            smooth[1:-1] = (diffs[:-2] + diffs[1:-1] + diffs[2:]) / 3.0
        self.mass_extrema = []
        for i, j in sign_changes(smooth):
            lo = max(j - 1, 1)
            sl = slice(lo - 1, lo + 3)
            co = np.polyfit(mu[sl], mass[sl], 2)
            mid = 0.5 * (mu[i] + mu[j + 1])
            mu_e = float(-co[1] / (2 * co[0])) if co[0] != 0 else mid
            if not (mu[max(i - 1, 0)] <= mu_e <= mu[j + 1]):
                mu_e = mid
            self.mass_extrema.append((mu_e, "max" if smooth[i] > 0 else "min"))

        self.transitions = []
        for i in range(n_u.size - 1):
            if n_u[i] != n_u[i + 1]:
                self.transitions.append(
                    (float(mu[i]), float(mu[i + 1]), int(n_u[i]), int(n_u[i + 1]))
                )

        self.mu_star = self.mass_extrema[0][0] if self.mass_extrema else None
        self.mu_star_kind = self.mass_extrema[0][1] if self.mass_extrema else None
        self.mu_hat = (
            0.5 * (self.transitions[0][0] + self.transitions[0][1])
            if self.transitions
            else None
        )
        self.tpp_verdict = self._verdict(mu, n_u)

    @property
    def kind(self) -> str:
        """'fixed_omega' or 'fixed_j'."""
        return self.rotation.kind

    def _verdict(self, mu, n_u):
        if self.partial:
            return "partial"
        if self.mu_star is None:
            return "no-extremum"
        if self.mu_hat is None:
            return "no-transition"

        def local_step(x):
            i = int(np.clip(np.searchsorted(mu, x), 1, mu.size - 1))
            lo = mu[i] - mu[i - 1]
            hi = mu[min(i + 1, mu.size - 1)] - mu[i] if i + 1 < mu.size else lo
            return max(lo, hi)

        if self.kind == "fixed_j":
            # transitions must line up with mass extrema; the alignment
            # window is two local grid steps, absorbing the displacement of
            # the discrete marginal crossing at near-degenerate exponents
            for lo, hi, _, _ in self.transitions:
                win = 2.0 * local_step(0.5 * (lo + hi))
                if not any(lo - win <= m_e <= hi + win for m_e, _ in self.mass_extrema):
                    return "TPP-fails"
            # counts follow the slope sign away from the extrema
            for i, m in enumerate(mu):
                if any(
                    abs(m - m_e) <= 2.0 * local_step(m_e)
                    for m_e, _ in self.mass_extrema
                ):
                    continue
                want = 1 if self.dM_dmu[i] < 0 else 0
                if n_u[i] != want:
                    return "TPP-fails"
            return "TPP-holds"
        # fixed angular velocity: the first transition should sit strictly
        # beyond the first mass maximum
        gap = self.mu_hat - self.mu_star
        if gap >= local_step(self.mu_star):
            return f"TPP-fails(mu_hat={self.mu_hat:.6g} > mu_star={self.mu_star:.6g})"
        return "TPP-holds"

    def table(self):
        """Rows (mu, M, dMdmu, n_u, verdict) over the converged points."""
        ok = [p for p in self.points if not p.failed]
        return [(p.mu, p.mass, float(dM), p.n_u, "stable" if p.n_u == 0 else "unstable")
                for p, dM in zip(ok, self.dM_dmu)]

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "parameter": self.rotation.amplitude,
            "mu_star": self.mu_star,
            "mu_star_kind": self.mu_star_kind,
            "mu_hat": self.mu_hat,
            "tpp_verdict": self.tpp_verdict,
            "margin_at_mu_star": self.margin_at_mu_star,
            "partial": self.partial,
            "transitions": self.transitions,
            "mass_extrema": self.mass_extrema,
            "failed_points": [
                {"mu": p.mu, "error": p.error} for p in self.points if p.failed
            ],
        }


@dataclass(frozen=True)
class _ScanJob:
    eos: EquationOfState
    rotation: RotationSpec
    nr: int = 72
    nz: int = 72
    pad: float = 1.35
    tol: float = 1e-10
    max_iter: int = 400
    deg_r: int = 8
    deg_z: int = 4

    def run(self, mu: float) -> FamilyPoint:
        # the family's solve is looked up as a module global when called, so
        # a wrapped ``solve_fixed_*`` is the one that runs
        rot = self.rotation
        solve = solve_fixed_omega if rot.kind == "fixed_omega" else solve_fixed_j
        try:
            star = solve(
                self.eos, rot.profile, rot.amplitude, mu,
                nr=self.nr, nz=self.nz, pad=self.pad, tol=self.tol,
                max_iter=self.max_iter,
            )
            basis = perturbation_basis(
                star, deg_r=self.deg_r, deg_z=self.deg_z, parity="even"
            )
            K = assemble_reduced_energy(basis)
            Kc = restrict_mass_zero(K, basis)
            return FamilyPoint(
                mu=mu,
                mass=star.mass,
                n_u=Kc.n_minus(),
                lam_min=Kc.smallest(),
            )
        except SolverError as exc:
            return FamilyPoint(mu=mu, error=f"mu={mu:g}: {exc}")


def _run_scan(job: _ScanJob, mu_grid, jobs: int) -> FamilyScanResult:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    mus = [float(m) for m in np.asarray(mu_grid, dtype=float)]
    # the verdict reads slopes and grid steps in scan order
    if np.any(np.diff(mus) <= 0):
        raise ValueError("mu_grid must increase strictly")
    # a fork pool starts every worker it is given at the first submit
    workers = min(jobs, len(mus))
    if workers > 1:
        # the pool's modules (multiprocessing, socket) load only for a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(job.run, mus))
    else:
        points = [job.run(m) for m in mus]
    result = FamilyScanResult(job.rotation, points)
    # the margin at mu_star quantifies the fixed-angular-velocity verdict
    # only; a fixed-momentum scan never pays for the extra point
    if result.kind == "fixed_omega" and result.mu_star is not None:
        pt = job.run(result.mu_star)
        if not pt.failed:
            result.margin_at_mu_star = pt.lam_min
    return result


def scan_fixed_omega(eos: EquationOfState, law: AngularVelocityLaw, kappa: float, mu_grid, *,
                     jobs: int = 1, **options) -> FamilyScanResult:
    """Scan the fixed-angular-velocity family over mu_grid, which must
    increase strictly (ValueError before any solve otherwise).

    Options, all keywords: ``nr`` and ``nz`` (72), ``pad`` (1.35), ``tol``
    (1e-10) and ``max_iter`` (400) go to every point's solve, ``deg_r`` and
    ``deg_z`` (8 and 4) set its even basis, and ``jobs`` (1) its process
    pool.  An unknown option is a TypeError before any solve.
    """
    return _run_scan(_ScanJob(eos, RotationSpec(law, kappa), **options), mu_grid, jobs)


def scan_fixed_j(eos: EquationOfState, momentum: MomentumDistribution, eps: float, mu_grid, *,
                 jobs: int = 1, **options) -> FamilyScanResult:
    """Scan the fixed-momentum-distribution family over mu_grid; options
    as ``scan_fixed_omega``."""
    return _run_scan(_ScanJob(eos, RotationSpec(momentum, eps), **options), mu_grid, jobs)


#: calibrated defaults of the soft-polytrope momentum-distribution family
#: whose mass curve dips through a minimum: gamma barely below 4/3 makes the
#: non-rotating branch weakly unstable, and the rotational support grows with
#: center density until it flips the slope.
BB_GAMMA = 4.03 / 3.03
BB_EPS = 3.0
BB_MU_GRID = tuple(np.geomspace(150.0, 24000.0, 9))


def bb1974_example(jobs: int = 1) -> FamilyScanResult:
    """Self-configuring mass-minimum scan of the soft polytrope with the
    fixed-total-momentum distribution on a 120^2 grid and a 10x6 basis.
    Raises SolverError when the preset grid fails to bracket the minimum."""
    scan = scan_fixed_j(
        polytrope(1.0, BB_GAMMA), FixedTotalMomentum(), BB_EPS, BB_MU_GRID,
        nr=120, nz=120, deg_r=10, deg_z=6, jobs=jobs,
    )
    has_min = any(kind == "min" for _, kind in scan.mass_extrema)
    if not has_min:
        raise SolverError(
            "no mass minimum bracketed by the preset center-density grid "
            f"({BB_MU_GRID[0]:g} to {BB_MU_GRID[-1]:g} at eps {BB_EPS:g})"
        )
    return scan

"""Non-rotating equilibria: radial profiles, mass-radius curves, oracle form.

The hydrostatic balance for a spherical star is integrated in the enthalpy
variable y(r) = h(rho(r)), which stays C^1 across the stellar surface even
when the density derivative blows up there (gamma0 < 2):

    y'' + (2/r) y' = -4 pi rho(y),   y(0) = h(mu),  y'(0) = 0,

with rho(y) the enthalpy inverse clipped at vacuum.  The support radius is
the first zero of y, and the total mass follows from the exterior matching
M = -R^2 y'(R).

The balance is integrated in the scaled variables theta = y / h(mu) and
xi = r / sqrt(h(mu) / (4 pi mu)):

    theta'' + (2/xi) theta' = -rho(h(mu) theta) / mu,  theta(0) = 1.

For a polytrope the right-hand side is -theta^n, the same for every mu
(Lane-Emden homology), so one integration serves the whole family: it is
done once at the canonical mu = 1, kept in a one-entry cache keyed on
(c_minus, gamma0), and rescaled, which gives R ~ mu^((gamma-2)/2) and
M ~ mu^((3 gamma-4)/2).  Blended equations of state integrate their own
scaled balance at each mu and bypass the cache.

Every integration of the scaled balance uses rtol = atol = ``TOL``, and
every profile is sampled on ``N_PROFILE`` radii.

Both family scans bracket extrema with ``sign_changes``, and
``family_scan_radial`` root-finds the Richardson derivative in each bracket.
The oracle form reads its radial cubic B-splines from ``bspline_table`` at
the ``gauss_cells`` nodes of each knot span (``rotstar.numerics``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from rotstar.eos import EquationOfState
from rotstar.errors import ConfigError, SolverError
from rotstar.forms import QuadraticForm
from rotstar.numerics import (
    MonotoneCubic, block_diag, bspline_table, cumulative_trapezoid, gauss_cells,
)

__all__ = [
    "RadialStar",
    "solve_radial",
    "mass_derivative",
    "surface_potential_derivative",
    "RadialFamilyCurves",
    "family_scan_radial",
    "OracleForm",
    "assemble_oracle_form",
]

MAX_RADIUS_FACTOR = 100.0
#: rtol = atol of every integration of the scaled balance
TOL = 1e-11
#: radii per sampled profile, log-clustered toward the surface
N_PROFILE = 800


@dataclass(frozen=True)
class RadialStar:
    """Spherical equilibrium: monotone profile of (r, rho, enthalpy)."""

    eos: EquationOfState
    mu: float
    radius: float
    mass: float
    r: np.ndarray
    rho: np.ndarray
    enthalpy: np.ndarray
    _rho_interp: MonotoneCubic = field(repr=False, default=None)

    def rho_of(self, s):
        """Density at spherical radius s (0 outside the support)."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = s < self.radius
        out[inside] = np.clip(self._rho_interp(s[inside]), 0.0, None)
        return out

    def enthalpy_of(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s < self.radius, self._y_interp(s), 0.0)

    def potential_of(self, s):
        """Gravitational potential, matched to -M/s outside the support."""
        s = np.asarray(s, dtype=float)
        inner = -self.mass / self.radius - self.enthalpy_of(s)
        return np.where(s < self.radius, inner, -self.mass / np.maximum(s, 1e-300))

    def enclosed_mass(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s < self.radius, self._menc_interp(s), self.mass)

    def __post_init__(self):
        object.__setattr__(self, "_rho_interp", MonotoneCubic(self.r, self.rho))
        object.__setattr__(self, "_y_interp", MonotoneCubic(self.r, self.enthalpy))
        menc = cumulative_trapezoid(4.0 * math.pi * self.rho * self.r**2, self.r)
        object.__setattr__(self, "_menc_interp", MonotoneCubic(self.r, menc))


#: the last polytropic solution of the scaled balance: ((c_minus, gamma0),
#: its _scaled_balance at the canonical mu = 1)
_lane_emden = None

# Dormand-Prince 5(4): nodes and couplings of stages 2-6, the 5th-order weights
# (stage 7 is the new point's slope) and their excess over the 4th-order ones
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _dp_step(accel, xi, state, h):
    """One Dormand-Prince step of size h for theta' = phi, phi' = accel(xi,
    theta, phi) from state = (theta, phi, phi') at xi: the state at xi + h
    and the error estimates of theta and phi."""
    theta, phi, acc = state
    # theta's stage slopes are phi's stage values
    phis, accs = [phi], [acc]
    for c, a in zip(_DP_C, _DP_A):
        th, ph = theta + h * _dot(a, phis), phi + h * _dot(a, accs)
        phis.append(ph)
        accs.append(accel(xi + c * h, th, ph))
    th, ph = theta + h * _dot(_DP_B, phis), phi + h * _dot(_DP_B, accs)
    phis.append(ph)
    accs.append(accel(xi + h, th, ph))
    return (th, ph, accs[-1]), (h * _dot(_DP_E, phis), h * _dot(_DP_E, accs))


def _dot(weights, values):
    return sum(map(operator.mul, weights, values))


def _quintic(s, h, left, right):
    """theta at fraction s of a step of size h, from (theta, theta',
    theta'') at both ends: the quintic Hermite interpolant."""
    (t0, d0, a0), (t1, d1, a1) = left, right
    u = 1.0 - s
    return (u**3 * (t0 * (1.0 + 3.0 * s + 6.0 * s * s) + h * d0 * s * (1.0 + 3.0 * s)
                    + 0.5 * h * h * a0 * s * s)
            + s**3 * (t1 * (1.0 + 3.0 * u + 6.0 * u * u) - h * d1 * u * (1.0 + 3.0 * u)
                      + 0.5 * h * h * a1 * u * u))


def _scaled_balance(eos: EquationOfState, mu: float):
    """Integrate theta'' + (2/xi) theta' = -rho(h(mu) theta) / mu outward.

    theta = y / h(mu) and xi = r / sqrt(h(mu) / (4 pi mu)).  The adaptive
    Dormand-Prince steps hold the error estimate to rtol = atol = TOL.  The
    surface is the first root of theta on the dense output; one more step
    from the last accepted point lands on it and gives the surface slope.
    Returns the knots xi, the last on the surface, and (theta, theta',
    theta'') there, one column each; None when theta has no root below
    xi = MAX_RADIUS_FACTOR.
    """
    y0 = eos.enthalpy(mu)

    def accel(xi, theta, phi):
        return -eos.enthalpy_inverse(y0 * max(theta, 0.0)) / mu - 2.0 * phi / xi

    xi = 1e-8
    theta, phi = 1.0 - xi**2 / 6.0, -xi / 3.0
    state = (theta, phi, accel(xi, theta, phi))
    knots, states = [xi], [state]
    h = 1e-3
    while xi < MAX_RADIUS_FACTOR:
        h = min(h, MAX_RADIUS_FACTOR - xi)
        new, err = _dp_step(accel, xi, state, h)
        err_norm = math.hypot(*(
            e / (TOL + TOL * max(abs(a), abs(b))) for e, a, b in zip(err, state, new)
        )) / math.sqrt(2.0)
        if err_norm < 1.0 and new[0] <= 0.0:
            lo, hi = 0.0, 1.0  # bisect the step's quintic for the root
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _quintic(mid, h, state, new) > 0.0 else (lo, mid)
            state, _ = _dp_step(accel, xi, state, lo * h)
            return np.array(knots + [xi + lo * h]), np.array(states + [state]).T
        if err_norm < 1.0:
            xi, state = xi + h, new
            knots.append(xi)
            states.append(state)
        elif xi + 0.2 * h == xi:
            raise SolverError(f"radial step size underflow at xi={xi:g} (mu={mu:g})")
        h *= min(10.0, max(0.2, 0.9 * max(err_norm, 1e-10) ** -0.2))
    return None


def _scaled_solution(eos: EquationOfState, mu: float):
    """Scaled balance at mu; one shared Lane-Emden solution for polytropes."""
    global _lane_emden
    if eos.kind != "polytropic":
        return _scaled_balance(eos, mu)
    key = (eos.c_minus, eos.gamma0)
    if _lane_emden is None or _lane_emden[0] != key:
        _lane_emden = (key, _scaled_balance(eos, 1.0))
    return _lane_emden[1]


def solve_radial(eos: EquationOfState, mu: float) -> RadialStar:
    """Integrate the spherical balance outward from center density mu.

    Raises SolverError when no surface is found within
    MAX_RADIUS_FACTOR times the central length scale sqrt(h(mu)/(4 pi mu)),
    when that scale is 0 because 4 pi mu overflows (mu of about 1.43e307
    up), or when the profile's slopes leave float range, as they do from
    center densities of about 1e150 up.
    """
    if mu <= 0:
        raise ValueError("center density must be positive")
    y0 = eos.enthalpy(mu)
    r_scale = math.sqrt(y0 / (4.0 * math.pi * mu))
    if r_scale == 0.0:
        raise SolverError(f"central length scale is 0: 4 pi mu overflows (mu={mu:g})")
    sol = _scaled_solution(eos, mu)
    if sol is None:
        raise SolverError(
            f"no surface within {MAX_RADIUS_FACTOR} central length scales (mu={mu:g})"
        )
    knots, states = sol
    radius = r_scale * float(knots[-1])
    mass = -(radius**2) * (y0 / r_scale) * float(states[1, -1])

    xi = _profile_grid(float(knots[-1]), N_PROFILE)
    r = r_scale * xi
    # the dense output: each step's quintic between its two knots
    k = np.searchsorted(knots[1:-1], xi[1:-1], "right")
    h = knots[k + 1] - knots[k]
    theta = _quintic((xi[1:-1] - knots[k]) / h, h, states[:, k], states[:, k + 1])
    y = np.empty_like(r)
    y[0], y[-1] = y0, 0.0
    y[1:-1] = np.clip(y0 * theta, 0.0, None)
    rho = eos.enthalpy_inverse(y)
    # at extreme center densities the interpolants' slopes leave float range
    with np.errstate(over="raise", divide="raise"):
        try:
            return RadialStar(eos=eos, mu=mu, radius=radius, mass=mass, r=r, rho=rho, enthalpy=y)
        except FloatingPointError as exc:
            raise SolverError(f"profile slopes overflow float range (mu={mu:g})") from exc


def _profile_grid(radius: float, n: int) -> np.ndarray:
    # bulk of the points uniform, the rest log-clustered into the surface layer
    n_surf = max(n // 4, 16)
    bulk = np.linspace(0.0, 0.9, n - n_surf, endpoint=False)
    dist = 0.1 * 10.0 ** (-np.linspace(0.0, 6.0, n_surf - 1))
    surf = 1.0 - dist  # ascending toward the surface
    return radius * np.concatenate([bulk, surf, [1.0]])


# -- family scans ----------------------------------------------------------


def _family_derivative(eos: EquationOfState, mu: float, h_rel: float,
                       quantity: Callable[[RadialStar], float]) -> float:
    """d/dmu of ``quantity`` along the family, by central differences with
    one Richardson extrapolation."""

    def central(h):
        sp = solve_radial(eos, mu + h)
        sm = solve_radial(eos, mu - h)
        return (quantity(sp) - quantity(sm)) / (2 * h)

    h = h_rel * mu
    return (4.0 * central(h / 2) - central(h)) / 3.0


def mass_derivative(eos: EquationOfState, mu: float) -> float:
    """dM/dmu by central differences (step 1e-3 mu) with one Richardson
    extrapolation."""
    return _family_derivative(eos, mu, 1e-3, lambda s: s.mass)


def surface_potential_derivative(eos: EquationOfState, mu: float,
                                 h_rel: float = 1e-3) -> float:
    """d/dmu of the surface potential -M/R, by the same difference scheme."""
    return _family_derivative(eos, mu, h_rel, lambda s: -s.mass / s.radius)


@dataclass
class RadialFamilyCurves:
    """Mass/radius curves over a center-density grid with located extrema."""

    mu: np.ndarray
    radius: np.ndarray
    mass: np.ndarray
    dM_dmu: np.ndarray
    mass_over_radius: np.ndarray
    mass_extrema: list  # (mu_value, "max"|"min")
    mu_tilde: float  # first critical point of M/R, +inf when absent


def family_scan_radial(eos: EquationOfState, mu_grid) -> RadialFamilyCurves:
    """Solve along mu_grid and locate mass extrema and the first M/R critical point."""
    mu = np.asarray(mu_grid, dtype=float)
    if mu.size < 5 or np.any(np.diff(mu) <= 0):
        raise ConfigError("mu_grid must be strictly increasing with >= 5 points")
    stars = []
    for m in mu:
        try:
            stars.append(solve_radial(eos, m))
        except SolverError as exc:
            raise SolverError(f"scan failed at mu={m:g}: {exc}") from exc
    radius = np.array([s.radius for s in stars])
    mass = np.array([s.mass for s in stars])
    dM = np.gradient(mass, mu)
    ratio = mass / radius

    diffs = np.diff(mass)
    mass_slope = functools.cache(lambda m: mass_derivative(eos, m))
    extrema = [
        (_root_in(mass_slope, mu[i], mu[j + 1]), "max" if diffs[i] > 0 else "min")
        for i, j in sign_changes(diffs)
    ]

    mu_tilde = math.inf
    ratio_changes = sign_changes(np.diff(ratio))
    if ratio_changes:
        i, j = ratio_changes[0]
        mu_tilde = _root_in(
            functools.cache(lambda m: surface_potential_derivative(eos, m, h_rel=5e-4)),
            mu[i], mu[j + 1],
        )

    return RadialFamilyCurves(mu, radius, mass, dM, ratio, extrema, mu_tilde)


def sign_changes(slopes) -> list[tuple[int, int]]:
    """Pairs (i, j) of nonzero slopes of opposite sign with only zeros
    between: a curve sampled at mu has an extremum in (mu[i], mu[j + 1])."""
    nonzero = np.flatnonzero(slopes)
    return [
        (int(i), int(j))
        for i, j in zip(nonzero[:-1], nonzero[1:])
        if (slopes[i] > 0) != (slopes[j] > 0)
    ]


def _root_in(derivative, lo: float, hi: float) -> float:
    """Root of a cached derivative in [lo, hi] to within 1e-4 hi; the
    midpoint when the derivative has one sign at both ends."""
    if derivative(lo) * derivative(hi) > 0:
        return 0.5 * (lo + hi)
    from scipy.optimize import brentq  # radial-scan alone needs it

    return brentq(derivative, lo, hi, xtol=1e-4 * hi)


# -- oracle quadratic form --------------------------------------------------


# The oracle's mesh: ORACLE_N_RADIAL radial cubic B-spline knots on
# [0, ORACLE_OUTER_FACTOR * R], which contains the star, ORACLE_QUAD_POINTS
# Gauss nodes per knot span, and spherical-harmonic sectors up to ORACLE_LMAX.
ORACLE_N_RADIAL = 36
ORACLE_OUTER_FACTOR = 2.0
ORACLE_QUAD_POINTS = 8
ORACLE_LMAX = 4


@dataclass
class OracleForm:
    """Assembled oracle form with enough structure to evaluate eigenvectors."""

    form: QuadraticForm
    knots: np.ndarray  # clamped knots of the radial cubic B-splines
    ells: np.ndarray  # harmonic degree per basis column

    def radial_component(self, coeffs: np.ndarray, ell: int, s: np.ndarray) -> np.ndarray:
        """Radial profile of the degree-ell part of a coefficient vector."""
        values, _ = bspline_table(self.knots, 3, np.asarray(s, dtype=float))
        return values.T @ np.asarray(coeffs)[self.ells == ell]


def assemble_oracle_form(star: RadialStar, parity: str = "even") -> OracleForm:
    """Galerkin matrix of the reduced potential-side form.

    The form is  int |grad psi|^2 dx - 4 pi int psi^2 / h'(rho) dx  over
    axisymmetric psi of the requested z-parity; its negative-mode count is an
    independent oracle for the density-side perturbation form.  The Gram is
    the (whole-space) Dirichlet energy: the exact harmonic exterior enters
    through a boundary term, so the domain is not truncated.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    R = star.radius
    R_out = ORACLE_OUTER_FACTOR * R

    # knots: denser inside the support than outside
    n_in = max(int(0.7 * ORACLE_N_RADIAL), 6)
    n_out = max(ORACLE_N_RADIAL - n_in, 3)
    interior = np.concatenate(
        [np.linspace(0.0, R, n_in, endpoint=False),
         np.linspace(R, R_out, n_out + 1)]
    )
    k = 3
    t = np.concatenate([[interior[0]] * k, interior, [interior[-1]] * k])
    n_basis = len(t) - k - 1

    nodes, half, gw = gauss_cells(np.unique(interior), ORACLE_QUAD_POINTS)
    s, w = nodes.ravel(), (half[:, None] * gw).ravel()
    fvals, fders = bspline_table(t, k, s)

    rho = star.rho_of(s)  # 0 outside the support
    pos = rho > 0
    pot_weight = np.zeros_like(s)
    pot_weight[pos] = 4.0 * math.pi / star.eos.enthalpy_second(rho[pos])

    A_dd = (fders * (w * s**2)) @ fders.T          # int f' g' s^2 ds
    A_00 = (fvals * w) @ fvals.T                   # int f g ds
    A_pp = (fvals * (w * s**2 * pot_weight)) @ fvals.T  # potential term
    f_end = bspline_table(t, k, np.array([R_out]))[0][:, 0]

    ells = range(0 if parity == "even" else 1, ORACLE_LMAX + 1, 2)
    blocks_q, blocks_g, ell_tags = [], [], []
    for ell in ells:
        pref = 4.0 * math.pi / (2 * ell + 1)
        dtn = (ell + 1) * R_out * np.outer(f_end, f_end)
        energy = A_dd + ell * (ell + 1) * A_00 + dtn
        blocks_q.append(pref * (energy - A_pp))
        blocks_g.append(pref * energy)
        ell_tags.extend([ell] * n_basis)

    form = QuadraticForm(block_diag(*blocks_q), block_diag(*blocks_g))
    return OracleForm(form=form, knots=t, ells=np.array(ell_tags))

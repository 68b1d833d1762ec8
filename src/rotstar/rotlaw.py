"""Rotation: laws, momentum distributions, the Rayleigh discriminant, and
the rotation of an equilibrium.

An angular velocity law omega(r) is centrifugally stable when the Rayleigh
discriminant

    Upsilon(r) = d/dr (omega^2 r^4) / r^3

is positive on the whole support; at the axis the removable singularity is
evaluated through its limit 4*omega(0)^2.  Rotation can also be specified
through a momentum distribution j(p, q), the specific angular momentum as a
function of cylinder mass p and total mass q, which induces
omega(r) = eps * j(m(r), M) / r^2 on a given star.

Each profile class carries its family (a law ``fixed_omega`` with amplitude
``kappa``, a distribution ``fixed_j`` with ``eps``) and the family's physics
on a grid: the star's (omega, d(omega r^2)/dr, Upsilon) in ``grid_profiles``
and the SCF's ``rotational_potential``, fixed in radius for a law and
rebuilt from each iterate's cylinder mass for a distribution.  The three
profiles come from the same arrays, so the discrete identities relating the
reduced rotational correction and the azimuthal-lift energy hold to
round-off.

``RotationSpec(profile, amplitude)`` is the rotation of an equilibrium.  Its
config section names the class by ``form`` through ``FORMS``, the amplitude
under the class's key, and the class's arguments, so a key the form does
not take is a ``TypeError``.  A table law's samples are given inline as
``r``/``omega`` or as the two columns of the CSV file at ``path``, and are
written back inline.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from rotstar.errors import ConfigError

__all__ = [
    "AngularVelocityLaw",
    "RigidLaw",
    "PowerTailLaw",
    "TabulatedLaw",
    "discriminant",
    "MomentumDistribution",
    "PowerLawMomentum",
    "FixedTotalMomentum",
    "UnitMassMomentum",
    "omega_from_j",
    "FORMS",
    "RotationSpec",
]

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(6)


class AngularVelocityLaw:
    """C^1 angular velocity profile omega(r) with its analytic derivatives;
    the fixed-angular-velocity family, azimuthal velocity kappa omega(r) r."""

    family = "fixed_omega"
    amplitude_key = "kappa"

    def omega(self, r):
        raise NotImplementedError

    def omega_sq_r4_derivative(self, r):
        """d/dr (omega^2 r^4); subclasses supply the analytic form."""
        raise NotImplementedError

    def d_omega_r2(self, r):
        """d/dr (omega r^2), used by the azimuthal lift and the generator."""
        raise NotImplementedError

    def centrifugal_integral(self, r):
        """int_0^r omega(s)^2 s ds, per-interval Gauss quadrature, vectorized."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return _cumulative_gauss(lambda s: self.omega(s) ** 2 * s, r)

    def grid_profiles(self, amp, rs, m, h1):
        """(omega, d(omega r^2)/dr, Upsilon) at amplitude ``amp`` on the
        radii ``rs``; a law reads neither the cylinder mass ``m`` nor the
        column density ``h1``."""
        omega = amp * np.asarray(self.omega(rs))
        d_om_r2 = amp * np.asarray(self.d_omega_r2(rs))
        ups = np.empty_like(rs)
        ups[0] = 4.0 * omega[0] ** 2
        ups[1:] = amp**2 * self.omega_sq_r4_derivative(rs[1:]) / rs[1:] ** 3
        return omega, d_om_r2, ups

    def rotational_potential(self, amp, grid):
        """rho -> centrifugal potential amp^2 int_0^r omega^2 s ds per radius
        of the ``Grid`` ``grid``, the same array for every density."""
        arr = amp**2 * np.asarray(self.centrifugal_integral(grid.rs))
        return lambda rho: arr


@dataclass(frozen=True)
class RigidLaw(AngularVelocityLaw):
    omega_c: float = 1.0

    def omega(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.omega_c)

    def omega_sq_r4_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return 4.0 * self.omega_c**2 * r**3

    def d_omega_r2(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * self.omega_c * r

    def centrifugal_integral(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * self.omega_c**2 * r**2


@dataclass(frozen=True)
class PowerTailLaw(AngularVelocityLaw):
    """omega(r) = omega_c * (1 + (r/r_c)^2)**(-p)."""

    omega_c: float = 1.0
    r_c: float = 1.0
    p: float = 1.0

    def omega(self, r):
        u = (np.asarray(r, dtype=float) / self.r_c) ** 2
        return self.omega_c * (1.0 + u) ** (-self.p)

    def omega_sq_r4_derivative(self, r):
        r = np.asarray(r, dtype=float)
        u = (r / self.r_c) ** 2
        return (
            self.omega_c**2
            * r**3
            * (1.0 + u) ** (-2.0 * self.p - 1.0)
            * (4.0 + (4.0 - 4.0 * self.p) * u)
        )

    def d_omega_r2(self, r):
        r = np.asarray(r, dtype=float)
        u = (r / self.r_c) ** 2
        # d/dr [omega_c r^2 (1+u)^{-p}] = omega_c r (1+u)^{-p-1} (2 + (2-2p) u)
        return self.omega_c * r * (1.0 + u) ** (-self.p - 1.0) * (2.0 + (2.0 - 2.0 * self.p) * u)


class TabulatedLaw(AngularVelocityLaw):
    """Law built from (r, omega) samples, given inline or as the first two
    columns of the CSV file at ``path``; derivatives come from a C^2 spline.
    Past the last sample omega is held at its last value, so its slope there
    is 0 and both derivatives agree with the clamped omega."""

    def __init__(self, r=None, omega=None, path=None):
        if path is not None:
            if r is not None or omega is not None:
                raise ValueError("a table law takes 'r'/'omega' or 'path', not both")
            table = np.loadtxt(path, delimiter=",", ndmin=2)
            r, omega = table[:, 0], table[:, 1]
        if r is None or omega is None:
            raise ValueError("a table law needs both 'r' and 'omega', or 'path'")
        r = np.asarray(r, dtype=float)
        w = np.asarray(omega, dtype=float)
        if r.shape != w.shape:
            raise ValueError(f"table law 'r' has {r.size} samples but 'omega' has {w.size}")
        if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
            raise ValueError("need >= 4 strictly increasing radius samples")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w))):
            raise ValueError("tabulated law must be finite everywhere")
        self.r_samples = r
        self.omega_samples = w
        self.r_max = float(r[-1])
        self._spline = CubicSpline(r, w, bc_type="not-a-knot")
        self._dspline = self._spline.derivative()

    def omega(self, r):
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.r_max)
        return self._spline(r)

    def _omega_and_slope(self, r):
        """omega and d(omega)/dr of the clamped law (slope 0 past r_max)."""
        rc = np.clip(r, 0.0, self.r_max)
        return self._spline(rc), np.where(r > self.r_max, 0.0, self._dspline(rc))

    def omega_sq_r4_derivative(self, r):
        r = np.asarray(r, dtype=float)
        w, dw = self._omega_and_slope(r)
        return 2.0 * w * dw * r**4 + 4.0 * w**2 * r**3

    def d_omega_r2(self, r):
        r = np.asarray(r, dtype=float)
        w, dw = self._omega_and_slope(r)
        return dw * r**2 + 2.0 * w * r


def discriminant(law: AngularVelocityLaw, r):
    """Rayleigh discriminant; the axis value is the limit 4*omega(0)^2."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.empty_like(r)
    on_axis = r == 0.0
    if np.any(on_axis):
        out[on_axis] = 4.0 * float(np.atleast_1d(law.omega(0.0))[0]) ** 2
    off = ~on_axis
    out[off] = law.omega_sq_r4_derivative(r[off]) / r[off] ** 3
    return float(out[0]) if scalar else out


def _cumulative_gauss(f, r):
    """Cumulative integral of f from 0 along increasing nodes r (Gauss per cell)."""
    out = np.zeros_like(r)
    prev = 0.0
    acc = 0.0
    for i, cur in enumerate(r):
        if cur > prev:
            mid, half = 0.5 * (prev + cur), 0.5 * (cur - prev)
            nodes = mid + half * _GAUSS_NODES
            acc += half * float(np.dot(_GAUSS_WEIGHTS, f(nodes)))
        out[i] = acc
        prev = cur
    return out


# -- momentum distributions --------------------------------------------------


class MomentumDistribution:
    """Specific angular momentum j(p, q) of cylinder mass p and total mass q;
    the fixed-momentum family, azimuthal velocity eps j(m(r), M) / r."""

    family = "fixed_j"
    amplitude_key = "eps"

    def j(self, p, q):
        raise NotImplementedError

    def dj_dp(self, p, q):
        raise NotImplementedError

    def J(self, p, q):
        """J = j^2."""
        return self.j(p, q) ** 2

    def dJ_dp(self, p, q):
        return 2.0 * self.j(p, q) * self.dj_dp(p, q)

    def validate_origin(self, q: float, scale: float = 1e-6):
        """Check the smoothness requirements at p = 0: j(0, q) = 0 and a
        finite one-sided slope.  Raises ConfigError on violation."""
        j0 = float(self.j(0.0, q))
        if abs(j0) > 1e-12 * max(abs(float(self.j(scale * q, q))), 1e-300):
            raise ConfigError("momentum distribution must vanish at zero cylinder mass")
        slope = float(self.dj_dp(scale * q, q))
        if not math.isfinite(slope):
            raise ConfigError("momentum distribution slope must stay finite at p = 0")

    def grid_profiles(self, amp, rs, m, h1):
        """(omega, d(omega r^2)/dr, Upsilon) at amplitude ``amp`` on the
        radii ``rs`` of a star with cylinder mass ``m`` and column density
        ``h1``: omega = eps j(m(r), M)/r^2, with the chain rule through
        m'(r) = r h1(r)."""
        M = 2.0 * math.pi * float(m[-1])
        omega = np.empty_like(rs)
        off = rs > 0
        omega[off] = amp * self.j(m[off], M) / rs[off] ** 2
        dj0 = self.dj_dp(0.0, M)
        omega[0] = float(amp * dj0 * 0.5 * h1[0]) if np.isfinite(dj0) else 0.0
        # d/dr (omega r^2) = eps dj/dp(m) m'(r)
        d_om_r2 = amp * self.dj_dp(m, M) * rs * h1
        ups = np.empty_like(rs)
        ups[off] = amp**2 * self.dJ_dp(m[off], M) * h1[off] / rs[off] ** 2
        ups[0] = 4.0 * omega[0] ** 2
        return omega, d_om_r2, ups

    def rotational_potential(self, amp, grid):
        """rho -> eps^2 int_0^r J(m(s), M) s^-3 ds per radius of the ``Grid``
        ``grid``, from the cylinder mass of the density it is given.

        The integrand vanishes at the axis because J = O(m^2) and m = O(s^2).
        """
        rs = grid.rs
        off = rs > 0

        def potential(rho):
            m = grid.cylinder_mass(rho)
            M = 2.0 * math.pi * float(m[-1])
            integrand = np.zeros_like(rs)
            integrand[off] = self.J(m[off], M) / rs[off] ** 3
            return cumulative_trapezoid(integrand, rs, initial=0) * amp**2

        return potential


@dataclass(frozen=True)
class PowerLawMomentum(MomentumDistribution):
    """j(p, q) = coeff * p**exponent, exponent >= 1."""

    coeff: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("exponent < 1 violates j(0, q) = 0 smoothly")

    def j(self, p, q):
        return self.coeff * np.asarray(p, dtype=float) ** self.exponent

    def dj_dp(self, p, q):
        p = np.asarray(p, dtype=float)
        return self.coeff * self.exponent * p ** (self.exponent - 1.0)


@dataclass(frozen=True)
class FixedTotalMomentum(MomentumDistribution):
    """j(p, q) = (1/q) * [1 - (1 - p/q)**(2/3)]: fixed total angular momentum."""

    def j(self, p, q):
        x = np.clip(np.asarray(p, dtype=float) / q, 0.0, 1.0)
        return (1.0 - (1.0 - x) ** (2.0 / 3.0)) / q

    def dj_dp(self, p, q):
        x = np.clip(np.asarray(p, dtype=float) / q, 0.0, 1.0 - 1e-12)
        return (2.0 / 3.0) * (1.0 - x) ** (-1.0 / 3.0) / q**2


@dataclass(frozen=True)
class UnitMassMomentum(MomentumDistribution):
    """j(p, q) = coeff * (p/q)**exponent: per-unit-mass distribution."""

    coeff: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("exponent < 1 violates j(0, q) = 0 smoothly")

    def j(self, p, q):
        return self.coeff * (np.asarray(p, dtype=float) / q) ** self.exponent

    def dj_dp(self, p, q):
        p = np.asarray(p, dtype=float)
        return self.coeff * self.exponent * p ** (self.exponent - 1.0) / q**self.exponent


def omega_from_j(
    j: MomentumDistribution, m_of_r: Callable, total_mass: float, eps: float, r_grid
) -> TabulatedLaw:
    """Angular velocity induced by a momentum distribution on a given star.

    ``m_of_r`` maps radius to cylinder mass with m(0) = 0; since m = O(r^2)
    and j vanishes at zero mass, eps*j(m(r), M)/r^2 has a finite axis limit,
    evaluated here by quadratic extrapolation from the first interior nodes.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 6 or np.any(np.diff(r) <= 0) or r[0] < 0:
        raise ValueError("r_grid must be increasing and nonnegative")
    j.validate_origin(total_mass)
    m = np.asarray(m_of_r(r), dtype=float)
    m_scale = max(abs(m[-1]), 1e-300)
    if np.any(np.diff(m) < -1e-12 * m_scale):
        raise ValueError("cylinder mass must be nondecreasing")
    if r[0] == 0 and abs(m[0]) > 1e-10 * m_scale:
        raise ValueError("cylinder mass must vanish at the axis")
    omega = np.empty_like(r)
    off = r > 0
    omega[off] = eps * j.j(m[off], total_mass) / r[off] ** 2
    if np.any(~off):
        ro = r[off][:3]
        wo = omega[off][:3]
        omega[~off] = np.polynomial.polynomial.polyfit(ro, wo, 2)[0]
    return TabulatedLaw(r, omega)


# -- the rotation of an equilibrium ------------------------------------------

#: config ``form`` -> profile class; the section's other keys are its arguments
FORMS = {
    "rigid": RigidLaw,
    "power_tail": PowerTailLaw,
    "table": TabulatedLaw,
    "bb_j": FixedTotalMomentum,
    "power_j": PowerLawMomentum,
    "unit_mass_j": UnitMassMomentum,
}


@dataclass(frozen=True)
class RotationSpec:
    """The rotation of an equilibrium: a profile and its amplitude, kappa
    for a law and eps for a momentum distribution; no profile is a static
    star."""

    profile: AngularVelocityLaw | MomentumDistribution | None = None
    amplitude: float = 0.0

    @property
    def kind(self) -> str:
        """The profile's family, 'fixed_omega' or 'fixed_j'; 'none' if static."""
        return "none" if self.profile is None else self.profile.family

    @classmethod
    def from_config(cls, section: dict | None) -> RotationSpec:
        """The rotation a config section names; None is a static star."""
        if section is None:
            return cls()
        params = dict(section)
        form = params.pop("form", None)
        if form not in FORMS:
            raise ValueError(f"unknown rotation form {form!r}, expected one of {sorted(FORMS)}")
        profile_cls = FORMS[form]
        key = profile_cls.amplitude_key
        if key not in params:
            raise ValueError(f"rotation form {form!r} requires {key!r}")
        amplitude = params.pop(key)
        return cls(profile_cls(**params), amplitude)

    def config(self) -> dict | None:
        """The config section ``from_config`` reads back into this spec."""
        if self.profile is None:
            return None
        form = {cls: name for name, cls in FORMS.items()}[type(self.profile)]
        if isinstance(self.profile, TabulatedLaw):
            params = {"r": self.profile.r_samples.tolist(),
                      "omega": self.profile.omega_samples.tolist()}
        else:
            params = asdict(self.profile)
        return {"form": form, **params, self.profile.amplitude_key: self.amplitude}

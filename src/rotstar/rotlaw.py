"""Rotation: laws, momentum distributions, the Rayleigh discriminant, and
the rotation of an equilibrium.

An angular velocity law omega(r) is centrifugally stable when the Rayleigh
discriminant

    Upsilon(r) = d/dr (omega^2 r^4) / r^3 = 2 omega d(omega r^2)/dr / r

is positive on the whole support.  Rotation can also be specified through a
momentum distribution j(p, q), the specific angular momentum as a function
of cylinder mass p and total mass q, which induces
omega(r) = eps * j(m(r), M) / r^2 on a given star.

Each profile class carries its family (a law ``fixed_omega`` with amplitude
``kappa``, a distribution ``fixed_j`` with ``eps``) and the family's physics
on a grid: the star's (omega, d(omega r^2)/dr, Upsilon) in ``grid_profiles``
and the SCF's ``rotational_potential``, fixed in radius for a law and
rebuilt from each iterate's cylinder mass for a distribution.  A law
supplies omega and its slope d(omega)/dr; d(omega r^2)/dr is written once
from them.  Upsilon is derived once for both families (``upsilon``), as 2
omega times d(omega r^2)/dr / r, whose axis limit 2 omega(0)
(``d_omega_r2_over_r``, which the generator reads too) gives
Upsilon(0) = 4 omega(0)^2 without a rule of its own.  So the weights
4 omega^2 / Upsilon of the azimuthal lift and Upsilon / (r h1) of the
reduced rotational correction cancel by construction.

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

from rotstar.errors import ConfigError
from rotstar.numerics import cell_integrals, cumulative_trapezoid

__all__ = [
    "AngularVelocityLaw",
    "RigidLaw",
    "PowerTailLaw",
    "TabulatedLaw",
    "d_omega_r2_over_r",
    "upsilon",
    "discriminant",
    "MomentumDistribution",
    "PowerLawMomentum",
    "FixedTotalMomentum",
    "UnitMassMomentum",
    "omega_from_j",
    "FORMS",
    "RotationSpec",
]

#: p / q at which ``validate_origin`` probes j and dj/dp near the axis
ORIGIN_SCALE = 1e-6


class AngularVelocityLaw:
    """C^1 angular velocity profile omega(r) with its slope d(omega)/dr, the
    one derivative a law writes out; the fixed-angular-velocity family,
    azimuthal velocity kappa omega(r) r."""

    family = "fixed_omega"
    amplitude_key = "kappa"

    def omega(self, r):
        raise NotImplementedError

    def omega_slope(self, r):
        """d(omega)/dr."""
        raise NotImplementedError

    def d_omega_r2(self, r):
        """d/dr (omega r^2) = omega' r^2 + 2 omega r, used by the azimuthal
        lift and the generator."""
        r = np.asarray(r, dtype=float)
        return self.omega_slope(r) * r**2 + 2.0 * self.omega(r) * r

    def centrifugal_integral(self, r):
        """int_0^r omega(s)^2 s ds at the radii r: six Gauss nodes on each
        cell between 0 and the successive radii, summed cell by cell."""
        edges = np.concatenate(([0.0], np.atleast_1d(np.asarray(r, dtype=float))))
        return np.cumsum(cell_integrals(lambda s: self.omega(s) ** 2 * s, edges, 6))

    def grid_profiles(self, amp, rs, m, h1):
        """(omega, d(omega r^2)/dr, Upsilon) at amplitude ``amp`` on the
        radii ``rs``; a law reads neither the cylinder mass ``m`` nor the
        column density ``h1``."""
        omega = amp * np.asarray(self.omega(rs))
        d_om_r2 = amp * self.d_omega_r2(rs)
        return omega, d_om_r2, upsilon(omega, d_om_r2, rs)

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

    def omega_slope(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def centrifugal_integral(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * self.omega_c**2 * r**2


@dataclass(frozen=True)
class PowerTailLaw(AngularVelocityLaw):
    """omega(r) = omega_c * (1 + (r/r_c)^2)**(-p)."""

    omega_c: float = 1.0
    r_c: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if not self.r_c > 0:
            raise ValueError(f"power_tail r_c must be positive, got {self.r_c}")

    def omega(self, r):
        u = (np.asarray(r, dtype=float) / self.r_c) ** 2
        return self.omega_c * (1.0 + u) ** (-self.p)

    def omega_slope(self, r):
        r = np.asarray(r, dtype=float)
        u = (r / self.r_c) ** 2
        return -2.0 * self.p * self.omega_c * r / self.r_c**2 * (1.0 + u) ** (-self.p - 1.0)


class TabulatedLaw(AngularVelocityLaw):
    """Law built from (r, omega) samples, given inline or as the first two
    columns of the CSV file at ``path``; its slope comes from a C^2 spline.
    Past the last sample omega is held at its last value, so its slope there
    is 0."""

    def __init__(self, r=None, omega=None, path=None):
        if path is not None:
            if r is not None or omega is not None:
                raise ValueError("a table law takes 'r'/'omega' or 'path', not both")
            table = np.loadtxt(path, delimiter=",", ndmin=2)
            if table.shape[1] < 2:
                raise ValueError(
                    f"table law file {path} has {table.shape[1]} column(s), needs 2 (r, omega)"
                )
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
        from scipy.interpolate import CubicSpline  # only the table form needs it

        self._spline = CubicSpline(r, w, bc_type="not-a-knot")
        self._dspline = self._spline.derivative()

    def omega(self, r):
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.r_max)
        return self._spline(r)

    def omega_slope(self, r):
        """Slope of the clamped law: the spline's, and 0 past r_max."""
        r = np.asarray(r, dtype=float)
        return np.where(r > self.r_max, 0.0, self._dspline(np.clip(r, 0.0, self.r_max)))


def d_omega_r2_over_r(omega, d_om_r2, rs):
    """d(omega r^2)/dr / r on the radii ``rs`` from the profiles there; on
    the axis, the limit 2 omega(0)."""
    out = 2.0 * np.asarray(omega, dtype=float)
    off = rs > 0
    out[off] = d_om_r2[off] / rs[off]
    return out


def upsilon(omega, d_om_r2, rs):
    """Rayleigh discriminant d(omega^2 r^4)/dr / r^3 = 2 omega d(omega r^2)/dr
    / r on the radii ``rs``, for either family; on the axis 4 omega(0)^2."""
    return 2.0 * omega * d_omega_r2_over_r(omega, d_om_r2, rs)


def discriminant(law: AngularVelocityLaw, r):
    """Rayleigh discriminant of ``law`` at the radii ``r``."""
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    ups = upsilon(np.asarray(law.omega(rs)), law.d_omega_r2(rs), rs)
    return float(ups[0]) if np.ndim(r) == 0 else ups


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

    def validate_origin(self, q: float):
        """Check the smoothness requirements at p = 0: j(0, q) = 0 and a
        finite slope at p = ``ORIGIN_SCALE`` q; raises ConfigError if not."""
        j0 = float(self.j(0.0, q))
        if abs(j0) > 1e-12 * max(abs(float(self.j(ORIGIN_SCALE * q, q))), 1e-300):
            raise ConfigError("momentum distribution must vanish at zero cylinder mass")
        slope = float(self.dj_dp(ORIGIN_SCALE * q, q))
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
        return omega, d_om_r2, upsilon(omega, d_om_r2, rs)

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
            return cumulative_trapezoid(integrand, rs) * amp**2

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

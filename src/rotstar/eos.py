"""Barotropic equations of state with enthalpy transforms.

Two kinds are supported:

* ``polytropic``: P(rho) = c_minus * rho**gamma0, everything in closed form.
* ``asymptotically-polytropic``: a low-density polytrope c_minus*rho**gamma0
  joined to a high-density polytrope c_plus*rho**gamma_inf by a C^1 cubic
  Hermite interpolant of log P versus log rho over [rho_blend_lo,
  rho_blend_hi].  The blend keeps P' > 0 as long as the interpolant stays
  monotone, which is validated at construction.

The specific enthalpy is h(rho) = integral_0^rho P'(s)/s ds.  For the blended
kind the blend-region enthalpy is precomputed by per-interval Gauss quadrature
on a dense logarithmic grid and interpolated monotonically; the inverse is the
same table flipped, polished by Newton iterations so round trips hold to
near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = ["EquationOfState", "polytrope", "asymptotic_polytrope"]

_BLEND_TABLE_SIZE = 2000
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _poly_enthalpy_coef(c: float, gamma: float) -> float:
    # h = gamma*c/(gamma-1) * rho**(gamma-1) for a pure polytrope
    return gamma * c / (gamma - 1.0)


@dataclass(frozen=True)
class EquationOfState:
    """Immutable pressure law P(rho) with derived enthalpy transforms.

    ``kind`` selects the law, ``c_minus``/``gamma0`` fix the low-density
    branch, and for the asymptotically-polytropic kind ``c_plus``/
    ``gamma_inf`` fix the high-density branch joined over [rho_blend_lo,
    rho_blend_hi].  The config section (``from_config``/``config``) holds the
    same values with the blend interval as the pair ``blend``.
    """

    kind: str
    c_minus: float
    gamma0: float
    c_plus: float | None = None
    gamma_inf: float | None = None
    rho_blend_lo: float | None = None
    rho_blend_hi: float | None = None

    def __post_init__(self):
        if self.kind not in ("polytropic", "asymptotically-polytropic"):
            raise ValueError(f"unknown EOS kind {self.kind!r}")
        # gamma0 = 2 is admitted so the closed-form linear-pressure-response
        # star remains available as a profile oracle.
        if not (6.0 / 5.0 < self.gamma0 <= 2.0):
            raise ValueError("gamma0 must lie in (6/5, 2]")
        if self.c_minus <= 0:
            raise ValueError("c_minus must be positive")
        if self.kind == "asymptotically-polytropic":
            if self.c_plus is None or self.gamma_inf is None:
                raise ValueError("blended EOS needs c_plus and gamma_inf")
            gi = self.gamma_inf
            if not (1.0 < gi < 4.0 / 3.0) or math.isclose(gi, 6.0 / 5.0):
                raise ValueError("gamma_inf must lie in (1,6/5) or (6/5,4/3)")
            if self.rho_blend_lo is None or self.rho_blend_hi is None:
                raise ValueError("blended EOS needs rho_blend_lo/hi")
            if not (0 < self.rho_blend_lo < self.rho_blend_hi):
                raise ValueError("blend interval must satisfy 0 < lo < hi")
            object.__setattr__(self, "_blend", _BlendData(self))
        else:
            if (self.c_plus, self.gamma_inf, self.rho_blend_lo, self.rho_blend_hi) != (None,) * 4:
                raise ValueError("a polytropic EOS takes no c_plus, gamma_inf or blend")
            object.__setattr__(self, "_blend", None)

    @classmethod
    def from_config(cls, section: dict) -> EquationOfState:
        """The EOS a config ``eos`` section describes."""
        params = dict(section)
        if "blend" in params:
            params["rho_blend_lo"], params["rho_blend_hi"] = params.pop("blend")
        return cls(**params)

    def config(self) -> dict:
        """The config section ``from_config`` reads back into this EOS."""
        section = {"kind": self.kind, "c_minus": self.c_minus, "gamma0": self.gamma0}
        if self._blend is not None:
            section.update(c_plus=self.c_plus, gamma_inf=self.gamma_inf,
                           blend=[self.rho_blend_lo, self.rho_blend_hi])
        return section

    # -- pressure ---------------------------------------------------------

    def pressure(self, rho):
        """P(rho); P(0) = 0 and strictly increasing.  rho must be >= 0."""
        rho_arr, scalar = _checked(rho, allow_zero=True)
        if self.kind == "polytropic":
            out = self.c_minus * rho_arr**self.gamma0
        else:
            out = self._blend.pressure(rho_arr)
        return _unwrap(out, scalar)

    def pressure_derivative(self, rho):
        """dP/drho, positive on (0, inf)."""
        rho_arr, scalar = _checked(rho, allow_zero=False)
        if self.kind == "polytropic":
            out = self.gamma0 * self.c_minus * rho_arr ** (self.gamma0 - 1.0)
        else:
            out = self._blend.pressure_derivative(rho_arr)
        return _unwrap(out, scalar)

    # -- enthalpy ---------------------------------------------------------

    def enthalpy(self, rho):
        """Specific enthalpy h(rho) = int_0^rho P'(s)/s ds, with h(0) = 0."""
        rho_arr, scalar = _checked(rho, allow_zero=True)
        if self.kind == "polytropic":
            out = _poly_enthalpy_coef(self.c_minus, self.gamma0) * rho_arr ** (
                self.gamma0 - 1.0
            )
        else:
            out = self._blend.enthalpy(rho_arr)
        return _unwrap(out, scalar)

    def enthalpy_inverse(self, h):
        """Density with the given specific enthalpy; exact inverse of enthalpy."""
        h_arr, scalar = _checked(h, allow_zero=True, name="enthalpy")
        if self.kind == "polytropic":
            coef = _poly_enthalpy_coef(self.c_minus, self.gamma0)
            out = (h_arr / coef) ** (1.0 / (self.gamma0 - 1.0))
        else:
            out = self._blend.enthalpy_inverse(h_arr)
        return _unwrap(out, scalar)

    def enthalpy_second(self, rho):
        """h'(rho) = P'(rho)/rho.  Diverges as rho -> 0+ when gamma0 < 2."""
        rho_arr, scalar = _checked(rho, allow_zero=False)
        out = self.pressure_derivative(rho_arr) / rho_arr
        return _unwrap(np.asarray(out), scalar)


class _BlendData:
    """Precomputed cubic-Hermite blend of log P vs log rho plus enthalpy tables."""

    def __init__(self, eos: EquationOfState):
        self.c_lo = eos.c_minus
        self.g_lo = eos.gamma0
        self.c_hi = eos.c_plus
        self.g_hi = eos.gamma_inf
        self.x0 = math.log(eos.rho_blend_lo)
        self.x1 = math.log(eos.rho_blend_hi)
        self.rho_lo = eos.rho_blend_lo
        self.rho_hi = eos.rho_blend_hi
        dx = self.x1 - self.x0
        y0 = math.log(self.c_lo) + self.g_lo * self.x0
        y1 = math.log(self.c_hi) + self.g_hi * self.x1
        # Hermite in normalized t = (x - x0)/dx: value/slope match both ends.
        self._dx = dx
        self._coef = _hermite_coefficients(y0, self.g_lo * dx, y1, self.g_hi * dx)

        xs = np.linspace(self.x0, self.x1, 257)
        slopes = self._H_prime(xs)
        if np.any(slopes <= 0):
            raise ValueError(
                "blend is not monotone (P' <= 0 inside the blend window); "
                "adjust c_plus or the blend interval"
            )

        # Enthalpy over the blend: cumulative Gauss quadrature of P'(s)/s on a
        # dense log grid, then monotone interpolation both ways.
        self.h_lo = _poly_enthalpy_coef(self.c_lo, self.g_lo) * self.rho_lo ** (
            self.g_lo - 1.0
        )
        xg = np.linspace(self.x0, self.x1, _BLEND_TABLE_SIZE)
        vals = np.empty_like(xg)
        vals[0] = self.h_lo
        # integrand in x = log s:  P'(s)/s ds = P'(s) dx  (ds = s dx)
        for i in range(1, xg.size):
            a, b = xg[i - 1], xg[i]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes = mid + half * _GAUSS_NODES
            vals[i] = vals[i - 1] + half * np.dot(
                _GAUSS_WEIGHTS, self._P_prime_x(nodes)
            )
        self.h_hi = float(vals[-1])
        self._h_of_x = PchipInterpolator(xg, vals)
        self._x_of_h = PchipInterpolator(vals, xg)
        self.h_coef_hi = _poly_enthalpy_coef(self.c_hi, self.g_hi)

    # Hermite helpers (x is log density)
    def _H(self, x):
        t = (np.asarray(x) - self.x0) / self._dx
        c = self._coef
        return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]

    def _H_prime(self, x):
        t = (np.asarray(x) - self.x0) / self._dx
        c = self._coef
        return ((3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]) / self._dx

    def _P_prime_x(self, x):
        # P'(s) evaluated at s = e^x inside the blend
        P = np.exp(self._H(x))
        return P * self._H_prime(x) / np.exp(x)

    def pressure(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho)
        lo = rho <= self.rho_lo
        hi = rho >= self.rho_hi
        mid = ~(lo | hi)
        out[lo] = self.c_lo * rho[lo] ** self.g_lo
        out[hi] = self.c_hi * rho[hi] ** self.g_hi
        if np.any(mid):
            out[mid] = np.exp(self._H(np.log(rho[mid])))
        return out

    def pressure_derivative(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho)
        lo = rho <= self.rho_lo
        hi = rho >= self.rho_hi
        mid = ~(lo | hi)
        out[lo] = self.g_lo * self.c_lo * rho[lo] ** (self.g_lo - 1.0)
        out[hi] = self.g_hi * self.c_hi * rho[hi] ** (self.g_hi - 1.0)
        if np.any(mid):
            x = np.log(rho[mid])
            out[mid] = np.exp(self._H(x)) * self._H_prime(x) / rho[mid]
        return out

    def enthalpy(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho)
        lo = rho <= self.rho_lo
        hi = rho >= self.rho_hi
        mid = ~(lo | hi)
        out[lo] = _poly_enthalpy_coef(self.c_lo, self.g_lo) * rho[lo] ** (
            self.g_lo - 1.0
        )
        out[hi] = self.h_hi + self.h_coef_hi * (
            rho[hi] ** (self.g_hi - 1.0) - self.rho_hi ** (self.g_hi - 1.0)
        )
        if np.any(mid):
            out[mid] = self._h_of_x(np.log(rho[mid]))
        return out

    def enthalpy_inverse(self, h):
        h = np.asarray(h, dtype=float)
        out = np.empty_like(h)
        lo = h <= self.h_lo
        hi = h >= self.h_hi
        mid = ~(lo | hi)
        coef_lo = _poly_enthalpy_coef(self.c_lo, self.g_lo)
        out[lo] = (h[lo] / coef_lo) ** (1.0 / (self.g_lo - 1.0))
        out[hi] = (
            (h[hi] - self.h_hi) / self.h_coef_hi + self.rho_hi ** (self.g_hi - 1.0)
        ) ** (1.0 / (self.g_hi - 1.0))
        if np.any(mid):
            rho = np.exp(self._x_of_h(h[mid]))
            # Newton polish against the tabulated forward map; h' = P'/rho.
            for _ in range(3):
                res = self._h_of_x(np.log(rho)) - h[mid]
                rho = rho - res / (self.pressure_derivative(rho) / rho)
                np.clip(rho, self.rho_lo, self.rho_hi, out=rho)
            out[mid] = rho
        return out


def _hermite_coefficients(y0, m0, y1, m1):
    # cubic in t over [0,1] with value/derivative (y0,m0) and (y1,m1)
    return (
        y0,
        m0,
        -3.0 * y0 - 2.0 * m0 + 3.0 * y1 - m1,
        2.0 * y0 + m0 - 2.0 * y1 + m1,
    )


def _checked(value, allow_zero: bool, name: str = "density"):
    arr = np.asarray(value, dtype=float)
    scalar = arr.ndim == 0
    if allow_zero:
        if np.any(arr < 0):
            raise ValueError(f"{name} must be nonnegative")
    else:
        if np.any(arr <= 0):
            raise ValueError(f"{name} must be positive")
    return (arr.reshape(1) if scalar else arr), scalar


def _unwrap(arr, scalar):
    return float(arr[0]) if scalar else arr


def polytrope(c: float = 1.0, gamma: float = 5.0 / 3.0) -> EquationOfState:
    """Pure polytrope P = c * rho**gamma."""
    return EquationOfState(kind="polytropic", c_minus=c, gamma0=gamma)


def asymptotic_polytrope(
    c_minus: float,
    gamma0: float,
    gamma_inf: float,
    blend: tuple[float, float],
    c_plus: float | None = None,
) -> EquationOfState:
    """Two-branch EOS blended over ``blend``.

    When ``c_plus`` is omitted it is chosen so the raw branch curves agree at
    the geometric midpoint of the blend window, which keeps the Hermite blend
    gentle and monotone.
    """
    lo, hi = blend
    if c_plus is None:
        rho_mid = math.sqrt(lo * hi)
        c_plus = c_minus * rho_mid ** (gamma0 - gamma_inf)
    return EquationOfState(
        kind="asymptotically-polytropic",
        c_minus=c_minus,
        gamma0=gamma0,
        c_plus=c_plus,
        gamma_inf=gamma_inf,
        rho_blend_lo=lo,
        rho_blend_hi=hi,
    )

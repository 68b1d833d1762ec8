"""Barotropic equations of state with enthalpy transforms.

An equation of state is a piecewise law, one piece per density interval:

* ``polytropic``: one polytrope, P(rho) = c_minus * rho**gamma0, everything
  in closed form.
* ``asymptotically-polytropic``: three pieces.  The low-density polytrope
  c_minus*rho**gamma0 up to rho_blend_lo; a C^1 cubic Hermite interpolant of
  log P versus log rho over [rho_blend_lo, rho_blend_hi]; and the
  high-density polytrope c_plus*rho**gamma_inf from rho_blend_hi up, its
  enthalpy offset to the blend's top enthalpy.  The blend keeps P' > 0 as
  long as the interpolant stays monotone, which construction checks
  exactly.

A polytrope piece that starts at density rho0 with enthalpy h0 has
h(rho) = h0 + gamma*c/(gamma-1) * (rho**(gamma-1) - rho0**(gamma-1)), so
the specific enthalpy h(rho) = integral_0^rho P'(s)/s ds is continuous
across the pieces.  The blend's enthalpy is tabulated by per-cell Gauss
quadrature on a dense logarithmic grid and interpolated monotonically.  Its
inverse reads the blend alone: the table read backwards linearly, then two
Newton steps in log rho on the forward table with the blend's own P', so
round trips hold to near machine precision.  A value on a piece edge
belongs to the polytrope on that side.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from rotstar.numerics import MonotoneCubic, cell_integrals

__all__ = ["EquationOfState", "polytrope", "asymptotic_polytrope"]

_BLEND_TABLE_SIZE = 2000


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
        low = _Polytrope(self.c_minus, self.gamma0)
        if self.kind == "polytropic":
            if (self.c_plus, self.gamma_inf, self.rho_blend_lo, self.rho_blend_hi) != (None,) * 4:
                raise ValueError("a polytropic EOS takes no c_plus, gamma_inf or blend")
            object.__setattr__(self, "_pieces", (low,))
            return
        if self.c_plus is None or self.gamma_inf is None:
            raise ValueError("blended EOS needs c_plus and gamma_inf")
        if self.c_plus <= 0:
            raise ValueError("c_plus must be positive")
        gi = self.gamma_inf
        if not (1.0 < gi < 4.0 / 3.0) or math.isclose(gi, 6.0 / 5.0):
            raise ValueError("gamma_inf must lie in (1,6/5) or (6/5,4/3)")
        if self.rho_blend_lo is None or self.rho_blend_hi is None:
            raise ValueError("blended EOS needs rho_blend_lo/hi")
        if not (0 < self.rho_blend_lo < self.rho_blend_hi):
            raise ValueError("blend interval must satisfy 0 < lo < hi")
        blend = _Blend(low, self.c_plus, gi, self.rho_blend_lo, self.rho_blend_hi)
        high = _Polytrope(self.c_plus, gi, self.rho_blend_hi, blend.h1)
        object.__setattr__(self, "_pieces", (low, blend, high))

    @classmethod
    def from_config(cls, section: dict) -> EquationOfState:
        """The EOS a config ``eos`` section describes."""
        params = dict(section)
        if "blend" in params:
            blend = params.pop("blend")
            if len(blend) != 2:
                raise ValueError(f"eos blend must be a pair [lo, hi], got {blend}")
            params["rho_blend_lo"], params["rho_blend_hi"] = blend
        return cls(**params)

    def config(self) -> dict:
        """The config section ``from_config`` reads back into this EOS."""
        section = {"kind": self.kind, "c_minus": self.c_minus, "gamma0": self.gamma0}
        if self.kind == "asymptotically-polytropic":
            section.update(c_plus=self.c_plus, gamma_inf=self.gamma_inf,
                           blend=[self.rho_blend_lo, self.rho_blend_hi])
        return section

    def pressure(self, rho):
        """P(rho); P(0) = 0 and strictly increasing.  rho must be >= 0."""
        return self._piecewise(rho, lambda piece, r: piece.pressure(r))

    def pressure_derivative(self, rho):
        """dP/drho, positive on (0, inf)."""
        return self._piecewise(rho, lambda piece, r: piece.pressure_derivative(r),
                               positive=True)

    def enthalpy(self, rho):
        """Specific enthalpy h(rho) = int_0^rho P'(s)/s ds, with h(0) = 0."""
        return self._piecewise(rho, lambda piece, r: piece.enthalpy(r))

    def enthalpy_inverse(self, h):
        """Density with the given specific enthalpy; exact inverse of enthalpy."""
        return self._piecewise(h, lambda piece, v: piece.enthalpy_inverse(v),
                               of="enthalpy")

    def enthalpy_second(self, rho):
        """h'(rho) = P'(rho)/rho.  Diverges as rho -> 0+ when gamma0 < 2."""
        return self._piecewise(rho, lambda piece, r: piece.pressure_derivative(r) / r,
                               positive=True)

    def _piecewise(self, value, transform, positive=False, of="density"):
        """``transform(piece, values)`` applied to each value's piece.

        ``value`` is a density, or an enthalpy when ``of == "enthalpy"``; it
        must be positive, or nonnegative unless ``positive``.  A value on
        the blend's lower edge belongs to the low polytrope and one on its
        upper edge to the high polytrope.  Scalars come back as ``float``.
        """
        arr = np.asarray(value, dtype=float)
        if (arr <= 0).any() if positive else (arr < 0).any():
            raise ValueError(f"{of} must be {'positive' if positive else 'nonnegative'}")
        scalar = arr.ndim == 0
        if scalar:
            arr = arr.reshape(1)
        if len(self._pieces) == 1:
            out = transform(self._pieces[0], arr)
        else:
            low, blend, high = self._pieces
            if of == "enthalpy":
                below, above = arr <= blend.h0, arr >= high.h0
            else:
                below, above = arr <= blend.rho0, arr >= high.rho0
            out = np.empty_like(arr)
            for piece, mask in ((low, below), (blend, ~(below | above)), (high, above)):
                if mask.any():
                    out[mask] = transform(piece, arr[mask])
        return float(out[0]) if scalar else out


class _Polytrope:
    """P = c rho**g from density rho0 up, where the enthalpy is h0."""

    def __init__(self, c: float, g: float, rho0: float = 0.0, h0: float = 0.0):
        self.c, self.g, self.rho0, self.h0 = c, g, rho0, h0
        self._k = g * c / (g - 1.0)
        self._x0 = rho0 ** (g - 1.0)

    def pressure(self, rho):
        return self.c * rho**self.g

    def pressure_derivative(self, rho):
        return self.g * self.c * rho ** (self.g - 1.0)

    def enthalpy(self, rho):
        return self.h0 + self._k * (rho ** (self.g - 1.0) - self._x0)

    def enthalpy_inverse(self, h):
        return ((h - self.h0) / self._k + self._x0) ** (1.0 / (self.g - 1.0))


class _Blend:
    """Cubic-Hermite blend of log P vs log rho over [rho0, rho1] plus its
    enthalpy table.

    ``low`` is the polytrope below the blend; the blend meets c_hi*rho**g_hi
    at rho1 in value and slope.
    """

    def __init__(self, low: _Polytrope, c_hi, g_hi, rho0, rho1):
        self.rho0 = rho0
        self._x0 = math.log(rho0)
        x1 = math.log(rho1)
        self._dx = x1 - self._x0
        # Hermite cubic in t = (x - x0)/dx: value y and slope m at both ends
        y0, m0 = math.log(low.c) + low.g * self._x0, low.g * self._dx
        y1, m1 = math.log(c_hi) + g_hi * x1, g_hi * self._dx
        self._coef = (y0, m0, -3.0 * y0 - 2.0 * m0 + 3.0 * y1 - m1, 2.0 * y0 + m0 - 2.0 * y1 + m1)

        # dH/dt = c1 + 2 c2 t + 3 c3 t^2 is positive at both ends (the
        # gammas), so its minimum over [0, 1] is the vertex -c2 / (3 c3)
        # when the parabola opens upward, clipped to the interval.
        _, c1, c2, c3 = self._coef
        t = min(max(-c2 / (3.0 * c3), 0.0), 1.0) if c3 > 0 else 0.0
        if c1 + (2.0 * c2 + 3.0 * c3 * t) * t <= 0:
            raise ValueError(
                "blend is not monotone (P' <= 0 inside the blend window); "
                "adjust c_plus or the blend interval"
            )

        # Enthalpy over the blend: cumulative Gauss quadrature of P'(s)/s on a
        # dense log grid, interpolated monotonically.  In x = log s,
        # P'(s)/s ds = P'(s) dx.
        self.h0 = low.enthalpy(rho0)
        self._xg = np.linspace(self._x0, x1, _BLEND_TABLE_SIZE)
        steps = cell_integrals(lambda x: np.exp(self._H(x)) * self._H_prime(x) / np.exp(x),
                               self._xg, 10)
        self._hg = np.cumsum(np.concatenate(([self.h0], steps)))
        self.h1 = float(self._hg[-1])
        self._h_of_x = MonotoneCubic(self._xg, self._hg)

    # Hermite helpers (x is log density)
    def _H(self, x):
        t = (np.asarray(x) - self._x0) / self._dx
        c = self._coef
        return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]

    def _H_prime(self, x):
        t = (np.asarray(x) - self._x0) / self._dx
        c = self._coef
        return ((3.0 * c[3] * t + 2.0 * c[2]) * t + c[1]) / self._dx

    def pressure(self, rho):
        return np.exp(self._H(np.log(rho)))

    def pressure_derivative(self, rho):
        x = np.log(rho)
        return np.exp(self._H(x)) * self._H_prime(x) / rho

    def enthalpy(self, rho):
        return self._h_of_x(np.log(rho))

    def enthalpy_inverse(self, h):
        # Newton in x = log rho against the forward table from its linear
        # inverse; dh/dx = rho h'(rho) = P'(rho).
        x = np.interp(h, self._hg, self._xg)
        for _ in range(2):
            x = x - (self._h_of_x(x) - h) / self.pressure_derivative(np.exp(x))
        return np.exp(x)


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

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rotstar.eos import EquationOfState, asymptotic_polytrope, polytrope


def test_polytropic_pressure_values():
    p = polytrope(1.0, 5.0 / 3.0)
    assert p.pressure(8.0) == pytest.approx(32.0, rel=1e-12)
    assert p.pressure(0.0) == 0.0


def test_blend_below_window_is_pure_low_branch():
    b = asymptotic_polytrope(1.0, 5.0 / 3.0, 1.3, (1.0, 2.0))
    assert b.pressure(0.5) == pytest.approx(0.5 ** (5.0 / 3.0), rel=1e-13)


def _closed_forms(c, g, rho0=0.0, h0=0.0):
    """P, P', h and h^-1 of the polytrope c rho**g whose enthalpy is h0 at rho0."""
    k = g * c / (g - 1.0)
    return (
        lambda rho: c * rho**g,
        lambda rho: g * c * rho ** (g - 1.0),
        lambda rho: h0 + k * (rho ** (g - 1.0) - rho0 ** (g - 1.0)),
        lambda h: ((h - h0) / k + rho0 ** (g - 1.0)) ** (1.0 / (g - 1.0)),
    )


@pytest.mark.parametrize("blend", [(0.5, 2.9), (1.1, 2.2)])
def test_transforms_exact_at_piece_edges(blend):
    """On the blend's edges, in density and in enthalpy, every transform is
    the closed form of the polytrope on that side, to the last bit."""
    b = asymptotic_polytrope(1.3, 5.0 / 3.0, 1.25, blend)
    lo, hi = np.array(blend[:1]), np.array(blend[1:])
    h_hi = b.enthalpy(blend[1])
    for eos, c, g, rho0, h0, edge in (
        (b, b.c_minus, b.gamma0, 0.0, 0.0, lo),
        (b, b.c_plus, b.gamma_inf, blend[1], h_hi, hi),
        (polytrope(0.7, 1.4), 0.7, 1.4, 0.0, 0.0, np.logspace(-6, 3, 50)),
    ):
        P, dP, h, h_inv = _closed_forms(c, g, rho0, h0)
        assert np.array_equal(eos.pressure(edge), P(edge))
        assert np.array_equal(eos.pressure_derivative(edge), dP(edge))
        assert np.array_equal(eos.enthalpy(edge), h(edge))
        assert np.array_equal(eos.enthalpy_inverse(h(edge)), h_inv(h(edge)))


def test_negative_density_rejected():
    p = polytrope()
    with pytest.raises(ValueError):
        p.pressure(-1.0)
    with pytest.raises(ValueError):
        p.enthalpy_inverse(-0.1)
    with pytest.raises(ValueError):
        p.enthalpy_second(0.0)


def test_enthalpy_closed_form():
    p = polytrope(1.0, 5.0 / 3.0)
    assert p.enthalpy(1.0) == pytest.approx(2.5, rel=1e-13)
    assert p.enthalpy(0.0) == 0.0


def test_enthalpy_second_values():
    assert polytrope(1.0, 2.0).enthalpy_second(3.0) == pytest.approx(2.0, rel=1e-13)
    assert polytrope(1.0, 5.0 / 3.0).enthalpy_second(1.0) == pytest.approx(
        5.0 / 3.0, rel=1e-13
    )


@pytest.mark.parametrize(
    "eos",
    [
        polytrope(1.0, 5.0 / 3.0),
        polytrope(0.7, 1.4),
        asymptotic_polytrope(1.0, 5.0 / 3.0, 1.3, (1.0, 2.0)),
        asymptotic_polytrope(2.0, 1.5, 1.22, (0.5, 4.0)),
    ],
)
def test_enthalpy_round_trip(eos):
    rho = np.logspace(-6, 2, 100)
    back = eos.enthalpy_inverse(eos.enthalpy(rho))
    assert np.max(np.abs(back - rho) / rho) < 1e-10


@pytest.mark.parametrize(
    "eos",
    [
        polytrope(1.0, 5.0 / 3.0),
        polytrope(0.7, 2.0),
        asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0)),
    ],
)
def test_enthalpy_inverse_of_zero_is_zero(eos):
    """The SCF sweep leaves cells with h <= 0 at exactly 0 without calling
    the inverse; that equals the inverse only because h = 0 maps to 0."""
    assert eos.enthalpy_inverse(0.0) == 0.0
    assert np.array_equal(eos.enthalpy_inverse(np.zeros(3)), np.zeros(3))


def test_blend_enthalpy_against_adaptive_quadrature():
    b = asymptotic_polytrope(1.0, 5.0 / 3.0, 1.3, (1.0, 2.0))
    oracle, _ = quad(
        lambda s: b.pressure_derivative(s) / s, 0.0, 10.0, points=[1.0, 2.0], limit=200
    )
    assert b.enthalpy(10.0) == pytest.approx(oracle, rel=1e-8)


def test_blend_c1_continuity_and_positivity():
    b = asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0))
    for edge in (1.0, 3.0):
        below, above = edge * (1 - 1e-8), edge * (1 + 1e-8)
        assert b.pressure(below) == pytest.approx(b.pressure(above), rel=1e-6)
        assert b.pressure_derivative(below) == pytest.approx(
            b.pressure_derivative(above), rel=1e-5
        )
    rho = np.logspace(-8, 5, 400)
    assert np.all(b.pressure_derivative(rho) > 0)


def test_blend_monotonicity_checked_exactly():
    """P' of this blend dips to -1.05e-8 near rho = 1.802, yet 257 samples
    of d log P / d log rho evenly spaced in log rho all read positive (the
    least +3.2e-6)."""
    with pytest.raises(ValueError, match="not monotone"):
        asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0), c_plus=0.43442143223718444)


def test_blend_inverse_reads_only_the_blend(monkeypatch):
    """The blend's inverse never asks the whole law for its slope, not even
    through a method the law handed it when it was made."""

    def refuse(self, rho):
        raise AssertionError("the law's pressure_derivative was called")

    monkeypatch.setattr(EquationOfState, "pressure_derivative", refuse)
    b = asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0))
    h = np.linspace(b.enthalpy(1.0), b.enthalpy(3.0), 203)[1:-1]
    assert np.max(np.abs(b.enthalpy(b.enthalpy_inverse(h)) / h - 1.0)) <= 1e-15
    for v in h[::20]:
        rho = b.enthalpy_inverse(float(v))
        assert isinstance(rho, float)
        assert abs(b.enthalpy(rho) / v - 1.0) <= 1e-15


def test_monotonicity_sampled():
    for eos in (polytrope(1.0, 1.3), asymptotic_polytrope(1.0, 1.6, 1.28, (1.0, 2.5))):
        rho = np.logspace(-8, 4, 300)
        assert np.all(np.diff(eos.pressure(rho)) > 0)
        assert np.all(np.diff(eos.enthalpy(rho)) > 0)


def test_enthalpy_derivative_consistency():
    # numerical derivative of the enthalpy matches h'' to 1e-6 relative
    for eos in (polytrope(1.0, 5.0 / 3.0), asymptotic_polytrope(1.0, 1.6, 1.3, (1.0, 2.0))):
        rho = np.logspace(-3, 2, 40)
        h = 1e-6 * rho
        num = (eos.enthalpy(rho + h) - eos.enthalpy(rho - h)) / (2 * h)
        assert np.max(np.abs(num - eos.enthalpy_second(rho)) / eos.enthalpy_second(rho)) < 1e-6


def test_asymptotic_exponent_tags():
    b = asymptotic_polytrope(1.3, 1.7, 1.28, (1.0, 2.0))
    lo = np.logspace(-8, -6, 30)
    slope_lo = np.polyfit(np.log(lo), np.log(b.pressure(lo)), 1)[0]
    assert abs(slope_lo - 1.7) < 1e-3
    hi = np.logspace(3, 5, 30)
    slope_hi = np.polyfit(np.log(hi), np.log(b.pressure(hi)), 1)[0]
    assert abs(slope_hi - 1.28) < 1e-2


def test_low_density_enthalpy_second_limit():
    # h''(rho) * rho^(2 - gamma0) approaches gamma0 * c as rho -> 0
    c, gamma = 0.8, 1.5
    eos = polytrope(c, gamma)
    rho = 1e-8
    assert eos.enthalpy_second(rho) * rho ** (2.0 - gamma) == pytest.approx(
        gamma * c, rel=1e-3
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        polytrope(1.0, 1.1)  # gamma0 too small
    with pytest.raises(ValueError):
        polytrope(1.0, 2.3)
    with pytest.raises(ValueError):
        asymptotic_polytrope(1.0, 1.6, 6.0 / 5.0, (1.0, 2.0))  # excluded exponent
    with pytest.raises(ValueError):
        EquationOfState(kind="asymptotically-polytropic", c_minus=1.0, gamma0=1.6)


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(1.25, 1.95),
    c=st.floats(0.1, 5.0),
    r1=st.floats(1e-6, 1e2),
    factor=st.floats(1.1, 10.0),
)
def test_pressure_strictly_increasing_property(gamma, c, r1, factor):
    eos = polytrope(c, gamma)
    assert eos.pressure(r1) < eos.pressure(r1 * factor)
    assert eos.enthalpy(r1) < eos.enthalpy(r1 * factor)


@pytest.mark.parametrize(
    "eos",
    [polytrope(1.0, 5.0 / 3.0), asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0))],
    ids=["polytropic", "asymptotically-polytropic"],
)
def test_eos_config_round_trip(eos):
    section = eos.config()
    assert EquationOfState.from_config(section) == eos
    assert ("blend" in section) == (eos.kind == "asymptotically-polytropic")

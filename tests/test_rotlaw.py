import math

import numpy as np
import pytest

from rotstar.equilibria import make_grid
from rotstar.rotlaw import (
    FixedTotalMomentum,
    PowerLawMomentum,
    PowerTailLaw,
    RigidLaw,
    RotationSpec,
    TabulatedLaw,
    UnitMassMomentum,
    discriminant,
    omega_from_j,
)


_TABLE_R = np.linspace(0.0, 2.0, 21)


@pytest.mark.parametrize(
    "law",
    [RigidLaw(1.3), PowerTailLaw(1.0, 0.4, 2.0), TabulatedLaw(_TABLE_R, 1.0 / (1.0 + _TABLE_R**2))],
    ids=["rigid", "power_tail", "table"],
)
def test_derivatives_match_central_differences(law):
    """d(omega r^2)/dr and Upsilon, derived from omega and its slope, equal
    central differences of omega r^2 and omega^2 r^4 / r^3; the last two
    radii lie past the table's r_max, where omega is held and its slope is 0."""
    r = np.r_[np.linspace(0.05, 1.9, 38), 2.3, 2.6]
    h = 1e-4

    def central(f):  # fourth order
        return (8.0 * (f(r + h) - f(r - h)) - (f(r + 2 * h) - f(r - 2 * h))) / (12.0 * h)

    d_om_r2 = central(lambda x: law.omega(x) * x**2)
    ups = central(lambda x: law.omega(x) ** 2 * x**4) / r**3
    assert np.allclose(law.d_omega_r2(r), d_om_r2, rtol=1e-8, atol=1e-10)
    assert np.allclose(discriminant(law, r), ups, rtol=1e-8, atol=1e-10)
    assert discriminant(law, 0.0) == 4.0 * float(law.omega(0.0)) ** 2


def test_rigid_discriminant_constant():
    law = RigidLaw(2.0)
    r = np.array([0.0, 0.3, 1.0, 2.5])
    assert np.allclose(discriminant(law, r), 16.0)


def test_power_tail_closed_form():
    law = PowerTailLaw(1.0, 1.0, 2.0)
    r = np.linspace(0.0, 2.0, 21)
    expected = np.where(r == 0, 4.0, 4.0 * (1 - r**2) / (1 + r**2) ** 5)
    assert np.allclose(discriminant(law, r), expected, atol=1e-14)


@pytest.mark.parametrize("r_c", [0.0, -0.4])
def test_power_tail_core_radius_must_be_positive(r_c):
    with pytest.raises(ValueError, match="r_c must be positive"):
        PowerTailLaw(1.0, r_c, 2.0)


def test_tabulated_matches_rigid():
    knots = np.linspace(0.0, 1.0, 200)
    law = TabulatedLaw(knots, np.full(200, 2.0))
    probe = np.linspace(0.0, 1.0, 333)
    assert np.max(np.abs(discriminant(law, probe) - 16.0)) < 1e-6


def test_tabulated_reproduces_quartic_in_radius():
    # omega a polynomial in r^2 up to overall degree 4 is reproduced by the
    # spline pathway essentially exactly
    knots = np.linspace(0.0, 1.5, 200)
    omega = 1.0 + 0.3 * knots**2 - 0.05 * knots**4
    law = TabulatedLaw(knots, omega)
    probe = np.linspace(0.05, 1.45, 97)
    exact_omega = 1.0 + 0.3 * probe**2 - 0.05 * probe**4
    exact_domega = 0.6 * probe - 0.2 * probe**3
    exact = (2 * exact_omega * exact_domega * probe**4 + 4 * exact_omega**2 * probe**3) / probe**3
    assert np.max(np.abs(discriminant(law, probe) - exact)) < 1e-7


def test_omega_r2_monotone_for_stable_laws():
    for law in (RigidLaw(0.7), PowerTailLaw(1.0, 2.0, 0.8)):
        r = np.linspace(0.0, 1.5, 300)
        assert np.all(discriminant(law, r) > 0)
        s = law.omega(r) * r**2
        assert np.all(np.diff(s) > 0)


def test_power_tail_centrifugal_integral_closed_form():
    # int_0^r omega^2 s ds = omega_c^2 r_c^2 (1 - (1+u)^(1-2p)) / (2 (2p-1)), u = r^2/r_c^2
    omega_c, r_c, p = 1.3, 2.0, 0.8
    law = PowerTailLaw(omega_c, r_c, p)
    r = np.linspace(0.0, 1.5, 1000)
    u = (r / r_c) ** 2
    exact = omega_c**2 * r_c**2 * (1.0 - (1.0 + u) ** (1.0 - 2.0 * p)) / (2.0 * (2.0 * p - 1.0))
    assert np.max(np.abs(law.centrifugal_integral(r) - exact)) < 1e-12


@pytest.mark.parametrize(
    "law",
    [PowerTailLaw(1.0, 0.4, 2.0), TabulatedLaw(_TABLE_R, 1.0 / (1.0 + _TABLE_R**2))],
    ids=["power_tail", "table"],
)
@pytest.mark.parametrize("n", [32, 256])
def test_centrifugal_integral_is_the_cell_loop(law, n):
    """The vectorized centrifugal integral equals, bit for bit, a loop that
    sums six Gauss nodes per cell from 0 and accumulates cell by cell."""
    nodes, weights = np.polynomial.legendre.leggauss(6)
    for grid in (make_grid(1.3, 1.3, n, n), make_grid(2.0, 2.0, n, n, refine_at=1.1)):
        expected, acc, prev = [], 0.0, 0.0
        for cur in grid.rs:
            mid, half = 0.5 * (prev + cur), 0.5 * (cur - prev)
            if half > 0:
                acc += half * float(np.dot(weights, law.omega(mid + half * nodes) ** 2
                                           * (mid + half * nodes)))
            expected.append(acc)
            prev = cur
        assert np.array_equal(law.centrifugal_integral(grid.rs), expected)


def test_table_law_is_clamped_past_its_last_sample():
    law = TabulatedLaw(np.linspace(0.0, 2.0, 5), np.linspace(1.0, 0.5, 5))
    # beyond r_max = 2 the law is omega = 0.5: d(omega r^2)/dr = r, Upsilon = 4 omega^2
    assert law.omega(3.0) == pytest.approx(0.5)
    assert law.d_omega_r2(3.0) == pytest.approx(3.0)
    assert discriminant(law, 3.0) == pytest.approx(1.0)


def test_omega_from_zero_momentum():
    mom = PowerLawMomentum(0.0, 2.0)
    law = omega_from_j(mom, lambda r: 0.1 * r**2, 1.0, 1.0, np.linspace(0, 2, 50))
    assert np.max(np.abs(law.omega(np.linspace(0, 2, 7)))) == 0.0


def test_omega_from_fixed_total_momentum_positive():
    mom = FixedTotalMomentum()
    m_of_r = lambda r: 0.3 * r**2 / (1 + r**2)
    law = omega_from_j(mom, m_of_r, 2.0 * math.pi * 0.15, 0.5, np.linspace(0, 2, 120))
    r = np.linspace(0.05, 1.9, 50)
    assert np.all(law.omega(r) > 0)
    assert np.all(discriminant(law, np.linspace(0.0, 1.9, 512)) > 0)


def test_omega_from_quadratic_momentum_vanishes_at_axis():
    mom = PowerLawMomentum(1.0, 2.0)
    law = omega_from_j(mom, lambda r: 0.1 * r**2, 1.0, 1.0, np.linspace(0, 2, 100))
    small = law.omega(np.array([1e-3, 2e-3]))
    # omega ~ r^2 near the axis
    assert small[1] / small[0] == pytest.approx(4.0, rel=0.1)


def test_momentum_origin_validation():
    class Bad(PowerLawMomentum):
        def j(self, p, q):
            return 1.0 + 0.0 * np.asarray(p)

    bad = Bad(1.0, 2.0)
    with pytest.raises(ValueError):
        omega_from_j(bad, lambda r: 0.1 * r**2, 1.0, 1.0, np.linspace(0, 2, 50))


def test_momentum_exponent_validation():
    with pytest.raises(ValueError):
        PowerLawMomentum(1.0, 0.5)
    with pytest.raises(ValueError):
        UnitMassMomentum(1.0, 0.9)


def test_table_law_from_csv(tmp_path):
    r = np.linspace(0.0, 2.0, 50)
    data = np.column_stack([r, np.full(50, 1.5)])
    path = tmp_path / "law.csv"
    np.savetxt(path, data, delimiter=",")
    law = RotationSpec.from_config({"form": "table", "path": str(path), "kappa": 1.0}).profile
    assert isinstance(law, TabulatedLaw)
    assert np.allclose(discriminant(law, np.linspace(0, 2, 11)), 9.0, atol=1e-9)


@pytest.mark.parametrize(
    "law",
    [
        RigidLaw(0.7),
        PowerTailLaw(omega_c=1.2, r_c=0.4, p=2.0),
        TabulatedLaw(np.linspace(0.0, 2.0, 6), np.linspace(1.0, 0.5, 6)),
    ],
    ids=["rigid", "power_tail", "table"],
)
def test_law_config_round_trip(law):
    cfg = RotationSpec(law, 0.3).config()
    back = RotationSpec.from_config(cfg).profile
    assert type(back) is type(law)
    if isinstance(law, TabulatedLaw):
        assert np.array_equal(back.r_samples, law.r_samples)
        assert np.array_equal(back.omega_samples, law.omega_samples)
    else:
        assert back == law
    assert RotationSpec(back, 0.3).config() == cfg


@pytest.mark.parametrize(
    "momentum",
    [FixedTotalMomentum(), PowerLawMomentum(1.5, 3.0), UnitMassMomentum(0.5, 2.5)],
    ids=["bb_j", "power_j", "unit_mass_j"],
)
def test_momentum_config_round_trip(momentum):
    cfg = RotationSpec(momentum, 0.3).config()
    back = RotationSpec.from_config(cfg).profile
    assert back == momentum
    assert RotationSpec(back, 0.3).config() == cfg

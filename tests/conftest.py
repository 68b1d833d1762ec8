import numpy as np
import pytest

from rotstar.eos import polytrope, asymptotic_polytrope
from rotstar.radial import solve_radial
from rotstar.rotlaw import RigidLaw, PowerTailLaw
from rotstar.equilibria import axistar_from_radial, solve_fixed_omega


@pytest.fixture(scope="session", autouse=True)
def table_store(tmp_path_factory):
    """The kernel-table store of this session (``rotstar.poisson``), so the
    suite never writes to the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def eos53():
    return polytrope(1.0, 5.0 / 3.0)


@pytest.fixture(scope="session")
def eos13():
    return polytrope(1.0, 1.3)


@pytest.fixture(scope="session")
def eos_blend():
    return asymptotic_polytrope(1.0, 5.0 / 3.0, 1.25, (1.0, 3.0))


@pytest.fixture(scope="session")
def star53(eos53):
    return solve_radial(eos53, 1.0)


@pytest.fixture(scope="session")
def star13(eos13):
    return solve_radial(eos13, 1.0)


@pytest.fixture(scope="session")
def axi53(star53):
    """Non-rotating gamma=5/3 star sampled on a 96x96 half-grid."""
    return axistar_from_radial(star53, nr=96, nz=96)


@pytest.fixture(scope="session")
def axi13(star13):
    return axistar_from_radial(star13, nr=96, nz=96)


@pytest.fixture(scope="session")
def rot53(eos53):
    """Slowly rigidly rotating stable star."""
    return solve_fixed_omega(eos53, RigidLaw(1.0), 0.05, 1.0, nr=80, nz=80)


@pytest.fixture(scope="session")
def rot13(eos13):
    """Slowly rigidly rotating star on the unstable pressure law."""
    return solve_fixed_omega(eos13, RigidLaw(1.0), 0.05, 1.0, nr=80, nz=80)


@pytest.fixture(scope="session")
def rayleigh_unstable_star(eos13):
    """Soft star with a centrifugally unstable angular velocity profile."""
    law = PowerTailLaw(omega_c=1.0, r_c=0.4, p=2.0)
    return solve_fixed_omega(eos13, law, 0.25, 1.0, nr=80, nz=80)

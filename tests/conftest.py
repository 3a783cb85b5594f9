import numpy as np
import pytest
from hypothesis import settings

from graphwave import mesh
from graphwave.graphs import StarGraphSpec, make_star
from graphwave.minimizers import minimize
from graphwave.spectrum import ground_state
from graphwave.starwaves import mass_curve

# tier-1 draws the same Hypothesis examples on every run, so its work and its
# verdict do not move from run to run; CI also runs the property tests under
# the randomized profile: pytest -m hypothesis --hypothesis-profile=explore
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")

# frozen reference mass for the p=6 benchmark minimizer: mass_curve(3, 1, 6, 0.25)
C_REF_P6 = 2.4932614021089914
OMEGA_REF_P6 = 0.25


@pytest.fixture(scope="session")
def star3():
    return make_star(StarGraphSpec(3, 1.0, 40.0))


@pytest.fixture(scope="session")
def disc_h01(star3):
    return mesh.build(star3, 0.01)


@pytest.fixture(scope="session")
def ground_h01(disc_h01):
    return ground_state(disc_h01, tol=1e-10)


@pytest.fixture(scope="session")
def disc_h02(star3):
    return mesh.build(star3, 0.02)


@pytest.fixture(scope="session")
def ground_h02(disc_h02):
    return ground_state(disc_h02, tol=1e-10)


@pytest.fixture(scope="session")
def minimizer_p6(disc_h01, ground_h01):
    """Benchmark minimizer: p=6 at the mass whose exact frequency is 0.25."""
    assert abs(mass_curve(3, 1.0, 6.0, OMEGA_REF_P6) - C_REF_P6) < 1e-12
    return minimize(
        disc_h01, 6.0, C_REF_P6, 1.0, tau=1.0, tol=1e-9, ground=ground_h01
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

import os
import sys
from pathlib import Path

# Single-threaded BLAS: these problems are tiny and thread spin-up costs
# more than the algebra (must be set before the first numpy import).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).parent))

import pytest

import rtspec as rt


@pytest.fixture(scope="session")
def profile():
    return rt.DensityProfile(rho_minus=1.0, rho_plus=2.0, a=1.0, kind="bump")


@pytest.fixture(scope="session")
def quintic_profile():
    return rt.DensityProfile(rho_minus=1.0, rho_plus=2.0, a=1.0, kind="quintic")


@pytest.fixture(scope="session")
def degenerate_profile():
    return rt.DensityProfile(rho_minus=1.0, rho_plus=1.0, a=1.0, kind="bump")


@pytest.fixture(scope="session")
def params():
    return rt.PhysicalParams(mu=1.0, g=1.0, L1=1.0, L2=1.0)


@pytest.fixture(scope="session")
def mesh64(profile):
    return rt.build_mesh(profile.a, 64)


@pytest.fixture(scope="session")
def mesh128(profile):
    return rt.build_mesh(profile.a, 128)


@pytest.fixture(scope="session")
def growth_cap(profile, params):
    return rt.char_length(profile, params.g)[1]


@pytest.fixture(scope="session")
def mode64(mesh64, profile, params):
    return rt.build_normal_mode(mesh64, profile, params, (1.0, 0.0), 1)


@pytest.fixture(scope="session")
def mode128(mesh128, profile, params):
    return rt.build_normal_mode(mesh128, profile, params, (1.0, 0.0), 1)


@pytest.fixture(scope="session")
def lattice_max(mesh64, profile, params):
    """Shared lambda_max result at Kmax=8 (the expensive sweep)."""
    return rt.lambda_max(mesh64, profile, params, 8.0)


@pytest.fixture
def clear_forms():
    """Empty every memo of the loaded ``rtspec`` modules (any function with
    ``cache_clear``), so that the next call assembles anew; returns the
    function that does it, to clear again."""
    def clear():
        modules = [module for name, module in list(sys.modules.items())
                   if name == "rtspec" or name.startswith("rtspec.")]
        for module in modules:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    clear()
    return clear

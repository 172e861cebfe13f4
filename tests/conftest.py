from __future__ import annotations

from importlib.resources import files

import numpy as np
import pytest

from morinchi.strata import load_scenario


def scenario_path(name):
    return files("morinchi").joinpath(f"scenarios/{name}.json")


def bundled(name):
    return load_scenario(scenario_path(name))


def fd_jacobian(fn, z, step=1e-7):
    """Central-difference Jacobian of a vector function."""
    z = np.asarray(z, dtype=float)
    J = np.empty((len(fn(z)), len(z)))
    for i in range(len(z)):
        e = np.zeros(len(z))
        e[i] = step
        J[:, i] = (fn(z + e) - fn(z - e)) / (2 * step)
    return J


@pytest.fixture(scope="session")
def s2_height():
    return bundled("s2-height")


@pytest.fixture(scope="session")
def torus_height():
    return bundled("torus-height")


@pytest.fixture(scope="session")
def s3_proj():
    return bundled("s3-proj")


@pytest.fixture(scope="session")
def s4_height():
    return bundled("s4-height")


@pytest.fixture(scope="session")
def s4_proj():
    return bundled("s4-proj")


@pytest.fixture(scope="session")
def s3_cusps():
    return bundled("s3-cusps")


# Flat chart-box scenario carrying the standard depth-2 normal form
#   f = (x0, x1^3 + x0 x1 + x2^2) on M = {x3 = 0} in R^4.
# Non-compact, so it exercises the pointwise machinery only.
FLAT_CUSP = {
    "name": "flat-cusp-model",
    "ambient_dim": 4,
    "intrinsic_dim": 3,
    "constraints": ["x3"],
    "target_dim": 2,
    "components": ["x0", "(+ (^ x1 3) (* x0 x1) (^ x2 2))"],
    "seed": 0,
    "compact": False,
    "sample_seeds": [[0.0, 0.5, 0.0, 0.0], [-0.75, -0.5, 0.0, 0.0]],
}


@pytest.fixture(scope="session")
def flat_cusp():
    return load_scenario(FLAT_CUSP)

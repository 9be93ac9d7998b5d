"""Shared fixtures: small instances reused across the module tests."""

import numpy as np
import pytest

from polywalk.instances import (
    gen_cut_cube,
    gen_degenerate_pyramid,
    gen_hypercube,
    gen_simplex,
)
from polywalk.polytope import build_instance


@pytest.fixture(scope="session")
def cube3():
    return gen_hypercube(3)


@pytest.fixture(scope="session")
def simplex3():
    return gen_simplex(3)


@pytest.fixture(scope="session")
def cut_cube3():
    return gen_cut_cube(3)


@pytest.fixture(scope="session")
def pyramid():
    return gen_degenerate_pyramid()


@pytest.fixture
def tripled_cube3():
    """The unit 3-cube with every row written three times, fresh per test.

    Both corners it walks between are degenerate with nine tight rows, so
    picking each one's basis searches C(9, 3) = 84 row subsets.
    """
    eye = np.eye(3)
    return build_instance(np.vstack([eye, -eye] * 3), np.tile([1.0] * 3 + [0.0] * 3, 3),
                          name="tripled-cube3", x1=np.zeros(3), x2=np.ones(3))

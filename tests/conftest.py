"""Shared fixtures: small instances reused across the module tests, and a
log of the calls of watched functions."""

import inspect
from collections import defaultdict

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


class CallLog:
    """The calls of watched functions, each still run: ``log[name]`` lists
    every call's arguments so far, by parameter name, and
    :meth:`counts` the number of calls of each name called at least once."""

    def __init__(self, monkeypatch):
        self._patch = monkeypatch
        self._calls = defaultdict(list)

    def watch(self, owners, *names):
        """Record every call of each name under owners: one module or class,
        or a tuple of them that hold one function, whose calls through any
        of them then land in one list."""
        owners = owners if isinstance(owners, tuple) else (owners,)
        for name in names:
            real = getattr(owners[0], name)
            signature = inspect.signature(real)

            def recorded(*args, _real=real, _signature=signature, _name=name, **kwargs):
                self._calls[_name].append(_signature.bind(*args, **kwargs).arguments)
                return _real(*args, **kwargs)

            for owner in owners:
                self._patch.setattr(owner, name, recorded)

    def __getitem__(self, name) -> list:
        return self._calls.get(name, [])

    def counts(self) -> dict:
        return {name: len(calls) for name, calls in self._calls.items() if calls}

    def clear(self):
        self._calls.clear()


@pytest.fixture
def calls(monkeypatch):
    """A :class:`CallLog` whose watches the test's ``monkeypatch`` undoes."""
    return CallLog(monkeypatch)

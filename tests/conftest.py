"""Shared fixtures: bundled data objects, loaded once per session.

Hosts come from ``hosts.py`` and brute-force references from ``oracles.py``.
"""

import pytest

from matroid_forge.erection import enumerate_erections
from matroid_forge.formats import bundled_data_dir, load_matrix
from matroid_forge.reproduce import run_reproduce

from hosts import host


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name, *more) -> the argument tuples of every call of
    module.name from now on; the calls still run, and the same wrapper
    replaces the name in each further module."""
    def install(module, name, *more):
        calls, original = [], getattr(module, name)

        def recording(*args):
            calls.append(args)
            return original(*args)
        for target in (module, *more):
            monkeypatch.setattr(target, name, recording)
        return calls
    return install


@pytest.fixture(scope="session")
def data_dir():
    return bundled_data_dir()


@pytest.fixture(scope="session")
def rank3_matroid():
    """The bundled 13-point rank-3 matroid with 15 nontrivial lines."""
    return host("M")


@pytest.fixture(scope="session")
def rank4_matroid():
    """Its unique nontrivial erection: rank 4, same ground set."""
    return host("N")


@pytest.fixture(scope="session")
def erection_family(rank3_matroid):
    return enumerate_erections(rank3_matroid)


@pytest.fixture(scope="session")
def realization(data_dir):
    """Rational 3x13 matrix whose column matroid is the rank-3 matroid."""
    return load_matrix(data_dir / "A.matrix")


@pytest.fixture(scope="session")
def formal_matrix(data_dir):
    return load_matrix(data_dir / "yuzvinsky_a1.matrix")


@pytest.fixture(scope="session")
def informal_matrix(data_dir):
    return load_matrix(data_dir / "yuzvinsky_a2.matrix")


@pytest.fixture(scope="session")
def fano_gf2(data_dir):
    return load_matrix(data_dir / "fano.gf2.matrix")


@pytest.fixture(scope="session")
def fano_gf3(data_dir):
    return load_matrix(data_dir / "fano.gf3.matrix")


@pytest.fixture(scope="session")
def report():
    """One full reproduction run shared by the acceptance tests."""
    return run_reproduce()

"""Shared fixtures: bundled data objects, loaded once per session."""

import random
from itertools import combinations

import pytest

from matroid_forge.erection import enumerate_erections
from matroid_forge.formats import bundled_data_dir, load_matrix, load_matroid
from matroid_forge.matroid import Matroid
from matroid_forge.reproduce import run_reproduce


def _full_rank_mod5(rows) -> bool:
    """Is the square integer matrix invertible over GF(5)?"""
    rows = [[x % 5 for x in row] for row in rows]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], 3, 5)
        for r in range(c + 1, len(rows)):
            f = rows[r][c] * inv % 5
            rows[r] = [(a - f * b) % 5 for a, b in zip(rows[r], rows[c])]
    return True


def _gf5_column_matroid(n: int, rank: int, seed: int) -> Matroid:
    """Column matroid of n seeded random vectors in GF(5)^rank.

    Zero and repeated directions are allowed, so loops and parallel
    elements may occur.  Bases come from elimination written here, not from
    the library's linear algebra.
    """
    rng = random.Random(f"gf5:{n}:{rank}:{seed}")
    cols = [[rng.randrange(5) for _ in range(rank)] for _ in range(n)]
    bases = [c for c in combinations(range(n), rank)
             if _full_rank_mod5([cols[i] for i in c])]
    return Matroid.from_bases(n, bases)


@pytest.fixture(scope="session")
def gf5_column_matroid():
    """Builder of seeded GF(5) column matroids: (n, rank, seed) -> Matroid."""
    return _gf5_column_matroid


@pytest.fixture(scope="session")
def data_dir():
    return bundled_data_dir()


@pytest.fixture(scope="session")
def rank3_matroid(data_dir):
    """The bundled 13-point rank-3 matroid with 15 nontrivial lines."""
    return load_matroid(data_dir / "M.matroid")


@pytest.fixture(scope="session")
def rank4_matroid(data_dir):
    """Its unique nontrivial erection: rank 4, same ground set."""
    return load_matroid(data_dir / "N.matroid")


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

"""Shared fixtures: bundled data objects, loaded once per session."""

import random
from functools import partial
from itertools import combinations

import pytest

from matroid_forge.erection import enumerate_erections
from matroid_forge.formats import bundled_data_dir, load_matrix, load_matroid
from matroid_forge.matroid import Matroid
from matroid_forge.minors import fano_matroid, non_fano_matroid
from matroid_forge.reproduce import run_reproduce


def _full_rank_mod(rows, p: int) -> bool:
    """Is the square integer matrix invertible over GF(p)?"""
    rows = [[x % p for x in row] for row in rows]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        for r in range(c + 1, len(rows)):
            f = rows[r][c] * inv % p
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return True


def _gfp_column_matroid(p: int, n: int, rank: int, seed: int) -> Matroid:
    """Column matroid of n seeded random vectors in GF(p)^rank, p prime.

    Zero and repeated directions are allowed, so loops and parallel
    elements may occur.  Bases come from elimination written here, not from
    the library's linear algebra.
    """
    rng = random.Random(f"gf{p}:{n}:{rank}:{seed}")
    cols = [[rng.randrange(p) for _ in range(rank)] for _ in range(n)]
    bases = [c for c in combinations(range(n), rank)
             if _full_rank_mod([cols[i] for i in c], p)]
    return Matroid.from_bases(n, bases)


def loops_and_parallels():
    # a three-point line on {0, 1, 2}, the loop 3, and 4 parallel to 0
    return Matroid.from_bases(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 4)])


def _uniform(rank: int, n: int) -> Matroid:
    return Matroid.from_bases(n, combinations(range(n), rank))


# Small hosts for exhaustive checks, built from the gf5_column_matroid
# fixture's builder: name -> (builder -> Matroid).
SMALL_HOSTS = {
    "fano": lambda gf5: fano_matroid(),
    "non-fano": lambda gf5: non_fano_matroid(),
    "U(2,4)": lambda gf5: _uniform(2, 4),
    "U(4,9)": lambda gf5: _uniform(4, 9),
    "loops-and-parallels": lambda gf5: loops_and_parallels(),
    "gf5-10-3-a": lambda gf5: gf5(10, 3, 4),
    "gf5-10-3-b": lambda gf5: gf5(10, 3, 7),
    "gf5-9-4": lambda gf5: gf5(9, 4, 8),
}


@pytest.fixture(scope="session")
def gfp_column_matroid():
    """Builder of seeded GF(p) column matroids: (p, n, rank, seed) -> Matroid."""
    return _gfp_column_matroid


@pytest.fixture(scope="session")
def gf5_column_matroid():
    """Builder of seeded GF(5) column matroids: (n, rank, seed) -> Matroid."""
    return partial(_gfp_column_matroid, 5)


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

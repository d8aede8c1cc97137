"""The test hosts: one named catalogue of small matroids.

``host(name)`` builds a host once per session; ``fresh(name)`` builds a new
one, for tests that assert on memo state or count work.  A host list is a
tuple of names, which become the test IDs.  To add a host, give
``_BUILDERS`` its builder and the host lists whose tests should see it its
name.  Tests parametrized by numbers call the builders directly.
"""

import importlib.util
import random
import sys
from functools import cache, reduce
from itertools import combinations
from operator import xor
from pathlib import Path

from matroid_forge.formats import bundled_data_dir, load_matroid
from matroid_forge.matroid import Matroid, contract, matroid_from_flats, simplify
from matroid_forge.minors import fano_matroid, non_fano_matroid


def uniform(rank, n):
    return Matroid.from_bases(n, combinations(range(n), rank))


def _full_rank_mod(rows, p):
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


def gfp_column_matroid(p, n, rank, seed):
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


# Singer difference sets: the lines of PG(2, q) are the translates of D
# modulo q^2 + q + 1
SINGER = {2: (0, 1, 3), 3: (0, 1, 3, 9), 4: (0, 1, 4, 14, 16),
          5: (1, 5, 11, 24, 25, 27), 7: (0, 1, 3, 13, 32, 36, 43, 52)}


def singer_lines(q):
    v = q * q + q + 1
    return [tuple(sorted((d + i) % v for d in SINGER[q])) for i in range(v)]


def pg_plane(q):
    return matroid_from_flats(q * q + q + 1, 3, [(2, line) for line in singer_lines(q)])


def pg32():
    """PG(3,2): the column matroid of the 15 nonzero vectors of GF(2)^4,
    element i being the vector whose coordinates are the bits of i + 1.
    Four vectors are a basis when no nonempty subset of them sums to zero."""
    return Matroid.from_bases(15, [
        c for c in combinations(range(15), 4)
        if all(reduce(xor, (i + 1 for i in sub))
               for k in range(1, 5) for sub in combinations(c, k))])


def pg25_point_set(n, seed):
    """The restriction of PG(2,5) to a seeded n-point subset, relabelled 0..n-1."""
    points = sorted(random.Random(f"pg25:{n}:{seed}").sample(range(31), n))
    pos = {p: i for i, p in enumerate(points)}
    lines = [[pos[p] for p in line if p in pos] for line in singer_lines(5)]
    return matroid_from_flats(n, 3, [(2, line) for line in lines if len(line) > 2])


def ladder_instances(seeds):
    """The instances of the benchmark's ladder workload (PG(2,5) point sets
    of 16 and 17 points) for the given seeds, from perfbench/generators.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("ladder_generators", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [instance for seed in seeds for instance in module.ladder(seed)]


def linear_space(n, seed):
    """A seeded rank-3 linear space: random 3- and 4-point lines, any two
    meeting in at most one point."""
    rng = random.Random(f"linear-space:{n}:{seed}")
    lines = []
    for _ in range(rng.randint(1, n)):
        line = set(rng.sample(range(n), rng.choice((3, 3, 4))))
        if all(len(line & other) <= 1 for other in lines):
            lines.append(line)
    return matroid_from_flats(n, 3, [(2, sorted(line)) for line in lines])


def loops_and_parallels():
    # a three-point line on {0, 1, 2}, the loop 3, and 4 parallel to 0
    return Matroid.from_bases(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 4)])


def with_loop(m):
    """m plus a loop as element n."""
    return Matroid.from_bases(m.n + 1, m.basis_masks)


def with_parallel(m, e):
    """m plus an element n parallel to e."""
    swapped = [b ^ (1 << e | 1 << m.n) for b in m.basis_masks if b >> e & 1]
    return Matroid.from_bases(m.n + 1, [*m.basis_masks, *swapped])


_GF = ((5, 10, 3, 4), (5, 10, 3, 7), (5, 9, 4, 8), (5, 6, 3, 1), (5, 8, 3, 2),
       (5, 9, 4, 3), (5, 12, 3, 5), (5, 12, 4, 6), (5, 16, 3, 2), (5, 17, 2, 1),
       (5, 18, 3, 1), (5, 7, 3, 2), (5, 7, 2, 3), (5, 9, 3, 1), (5, 9, 3, 3),
       (5, 9, 4, 5), (5, 9, 4, 6), (5, 11, 3, 5), (5, 12, 3, 6), (5, 10, 4, 7),
       (5, 12, 4, 8), (5, 14, 3, 2), (5, 11, 4, 9), (3, 9, 3, 4), (3, 9, 3, 5),
       (3, 9, 4, 3), (3, 9, 4, 14), (3, 10, 3, 1), (3, 12, 3, 2), (3, 11, 4, 3),
       (3, 12, 4, 4))

# small hosts for exhaustive checks
SMALL_HOSTS = ("fano", "non-fano", "U(2,4)", "U(4,9)", "loops-and-parallels",
               "gf5-10-3-a", "gf5-10-3-b", "gf5-9-4")

# name -> builder; only the ``small:`` builders of hosts that are already
# simple return an object another name shares
_BUILDERS = {
    **{f"U({r},{n})": (lambda r=r, n=n: uniform(r, n))
       for n in range(2, 9) for r in range(2, n + 1)},
    "U(4,9)": lambda: uniform(4, 9),
    "U(3,20)": lambda: uniform(3, 20),
    "fano": fano_matroid.__wrapped__,
    "non-fano": non_fano_matroid.__wrapped__,
    "loops-and-parallels": loops_and_parallels,
    # 0 a coloop, 1 and 2 parallel
    "parallel-pair": lambda: Matroid.from_bases(3, [(0, 1), (0, 2)]),
    "fano+loop": lambda: with_loop(host("fano")),
    "U(3,6)+parallel": lambda: with_parallel(host("U(3,6)"), 0),
    "U(2,5)+loop+parallel": lambda: with_loop(with_parallel(host("U(2,5)"), 4)),
    **{"gf%d-%d-%d-%d" % args: (lambda args=args: gfp_column_matroid(*args))
       for args in _GF},
    **{f"PG(2,{q})": (lambda q=q: pg_plane(q)) for q in SINGER},
    "PG(3,2)": pg32,
    "M": lambda: load_matroid(bundled_data_dir() / "M.matroid"),
    "N": lambda: load_matroid(bundled_data_dir() / "N.matroid"),
    # si(N/6): contracting point 6 of N leaves a rank-3 matroid with parallels
    "N-contract-6-simple": lambda: simplify(contract(host("N"), (6,)))[0],
    **{f"linear-space-{n}-{seed}": (lambda n=n, seed=seed: linear_space(n, seed))
       for n in (6, 7) for seed in range(6)},
    # the simplified small hosts, for the erection tests
    **{f"small:{name}": (lambda name=name: simplify(host(name))[0])
       for name in SMALL_HOSTS if name != "U(4,9)"},
}

# a second name for a catalogue host, kept because tests are known by it
ALIASES = {"gf5-10-3-a": "gf5-10-3-4", "gf5-10-3-b": "gf5-10-3-7",
           "gf5-9-4": "gf5-9-4-8", "gf5-16-3": "gf5-16-3-2",
           "gf5-17-2": "gf5-17-2-1"}

CATALOGUE = (*_BUILDERS, *ALIASES)


@cache
def host(name):
    """The catalogue host called ``name``, built once per session."""
    return host(ALIASES[name]) if name in ALIASES else _BUILDERS[name]()


def fresh(name):
    """A new build of the catalogue host ``name``: no memo filled by another test."""
    return _BUILDERS[ALIASES.get(name, name)]()


# -- host lists (SMALL_HOSTS is above) --------------------------------------------

# the erection census hosts: every uniform matroid of rank >= 2 on at most
# 8 points, the seven-point planes, seeded GF(5) point sets, and hosts whose
# tabled k-subsets can be dependent
CENSUS_HOSTS = (
    *(f"U({r},{n})" for n in range(2, 9) for r in range(2, n + 1)),
    "fano", "non-fano",
    "gf5-6-3-1", "gf5-8-3-2", "gf5-9-4-3", "gf5-10-3-4", "gf5-12-3-5", "gf5-12-4-6",
    "fano+loop", "U(3,6)+parallel", "U(2,5)+loop+parallel")

# every host on which ranks_and_closures doubles: the small and census
# hosts, bundled M and N, and one column matroid of exactly
# RANK_TABLE_LIMIT elements
TABLE_HOSTS = tuple(dict.fromkeys(SMALL_HOSTS + CENSUS_HOSTS + ("M", "N", "gf5-16-3")))

# the properties suite's small corpus
CORPUS_HOSTS = ("fano", "non-fano", "U(2,4)", "U(3,3)", "N-contract-6-simple")

# the small hosts, the rest of the small corpus, bundled M and N, and one
# column matroid above RANK_TABLE_LIMIT (n = 17)
LATTICE_HOSTS = tuple(dict.fromkeys(SMALL_HOSTS + CORPUS_HOSTS + ("M", "N", "gf5-17-2")))

# every host whose erections can all be listed in well under a second;
# U(4,9) is left out, since it has too many erections to list
DIFFERENTIAL_HOSTS = (
    *(f"U(2,{n})" for n in range(2, 7)), *(f"U(3,{n})" for n in range(3, 7)),
    "M", "N", *(f"small:{name}" for name in SMALL_HOSTS if name != "U(4,9)"),
    *(f"linear-space-{n}-{seed}" for n in (6, 7) for seed in range(6)))

# seeded GF(p) column matroids on nine points; all but gf5-9-3-1 and
# gf5-9-4-5 carry a non-Fano minor
PINNED_HOSTS = ("fano", "non-fano", "U(3,6)",
                "gf3-9-3-4", "gf3-9-3-5", "gf3-9-4-3", "gf3-9-4-14",
                "gf5-9-3-1", "gf5-9-3-3", "gf5-9-4-5", "gf5-9-4-6")

# the pinned hosts, the small hosts, seeded GF(3) and GF(5) column
# matroids of rank 3 and 4 on 9 to 12 points, and PG(3,2)
ORACLE_HOSTS = PINNED_HOSTS + (
    "U(2,4)", "U(4,9)", "loops-and-parallels", "PG(3,2)",
    "gf5-10-3-4", "gf5-10-3-7", "gf5-9-4-8",
    "gf3-10-3-1", "gf3-12-3-2", "gf3-11-4-3", "gf3-12-4-4",
    "gf5-11-3-5", "gf5-12-3-6", "gf5-10-4-7", "gf5-12-4-8")

OBSTRUCTION_HOSTS = ORACLE_HOSTS + ("PG(2,2)", "PG(2,3)", "PG(2,4)", "M", "N")

# hosts whose obstruction search visits every class: a GF(5) host has no
# Fano minor and a binary one no non-Fano minor
QUADRANGLE_HOSTS = ("N", "gf5-14-3-2", "gf5-11-4-9", "PG(3,2)")

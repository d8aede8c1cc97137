"""Seeded instance texts for the benchmark workloads.

Everything here is plain exact arithmetic on small integers and does not
import the program, so the expected facts it records (ranks and basis
counts) are derived independently of the code under test.  The same seed
always yields byte-identical texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

# Sizes straddle the 16-element limit of the program's 2^n rank table.
LADDER_SIZES = (16, 17)


@dataclass(frozen=True)
class Instance:
    """One unit of work: serialized inputs plus what is known in advance."""

    label: str
    texts: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _matroid_text(n: int, rank: int, flats) -> str:
    lines = [f"n {n}", f"rank {rank}"]
    lines += [f"flat {k} " + " ".join(map(str, f)) for k, f in flats]
    return "\n".join(lines) + "\n"


def _matrix_text(field_decl: str, columns) -> str:
    rows = len(columns[0])
    lines = [f"field {field_decl}", f"rows {rows}", f"cols {len(columns)}"]
    lines += [" ".join(str(col[r]) for col in columns) for r in range(rows)]
    return "\n".join(lines) + "\n"


def rank_over(vectors, p: int | None = None) -> int:
    """Rank of integer vectors over GF(p), or over Q when p is None."""
    rows = [[Fraction(x) if p is None else x % p for x in v] for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                if p is None:
                    f = rows[r][c] / lead
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
                else:
                    f = rows[r][c] * pow(lead, p - 2, p) % p
                    rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dependent_sets(vectors, size: int, p: int | None = None) -> list[tuple[int, ...]]:
    """Index sets of the given size whose vectors are linearly dependent."""
    square = size == len(vectors[0])
    out = []
    for s in combinations(range(len(vectors)), size):
        sub = [vectors[i] for i in s]
        if square:
            d = _det(sub)
            dependent = d % p == 0 if p else d == 0
        else:
            dependent = rank_over(sub, p) < size
        if dependent:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# ladder: point sets of PG(2,5)
#
# One fixed random subset per size; the seed moves it by a random
# collineation and relabels its points.  Every seed so sees an isomorphic
# point set in new coordinates and labels: the seed changes the search
# order, not the combinatorial type, which keeps the work comparable.


def _projective_points(dim: int, p: int) -> list[tuple[int, ...]]:
    """Points of PG(dim-1, p), each normalised to first nonzero coordinate 1."""
    return [v for v in product(range(p), repeat=dim)
            if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]


def _normalised(v, p: int) -> tuple[int, ...]:
    lead = next(x for x in v if x % p)
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in v)


def _moved_subset(name: str, n: int, dim: int, p: int,
                  rng: random.Random) -> list[tuple[int, ...]]:
    """The fixed n-point subset for ``name``, moved and relabelled by rng."""
    space = _projective_points(dim, p)
    base_rng = random.Random(f"{name}-base:{n}")
    while True:
        base = base_rng.sample(space, n)
        if rank_over(base, p) == dim:
            break
    while True:
        change = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if _det(change) % p:
            break
    pts = [_normalised([sum(change[r][c] * v[c] for c in range(dim))
                        for r in range(dim)], p) for v in base]
    rng.shuffle(pts)
    return pts


def ladder(seed: int) -> list[Instance]:
    rng = _rng("ladder", seed)
    out = []
    for n in LADDER_SIZES:
        pts = _moved_subset("ladder", n, 3, 5, rng)
        lines = set()
        for i, j in combinations(range(n), 2):
            line = tuple(k for k in range(n)
                         if rank_over([pts[i], pts[j], pts[k]], 5) < 3)
            if len(line) > 2:
                lines.add(line)
        lines = sorted(lines)
        bases = comb(n, 3) - sum(comb(len(L), 3) for L in lines)
        out.append(Instance(
            label=f"pg25-n{n}",
            texts={"matroid": _matroid_text(n, 3, [(2, L) for L in lines]),
                   "matrix": _matrix_text("GF 5", pts)},
            facts={"n": n, "rank": 3, "bases": bases}))
    return out


# ---------------------------------------------------------------------------
# arrangements: fixed rational configurations in random coordinates
#
# Each slot plants collinear triples (rank 3) or coplanar quadruples and
# collinear triples (rank 4) by construction.  The seed applies a random
# invertible change of coordinates, rescales every column and permutes
# the columns; none of that changes the column matroid or formality, so
# every seed does the same combinatorial work on different numbers.


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@cache
def _signed_permutations(size: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    out = []
    for perm in permutations(range(size)):
        inversions = sum(1 for i, j in combinations(range(size), 2)
                         if perm[i] > perm[j])
        out.append((-1 if inversions % 2 else 1, perm))
    return tuple(out)


def _det(rows) -> int:
    """Leibniz determinant of a small square integer matrix."""
    total = 0
    for sign, perm in _signed_permutations(len(rows)):
        term = sign
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def _meet(planes):
    """The point on three planes of 3-space, as a generalized cross product."""
    return tuple((-1) ** j * _det([[h[c] for c in range(4) if c != j]
                                   for h in planes]) for j in range(4))


# (rank, number of generic lines or planes, extra points, free points)
ARRANGEMENT_SLOTS = (
    (3, 5, 2, 0),   # intersections of 5 lines plus 2 more on them: formal
    (3, 4, 6, 2),   # 4 lines carry 12 points, 2 points in general position
    (4, 5, 0, 2),   # triple meets of 5 planes plus 2 general points
    (4, 5, 1, 2),
)


@cache
def _base_configuration(rank: int, hyper: int, extra: int, free: int):
    """Deterministic columns with the slot's planted dependencies."""
    rng = random.Random(f"arrangement-base:{rank}:{hyper}:{extra}:{free}")

    def vec():
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(rank))
            if any(v):
                return v

    while True:
        hyperplanes = [vec() for _ in range(hyper)]
        if rank == 3:
            pts = [_cross(a, b) for a, b in combinations(hyperplanes, 2)]
            for i in range(extra):
                pts.append(_cross(hyperplanes[i % hyper], vec()))
        else:
            pts = [_meet(t) for t in combinations(hyperplanes, 3)]
            for i in range(extra):
                pair = (hyperplanes[i % hyper], hyperplanes[(i + 1) % hyper])
                pts.append(_meet(pair + (vec(),)))
        pts += [vec() for _ in range(free)]
        # planted dependencies only: no point repeats, and the dependent
        # triples are exactly the ones the construction forces
        if (all(any(p) for p in pts)
                and not dependent_sets(pts, 2)
                and dependent_sets(pts, 3) == _forced_triples(
                    rank, hyperplanes, pts)):
            return pts


def _forced_triples(rank, hyperplanes, pts):
    """Triples of points sharing a line (rank 3) or two planes (rank 4)."""
    def incidences(p):
        return frozenset(i for i, h in enumerate(hyperplanes)
                         if sum(a * b for a, b in zip(h, p)) == 0)
    inc = [incidences(p) for p in pts]
    need = 1 if rank == 3 else 2
    return [t for t in combinations(range(len(pts)), 3)
            if len(inc[t[0]] & inc[t[1]] & inc[t[2]]) >= need]


def arrangements(seed: int) -> list[Instance]:
    rng = _rng("arrangements", seed)
    out = []
    for slot in ARRANGEMENT_SLOTS:
        rank = slot[0]
        base = _base_configuration(*slot)
        while True:
            change = [[rng.randint(-2, 2) for _ in range(rank)]
                      for _ in range(rank)]
            if _det(change) != 0:
                break
        cols = []
        for p in base:
            scale = rng.choice((-3, -2, -1, 1, 2, 3))
            cols.append(tuple(scale * sum(change[r][c] * p[c]
                                          for c in range(rank))
                              for r in range(rank)))
        rng.shuffle(cols)
        n = len(cols)
        dependent = len(dependent_sets(cols, rank))
        out.append(Instance(
            label=f"q{rank}x{n}",
            texts={"matrix": _matrix_text("Q", cols)},
            facts={"n": n, "rank": rank, "bases": comb(n, rank) - dependent}))
    return out


GENERATORS = {"ladder": ladder, "arrangements": arrangements}

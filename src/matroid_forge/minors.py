"""Minor containment and the two classical realizability obstructions.

A minor comes from contracting some set and deleting another.  The search
below fixes a normal form: contract an independent set C first
(contracting extra dependent elements only manufactures loops that
simplification removes, so independent sets suffice), simplify, then keep
a subset of the surviving points and match it against the target up to
isomorphism.  The search does not build the simplification of M/C: its
points, parallel classes, loops and nontrivial flats are read from M's
flat lattice, since the flats of M/C are those of M that contain cl(C)
(Oxley, *Matroid Theory*, §3.3).  A kept set K is restricted straight
from the host: with R the least elements of K's classes, si(M/C)|K is
(M|(C ∪ R))/C, two filters of M's basis list.  The returned witness
replays deterministically, contracting and simplifying M/C from scratch,
and is verified before it is handed back.  Since only points of a
simplification are kept, the target must be simple; a target with loops
or parallel elements is refused with :class:`ValidationError` rather
than answered "not found".

Kept sets K are generated depth-first in increasing element order, the
order of :func:`itertools.combinations`, and a prefix is cut as soon as
no completion can match the target: too many dependent r-sets, too many
points on one flat, too many pairs bound to be 2-point lines, or more
pairs still needing a third point than the points to come can serve.  The
search budget counts kept sets in that order, each cut charged with the
kept sets below it, so a budget means the same as for a plain loop over
every K.  A K that survives the walk with the target's count of
dependent r-sets is restricted and handed to :func:`are_isomorphic`.
Every K a cut skips fails that count or that match, so the search
returns the witness a plain loop over every K would.

The seven-point projective plane and its relaxation are built in: one is
realizable only in characteristic two, the other only away from it, so
finding them as minors yields field obstructions.  Both are found in one
pass by Fano's axiom on complete quadrangles (Hartshorne, *Foundations of
Projective Geometry*, 1967): in a simple matroid a 7-point set K
restricts to F7 or F7⁻ exactly when K = Q ∪ D, where Q = {a, b, c, d}
has no three points collinear and D holds its three diagonal points
ab ∩ cd, ac ∩ bd and ad ∩ bc, all of which must exist; M|K is F7
exactly when D is collinear.  Two lines meeting in a diagonal point span
a plane, so Q ∪ D has rank 3 in a host of any rank.  So
:func:`realizability_obstruction` scans the 4-point sets of each
contraction class once instead of walking 7-point sets per target, and
its budget counts C(s, 4) per class visited, s the points of the class's
simplification.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Sequence

from .bitsets import elements_of, format_set, full_mask, iter_elements, mask_of, sort_masks
from .errors import ValidationError, charger
from .matroid import (
    Matroid,
    PointedMap,
    Record,
    _squeeze,
    are_isomorphic,
    contract,
    delete,
    matroid_from_flats,
    nontrivial_levels,
    relabel,
    removal_map,
    simplify,
)

# The two seven-point rank-3 obstructions, by their three-point lines.
_FANO_LINES = ((0, 1, 5), (0, 2, 4), (0, 3, 6), (1, 2, 3),
               (1, 4, 6), (2, 5, 6), (3, 4, 5))

@cache
def fano_matroid() -> Matroid:
    """Seven points, seven three-point lines; realizable only in char 2."""
    return matroid_from_flats(7, 3, [(2, L) for L in _FANO_LINES])


@cache
def non_fano_matroid() -> Matroid:
    """The relaxation with six lines; realizable exactly away from char 2."""
    return matroid_from_flats(7, 3, [(2, L) for L in _FANO_LINES[:-1]])


class MinorWitness(Record):
    """A replayable recipe turning the host into the target.

    All labels are the host's.  ``contract_set`` goes first; the contraction
    is then simplified, ``parallel_classes`` recording the kept classes in
    minor-point order (images are least representatives).  ``delete_set``
    collects everything else that vanished: loops of the contraction and
    the parallel classes dropped wholesale.  Finally ``iso`` maps minor
    point i to target element iso(i).
    """

    __slots__ = _fields = ("contract_set", "delete_set", "parallel_classes", "iso")

    def __init__(self, contract_set: tuple[int, ...], delete_set: tuple[int, ...],
                 parallel_classes: PointedMap, iso: PointedMap):
        Record.__init__(self, contract_set, delete_set, parallel_classes, iso)

    def describe(self) -> str:
        parts = [f"contract {format_set(mask_of(self.contract_set))}",
                 f"delete {format_set(mask_of(self.delete_set))}"]
        nontrivial = [c for c in self.parallel_classes.classes or () if len(c) > 1]
        if nontrivial:
            collapsed = " ".join(format_set(mask_of(c)) for c in nontrivial)
            parts.append(f"collapse {collapsed}")
        return ", ".join(parts)


class _ContractionClass:
    """si(M/C) for one contraction class, read from M's flat lattice.

    With F = cl(C) and s = |C|, the flats of M/C are the X - C over the
    flats X of M that contain F (Oxley, *Matroid Theory*, §3.3), a rank-k
    flat of M/C coming from a rank-(s+k) X.  So the points of si(M/C) are
    the rank-(s+1) flats G over F, in order of the least element of
    G - F, which is :func:`simplify`'s order; ``classes`` holds the G - F
    and ``loops`` is F - C.  A rank-(s+k) flat X over F is nontrivial in
    si(M/C) when it holds more than k points, and it then holds at least
    |F| + k + 1 > s + k elements, so ``levels``, the nontrivial flats of
    si(M/C) by rank (in no particular order), come from M's nontrivial
    flats alone.  Nothing is contracted: a witness restricts si(M/C) from
    the host (:func:`_restriction`).
    """

    def __init__(self, host: Matroid, host_levels: Sequence[Sequence[int]],
                 contract_set: tuple[int, ...], flat: int,
                 points: Sequence[int]):
        s = len(contract_set)
        moved = sorted((g & ~flat for g in points), key=lambda x: x & -x)
        reps = sum(x & -x for x in moved)
        self.contract_set = contract_set
        self.n = len(moved)
        self.rank = host.rank - s
        self.classes = tuple(map(elements_of, moved))
        self.loops = elements_of(flat & ~mask_of(contract_set))
        self.levels = [
            _squeeze([x for f in level if f & flat == flat
                      if (x := f & reps).bit_count() > k], reps)
            for k, level in enumerate(host_levels[s:], 1)]


def _contraction_classes(host: Matroid, target: Matroid) -> Iterator[_ContractionClass]:
    """One contraction class per flat of rank 0 up to the rank difference,
    by rank and then in combinations order of the contracted set, when its
    simplification has room for the target.

    Deletions alone can also lower rank, so rank 0 is always tried.
    Contracting sets with the same closure yields the same simplification,
    so each flat is contracted by its greedy basis, its least independent
    spanning set in combinations order.
    """
    lattice = host.flat_lattice()
    host_levels = nontrivial_levels(host)
    for csize in range(host.rank - target.rank + 1):
        above = lattice[csize + 1]
        flat_of = {host._maximal_independent_mask(f): f for f in lattice[csize]}
        for cmask in sort_masks(flat_of):
            cl = flat_of[cmask]
            points = [g for g in above if g & cl == cl]
            if len(points) >= target.n:
                yield _ContractionClass(host, host_levels, elements_of(cmask), cl, points)


def _restriction(host: Matroid, cmask: int, keep: int) -> Matroid:
    """(M|(C ∪ R))/C for C = ``cmask`` and R = ``keep``, disjoint from C.

    Deleting and contracting disjoint sets commute, so this is (M/C)|R,
    the restriction of si(M/C) to the points whose classes have their
    least elements in R, in the same point order, since si(M/C) orders its
    points by least element.
    """
    part = cmask | keep
    m = host if part == host.full else delete(host, host.full & ~part)
    return contract(m, _squeeze([cmask], part)[0]) if cmask else m


def _witness(host: Matroid, target: Matroid, c: _ContractionClass,
             kmask: int) -> MinorWitness | None:
    """The witness keeping the points ``kmask`` of si(M/C), when that
    restriction, built from the host by :func:`_restriction`, is isomorphic
    to the target, replayed (from a contraction of its own) before it is
    returned.  The restriction has rank r(C ∪ R) − |C|, C independent, so
    a rank other than the target's is rejected before it is built."""
    kept_classes = tuple(c.classes[i] for i in iter_elements(kmask))
    reps = tuple(k[0] for k in kept_classes)
    cmask, rmask = mask_of(c.contract_set), mask_of(reps)
    if host.rank_of_mask(cmask | rmask) - len(c.contract_set) != target.rank:
        return None
    iso = are_isomorphic(_restriction(host, cmask, rmask), target)
    if iso is None:
        return None
    dropped = set(c.loops)
    for i in iter_elements(full_mask(c.n) & ~kmask):
        dropped.update(c.classes[i])
    witness = MinorWitness(
        contract_set=c.contract_set,
        delete_set=tuple(sorted(dropped)),
        parallel_classes=PointedMap(reps, kept_classes),
        iso=iso,
    )
    if not replay_witness(host, target, witness):
        raise AssertionError("minor witness failed to replay")
    return witness


def replay_witness(host: Matroid, target: Matroid, w: MinorWitness) -> bool:
    """Re-run a witness from scratch and compare canonically with the target.

    Independently of the search, M/C is contracted and simplified here, and
    its classes and loops are mapped back to the host's labels.
    """
    cmask = mask_of(w.contract_set)
    contracted = contract(host, cmask) if cmask else host
    back = removal_map(host.n, cmask)
    simple, pmap = simplify(contracted)
    classes = [tuple(map(back, cls)) for cls in pmap.classes or ()]
    loops = [back(e) for e in elements_of(contracted.loops_mask)]
    dset = set(w.delete_set)
    kept = [i for i, cls in enumerate(classes)
            if not any(e in dset for e in cls)]
    # the delete set must be exactly the loops plus the dropped classes
    removed = set(loops)
    for i, cls in enumerate(classes):
        if i not in kept:
            if not all(e in dset for e in cls):
                return False
            removed.update(cls)
    if removed != dset:
        return False
    if tuple(classes[i] for i in kept) != (w.parallel_classes.classes or ()):
        return False
    if len(kept) != target.n:
        return False
    if len(kept) == simple.n:
        restricted = simple
    else:
        drop = mask_of(i for i in range(simple.n) if i not in kept)
        restricted = delete(simple, drop)
    mapped = relabel(restricted, w.iso)
    return mapped == target


def find_minor(host: Matroid, target: Matroid, *,
               budget: int | None = None) -> MinorWitness | None:
    """First minor witness in canonical order, or None (search is exhaustive).

    Contraction sets run over independent sets of size 0 up to the rank
    difference, one per closure (:func:`_contraction_classes`).  For each
    contraction the points of its simplification, read from the host's
    flat lattice, are walked in subsets K of the target's size,
    depth-first in combinations order (:func:`_kept_sets`), cutting every
    prefix whose dependent r-sets (r the target's rank), flat sizes or
    2-point lines already rule out the target.  Each K that survives the
    walk with the target's count of dependent r-sets is restricted and
    matched by :func:`are_isomorphic`, so the witness is the one a plain
    loop over every K returns.

    ``budget`` (default :data:`~.errors.DEFAULT_BUDGET`) bounds the kept sets
    over all contraction classes: each K reached costs one node and each
    cut costs the number of K below it, so the least budget that does not
    raise :class:`SearchBudgetExceeded` is the position of the witness's K
    in the full combinations order, or the total count when there is no
    witness.

    The target must be simple: the search keeps points of a simplification
    only, so a target with loops or parallel elements raises
    :class:`ValidationError`.
    """
    if not target.is_simple:
        raise ValidationError(
            "minor search supports only simple targets; "
            "this target has loops or parallel elements")
    if target.rank > host.rank or target.n > host.n:
        return None
    target_levels = nontrivial_levels(target)
    charge = charger(budget, "minor search")
    for c in _contraction_classes(host, target):
        for kmask in _kept_sets(c.n, c.levels, target, target_levels, charge):
            witness = _witness(host, target, c, kmask)
            if witness is not None:
                return witness
    return None


def _kept_sets(n: int, levels: Sequence[Sequence[int]],
               target: Matroid, target_levels: Sequence[Sequence[int]],
               charge: Callable[[int], None]) -> Iterator[int]:
    """Masks of the point sets K of a simple matroid on n points that may
    restrict to the target, in :func:`itertools.combinations` order.

    ``levels`` and ``target_levels`` are the two matroids' nontrivial
    flats by rank.  A K is yielded when it holds exactly the target's
    number of dependent r-sets (r the target's rank), which are the
    r-subsets of the nontrivial flats of rank below r; every K it skips
    holds another number or has no restriction isomorphic to the target.
    The walk grows a prefix P depth-first, one element e above max P at a
    time, and cuts P + e, with all its completions, as soon as one of
    these holds:

    - P + e holds more dependent r-sets than the target.  Each is listed
      under its largest element, so adding e counts only those listed
      under e, and the count never falls.
    - A flat F of rank k < r through e has more points of P + e than the
      target's largest rank-k flat.  A subset of rank <= k of a copy of
      the target has no more.
    - (r > 2) More pairs of P + e are bound to be 2-point lines of K than
      the target has.  A pair is bound when its host line has no third
      point in P + e and none above e; it then stays bound in every
      completion.  An open pair of P (no third point in P yet) is bound
      by every e past its deadline, its largest third point.  With s more
      bound pairs allowed, no e past the (s+1)-th smallest deadline is
      tried.
    - (r > 2) The open pairs of P + e that must not end up bound are more
      than the points still to come can serve.  Such a pair needs a third
      point among them, and the lines through one point partition the
      others, so each can serve at most as many pairs of P + e as fit on
      lines no longer than the target's longest.

    ``charge`` gets 1 per K reached and the number of K below each cut, so
    the charges up to any K sum to K's position in combinations order.
    """
    t, r = target.n, target.rank
    # every r-subset of a kept set is a basis or not, so a kept set holds
    # the target's basis count iff it holds this many non-bases
    nonbases = comb(t, r) - len(target.basis_masks)
    # an r-set is dependent iff its closure, a flat of rank < r, is
    # nontrivial; a set may lie in several such flats, so they are merged
    dependent: set[int] = set()
    for level in levels[:r - 1]:
        for f in level:
            if f.bit_count() >= r:
                dependent.update(map(sum, combinations(
                    [1 << a for a in iter_elements(f)], r)))
    dependent_under: list[set[int]] = [set() for _ in range(n)]
    for s in dependent:
        top = s.bit_length() - 1
        dependent_under[top].add(s & ~(1 << top))
    capped_under: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (level, target_level) in enumerate(zip(levels, target_levels), 1):
        cap = max((f.bit_count() for f in target_level), default=k)
        for f in level:
            if f.bit_count() > cap:
                for e in iter_elements(f):
                    capped_under[e].append((f, cap))
    if r > 2:
        # pairs of the target on no line of three or more points
        lone_pairs = comb(t, 2) - sum(comb(f.bit_count(), 2) for f in target_levels[1])
        # serve[s]: the most pairs of s points one more point can be on a
        # line with, when no line holds more than the target's longest
        per_line = max((f.bit_count() for f in target_levels[1]), default=2) - 1
        serve = [s // per_line * comb(per_line, 2) + comb(s % per_line, 2)
                 for s in range(t + 1)]
        # third[e][a]: the points of the host line through a < e but a, e
        third = [[0] * e for e in range(n)]
        for f in levels[1]:
            for a, e in combinations(elements_of(f), 2):
                third[e][a] = f & ~(1 << a | 1 << e)

    def walk(prefix: int, members: tuple[int, ...], count: int, full: int,
             bound: int, open_pairs: list[int]) -> Iterator[int]:
        # full: the flats holding their cap of the prefix, whose other points
        # are cut; bound: the prefix's bound pairs; open_pairs: the
        # third-point masks of its other pairs with no third point in it yet
        size = len(members)
        if size == t:
            charge(1)
            # a K of rank r has the dependent r-sets inside it as its
            # non-bases; lower rank makes all C(t, r) dependent, and a K of
            # higher rank that matches fails are_isomorphic's rank test
            if count == nonbases:
                yield prefix
            return
        start = members[-1] + 1 if members else 0
        stop = n - t + size + 1
        if r > 2 and lone_pairs - bound < len(open_pairs):
            # masks sort by their top bit, the deadline
            stop = min(stop, sorted(open_pairs)[lone_pairs - bound].bit_length())
        faces = [sum(face) for face in combinations([1 << a for a in members], r - 1)]
        skipped = 0
        for e in range(start, stop):
            below = comb(n - 1 - e, t - size - 1)
            c = count + len(dependent_under[e].intersection(faces))
            if full >> e & 1 or c > nonbases:
                skipped += below
                continue
            b, still = bound, []
            if r > 2:
                for rest in open_pairs:
                    if not rest >> e & 1:
                        if rest >> e:
                            still.append(rest)
                        else:
                            b += 1
                for a in members:
                    rest = third[e][a]
                    if not rest & prefix:
                        if rest >> e:
                            still.append(rest)
                        else:
                            b += 1
                if b > lone_pairs or (len(still) - (lone_pairs - b)
                                      > (t - size - 1) * serve[size + 1]):
                    skipped += below
                    continue
            grown = prefix | 1 << e
            grown_full = full
            for f, cap in capped_under[e]:
                if (f & grown).bit_count() == cap:
                    grown_full |= f
            if skipped:
                charge(skipped)
                skipped = 0
            yield from walk(grown, members + (e,), c, grown_full, b, still)
        if stop < n - t + size + 1:
            # past the deadline every child is cut
            skipped += comb(n - max(start, stop), t - size)
        if skipped:
            charge(skipped)
    return walk(0, (), 0, 0, 0, [])


class ObstructionReport(Record):
    """Field obstructions from the two built-in seven-point minors.

    The verdict only ever *excludes* fields; "no-obstruction-found" is not
    a realizability claim.
    """

    __slots__ = _fields = ("fano_witness", "nonfano_witness")

    def __init__(self, fano_witness: MinorWitness | None,
                 nonfano_witness: MinorWitness | None):
        Record.__init__(self, fano_witness, nonfano_witness)

    @property
    def has_fano(self) -> bool:
        return self.fano_witness is not None

    @property
    def has_nonfano(self) -> bool:
        return self.nonfano_witness is not None

    @property
    def verdict(self) -> str:
        if self.has_fano:
            return "no-field" if self.has_nonfano else "char-2-only"
        return "char-not-2-only" if self.has_nonfano else "no-obstruction-found"


def _quadrangle_sets(n: int, lines: Sequence[int]) -> tuple[int, int]:
    """The least K = Q ∪ D in combinations order whose diagonal points D are
    collinear, and the least whose D are not (0 when there is none).

    ``lines`` holds the lines of three or more points of a simple matroid
    on n points; every other pair spans a 2-point line.  Q runs over the
    4-point sets with no three points collinear, and D holds the meets of
    Q's three pairs of opposite sides, so Q counts only when each of its
    six sides has a third point and each pair of opposite sides meets.
    """
    line = [[0] * n for _ in range(n)]
    joined = [0] * n
    for f in lines:
        for a, b in combinations(elements_of(f), 2):
            line[a][b] = line[b][a] = f
        for a in iter_elements(f):
            joined[a] |= f
    best = [0, 0]  # by whether D is collinear
    for a in range(n):
        la = line[a]
        for b in iter_elements(joined[a] >> a + 1 << a + 1):
            lb, ab = line[b], la[b]
            for c in iter_elements((joined[a] & joined[b] & ~ab) >> b + 1 << b + 1):
                lc, ac, bc = line[c], la[c], lb[c]
                rest = joined[a] & joined[b] & joined[c] & ~(ab | ac | bc)
                for d in iter_elements(rest >> c + 1 << c + 1):
                    x, y, z = ab & lc[d], ac & lb[d], la[d] & bc
                    if not (x and y and z):
                        continue
                    k = 1 << a | 1 << b | 1 << c | 1 << d | x | y | z
                    collinear = bool(line[x.bit_length() - 1][y.bit_length() - 1] & z)
                    old = best[collinear]
                    # K comes first when the least element it does not
                    # share with the other is its own
                    if not old or (k ^ old) & -(k ^ old) & k:
                        best[collinear] = k
    return best[1], best[0]


def realizability_obstruction(m: Matroid, *,
                              budget: int | None = None) -> ObstructionReport:
    """Search for both seven-point minors and report the field verdict.

    The rank-3 contraction classes are walked once, in the order of
    :func:`find_minor`, and the quadrangles of each class's simplification
    answer both targets (see the module notes).  For each target the
    witness keeps the least K in combinations order of the first class
    that has one, so it equals :func:`find_minor`'s.  ``budget`` bounds the
    sum of C(s, 4) over the classes visited, s the points of a class's
    simplification; a class is charged before it is scanned.
    """
    targets = (fano_matroid(), non_fano_matroid())
    found: list[MinorWitness | None] = [None, None]
    charge = charger(budget, "minor search")
    for c in _contraction_classes(m, targets[0]):
        charge(comb(c.n, 4))
        kept = _quadrangle_sets(c.n, c.levels[1])
        for i, kmask in enumerate(kept):
            if kmask and found[i] is None:
                found[i] = _witness(m, targets[i], c, kmask)
                if found[i] is None:
                    raise AssertionError("quadrangle set does not restrict to the target")
        if all(found):
            break
    return ObstructionReport(*found)

"""Minor search, witness replay, and the field-obstruction verdicts."""

import random
import time

import pytest

from functools import reduce
from itertools import combinations
from math import comb
from operator import xor

from matroid_forge import minors
from matroid_forge.bitsets import elements_of, iter_elements, mask_of
from matroid_forge.errors import SearchBudgetExceeded, ValidationError
from matroid_forge.matroid import (
    Matroid,
    PointedMap,
    are_isomorphic,
    contract,
    delete,
    matroid_from_flats,
    nontrivial_levels,
    removal_map,
    simplify,
)
from matroid_forge.minors import (
    MinorWitness,
    fano_matroid,
    find_minor,
    non_fano_matroid,
    realizability_obstruction,
    replay_witness,
    restriction_flats,
    restriction_invariants,
)


def uniform(rank, n):
    return Matroid.from_bases(n, combinations(range(n), rank))


def test_builtin_planes():
    f, nf = fano_matroid(), non_fano_matroid()
    assert (f.n, f.rank, len(f.basis_masks)) == (7, 3, 28)
    assert (nf.n, nf.rank, len(nf.basis_masks)) == (7, 3, 29)
    assert f != nf


def test_self_minor_is_identity():
    f = fano_matroid()
    w = find_minor(f, f)
    assert w is not None
    assert w.contract_set == () and w.delete_set == ()
    assert w.iso.is_identity
    assert replay_witness(f, f, w)


def test_restriction_to_a_line():
    w = find_minor(fano_matroid(), uniform(2, 3))
    assert w is not None
    assert w.contract_set == ()
    # the first line in canonical keep order is {0,1,5}
    assert w.delete_set == (2, 3, 4, 6)


def test_relaxation_is_not_a_minor():
    assert find_minor(fano_matroid(), non_fano_matroid()) is None
    assert find_minor(non_fano_matroid(), fano_matroid()) is None


def test_oversized_target_rejected_fast():
    assert find_minor(uniform(2, 4), uniform(3, 4)) is None
    assert find_minor(uniform(2, 4), uniform(2, 5)) is None


def test_bundled_witnesses(rank4_matroid):
    w = find_minor(rank4_matroid, non_fano_matroid())
    assert w is not None
    assert w.contract_set == ()
    assert w.delete_set == (0, 1, 2, 3, 4, 5)
    assert replay_witness(rank4_matroid, non_fano_matroid(), w)

    w = find_minor(rank4_matroid, fano_matroid())
    assert w is not None
    assert w.contract_set == (6,)
    assert w.delete_set == (10, 12)
    assert replay_witness(rank4_matroid, fano_matroid(), w)


def test_witness_description(rank4_matroid):
    w = find_minor(rank4_matroid, fano_matroid())
    text = w.describe()
    assert text.startswith("contract {6}, delete {10,12}")
    assert "collapse" in text


def test_tampered_witness_fails_replay(rank4_matroid):
    w = find_minor(rank4_matroid, non_fano_matroid())
    bad = MinorWitness(contract_set=w.contract_set,
                       delete_set=(0, 1, 2, 3, 4, 6),
                       parallel_classes=w.parallel_classes,
                       iso=w.iso)
    assert not replay_witness(rank4_matroid, non_fano_matroid(), bad)


def test_budget_exhaustion(rank4_matroid):
    with pytest.raises(SearchBudgetExceeded):
        find_minor(rank4_matroid, fano_matroid(), budget=1)


def test_obstruction_verdicts(rank3_matroid, rank4_matroid):
    assert realizability_obstruction(rank4_matroid).verdict == "no-field"
    assert realizability_obstruction(fano_matroid()).verdict == "char-2-only"
    assert realizability_obstruction(non_fano_matroid()).verdict == \
        "char-not-2-only"
    # the rank-3 matroid itself carries the relaxation as a restriction
    report = realizability_obstruction(rank3_matroid)
    assert report.verdict == "char-not-2-only"
    assert not report.has_fano and report.has_nonfano


def test_no_obstruction_on_a_line():
    report = realizability_obstruction(uniform(2, 4))
    assert report.verdict == "no-obstruction-found"
    assert report.fano_witness is None and report.nonfano_witness is None


def test_report_witnesses_replay(rank4_matroid):
    report = realizability_obstruction(rank4_matroid)
    assert replay_witness(rank4_matroid, fano_matroid(), report.fano_witness)
    assert replay_witness(rank4_matroid, non_fano_matroid(),
                          report.nonfano_witness)


# -- targets the search cannot match --------------------------------------------

def loop_and_coloop():
    return Matroid.from_bases(2, [(1,)])


@pytest.mark.parametrize("host, target", [
    # U(2,3)/0 = U(1,2), two parallel elements
    (uniform(2, 3), uniform(1, 2)),
    # a loop beside two parallel elements; deleting one leaves loop + coloop
    (Matroid.from_bases(3, [(1,), (2,)]), loop_and_coloop()),
], ids=["U(1,2)-in-U(2,3)", "loop+coloop"])
def test_non_simple_target_is_refused(host, target):
    # both targets are minors of their hosts, but the search keeps points
    # of a simplification only and would answer None
    with pytest.raises(ValidationError, match="simple targets"):
        find_minor(host, target)


# -- small seeded hosts: the restriction screen and pinned witnesses ----------

# (p, n, rank, seed) of seeded GF(p) column matroids; all but gf5-9-3-1 and
# gf5-9-4-5 carry a non-Fano minor
GF_HOSTS = ((3, 9, 3, 4), (3, 9, 3, 5), (3, 9, 4, 3), (3, 9, 4, 14),
            (5, 9, 3, 1), (5, 9, 3, 3), (5, 9, 4, 5), (5, 9, 4, 6))
HOSTS = ["fano", "non-fano", "U(3,6)"] + ["gf%d-%d-%d-%d" % h for h in GF_HOSTS]
TARGETS = {"fano": fano_matroid(), "non-fano": non_fano_matroid(),
           "U(2,4)": uniform(2, 4), "U(3,6)": uniform(3, 6)}


def loops_and_parallels():
    # a three-point line on {0, 1, 2}, the loop 3, and 4 parallel to 0
    return Matroid.from_bases(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 4)])


def pg32():
    """PG(3,2): the column matroid of the 15 nonzero vectors of GF(2)^4,
    element i being the vector whose coordinates are the bits of i + 1.
    Four vectors are a basis when no nonempty subset of them sums to zero."""
    return Matroid.from_bases(15, [
        c for c in combinations(range(15), 4)
        if all(reduce(xor, (i + 1 for i in sub))
               for k in range(1, 5) for sub in combinations(c, k))])


def build_host(name, gfp):
    fixed = {"fano": fano_matroid, "non-fano": non_fano_matroid,
             "U(3,6)": lambda: uniform(3, 6), "U(2,4)": lambda: uniform(2, 4),
             "U(4,9)": lambda: uniform(4, 9),
             "loops-and-parallels": loops_and_parallels, "PG(3,2)": pg32}
    if name in fixed:
        return fixed[name]()
    return gfp(*(int(x) for x in name[2:].split("-")))


def screened_hosts(host):
    """si(M) and si(M/e) for each non-loop e: where a search for a target of
    M's rank, or one lower, screens kept sets."""
    yield simplify(host)[0]
    for e in iter_elements(host.full & ~host.loops_mask):
        yield simplify(contract(host, 1 << e))[0]


def lift_levels(levels, back):
    """Flat masks of a deletion, relabelled to the host, sorted per rank."""
    return [sorted(mask_of(back(e) for e in iter_elements(f)) for f in level)
            for level in levels]


@pytest.mark.parametrize("name", HOSTS)
def test_restriction_flats_match_the_built_restriction(name, gfp_column_matroid):
    host = build_host(name, gfp_column_matroid)
    for m in (host, *screened_hosts(host)):
        levels = nontrivial_levels(m)
        for kmask in range(1, m.full + 1):
            rank = m.rank_of_mask(kmask)
            if rank == 0:
                continue
            drop = m.full & ~kmask
            restricted = delete(m, drop) if drop else m
            expected = lift_levels(nontrivial_levels(restricted),
                                   removal_map(m.n, drop))
            got = [sorted(level) for level in restriction_flats(levels, kmask, rank)]
            assert got == expected, (name, m, bin(kmask))


def test_screen_keeps_every_isomorphic_restriction(gfp_column_matroid):
    isomorphic = rejected = 0
    for name in HOSTS:
        for m in screened_hosts(build_host(name, gfp_column_matroid)):
            levels = nontrivial_levels(m)
            for target in TARGETS.values():
                wanted = restriction_invariants(nontrivial_levels(target),
                                                target.full, target.rank)
                for keep in combinations(range(m.n), target.n):
                    kmask = mask_of(keep)
                    if m.rank_of_mask(kmask) != target.rank:
                        continue
                    passes = restriction_invariants(levels, kmask, target.rank) == wanted
                    restricted = delete(m, m.full & ~kmask) if kmask != m.full else m
                    if are_isomorphic(restricted, target) is not None:
                        assert passes, (name, m, keep, target)
                        isomorphic += 1
                    elif not passes:
                        rejected += 1
    assert isomorphic > 0 and rejected > 0


def witness_literal(w):
    if w is None:
        return None
    return (w.contract_set, w.delete_set, w.parallel_classes.classes, w.iso.images)


# (host, target): (witness as (contract, delete, classes, images) or None,
# the least node budget that does not raise), recorded before kept sets
# were screened by the host's flat lattice
PINNED = {
    ("fano", "fano"): (
        ((), (), ((0,), (1,), (2,), (3,), (4,), (5,), (6,)), (0, 1, 2, 3, 4, 5, 6)), 1),
    ("fano", "non-fano"): (None, 1),
    ("fano", "U(2,4)"): (None, 35),
    ("fano", "U(3,6)"): (None, 7),
    ("non-fano", "fano"): (None, 1),
    ("non-fano", "non-fano"): (
        ((), (), ((0,), (1,), (2,), (3,), (4,), (5,), (6,)), (0, 1, 2, 3, 4, 5, 6)), 1),
    ("non-fano", "U(2,4)"): (((3,), (), ((0, 6), (1, 2), (4,), (5,)), (0, 1, 2, 3)), 36),
    ("non-fano", "U(3,6)"): (None, 7),
    ("U(3,6)", "fano"): (None, 0),
    ("U(3,6)", "non-fano"): (None, 0),
    ("U(3,6)", "U(2,4)"): (((0,), (5,), ((1,), (2,), (3,), (4,)), (0, 1, 2, 3)), 16),
    ("U(3,6)", "U(3,6)"): (((), (), ((0,), (1,), (2,), (3,), (4,), (5,)), (0, 1, 2, 3, 4, 5)), 1),
    ("gf3-9-3-4", "fano"): (None, 8),
    ("gf3-9-3-4", "non-fano"): (
        ((), (8,), ((0, 6), (1,), (2,), (3,), (4,), (5,), (7,)), (0, 3, 1, 4, 6, 5, 2)), 1),
    ("gf3-9-3-4", "U(2,4)"): (((), (0, 3, 4, 5, 6), ((1,), (2,), (7,), (8,)), (0, 1, 2, 3)), 45),
    ("gf3-9-3-4", "U(3,6)"): (None, 28),
    ("gf3-9-3-5", "fano"): (None, 36),
    ("gf3-9-3-5", "non-fano"): (
        ((), (4, 5), ((0,), (1,), (2,), (3,), (6,), (7,), (8,)), (0, 1, 3, 4, 5, 2, 6)), 10),
    ("gf3-9-3-5", "U(2,4)"): (((), (1, 2, 5, 6, 8), ((0,), (3,), (4,), (7,)), (0, 1, 2, 3)), 39),
    ("gf3-9-3-5", "U(3,6)"): (None, 84),
    ("gf3-9-4-3", "fano"): (None, 49),
    ("gf3-9-4-3", "non-fano"): (
        ((3,), (7,), ((0,), (1,), (2,), (4,), (5,), (6,), (8,)), (3, 0, 6, 1, 5, 2, 4)), 39),
    ("gf3-9-4-3", "U(2,4)"): (((2,), (3, 4, 6), ((0, 1), (5,), (7,), (8,)), (0, 1, 2, 3)), 165),
    ("gf3-9-4-3", "U(3,6)"): (None, 149),
    ("gf3-9-4-14", "fano"): (None, 49),
    ("gf3-9-4-14", "non-fano"): (
        ((8,), (7,), ((0,), (1,), (2,), (3,), (4,), (5,), (6,)), (3, 0, 4, 1, 6, 2, 5)), 42),
    ("gf3-9-4-14", "U(2,4)"): (((0,), (2, 5, 8), ((1, 4), (3,), (6,), (7,)), (0, 1, 2, 3)), 140),
    ("gf3-9-4-14", "U(3,6)"): (None, 149),
    ("gf5-9-3-1", "fano"): (None, 8),
    ("gf5-9-3-1", "non-fano"): (None, 8),
    ("gf5-9-3-1", "U(2,4)"): (((), (1, 2, 3, 5, 6), ((0,), (4,), (7,), (8,)), (0, 1, 2, 3)), 31),
    ("gf5-9-3-1", "U(3,6)"): (None, 28),
    ("gf5-9-3-3", "fano"): (None, 36),
    ("gf5-9-3-3", "non-fano"): (
        ((), (1, 4), ((0,), (2,), (3,), (5,), (6,), (7,), (8,)), (0, 1, 3, 5, 6, 4, 2)), 26),
    ("gf5-9-3-3", "U(2,4)"): (((), (0, 5, 6, 7, 8), ((1,), (2,), (3,), (4,)), (0, 1, 2, 3)), 57),
    ("gf5-9-3-3", "U(3,6)"): (None, 84),
    ("gf5-9-4-5", "fano"): (None, 87),
    ("gf5-9-4-5", "non-fano"): (None, 87),
    ("gf5-9-4-5", "U(2,4)"): (((0,), (1, 3, 4, 7), ((2,), (5,), (6,), (8,)), (0, 1, 2, 3)), 179),
    ("gf5-9-4-5", "U(3,6)"): (None, 273),
    ("gf5-9-4-6", "fano"): (None, 87),
    ("gf5-9-4-6", "non-fano"): (
        ((3,), (), ((0,), (1,), (2,), (4,), (5,), (6, 7), (8,)), (0, 3, 1, 2, 4, 5, 6)), 61),
    ("gf5-9-4-6", "U(2,4)"): (((0,), (1, 4, 5, 8), ((2,), (3,), (6,), (7,)), (0, 1, 2, 3)), 169),
    ("gf5-9-4-6", "U(3,6)"): (None, 273),
}


@pytest.mark.parametrize("name", HOSTS)
def test_pinned_witnesses_and_budgets(name, gfp_column_matroid):
    host = build_host(name, gfp_column_matroid)
    for tname, target in TARGETS.items():
        expected, nodes = PINNED[name, tname]
        for budget in (None, nodes):
            assert witness_literal(find_minor(host, target, budget=budget)) == expected
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                find_minor(host, target, budget=nodes - 1)


# -- the kept-set walk against the combinations loop it replaced -----------------

def reference_contraction(host, contract_set):
    """(si(M/C), its parallel classes, the loops of M/C): contracted and
    simplified for real, classes and loops in the host's labels."""
    cmask = mask_of(contract_set)
    contracted = contract(host, cmask) if cmask else host
    back = removal_map(host.n, cmask)
    simple, pmap = simplify(contracted)
    return (simple,
            tuple(tuple(back(e) for e in cls) for cls in (pmap.classes or ())),
            tuple(back(e) for e in elements_of(contracted.loops_mask)))


def reference_find_minor(host, target):
    """(witness, nodes): the search over every kept set by combinations.

    Each kept set costs one node, whether it is screened out or not, so
    ``nodes`` is the least budget that does not raise.
    """
    nodes = 0
    if target.rank > host.rank or target.n > host.n:
        return None, nodes
    target_nonbases = comb(target.n, target.rank) - len(target.basis_masks)
    target_invariants = restriction_invariants(
        nontrivial_levels(target), target.full, target.rank)
    for csize in range(host.rank - target.rank + 1):
        seen_closures = set()
        for combo in combinations(range(host.n), csize):
            cmask = mask_of(combo)
            if cmask not in host.independent_masks:
                continue
            cl = host.closure_mask(cmask)
            if cl in seen_closures:
                continue
            seen_closures.add(cl)
            simple, classes_host, loops_host = reference_contraction(host, combo)
            if simple.n < target.n or simple.rank < target.rank:
                continue
            levels = nontrivial_levels(simple)
            indep = simple.independent_masks
            dependent = [s for s in map(mask_of, combinations(range(simple.n),
                                                              target.rank))
                         if s not in indep]
            for keep in combinations(range(simple.n), target.n):
                nodes += 1
                kmask = mask_of(keep)
                if sum(1 for nb in dependent if nb & ~kmask == 0) != target_nonbases:
                    continue
                if restriction_invariants(levels, kmask,
                                          target.rank) != target_invariants:
                    continue
                if len(keep) == simple.n:
                    restricted = simple
                else:
                    restricted = delete(simple, simple.full & ~kmask)
                iso = minors.are_isomorphic(restricted, target)
                if iso is None:
                    continue
                kept_classes = tuple(classes_host[i] for i in keep)
                dropped = set(loops_host)
                for i in range(simple.n):
                    if i not in keep:
                        dropped.update(classes_host[i])
                return MinorWitness(
                    contract_set=tuple(combo),
                    delete_set=tuple(sorted(dropped)),
                    parallel_classes=PointedMap(
                        tuple(min(c) for c in kept_classes), kept_classes),
                    iso=iso,
                ), nodes
    return None, nodes


# the pinned hosts, the hosts of test_matroid's SMALL_HOSTS, seeded GF(3)
# and GF(5) column matroids of rank 3 and 4 on 9 to 12 points, and PG(3,2)
ORACLE_HOSTS = HOSTS + [
    "U(2,4)", "U(4,9)", "loops-and-parallels", "PG(3,2)",
    "gf5-10-3-4", "gf5-10-3-7", "gf5-9-4-8",
    "gf3-10-3-1", "gf3-12-3-2", "gf3-11-4-3", "gf3-12-4-4",
    "gf5-11-3-5", "gf5-12-3-6", "gf5-10-4-7", "gf5-12-4-8",
]


@pytest.mark.parametrize("name", ORACLE_HOSTS)
def test_search_matches_the_combinations_loop(name, gfp_column_matroid, monkeypatch):
    host = build_host(name, gfp_column_matroid)
    screened = []

    def recording(m1, m2):
        screened.append(m1)
        return are_isomorphic(m1, m2)

    monkeypatch.setattr(minors, "are_isomorphic", recording)
    for tname, target in TARGETS.items():
        expected, nodes = reference_find_minor(host, target)
        reference_screened = screened[:]
        screened.clear()
        assert witness_literal(find_minor(host, target)) == \
            witness_literal(expected), (name, tname)
        # the walk hands are_isomorphic the very kept sets the loop did
        assert screened == reference_screened, (name, tname)
        assert witness_literal(find_minor(host, target, budget=nodes)) == \
            witness_literal(expected), (name, tname)
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                find_minor(host, target, budget=nodes - 1)
        screened.clear()


@pytest.mark.parametrize("n, rank, seed", [(14, 3, 2), (11, 4, 9)])
def test_exhaustive_search_charges_every_kept_set(n, rank, seed, gf5_column_matroid):
    # the Fano plane is realizable only in characteristic 2, so no minor of
    # a GF(5) point set is one and the search runs to the end
    host = gf5_column_matroid(n, rank, seed)
    fano = fano_matroid()
    total = sum(comb(simple.n, fano.n)
                for _, simple in contraction_classes(host, fano.rank)
                if simple.rank >= fano.rank)
    assert total > 0
    assert find_minor(host, fano, budget=total) is None
    with pytest.raises(SearchBudgetExceeded):
        find_minor(host, fano, budget=total - 1)


def refuse(*args):
    raise AssertionError("the contraction classes built a minor")


@pytest.mark.parametrize("name", ORACLE_HOSTS)
def test_contraction_classes_read_from_the_lattice(name, gfp_column_matroid,
                                                   monkeypatch):
    host = build_host(name, gfp_column_matroid)
    # every class has room for a single point, so none is left out, while
    # the seven-point targets leave out the classes with fewer points;
    # reading the lattice contracts, deletes and simplifies nothing
    for target in (uniform(1, 1), fano_matroid(), non_fano_matroid()):
        with monkeypatch.context() as patch:
            for op in ("contract", "delete", "simplify"):
                patch.setattr(minors, op, refuse)
            classes = list(minors._contraction_classes(host, target))
        assert [c.contract_set for c in classes] == \
            [combo for combo, simple in contraction_classes(host, target.rank)
             if simple.n >= target.n], name
        for c in classes:
            simple, expected_classes, expected_loops = \
                reference_contraction(host, c.contract_set)
            assert (c.n, c.rank) == (simple.n, simple.rank), (name, c.contract_set)
            assert c.classes == expected_classes, (name, c.contract_set)
            assert c.loops == expected_loops, (name, c.contract_set)
            assert [set(level) for level in c.levels] == \
                [set(level) for level in nontrivial_levels(simple)], \
                (name, c.contract_set)


@pytest.mark.parametrize("name", ORACLE_HOSTS)
def test_restriction_built_from_the_host(name, gfp_column_matroid):
    # si(M/C)|K from the host equals si(M/C) contracted, simplified and
    # deleted down to K, for K every point and a seeded sample of others
    host = build_host(name, gfp_column_matroid)
    rng = random.Random(name)
    for c in minors._contraction_classes(host, uniform(1, 1)):
        simple = reference_contraction(host, c.contract_set)[0]
        cmask = mask_of(c.contract_set)
        for kmask in [simple.full] + [rng.randint(1, simple.full) for _ in range(4)]:
            reps = mask_of(c.classes[i][0] for i in iter_elements(kmask))
            drop = simple.full & ~kmask
            expected = delete(simple, drop) if drop else simple
            assert minors._restriction(host, cmask, reps) == expected, \
                (name, c.contract_set, bin(kmask))


def contraction_classes(host, rank):
    """(contraction set, simplification) for the first independent set of
    each closure, by size and then in combinations order, for a target of
    the given rank: the walk that reading the rank-s flats replaced."""
    for csize in range(host.rank - rank + 1):
        closures = set()
        for combo in combinations(range(host.n), csize):
            cmask = mask_of(combo)
            if cmask in host.independent_masks and \
                    host.closure_mask(cmask) not in closures:
                closures.add(host.closure_mask(cmask))
                yield combo, simplify(contract(host, cmask) if csize else host)[0]


# -- whole projective planes ----------------------------------------------------

# Singer difference sets: the lines of PG(2, q) are the translates of D
# modulo q^2 + q + 1
SINGER = {2: (0, 1, 3), 3: (0, 1, 3, 9), 4: (0, 1, 4, 14, 16)}


def projective_plane(q):
    v = q * q + q + 1
    return matroid_from_flats(
        v, 3, [(2, tuple(sorted((d + i) % v for d in SINGER[q]))) for i in range(v)])


@pytest.mark.parametrize("q, verdict", [
    (2, "char-2-only"), (3, "char-not-2-only"), (4, "char-2-only")])
def test_projective_plane_obstructions(q, verdict):
    plane = projective_plane(q)
    assert (plane.n, plane.rank) == (q * q + q + 1, 3)
    report = realizability_obstruction(plane)
    assert report.verdict == verdict
    for target, w in ((fano_matroid(), report.fano_witness),
                      (non_fano_matroid(), report.nonfano_witness)):
        assert w is None or replay_witness(plane, target, w)


# -- the quadrangle search against find_minor -----------------------------------

OBSTRUCTION_HOSTS = ORACLE_HOSTS + ["PG(2,2)", "PG(2,3)", "PG(2,4)", "M", "N"]


@pytest.mark.parametrize("name", OBSTRUCTION_HOSTS)
def test_obstruction_witnesses_equal_find_minor(name, gfp_column_matroid,
                                                rank3_matroid, rank4_matroid):
    extra = {"PG(2,2)": lambda: projective_plane(2),
             "PG(2,3)": lambda: projective_plane(3),
             "PG(2,4)": lambda: projective_plane(4),
             "M": lambda: rank3_matroid, "N": lambda: rank4_matroid}
    host = extra[name]() if name in extra else build_host(name, gfp_column_matroid)
    report = realizability_obstruction(host)
    for target, w in ((fano_matroid(), report.fano_witness),
                      (non_fano_matroid(), report.nonfano_witness)):
        assert witness_literal(w) == witness_literal(find_minor(host, target)), name


def visited_class_sizes(host, report):
    """Point counts of the simplified rank-3 contraction classes with at
    least seven points, in search order, up to the class where the later of
    two found witnesses was found."""
    both = report.has_fano and report.has_nonfano
    wanted = {report.fano_witness.contract_set,
              report.nonfano_witness.contract_set} if both else None
    sizes = []
    for combo, simple in contraction_classes(host, 3):
        if simple.n >= 7:
            sizes.append(simple.n)
        if both:
            wanted.discard(combo)
            if not wanted:
                break
    return sizes


@pytest.mark.parametrize("host_name", ["N", "gf5-14-3-2", "gf5-11-4-9", "PG(3,2)"])
def test_obstruction_budget_counts_quadrangle_sets(host_name, rank4_matroid,
                                                   gfp_column_matroid):
    host = rank4_matroid if host_name == "N" else build_host(host_name, gfp_column_matroid)
    report = realizability_obstruction(host)
    # a GF(5) host has no Fano minor and a binary one no non-Fano minor, so
    # either search visits every class
    assert report.has_fano == (host_name in ("N", "PG(3,2)"))
    if host_name == "PG(3,2)":
        assert not report.has_nonfano
    total = sum(comb(s, 4) for s in visited_class_sizes(host, report))
    assert total > 0
    assert realizability_obstruction(host, budget=total) == report
    with pytest.raises(SearchBudgetExceeded,
                       match=f"^minor search exceeded {total - 1} nodes$"):
        realizability_obstruction(host, budget=total - 1)


def test_whole_pg27_obstruction_under_the_default_budget():
    v = 57
    plane = matroid_from_flats(v, 3, [
        (2, tuple(sorted((d + i) % v for d in (0, 1, 3, 13, 32, 36, 43, 52))))
        for i in range(v)])
    start = time.perf_counter()
    report = realizability_obstruction(plane)
    assert time.perf_counter() - start < 2
    assert report.verdict == "char-not-2-only"
    kept = set(range(v)) - set(report.nonfano_witness.delete_set)
    assert report.nonfano_witness.contract_set == ()
    assert kept == {0, 1, 2, 3, 4, 6, 38}


# -- simplification of a simple matroid ------------------------------------------

def test_simplify_returns_a_simple_matroid_itself():
    f = fano_matroid()
    simple, pmap = simplify(f)
    assert simple is f
    assert pmap.images == tuple(range(7))
    assert pmap.classes == tuple((e,) for e in range(7))


@pytest.mark.parametrize("host, classes", [
    (loops_and_parallels(), ((0, 4), (1,), (2,))),
    # 1 and 2 parallel, no loop
    (Matroid.from_bases(3, [(0, 1), (0, 2)]), ((0,), (1, 2))),
    # 2 a loop, no parallel pair
    (Matroid.from_bases(3, [(0, 1)]), ((0,), (1,))),
], ids=["loops-and-parallels", "parallel-pair", "loop"])
def test_simplify_builds_a_new_matroid_otherwise(host, classes):
    simple, pmap = simplify(host)
    assert simple is not host and simple.n == len(classes) < host.n
    assert pmap.classes == classes
    assert simple.is_simple

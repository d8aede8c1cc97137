"""Minor search, witness replay, and the field-obstruction verdicts."""

import random
import time

import pytest

from itertools import combinations
from math import comb

from matroid_forge import minors
from matroid_forge.bitsets import iter_elements, mask_of
from matroid_forge.errors import SearchBudgetExceeded, ValidationError
from matroid_forge.matroid import (
    Matroid,
    are_isomorphic,
    contract,
    delete,
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

import hosts
from hosts import fresh, host, uniform
import oracles


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
    assert w.iso.images == tuple(range(7))
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

TARGETS = {name: host(name) for name in ("fano", "non-fano", "U(2,4)", "U(3,6)")}


def screened_hosts(m):
    """si(M) and si(M/e) for each non-loop e: where a search for a target of
    M's rank, or one lower, screens kept sets."""
    yield simplify(m)[0]
    for e in iter_elements(m.full & ~m.loops_mask):
        yield simplify(contract(m, 1 << e))[0]


def lift_levels(levels, back):
    """Flat masks of a deletion, relabelled to the host, sorted per rank."""
    return [sorted(mask_of(back(e) for e in iter_elements(f)) for f in level)
            for level in levels]


@pytest.mark.parametrize("name", hosts.PINNED_HOSTS)
def test_restriction_flats_match_the_built_restriction(name):
    for m in (host(name), *screened_hosts(host(name))):
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


def test_screen_keeps_every_isomorphic_restriction():
    isomorphic = rejected = 0
    for name in hosts.PINNED_HOSTS:
        for m in screened_hosts(host(name)):
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


@pytest.mark.parametrize("name", hosts.PINNED_HOSTS)
def test_pinned_witnesses_and_budgets(name):
    m = host(name)
    for tname, target in TARGETS.items():
        expected, nodes = PINNED[name, tname]
        for budget in (None, nodes):
            assert witness_literal(find_minor(m, target, budget=budget)) == expected
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                find_minor(m, target, budget=nodes - 1)


# -- the kept-set walk against the combinations loop it replaced -----------------

@pytest.mark.parametrize("name", hosts.ORACLE_HOSTS)
def test_search_matches_the_combinations_loop(name, spy):
    m = fresh(name)
    screened = spy(minors, "are_isomorphic")
    for tname, target in TARGETS.items():
        expected, nodes = oracles.reference_find_minor(name, target)
        reference_screened = screened[:]
        screened.clear()
        assert witness_literal(find_minor(m, target)) == \
            witness_literal(expected), (name, tname)
        # the walk hands are_isomorphic the very kept sets the loop did
        assert screened == reference_screened, (name, tname)
        assert witness_literal(find_minor(m, target, budget=nodes)) == \
            witness_literal(expected), (name, tname)
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                find_minor(m, target, budget=nodes - 1)
        screened.clear()


@pytest.mark.parametrize("n, rank, seed", [(14, 3, 2), (11, 4, 9)])
def test_exhaustive_search_charges_every_kept_set(n, rank, seed):
    # the Fano plane is realizable only in characteristic 2, so no minor of
    # a GF(5) point set is one and the search runs to the end
    name = f"gf5-{n}-{rank}-{seed}"
    fano = fano_matroid()
    total = sum(comb(simple.n, fano.n)
                for simple, _, _ in oracles.contraction_classes(name, fano.rank).values()
                if simple.rank >= fano.rank)
    assert total > 0
    assert find_minor(host(name), fano, budget=total) is None
    with pytest.raises(SearchBudgetExceeded):
        find_minor(host(name), fano, budget=total - 1)


def refuse(*args):
    raise AssertionError("the contraction classes built a minor")


@pytest.mark.parametrize("name", hosts.ORACLE_HOSTS)
def test_contraction_classes_read_from_the_lattice(name, monkeypatch):
    m = fresh(name)
    # every class has room for a single point, so none is left out, while
    # the seven-point targets leave out the classes with fewer points;
    # reading the lattice contracts, deletes and simplifies nothing
    for target in (uniform(1, 1), fano_matroid(), non_fano_matroid()):
        with monkeypatch.context() as patch:
            for op in ("contract", "delete", "simplify"):
                patch.setattr(minors, op, refuse)
            classes = list(minors._contraction_classes(m, target))
        reference = oracles.contraction_classes(name, target.rank)
        assert [c.contract_set for c in classes] == \
            [combo for combo, (simple, _, _) in reference.items()
             if simple.n >= target.n], name
        for c in classes:
            simple, expected_classes, expected_loops = reference[c.contract_set]
            assert (c.n, c.rank) == (simple.n, simple.rank), (name, c.contract_set)
            assert c.classes == expected_classes, (name, c.contract_set)
            assert c.loops == expected_loops, (name, c.contract_set)
            assert [set(level) for level in c.levels] == \
                [set(level) for level in nontrivial_levels(simple)], \
                (name, c.contract_set)


@pytest.mark.parametrize("name", hosts.ORACLE_HOSTS)
def test_restriction_built_from_the_host(name):
    # si(M/C)|K from the host equals si(M/C) contracted, simplified and
    # deleted down to K, for K every point and a seeded sample of others
    m = host(name)
    rng = random.Random(name)
    for c in minors._contraction_classes(m, uniform(1, 1)):
        simple = oracles.contraction_classes(name, 1)[c.contract_set][0]
        cmask = mask_of(c.contract_set)
        for kmask in [simple.full] + [rng.randint(1, simple.full) for _ in range(4)]:
            reps = mask_of(c.classes[i][0] for i in iter_elements(kmask))
            drop = simple.full & ~kmask
            expected = delete(simple, drop) if drop else simple
            assert minors._restriction(m, cmask, reps) == expected, \
                (name, c.contract_set, bin(kmask))


# -- whole projective planes ----------------------------------------------------

@pytest.mark.parametrize("q, verdict", [
    (2, "char-2-only"), (3, "char-not-2-only"), (4, "char-2-only")])
def test_projective_plane_obstructions(q, verdict):
    plane = host(f"PG(2,{q})")
    assert (plane.n, plane.rank) == (q * q + q + 1, 3)
    report = realizability_obstruction(plane)
    assert report.verdict == verdict
    for target, w in ((fano_matroid(), report.fano_witness),
                      (non_fano_matroid(), report.nonfano_witness)):
        assert w is None or replay_witness(plane, target, w)


# -- the quadrangle search against find_minor -----------------------------------

@pytest.mark.parametrize("name", hosts.OBSTRUCTION_HOSTS)
def test_obstruction_witnesses_equal_find_minor(name):
    m = host(name)
    report = realizability_obstruction(m)
    for target, w in ((fano_matroid(), report.fano_witness),
                      (non_fano_matroid(), report.nonfano_witness)):
        assert witness_literal(w) == witness_literal(find_minor(m, target)), name


def visited_class_sizes(name, report):
    """Point counts of the simplified rank-3 contraction classes with at
    least seven points, in search order, up to the class where the later of
    two found witnesses was found."""
    both = report.has_fano and report.has_nonfano
    wanted = {report.fano_witness.contract_set,
              report.nonfano_witness.contract_set} if both else None
    sizes = []
    for combo, (simple, _, _) in oracles.contraction_classes(name, 3).items():
        if simple.n >= 7:
            sizes.append(simple.n)
        if both:
            wanted.discard(combo)
            if not wanted:
                break
    return sizes


@pytest.mark.parametrize("host_name", hosts.QUADRANGLE_HOSTS)
def test_obstruction_budget_counts_quadrangle_sets(host_name):
    m = host(host_name)
    report = realizability_obstruction(m)
    # a GF(5) host has no Fano minor and a binary one no non-Fano minor, so
    # either search visits every class
    assert report.has_fano == (host_name in ("N", "PG(3,2)"))
    if host_name == "PG(3,2)":
        assert not report.has_nonfano
    total = sum(comb(s, 4) for s in visited_class_sizes(host_name, report))
    assert total > 0
    assert realizability_obstruction(m, budget=total) == report
    with pytest.raises(SearchBudgetExceeded,
                       match=f"^minor search exceeded {total - 1} nodes$"):
        realizability_obstruction(m, budget=total - 1)


def test_whole_pg27_obstruction_under_the_default_budget():
    plane = fresh("PG(2,7)")
    v = plane.n
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
    (host("loops-and-parallels"), ((0, 4), (1,), (2,))),
    # 1 and 2 parallel, no loop
    (host("parallel-pair"), ((0,), (1, 2))),
    # 2 a loop, no parallel pair
    (Matroid.from_bases(3, [(0, 1)]), ((0,), (1,))),
], ids=["loops-and-parallels", "parallel-pair", "loop"])
def test_simplify_builds_a_new_matroid_otherwise(host, classes):
    simple, pmap = simplify(host)
    assert simple is not host and simple.n == len(classes) < host.n
    assert pmap.classes == classes
    assert simple.is_simple

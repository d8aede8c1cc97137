"""Erections: block conditions, exact covers, the free erection by merging hulls."""

import random

import pytest

from matroid_forge import cli, erection, properties
from matroid_forge.bitsets import coerce_mask, format_set, mask_of, sort_masks
from matroid_forge.erection import (
    _closure_index,
    _exact_covers,
    _k_closed_hull,
    check_erection_blocks,
    enumerate_erections,
    free_erection,
    is_k_closed,
    spanning_k_closed_masks,
    spanning_k_closed_sets,
    tautness_witness,
)
from matroid_forge.errors import (
    GroundSetTooLarge,
    RankTooLow,
    SearchBudgetExceeded,
    ValidationError,
)
from matroid_forge.matroid import PointedMap, delete, relabel, simplify, truncation
from matroid_forge.formats import bundled_data_dir, load_sets, parse_matroid_text
from matroid_forge.minors import fano_matroid

from hosts import (
    CENSUS_HOSTS,
    DIFFERENTIAL_HOSTS,
    fresh,
    host,
    ladder_instances,
    pg25_point_set,
    uniform,
)
import oracles


def test_k_closed_detection():
    f = fano_matroid()
    assert is_k_closed(f, (0, 1, 5), 2)            # a full line
    assert not is_k_closed(f, (0, 1), 2)           # misses its third point
    assert is_k_closed(f, range(7), 2)
    assert is_k_closed(f, (0,), 2)                 # no 2-subsets at all
    for k in (1, 2, 3):
        table = oracles.closure_table(f, k)
        assert [x for x in range(f.full + 1) if is_k_closed(f, x, k)] == \
            [x for x in range(f.full + 1) if oracles.reference_is_k_closed(table, x)]
    with pytest.raises(ValueError):
        is_k_closed(f, (0,), 0)


def test_spanning_k_closed_on_four_point_line():
    u24 = uniform(2, 4)
    sets = spanning_k_closed_sets(u24, 1)
    # every subset with at least two points, except the full ground set
    assert len(sets) == 10
    assert (0, 1) in sets and (0, 1, 2) in sets
    assert (0, 1, 2, 3) not in sets


def assert_same_masks(got, expected):
    # pytest's sequence diff would take minutes on thousands of masks
    if got != expected:
        missing = [format_set(x) for x in sort_masks(set(expected) - set(got))]
        extra = [format_set(x) for x in sort_masks(set(got) - set(expected))]
        pytest.fail(f"{len(got)} sets vs {len(expected)} expected; "
                    f"missing {missing[:5]}, extra {extra[:5]}")


def assert_census_matches_scan(m):
    for k in range(1, m.rank):
        reference = oracles.census_by_scan(m, k)
        assert_same_masks(spanning_k_closed_masks(m, k),
                          tuple(x for x in reference if x != m.full))


@pytest.mark.parametrize("name", CENSUS_HOSTS)
def test_census_matches_subset_scan(name):
    assert_census_matches_scan(host(name))


def test_census_matches_subset_scan_on_bundled(rank3_matroid, rank4_matroid):
    assert_census_matches_scan(rank3_matroid)
    assert len(spanning_k_closed_masks(rank3_matroid, 2)) == 52
    assert_census_matches_scan(rank4_matroid)
    assert spanning_k_closed_masks(rank4_matroid, 3) == ()


def test_host_builders_add_loops_and_parallels():
    loop = host("fano+loop")
    assert (loop.n, loop.rank, loop.loops_mask) == (8, 3, 1 << 7)
    par = host("U(3,6)+parallel")
    assert (par.n, par.rank, par.loops_mask) == (7, 3, 0)
    assert par.closure_mask(1) == par.closure_mask(1 << 6) == 1 | 1 << 6


@pytest.mark.parametrize("name", CENSUS_HOSTS)
def test_minors_relabel_bases_as_element_by_element(name):
    m = host(name)
    rng = random.Random(f"relabel:{name}")
    for _ in range(20):
        removed = rng.randrange(m.full)
        kept = [e for e in range(m.n) if not removed >> e & 1]
        inside = [i for i in m.independent_masks if not i & removed]
        rank = max(i.bit_count() for i in inside)
        want = oracles.relabel_element_by_element(
            [i for i in inside if i.bit_count() == rank],
            {e: j for j, e in enumerate(kept)})
        assert delete(m, removed).basis_masks == want, removed
    simple, pmap = simplify(m)
    point_of = {e: i for i, cls in enumerate(pmap.classes) for e in cls}
    assert simple.basis_masks == oracles.relabel_element_by_element(m.basis_masks, point_of)
    order = list(range(m.n))
    rng.shuffle(order)
    moved = relabel(m, PointedMap(tuple(order)))
    assert moved.basis_masks == oracles.relabel_element_by_element(m.basis_masks, order)


@pytest.mark.parametrize("name", CENSUS_HOSTS)
def test_hull_fixes_exactly_the_k_closed_sets(name):
    m = host(name)
    rng = random.Random(name)
    for k in range(1, m.rank + 1):
        table = oracles.closure_table(m, k)
        index = _closure_index(m, k)
        for x in range(m.full + 1):
            hull = _k_closed_hull(index, x)
            assert hull == oracles.reference_k_closed_hull(table, x)
            assert (hull == x) == oracles.reference_is_k_closed(table, x)
            # stopping early: None exactly when the hull meets forbid
            forbid = rng.getrandbits(m.n) & ~x
            stopped = _k_closed_hull(index, x, forbid)
            assert stopped == (None if hull & forbid else hull)


@pytest.mark.parametrize("n", [16, 17, 20])
def test_census_matches_reference_on_pg25_point_sets(n):
    # k = 1 is left out: on a simple host every subset is 1-closed, so its
    # census is about 2^n sets
    m = pg25_point_set(n, 1)
    assert_same_masks(spanning_k_closed_masks(m, 2), oracles.reference_census(m, 2))


def test_exhaustive_scan_caps_ground_set():
    with pytest.raises(GroundSetTooLarge):
        spanning_k_closed_sets(uniform(2, 21), 1)


# -- the three block conditions ----------------------------------------------

def test_blocks_accept_valid_family():
    u24 = uniform(2, 4)
    chk = check_erection_blocks(u24, [(0, 1, 2), (0, 3), (1, 3), (2, 3)])
    assert chk
    assert chk.condition is None


def test_blocks_must_span():
    chk = check_erection_blocks(uniform(2, 4), [(0,), (1, 2, 3)])
    assert not chk
    assert chk.condition == 1


def test_blocks_must_be_closed():
    # spans, but contains the pair {0,1} and not its third point 5
    chk = check_erection_blocks(fano_matroid(), [(0, 1, 2, 6)])
    assert not chk
    assert chk.condition == 2


def test_blocks_must_partition_bases():
    chk = check_erection_blocks(uniform(2, 4), [(0, 1, 2), (0, 1, 3)])
    assert not chk
    assert chk.condition == 3


@pytest.mark.parametrize("bad", [(0, 9), (-1, 0)])
def test_blocks_outside_the_ground_set_are_refused(bad):
    u24 = uniform(2, 4)
    with pytest.raises(ValueError) as expected:
        coerce_mask(bad, 4)
    with pytest.raises(ValueError) as raised:
        check_erection_blocks(u24, [(0, 1, 2), bad])
    assert str(raised.value) == str(expected.value).replace("subset", "block")


@pytest.mark.parametrize("bad", [(0, 9), (-1, 0), 1 << 4, -1])
def test_k_closed_test_refuses_sets_outside_the_ground_set(bad):
    u24 = uniform(2, 4)
    with pytest.raises(ValueError) as expected:
        coerce_mask(bad, 4)
    with pytest.raises(ValueError) as raised:
        is_k_closed(u24, bad, 1)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("bad", [(-1, 0), (0, 10 ** 6), (5, -(10 ** 6))])
def test_elements_are_range_checked_before_they_are_shifted(bad):
    """A negative element gets the ground-set message, not a shift error."""
    u24 = uniform(2, 4)
    message = "{} is not inside the ground set of size 4"
    with pytest.raises(ValueError, match=message.format("subset")):
        coerce_mask(bad, 4)
    with pytest.raises(ValueError, match=message.format("block")):
        check_erection_blocks(u24, [(0, 1, 2), bad])
    with pytest.raises(ValueError, match=message.format("subset")):
        is_k_closed(u24, bad, 1)


# -- enumeration on independently known families -----------------------------

def test_three_point_line_has_one_erection():
    u23 = uniform(2, 3)
    family = enumerate_erections(u23)
    assert len(family) == 2
    assert family.erections[0] == u23
    assert family.free() == uniform(3, 3)


def test_four_point_line_has_six_erections():
    # one trivial, four with a single three-point line, one free
    u24 = uniform(2, 4)
    family = enumerate_erections(u24)
    assert len(family) == 6
    assert family.erections[0] == u24
    assert all(truncation(e) == u24 for e in family.nontrivial())
    assert family.free() == uniform(3, 4)
    triples = [e for e in family.nontrivial()
               if len(e.flats_at(2, min_size=3)) == 1]
    assert len(triples) == 4


def test_free_matroid_has_no_erection():
    u33 = uniform(3, 3)
    family = enumerate_erections(u33)
    assert len(family) == 1
    assert tautness_witness(u33) is None


def test_free_erection_shortcut():
    assert free_erection(uniform(2, 4)) == uniform(3, 4)


def test_tautness_witness_points_one_rank_up():
    witness = tautness_witness(uniform(2, 4))
    assert witness is not None
    assert witness.rank == 3
    assert truncation(witness) == uniform(2, 4)


def test_rank_one_cannot_erect():
    """Every erection entry point, the copoint check included, refuses rank 1
    with one typed error."""
    checks = (enumerate_erections, free_erection, tautness_witness,
              lambda m: check_erection_blocks(m, [(0, 1, 2)]))
    for check in checks:
        with pytest.raises(RankTooLow) as raised:
            check(uniform(1, 3))
        assert str(raised.value) == "erections need rank >= 2, got 1"


def test_non_simple_rejected():
    parallel = host("parallel-pair")
    assert not parallel.is_simple
    for erect in (enumerate_erections, free_erection, tautness_witness):
        with pytest.raises(ValidationError):
            erect(parallel)


def test_tiny_budget_exhausted():
    with pytest.raises(SearchBudgetExceeded):
        enumerate_erections(uniform(2, 4), budget=1)


def test_bundled_family(erection_family, rank4_matroid):
    assert len(erection_family) == 2
    assert erection_family.free() == rank4_matroid


# -- the hull merge against the enumeration's weak-order maximum -------------

@pytest.mark.parametrize("name", DIFFERENTIAL_HOSTS)
def test_hull_merge_is_the_weak_order_maximum(name):
    m = host(name)
    family = enumerate_erections(m)
    # the oracle: free() is the unique maximum of the listed family
    assert properties.erection_family_failures(family) == []
    free = free_erection(m)
    assert free == family.free()
    witness = tautness_witness(m)
    assert (witness is None) == (len(family) == 1)
    assert witness is None or witness == free


def test_differential_hosts_cover_several_family_sizes():
    sizes = {len(enumerate_erections(host(name))) for name in DIFFERENTIAL_HOSTS
             if name.startswith(("small:", "linear-space"))}
    assert {1, 2} < sizes and max(sizes) > 100


@pytest.mark.parametrize("r, n", [(2, 9), (3, 8), (3, 12), (3, 16), (4, 9)])
def test_free_erection_of_a_uniform_matroid_is_uniform(r, n):
    assert free_erection(uniform(r, n)).basis_masks == uniform(r + 1, n).basis_masks


def test_free_erection_needs_no_census(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the free erection must not enumerate")
    monkeypatch.setattr(erection, "enumerate_erections", forbidden)
    monkeypatch.setattr(erection, "spanning_k_closed_masks", forbidden)
    u320 = free_erection(fresh("U(3,20)"))
    assert (u320.n, u320.rank, len(u320.basis_masks)) == (20, 4, 4845)
    assert truncation(u320) == host("U(3,20)")
    for name in ("PG(2,4)", "PG(2,5)"):
        plane = fresh(name)
        assert plane.n > erection.EXHAUSTIVE_LIMIT
        assert free_erection(plane) is plane
        assert tautness_witness(plane) is None


def test_a_first_basis_with_hull_e_settles_the_listing():
    # a nontrivial erection puts the first basis in a proper copoint, which
    # holds the basis's (r-1)-closed hull (Crapo 1970)
    settled = with_candidates = 0
    for m in [*map(host, DIFFERENTIAL_HOSTS), *(pg25_point_set(n, 1) for n in range(16, 21))]:
        first, k = m.basis_masks[0], m.rank - 1
        if oracles.reference_k_closed_hull(oracles.closure_table(m, k), first) != m.full:
            continue
        candidates = oracles.reference_census(m, k)
        assert not [c for c in candidates if first & ~c == 0], m
        assert enumerate_erections(m).erections == (m,)
        settled += 1
        with_candidates += bool(candidates)
    assert settled >= 10 and with_candidates >= 3


def test_taut_listing_runs_no_census(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a host settled by its first hull needs no census")
    monkeypatch.setattr(erection, "spanning_k_closed_masks", forbidden)
    planes = [fresh("PG(2,4)"), fresh("PG(2,5)")]
    planes += [parse_matroid_text(i.texts["matroid"]) for i in ladder_instances((1,))]
    assert sorted(m.n for m in planes) == [16, 17, 21, 31]
    for m in planes:
        family = enumerate_erections(m, budget=1)
        assert family.erections == (m,) and family.free() is m


# on small:gf5-10-3-a the second basis's hull is E, and the first's block
# is not merged into it
@pytest.mark.parametrize("name, hulls", [("PG(2,5)", 1), ("small:gf5-10-3-a", 2)])
def test_free_blocks_stop_at_a_hull_of_e(spy, name, hulls):
    m = fresh(name)
    calls = spy(erection, "_k_closed_hull")
    assert erection._free_blocks(m) == (m.full,)
    assert len(calls) == hulls


def test_enumeration_runs_no_hull_merge(monkeypatch, capsys, rank4_matroid):
    def forbidden(*args, **kwargs):
        raise AssertionError("the listing must not merge hulls")
    monkeypatch.setattr(erection, "_free_blocks", forbidden)
    path = bundled_data_dir() / "M.matroid"
    for m, free in ((fresh("M"), rank4_matroid),
                    (uniform(2, 4), uniform(3, 4)), (uniform(3, 6), uniform(4, 6))):
        assert enumerate_erections(m).free() == free
    assert cli.main(["erect", str(path), "--all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 erections of a rank-3 matroid on 13 elements",
        "[0] rank 3, 271 bases (trivial)",
        "[1] rank 4, 494 bases",
        "free erection: [1]",
    ]


def test_listing_materializes_each_erection_once(spy):
    built = spy(erection, "_materialize")
    family = enumerate_erections(fresh("M"))
    assert len(built) == len(family) - 1
    family.free()
    assert len(built) == len(family) - 1


def test_materialize_rejects_broken_copoint_families(data_dir, rank3_matroid,
                                                     rank4_matroid):
    copoints = rank4_matroid.flat_lattice()[3]
    assert erection._materialize(rank3_matroid, copoints) == rank4_matroid
    big = [c for c in copoints if c.bit_count() > 3]
    spurious = [mask_of(s) for s in load_sets(data_dir / "spurious_blocks.sets")
                if len(s) == 4]
    assert big and spurious
    for blocks in ([c for c in copoints if c != big[0]], [*copoints, spurious[0]]):
        with pytest.raises(ValidationError):
            erection._materialize(rank3_matroid, tuple(blocks))


@pytest.mark.parametrize("rank, n", [(2, 5), (3, 6)])
def test_every_materialized_erection_truncates_back(rank, n):
    # _materialize relies on its flat round-trip for this
    base = uniform(rank, n)
    family = enumerate_erections(base)
    assert len(family) > 30
    assert all(truncation(e) == base for e in family.nontrivial())


# -- exact cover against the per-item Algorithm X it replaced -----------------

def holders_of(num_items, cover_masks):
    """For each item, the mask of the candidates whose cover holds it."""
    return [mask_of(ci for ci, cm in enumerate(cover_masks) if cm >> i & 1)
            for i in range(num_items)]


def assert_covers_match_reference(num_items, cover_masks):
    expected, nodes = oracles.reference_exact_covers(num_items, cover_masks)
    holders = holders_of(num_items, cover_masks)
    assert _exact_covers(holders, nodes) == expected
    with pytest.raises(SearchBudgetExceeded):
        _exact_covers(holders, nodes - 1)
    return expected


def seeded_cover_instance(rng):
    """Items copied from a few distinct columns, so holder sets repeat, and
    now and then an item that no candidate holds."""
    columns = rng.randint(1, 6)
    candidates = [rng.getrandbits(columns) & rng.getrandbits(columns)
                  for _ in range(rng.randint(0, 14))]
    items = [rng.randrange(columns) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.2:
        items.append(columns)  # held by no candidate
    return len(items), [mask_of(i for i, col in enumerate(items) if c >> col & 1)
                        for c in candidates]


def test_exact_covers_match_reference_on_seeded_instances():
    rng = random.Random("exact-cover")
    several = repeated = 0
    for _ in range(400):
        num_items, masks = seeded_cover_instance(rng)
        solutions = assert_covers_match_reference(num_items, masks)
        several += len(solutions) > 1
        repeated += len(set(holders_of(num_items, masks))) < num_items
    assert several > 20 and repeated > 100
    # no items: the empty cover; an uncoverable item: none; no candidates
    assert assert_covers_match_reference(0, []) == [()]
    assert assert_covers_match_reference(0, [0, 0]) == [()]
    assert assert_covers_match_reference(3, [0b011, 0b001]) == []
    assert assert_covers_match_reference(4, []) == []


def basis_cover_masks(m):
    """The bases each candidate block of ``enumerate_erections`` holds."""
    return [mask_of(i for i, b in enumerate(m.basis_masks) if b & ~c == 0)
            for c in spanning_k_closed_masks(m, m.rank - 1)]


@pytest.mark.parametrize("name, solutions", [
    ("U(3,5)", 6), ("U(3,6)", 82), ("M", 1)])
def test_exact_covers_match_reference_on_erection_covers(name, solutions):
    # the nontrivial erections: U(3,6) has 83 erections in all
    m = host(name)
    masks = basis_cover_masks(m)
    assert len(assert_covers_match_reference(len(m.basis_masks), masks)) == solutions

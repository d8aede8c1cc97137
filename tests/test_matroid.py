"""Core matroid structure: construction, rank, closure, minors, maps."""

import random
import sys
import time
import tracemalloc
from functools import cache

import pytest

from matroid_forge import errors, matroid

from matroid_forge.bitsets import (
    MAX_GROUND,
    elements_of,
    full_mask,
    iter_elements,
    mask_mapper,
    mask_of,
    sort_masks,
)
from matroid_forge.erection import enumerate_erections
from matroid_forge.errors import (
    EmptyGroundSet,
    FormatError,
    GroundSetMismatch,
    RankTooLow,
    SearchBudgetExceeded,
    ValidationError,
)
from matroid_forge.matroid import (
    RANK_TABLE_LIMIT,
    Matroid,
    PointedMap,
    are_isomorphic,
    contract,
    delete,
    is_quotient,
    is_weak_map_image,
    matroid_from_flats,
    relabel,
    removal_map,
    simplify,
    truncation,
)
from matroid_forge.minors import fano_matroid, non_fano_matroid

from itertools import combinations

from hosts import (
    CENSUS_HOSTS,
    LATTICE_HOSTS,
    SMALL_HOSTS,
    TABLE_HOSTS,
    fresh,
    host,
    pg25_point_set,
    uniform,
)
import oracles


# -- canonical subset order ---------------------------------------------------

def test_sort_masks_orders_by_size_then_element_tuple():
    rng = random.Random("canonical-key")
    masks = [rng.getrandbits(rng.randrange(MAX_GROUND + 1)) for _ in range(20000)]
    masks += [0, (1 << MAX_GROUND) - 1, 1, 1 << (MAX_GROUND - 1)]
    masks += [mask_of(c) for c in combinations(range(13), 4)]
    rng.shuffle(masks)
    assert sort_masks(masks) == tuple(sorted(masks, key=oracles.reference_canonical_key))


def test_mask_mapper_unions_the_images_of_the_elements():
    rng = random.Random("mask-mapper")
    for n in (0, 1, 7, 8, 9, 16, 17, 31, MAX_GROUND):
        images = [rng.choice((0, 1 << rng.randrange(MAX_GROUND), rng.getrandbits(5)))
                  for _ in range(n)]
        mapped = mask_mapper(images)
        for _ in range(200):
            x = rng.getrandbits(n) if n else 0
            want = 0
            for e in elements_of(x):
                want |= images[e]
            assert mapped(x) == want, (n, x)


# -- pointed maps -----------------------------------------------------------

def test_pointed_map_identity():
    pm = PointedMap(tuple(range(4)))
    assert pm.classes is None
    assert list(map(pm, range(4))) == [0, 1, 2, 3]


def test_pointed_map_rejects_repeats():
    with pytest.raises(ValidationError):
        PointedMap((0, 0, 1))


def test_removal_map_recovers_labels():
    back = removal_map(6, (1, 4))
    assert [back(i) for i in range(4)] == [0, 2, 3, 5]


# -- construction and validation -------------------------------------------

def test_empty_ground_set_rejected():
    with pytest.raises(EmptyGroundSet):
        Matroid(0, 0, [0])


def test_no_bases_rejected():
    with pytest.raises(ValidationError):
        Matroid(3, 2, [])


def test_mixed_cardinality_rejected():
    with pytest.raises(ValidationError):
        Matroid.from_bases(3, [(0,), (0, 1)])


def test_exchange_failure_rejected():
    # two disjoint pairs on four points fail basis exchange
    with pytest.raises(ValidationError):
        Matroid.from_bases(4, [(0, 1), (2, 3)])


def test_from_bases_infers_rank():
    m = uniform(2, 4)
    assert (m.n, m.rank) == (4, 2)
    assert len(m.basis_masks) == 6
    assert m.is_simple



# -- rank and closure on the seven-point plane ------------------------------

def test_fano_rank_and_closure():
    f = fano_matroid()
    assert f.rank == 3
    assert f.rank_of_mask(0b11) == 2
    assert elements_of(f.closure_mask(0b11)) == (0, 1, 5)
    assert f.rank_of_mask(f.full) == 3
    assert f.closure_mask(0) == 0


@pytest.mark.parametrize("name", SMALL_HOSTS)
def test_rank_and_closure_match_definitions_on_every_mask(name):
    m, table = host(name), oracles.subsets_by_bases(name)
    for x in range(m.full + 1):
        assert (m.rank_of_mask(x), m.closure_mask(x)) == table[x]


def test_rank_and_closure_match_definitions_above_table_limit():
    m = host("gf5-18-3-1")
    assert m.n > RANK_TABLE_LIMIT
    rng = random.Random(18)
    for _ in range(2000):
        x = mask_of(rng.sample(range(m.n), rng.randint(0, m.n)))
        assert (m.rank_of_mask(x), m.closure_mask(x)) == oracles.rank_and_closure_by_bases(m, x)


@pytest.mark.parametrize("name", TABLE_HOSTS)
def test_greedy_basis_table_matches_walk_and_reference(name):
    """The bulk read's doubling pass and each query's walk reach the same
    greedy basis of every subset, and its size is the reference rank."""
    m = host(name)
    walks = [oracles.greedy_basis(m.independent_masks, x) for x in range(m.full + 1)]
    ext = m._extensions()
    closures = [m.full & ~ext[b] for b in walks]
    reference = oracles.reference_rank_table(name)
    assert [b.bit_count() for b in walks] == list(reference)
    assert m.ranks_and_closures() == (list(reference), closures)
    for x in range(m.full + 1):
        assert m.rank_of_mask(x) == reference[x], x
        assert m.closure_mask(x) == closures[x], x


def test_rank_and_closure_queries_allocate_no_subset_table():
    """One walk per query: at n = 16 a 2^n table of greedy bases would take
    hundreds of KiB, the walk a few small ints."""
    m = pg25_point_set(16, 3)
    assert m.n == RANK_TABLE_LIMIT
    m._extensions()
    tracemalloc.start()
    try:
        rank, closure = m.rank_of_mask(0b111), m.closure_mask(0b111)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rank, closure) == oracles.rank_and_closure_by_bases(m, 0b111)
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("n", [4, RANK_TABLE_LIMIT, RANK_TABLE_LIMIT + 1])
def test_rank_is_the_greedy_basis_size_on_both_sides_of_the_table_limit(n):
    # bases {0,1} and {2,3}: not a matroid, so {0,2,3} has the independent
    # subset {2,3} but the greedy basis {0}
    fake = Matroid(n, 2, [0b0011, 0b1100], _validated=True)
    assert fake.rank_of_mask(0b1101) == 1
    for x in range(1 << 4):
        rank = fake.rank_of_mask(x)
        for e in range(4):
            grows = fake.rank_of_mask(x | 1 << e) > rank
            assert grows == (not fake.closure_mask(x) >> e & 1), (x, e)


@pytest.mark.parametrize("name", LATTICE_HOSTS)
def test_flat_lattice_matches_definitions_on_every_mask(name):
    """X is a rank-k flat of the lattice iff by the bases cl(X) = X and r(X) = k."""
    m, table = host(name), oracles.subsets_by_bases(name)
    levels = m.flat_lattice()
    rank_of_flat = {f: k for k, level in enumerate(levels) for f in level}
    assert len(rank_of_flat) == sum(map(len, levels))
    for x in range(m.full + 1):
        rank, closure = table[x]
        assert rank_of_flat.get(x) == (rank if closure == x else None), x


def assert_delete_matches_definition(m, indep, x):
    d = delete(m, x)
    keep = m.full & ~x
    assert d.n == keep.bit_count()
    assert (d.rank, set(d.basis_masks)) == oracles.restriction_by_definition(indep, keep)


@pytest.mark.parametrize("name", SMALL_HOSTS)
def test_delete_matches_definition_on_every_mask(name):
    m = host(name)
    indep = oracles.independent_by_definition(m)
    for x in range(m.full):
        assert_delete_matches_definition(m, indep, x)


def test_delete_matches_definition_above_table_limit():
    m = host("gf5-18-3-1")
    indep = oracles.independent_by_definition(m)
    rng = random.Random(1818)
    for _ in range(300):
        x = mask_of(rng.sample(range(m.n), rng.randint(0, m.n - 1)))
        assert_delete_matches_definition(m, indep, x)


def assert_contract_matches_definition(m, rank, x):
    """M/x has rank rk(E) - rk(x); Y is a basis iff rk(Y ∪ x) - rk(x) = |Y| = that rank."""
    c = contract(m, x)
    kept = [e for e in range(m.n) if not x >> e & 1]
    rx = rank(x)
    new_rank = m.rank - rx
    bases = {mask_of(combo) for combo in combinations(range(len(kept)), new_rank)
             if rank(x | mask_of(kept[i] for i in combo)) - rx == new_rank}
    assert (c.n, c.rank, set(c.basis_masks)) == (len(kept), new_rank, bases)


@pytest.mark.parametrize("name", SMALL_HOSTS)
def test_contract_matches_definition_on_every_mask(name):
    m, table = host(name), oracles.subsets_by_bases(name)
    for x in range(m.full):
        assert_contract_matches_definition(m, lambda y: table[y][0], x)


def test_contract_matches_definition_above_table_limit():
    m = host("gf5-18-3-1")
    rank = cache(lambda y: oracles.rank_and_closure_by_bases(m, y)[0])
    rng = random.Random(1819)
    for _ in range(300):
        x = mask_of(rng.sample(range(m.n), rng.randint(0, m.n - 1)))
        assert_contract_matches_definition(m, rank, x)


@pytest.mark.parametrize("name", CENSUS_HOSTS)
def test_minors_equal_the_greedy_basis_versions(name):
    m = host(name)
    rng = random.Random(f"greedy-minors:{name}")
    xs = range(m.full) if m.n <= 8 else [rng.randrange(m.full) for _ in range(300)]
    for x in xs:
        assert contract(m, x) == oracles.greedy_basis_minor(m, x, True), x
        assert delete(m, x) == oracles.greedy_basis_minor(m, x, False), x


def test_minors_of_minors_build_no_table():
    for m in (fresh("M"), fresh("N")):
        # X = {2,6} and Y = {0,1,4}, relabelled after the other removal
        d, c = delete(m, 0b10011), contract(m, 0b1000100)
        assert contract(d, 0b1001) == delete(c, 0b1011)
        assert d._ext is None and c._ext is None


def test_squeeze_matches_the_element_by_element_map():
    rng = random.Random("squeeze")
    # empty lists, keeps with no gap, and the lanes' widest masks
    cases = [([], 0b1011), ([], full_mask(MAX_GROUND)), ([0b101, 0b111, 0], 0b111),
             ([full_mask(MAX_GROUND), 1 << 63], full_mask(MAX_GROUND)),
             ([1 << 63, 1 << 5], 1 << 63 | 1 << 5)]
    for _ in range(400):
        n = rng.randint(1, 64)
        keep = rng.getrandbits(n)
        masks = [rng.getrandbits(n) & keep for _ in range(rng.randint(0, 30))]
        cases.append((masks, keep))
    for masks, keep in cases:
        assert matroid._squeeze(iter(masks), keep) == \
            oracles.reference_squeeze(masks, keep), (masks, bin(keep))


def test_fano_flats():
    f = fano_matroid()
    assert f.flats_at(0) == ((),)
    assert f.flats_at(1) == tuple((e,) for e in range(7))
    lines = f.flats_at(2, min_size=3)
    assert len(lines) == 7
    assert (0, 1, 5) in lines
    assert f.flats_at(3) == (tuple(range(7)),)


def test_the_cached_fano_matroid_refuses_every_change():
    f = fano_matroid()
    before = (f.n, f.rank, f.basis_masks, hash(f))
    for name in ("n", "rank", "basis_masks"):
        with pytest.raises(AttributeError):
            setattr(f, name, 2)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert fano_matroid() is f
    assert (f.n, f.rank, f.basis_masks, hash(f)) == before


def test_bases_listing():
    f = fano_matroid()
    bs = [elements_of(b) for b in f.basis_masks]
    assert len(bs) == 28
    assert (0, 1, 2) in bs
    assert (0, 1, 5) not in bs


# -- deletion, contraction, simplification ----------------------------------

def test_delete_drops_lines():
    f = fano_matroid()
    d = delete(f, (6,))
    assert (d.n, d.rank) == (6, 3)
    # four of the seven lines avoid the deleted point
    assert len(d.basis_masks) == 20 - 4


def test_delete_everything_rejected():
    with pytest.raises(EmptyGroundSet):
        delete(uniform(2, 3), (0, 1, 2))


def test_contract_creates_parallel_pairs():
    f = fano_matroid()
    c = contract(f, (0,))
    assert (c.n, c.rank) == (6, 2)
    simple, pmap = simplify(c)
    assert simple.n == 3
    assert simple == uniform(2, 3)
    # the three lines through the contracted point collapse pairwise
    back = removal_map(7, (0,))
    classes = tuple(tuple(back(e) for e in cls) for cls in pmap.classes)
    assert classes == ((1, 5), (2, 4), (3, 6))


def test_simplify_of_simple_is_identity_map():
    f = fano_matroid()
    simple, pmap = simplify(f)
    assert simple == f
    assert pmap.images == tuple(range(7))


def test_truncation_of_plane_is_line():
    assert truncation(fano_matroid()) == uniform(2, 7)
    with pytest.raises(RankTooLow):
        truncation(uniform(1, 3))


# -- canonical order by construction -------------------------------------------

def _seeded_families(count, seed):
    """Seeded same-size mask families: canonical, shuffled, with repeats."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        k = rng.randint(0, n)
        subsets = [mask_of(c) for c in combinations(range(n), k)]
        family = [s for s in subsets if rng.random() < rng.random()] or subsets[:1]
        yield n, k, family
        shuffled = family[:]
        rng.shuffle(shuffled)
        yield n, k, shuffled
        yield n, k, family + [rng.choice(family)]
        yield n, k, sorted(family + family)


def test_canonical_order_test_matches_sorting():
    verdicts = []
    for _, _, family in _seeded_families(500, seed=17):
        fast = matroid._in_canonical_order(family)
        assert fast == (tuple(family) == sort_masks(set(family))), family
        verdicts.append(fast)
    assert any(verdicts) and not all(verdicts)


def _outcome(build):
    try:
        return build().basis_masks
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n, rank, bases", [
    (7, 3, fano_matroid().basis_masks),
    (5, 2, host("loops-and-parallels").basis_masks),
    (4, 2, (0b0011, 0b1100)),                 # fails exchange
    (4, 2, (0b0011, 0b0101, 0b0110, 0b10000)),  # out of range
    (4, 2, (0b0011, 0b0101, 0b0111)),          # mixed sizes
    (4, 2, (0b0011, 0b0101, -0b0110)),         # negative
])
def test_constructor_ignores_input_order_and_repeats(n, rank, bases):
    canonical = sort_masks(set(bases))
    shuffled = list(canonical)
    random.Random(f"{n}:{rank}").shuffle(shuffled)
    for validated in (False, True):
        want = _outcome(lambda: Matroid(n, rank, canonical, _validated=validated))
        for variant in (shuffled, list(canonical) * 2,
                        [*shuffled, canonical[0]], set(canonical)):
            got = _outcome(lambda: Matroid(n, rank, variant, _validated=validated))
            assert got == want, (validated, variant)


@pytest.fixture
def no_constructor_sort(monkeypatch):
    """Make a sort inside the constructor an error."""
    def guarded(masks):
        if sys._getframe(1).f_code is Matroid.__init__.__code__:
            raise AssertionError("the constructor sorted its input")
        return sort_masks(masks)

    monkeypatch.setattr(matroid, "sort_masks", guarded)


def no_walk(*args):
    raise AssertionError("a derived operation walked C(n, r) subsets")


@pytest.mark.parametrize("name", SMALL_HOSTS)
def test_minors_filter_the_canonical_tuple_without_sorting(
        name, no_constructor_sort, monkeypatch):
    m = fresh(name)
    monkeypatch.setattr(matroid, "combinations", no_walk)
    for x in range(m.full):
        contract(m, x)
        if m._maximal_independent_mask(m.full & ~x).bit_count() == m.rank:
            delete(m, x)
    simplify(m)


def test_parsing_the_bundled_matroids_does_not_sort(no_constructor_sort):
    for name in ("M", "N"):
        assert fresh(name).n == 13


@pytest.mark.parametrize("name", LATTICE_HOSTS)
def test_simplify_matches_the_class_collapse(name):
    m = host(name)
    for e in range(m.n):
        c = contract(m, 1 << e)
        assert simplify(c) == oracles.parent_simplify(c), e


# -- order relations ---------------------------------------------------------

def test_weak_map_and_quotient(rank3_matroid, rank4_matroid):
    assert is_weak_map_image(rank3_matroid, rank4_matroid)
    assert is_quotient(rank3_matroid, rank4_matroid)
    assert not is_weak_map_image(rank4_matroid, rank3_matroid)
    assert truncation(rank4_matroid) == rank3_matroid


def test_weak_map_matches_definition():
    """Every independent set of the first is independent in the second."""
    fano = fano_matroid()
    # Fano without its first or its last basis: only that basis tells
    # Fano apart from them
    hosts = [*map(host, ("fano", "non-fano", "U(2,7)", "U(3,7)", "gf5-7-3-2",
                         "gf5-7-2-3", "loops-and-parallels")),
             truncation(non_fano_matroid()),
             Matroid(7, 3, fano.basis_masks[1:], _validated=True),
             Matroid(7, 3, fano.basis_masks[:-1], _validated=True)]
    verdicts = set()
    for a in hosts:
        for b in hosts:
            if a.n == b.n:
                expected = (oracles.independent_by_definition(a)
                            <= oracles.independent_by_definition(b))
                assert is_weak_map_image(a, b) == expected, (a, b)
                verdicts.add(expected)
    assert verdicts == {False, True}


def test_weak_map_containment_matches_the_membership_walk(rank3_matroid, rank4_matroid):
    def walk(a, b):
        indep = b.independent_masks
        return all(x in indep for x in a.basis_masks)

    for group in (enumerate_erections(uniform(3, 5)).erections,
                  (rank3_matroid, rank4_matroid, truncation(rank4_matroid))):
        verdicts = set()
        for a in group:
            for b in group:
                assert is_weak_map_image(a, b) == walk(a, b), (a, b)
                verdicts.add(walk(a, b))
        assert verdicts == {False, True}


def test_mismatched_ground_sets_rejected():
    with pytest.raises(GroundSetMismatch):
        is_weak_map_image(uniform(2, 4), uniform(2, 5))


# -- isomorphism -------------------------------------------------------------

def test_relabelled_plane_is_isomorphic():
    f = fano_matroid()
    perm = PointedMap((3, 1, 0, 2, 6, 4, 5))
    shuffled = relabel(f, perm)
    iso = are_isomorphic(f, shuffled)
    assert iso is not None
    assert relabel(f, iso) == shuffled


def test_equal_matroids_give_identity_iso():
    f = fano_matroid()
    iso = are_isomorphic(f, f)
    assert iso is not None and iso.images == tuple(range(7))


def test_plane_and_relaxation_not_isomorphic():
    assert are_isomorphic(fano_matroid(), non_fano_matroid()) is None


# The three 9_3 configurations, nine points on nine 3-point lines, three
# lines through each point (Grünbaum, *Configurations of Points and Lines*,
# 2009, §2.2), with the cycle lengths of the graph joining each point to
# the two points it shares no line with, which tells them apart.
NINE_THREE = {
    "(3,6)": ([(0, 1, 6), (0, 2, 8), (0, 4, 7), (1, 3, 7), (1, 4, 5),
               (2, 3, 6), (2, 5, 7), (3, 4, 8), (5, 6, 8)], [3, 6]),
    "(9)": ([(0, 1, 8), (0, 2, 6), (0, 3, 5), (1, 3, 4), (1, 6, 7),
             (2, 3, 8), (2, 5, 7), (4, 5, 6), (4, 7, 8)], [9]),
    "Pappus": ([(0, 1, 4), (0, 2, 5), (0, 3, 8), (1, 5, 7), (1, 6, 8),
                (2, 4, 6), (2, 7, 8), (3, 4, 7), (3, 5, 6)], [3, 3, 3]),
}


def unjoined_cycles(lines):
    """Sorted component sizes of the graph joining points on no common line;
    every point has two such partners, so the components are cycles."""
    joined = {(a, b) for line in lines for a in line for b in line}
    seen, sizes = set(), []
    for start in range(9):
        stack, size = [start], 0
        while stack:
            a = stack.pop()
            if a not in seen:
                seen.add(a)
                size += 1
                stack += [b for b in range(9) if (a, b) not in joined]
        if size:
            sizes.append(size)
    return sorted(sizes)


def test_nine_three_configurations_are_told_apart_by_backtracking():
    planes = {}
    for name, (lines, cycles) in NINE_THREE.items():
        assert unjoined_cycles(lines) == cycles, name
        planes[name] = matroid_from_flats(9, 3, [(2, line) for line in lines])
    # equal basis counts and flat profiles: only the backtracking decides
    assert {len(m.basis_masks) for m in planes.values()} == {75}
    assert len({(p[0], tuple(sorted(p[1])))
                for p in map(matroid.flat_profile, planes.values())}) == 1
    for first, second in combinations(planes.values(), 2):
        assert are_isomorphic(first, second) is None
        assert are_isomorphic(second, first) is None
    rng = random.Random(93)
    for name, m in planes.items():
        images = list(range(9))
        rng.shuffle(images)
        shuffled = relabel(m, PointedMap(tuple(images)))
        assert shuffled != m, name
        iso = are_isomorphic(m, shuffled)
        assert iso is not None and relabel(m, iso) == shuffled, name


def test_an_element_without_a_candidate_image():
    # equal basis counts and line sizes, but 0 lies on two lines of one
    # and no element of the other does
    meeting = matroid_from_flats(6, 3, [(2, (0, 1, 2)), (2, (0, 3, 4))])
    apart = matroid_from_flats(6, 3, [(2, (0, 1, 2)), (2, (3, 4, 5))])
    assert len(meeting.basis_masks) == len(apart.basis_masks) == 18
    assert matroid.flat_profile(meeting)[0] == matroid.flat_profile(apart)[0]
    assert are_isomorphic(meeting, apart) is None
    assert are_isomorphic(apart, meeting) is None


# -- construction from flats -------------------------------------------------

def test_flats_roundtrip_seven_lines():
    lines = fano_matroid().flats_at(2, min_size=3)
    rebuilt = matroid_from_flats(7, 3, [(2, L) for L in lines])
    assert rebuilt == fano_matroid()


def test_removed_line_relaxes_to_valid_matroid():
    # dropping one line from the seven-line plane's list just relaxes it
    lines = fano_matroid().flats_at(2, min_size=3)
    relaxed = matroid_from_flats(7, 3, [(2, L) for L in lines if L != (3, 4, 5)])
    assert relaxed == non_fano_matroid()


def test_missing_flat_detected(rank4_matroid):
    # dropping one plane from the rank-4 matroid's list breaks exchange
    spec = [(2, L) for L in rank4_matroid.flats_at(2, min_size=3)]
    planes = rank4_matroid.flats_at(3, min_size=4)
    spec += [(3, P) for P in planes[1:]]
    with pytest.raises(ValidationError):
        matroid_from_flats(13, 4, spec)


def test_overlapping_same_rank_flats_rejected():
    with pytest.raises(ValidationError):
        matroid_from_flats(5, 3, [(2, (0, 1, 2)), (2, (0, 1, 3))])


def test_out_of_range_flat_element_rejected():
    with pytest.raises(FormatError):
        matroid_from_flats(4, 3, [(2, (0, 1, 9))])


def test_free_matroid_from_no_flats():
    free = matroid_from_flats(4, 4, [])
    assert len(free.basis_masks) == 1
    assert free.rank == 4


def flat_listings():
    """(n, rank, listing) cases for the differential test below.

    Every listing of 3-point lines on 5 points; every listing of 2- and
    3-point rank-1 flats on 4 points in rank 2, where some listings leave
    a loop in every listed flat; seeded listings on 6-7 points in ranks 3
    and 4 with flats of every rank.
    """
    lines = list(combinations(range(5), 3))
    parallel = [s for t in (2, 3) for s in combinations(range(4), t)]
    for n, rank, pool in ((5, 3, lines), (4, 2, parallel)):
        for chosen in range(1 << len(pool)):
            yield n, rank, [(rank - 1, pool[i]) for i in iter_elements(chosen)]
    rng = random.Random(2503)
    for _ in range(3000):
        n, rank = rng.choice((6, 7)), rng.choice((3, 4))
        listing = []
        for k in range(1, rank):
            for _ in range(rng.choice((0, 0, 1, 2, 3) if k < rank - 1 else (1, 2, 3, 4))):
                listing.append((k, tuple(sorted(rng.sample(range(n), k + rng.choice((1, 1, 2)))))))
        yield n, rank, listing


def test_certificate_and_round_trip_imply_the_consistency_pre_pass():
    """What matroid_from_flats accepts, the deleted pre-pass accepts too,
    and the built matroid's rank function is the formula rank."""
    accepted = {}
    for n, rank, listing in flat_listings():
        try:
            m = matroid_from_flats(n, rank, listing)
        except ValidationError:
            continue
        accepted[rank] = accepted.get(rank, 0) + 1
        assert oracles.reference_consistency_failure(rank, listing) is None, (n, rank, listing)
        listed = {}
        for k, flat in listing:
            listed.setdefault(k, set()).add(mask_of(flat))
        assert all(m.rank_of_mask(x) == oracles.reference_formula_rank(rank, listed, x)
                   for x in range(m.full + 1)), (n, rank, listing)
    assert sorted(accepted) == [2, 3, 4] and min(accepted.values()) >= 10, accepted


def test_rejected_listings_name_the_check_that_fails():
    # two lines sharing two points fail the certificate
    with pytest.raises(ValidationError) as exc:
        matroid_from_flats(5, 3, [(2, (0, 1, 2)), (2, (0, 1, 3))])
    assert str(exc.value) == "basis exchange fails for B={0,2,3}, B'={0,1,4}, f=1"
    # a family of rank-1 flats all holding 0 certifies, with 0 a loop
    for n, listing in ((3, [(1, (0, 1)), (1, (0, 2))]),
                       (4, [(1, (0, 1, 2)), (1, (0, 3))])):
        assert oracles.reference_consistency_failure(2, listing) is not None
        with pytest.raises(ValidationError) as exc:
            matroid_from_flats(n, 2, listing)
        assert str(exc.value) == "rank-0 flats do not round-trip (unlisted: {0})"


def test_basis_listing_too_large_to_walk_fails_fast():
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match="basis listing exceeded"):
        matroid_from_flats(64, 32, [])
    # C(30, 8) rank-subsets fit the budget, but thirty 29-point flats of
    # rank 7 hold C(29, 8) each
    with pytest.raises(SearchBudgetExceeded, match="basis listing exceeded"):
        matroid_from_flats(30, 8, [(7, full_mask(30) & ~(1 << e)) for e in range(30)])
    assert time.perf_counter() - start < 1


def test_basis_listing_charges_subsets_and_listed_flats(monkeypatch):
    fano = fano_matroid()
    lines = [(2, line) for line in fano.flats_at(2, min_size=3)]
    # C(7, 3) rank-subsets plus C(3, 3) inside each of the seven lines
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 35 + 7)
    assert matroid_from_flats(7, 3, lines) == fano
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 35 + 6)
    with pytest.raises(SearchBudgetExceeded, match="basis listing exceeded 41 nodes"):
        matroid_from_flats(7, 3, lines)

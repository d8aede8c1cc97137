"""Axiom batteries over the whole corpus, plus detection of broken inputs."""

import hashlib
import random
from collections import Counter
from itertools import chain, combinations
from types import SimpleNamespace

import pytest

from matroid_forge import properties
from matroid_forge.bitsets import mask_of, sort_masks
from matroid_forge.erection import ErectionFamily
from matroid_forge.errors import ValidationError
from matroid_forge.matroid import RANK_TABLE_LIMIT, Matroid, exchange_failure, truncation
from matroid_forge.minors import fano_matroid, non_fano_matroid
from matroid_forge.reproduce import run_reproduce

from hosts import (
    CORPUS_HOSTS, TABLE_HOSTS, fresh, gfp_column_matroid, host, singer_lines, uniform)
import oracles


@pytest.fixture(scope="module")
def small_corpus():
    return [host(name) for name in CORPUS_HOSTS]


def test_closure_axioms_exhaustive(monkeypatch, small_corpus, rank3_matroid, rank4_matroid):
    """The lanes accept every matroid, so neither subset walk runs."""
    def walk(*args):
        raise AssertionError("a subset walk ran on a matroid")

    monkeypatch.setattr(properties, "_closure_walk", walk)
    monkeypatch.setattr(properties, "_rank_walk", walk)
    for m in small_corpus + [rank3_matroid, rank4_matroid]:
        assert properties.rank_and_closure_failures(m) == []


def test_rank_axioms_exhaustive(small_corpus):
    for m in small_corpus:
        ranks = m.ranks_and_closures()[0]
        assert properties._lanes_accept(ranks, m.n, m.rank)
        assert properties._rank_walk(ranks, m.n, m.rank) == []
        assert oracles.reference_rank_axiom_failures(m) == []


class TableSetFunction:
    """A duck-typed rank oracle: any integer set function given as a table,
    with cl(X) = X + {e : r(X+e) = r(X)} as its closure."""

    def __init__(self, n, rank, values):
        self.n, self.rank, self.values = n, rank, values

    def rank_of_mask(self, x):
        return self.values[x]

    def ranks_and_closures(self):
        v = self.values
        return v, [x | sum(1 << e for e in range(self.n) if v[x | 1 << e] == v[x])
                   for x in range(len(v))]


def _bumped_truncations(count, seed):
    """min(|X|, k) on n <= 5 with one to three values moved by +-1."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        values = [min(x.bit_count(), k) for x in range(1 << n)]
        for _ in range(rng.randint(1, 3)):
            values[rng.randrange(1 << n)] += rng.choice((-1, 1))
        yield TableSetFunction(n, k, values)


def assert_battery_is_both_walks(f):
    """The battery's list is the closure walk's, then the rank walk's;
    returns it."""
    ranks, closures = f.ranks_and_closures()
    failures = properties.rank_and_closure_failures(f)
    assert failures == (properties._closure_walk(closures, ranks, f.n)
                        + properties._rank_walk(ranks, f.n, f.rank)), (f.n, list(closures))
    return failures


def assert_lanes_match_walk(f):
    """The byte-lane verdict equals the subset walk's, and the battery's
    list ends with the walk's; returns the walk's list."""
    ranks = f.ranks_and_closures()[0]
    walk = properties._rank_walk(ranks, f.n, f.rank)
    assert properties._lanes_accept(ranks, f.n, f.rank) == (walk == []), ranks
    assert_battery_is_both_walks(f)
    return walk


def test_rank_battery_matches_reference_on_bumped_functions():
    verdicts = []
    for f in _bumped_truncations(3000, seed=44):
        failed = assert_lanes_match_walk(f) != []
        assert failed == (oracles.reference_rank_axiom_failures(f) != []), f.values
        verdicts.append(failed)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("value", [-5, 128, 300, 10**6])
def test_values_that_fit_no_lane_go_to_the_walk(value):
    # 128 would collide with the guard bit, 300 and 10**6 fit no byte
    for n in (1, 3, 5):
        for x in (0, 1, (1 << n) - 1):
            for rank in (min(n, 2), 2 * 10**6):
                values = [min(y.bit_count(), 2) for y in range(1 << n)]
                values[x] = value
                assert assert_lanes_match_walk(TableSetFunction(n, rank, values))


def test_axioms_around_a_change_match_the_walk():
    verdicts = set()
    for f in _bumped_truncations(1000, seed=45):
        base = [min(x.bit_count(), f.rank) for x in range(1 << f.n)]
        for x in (x for x in range(1 << f.n) if f.values[x] != base[x]):
            one = base.copy()
            one[x] = f.values[x]
            verdict = oracles.axioms_hold_around(one, f.n, f.rank, x)
            assert verdict == (properties._rank_walk(one, f.n, f.rank) == []), (one, x)
            verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize("n, rank, seed", [(14, 3, 1), (15, 4, 2), (16, 3, 3), (17, 3, 4)])
def test_byte_lanes_match_the_walk_on_column_matroids(n, rank, seed):
    """Lane masks either side of the bulk read's limit: at n = 17 the one
    read walks each subset to its greedy basis.  A rejection by the lanes would make the battery walk, find
    nothing on this matroid and raise; each one-value change is checked
    against the walk's verdict at that value."""
    m = gfp_column_matroid(5, n, rank, seed)
    assert properties.rank_and_closure_failures(m) == []
    if n == 14:
        assert assert_lanes_match_walk(m) == []
    ranks = list(map(m.rank_of_mask, range(1 << n)))
    rng = random.Random(n)
    verdicts = []
    for x in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(8)]:
        for step in (-1, 1):
            bumped = ranks.copy()
            bumped[x] += step
            verdicts.append(properties._lanes_accept(bumped, n, m.rank))
            assert verdicts[-1] == oracles.axioms_hold_around(bumped, n, m.rank, x), (x, step)
    assert not all(verdicts)


def test_rank_detects_non_matroid():
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    # rank is the greedy basis size, and the greedy basis of {0,1,2} is
    # {0,1}: X = {2}, e = 0, f = 1 gives r({0,2}) + r({1,2}) = 1 + 1 < 2 + 1
    ranks = fake.ranks_and_closures()[0]
    assert not properties._lanes_accept(ranks, fake.n, fake.rank)
    assert properties._rank_walk(ranks, fake.n, fake.rank) == [
        "rank not submodular at {0,2}, {1,2}"]


def test_battery_lists_both_sides_on_the_four_element_fake():
    """The 4-element twin of the 17-element family whose list CI pins."""
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    assert properties.rank_and_closure_failures(fake) == [
        "closure not idempotent at {2}", "closure changes rank at {2}",
        "closure not monotone at {2} + 0", "closure not monotone at {2} + 1",
        "rank not submodular at {0,2}, {1,2}"]


def test_battery_is_the_closure_walk_then_the_rank_walk():
    """On rejected and accepted inputs alike, lanes or no lanes."""
    fakes = chain(_bumped_truncations(3000, seed=44),
                  (Matroid(n, rank, family, _validated=True)
                   for n, rank, family in _random_families(400, seed=21)),
                  _perturbed_closures(300, seed=5))
    verdicts = set()
    for f in fakes:
        verdicts.add(assert_battery_is_both_walks(f) == [])
    assert verdicts == {False, True}


def test_battery_names_a_walk_that_contradicts_the_lanes(monkeypatch):
    monkeypatch.setattr(properties, "_lanes_accept", lambda *args: False)
    with pytest.raises(AssertionError, match="the byte lanes reject a rank function"):
        properties.rank_and_closure_failures(uniform(2, 4))


def test_closure_battery_computes_each_closure_once(small_corpus):
    """The battery reads the tables once and asks for no single subset."""
    def per_query(x):
        raise AssertionError("the battery asked for one subset")

    for m in small_corpus:
        reads = []
        counting = SimpleNamespace(
            n=m.n, rank=m.rank, rank_of_mask=per_query, closure_mask=per_query,
            ranks_and_closures=lambda m=m: reads.append(m) or m.ranks_and_closures())
        assert properties.rank_and_closure_failures(counting) == []
        assert reads == [m]


def test_axioms_exhaustive_on_bundled(rank3_matroid, rank4_matroid):
    """Both subset walks accept M and N, as the lanes do."""
    for m in (rank3_matroid, rank4_matroid):
        ranks, closures = m.ranks_and_closures()
        assert properties._lanes_accept(ranks, m.n, m.rank)
        assert properties._closure_lanes_match(closures, ranks, m.n)
        assert properties._closure_walk(closures, ranks, m.n) == []
        assert properties._rank_walk(ranks, m.n, m.rank) == []


def test_exchange_exhaustive(small_corpus, rank3_matroid, rank4_matroid):
    for m in small_corpus + [rank3_matroid, rank4_matroid]:
        assert exchange_failure(m) is None


def test_exchange_detects_non_matroid():
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    assert exchange_failure(fake) is not None


def _families(n, k):
    subsets = [mask_of(c) for c in combinations(range(n), k)]
    for choice in range(1, 1 << len(subsets)):
        yield n, k, [s for i, s in enumerate(subsets) if (choice >> i) & 1]


def _random_families(count, seed):
    """Seeded random k-subset families on n <= 8, cycling through every rank."""
    rng = random.Random(seed)
    shapes = [(n, k) for n in range(1, 9) for k in range(n + 1)]
    for i in range(count):
        n, k = shapes[i % len(shapes)]
        subsets = [mask_of(c) for c in combinations(range(n), k)]
        density = rng.random()
        family = [s for s in subsets if rng.random() < density]
        yield n, k, family or [rng.choice(subsets)]


def _one_basis_removals(m, count=None, seed=0):
    removed = m.basis_masks
    if count is not None:
        removed = random.Random(seed).sample(removed, count)
    for b in removed:
        yield m.n, m.rank, [c for c in m.basis_masks if c != b]


def _one_triple_additions(m):
    """m plus one dependent triple, for each dependent triple of m.

    Every dependent triple of Fano and non-Fano is a circuit-hyperplane; adding
    it as a basis relaxes it, which yields a matroid (Oxley, *Matroid
    Theory*, Prop. 1.5.14): these families must all be accepted.
    """
    for t in combinations(range(m.n), m.rank):
        tmask = mask_of(t)
        if tmask not in m.basis_masks:
            yield m.n, m.rank, list(m.basis_masks) + [tmask]


@pytest.mark.parametrize("families, all_matroids", [
    (lambda: _families(5, 2), False),
    (lambda: _families(5, 3), False),
    (lambda: _one_basis_removals(fano_matroid()), False),
    (lambda: _one_basis_removals(non_fano_matroid()), False),
    (lambda: _random_families(2000, seed=8), False),
    (lambda: chain(_one_triple_additions(fano_matroid()),
                       _one_triple_additions(non_fano_matroid())), True),
    (lambda: chain(_one_basis_removals(host("M"), 10, seed=3),
                       _one_basis_removals(host("N"), 4, seed=4)),
     False),
    # rank 5 on 10 points: each basis's five outside elements can fall into
    # five different parts of the swap-set split
    (lambda: _one_basis_removals(gfp_column_matroid(3, 10, 5, 1), 40, seed=6), False),
], ids=["2-subsets-of-5", "3-subsets-of-5", "fano-less-one", "non-fano-less-one",
        "random-families-n-le-8", "fano-and-non-fano-plus-one",
        "M-and-N-less-one", "gf3-10-5-less-one"])
def test_exchange_certificate_matches_reference(families, all_matroids):
    rejected = 0
    for n, rank, family in families():
        m = Matroid(n, rank, family, _validated=True)
        expected = oracles.reference_exchange_failure(m)
        assert exchange_failure(m) == expected, family
        rejected += expected is not None
    if all_matroids:
        assert rejected == 0
    else:
        assert rejected > 0


def test_links_characterize_matroids():
    families = chain(_families(5, 2), _families(5, 3), _random_families(500, seed=13))
    rejected = 0
    for n, rank, family in families:
        m = Matroid(n, rank, family, _validated=True)
        expected = oracles.reference_exchange_failure(m)
        assert (oracles.failing_links(m) == []) == (expected is None), family
        rejected += expected is not None
    assert rejected > 0


@pytest.mark.parametrize("n, rank, family, failing_sizes", [
    (6, 3, ["012", "345"], {0}),
    (8, 4, ["0123", "4567"], {0}),
    (6, 4, ["0134", "0145", "0235", "0245", "1234", "1235"], {2}),
], ids=["two-triangles", "two-quadruples", "only-pair-links-fail"])
def test_link_certificate_rejects_a_single_failing_level(n, rank, family, failing_sizes):
    m = Matroid(n, rank, [mask_of(map(int, b)) for b in family], _validated=True)
    assert {s.bit_count() for s in oracles.failing_links(m)} == failing_sizes
    expected = oracles.reference_exchange_failure(m)
    assert expected is not None
    assert exchange_failure(m) == expected
    with pytest.raises(ValidationError) as raised:
        Matroid(n, rank, m.basis_masks)
    assert str(raised.value) == expected


def test_link_certificate_accepts_every_family_of_rank_at_most_one():
    for n in range(1, 7):
        for rank in (0, 1):
            for _, _, family in _families(n, rank):
                m = Matroid(n, rank, family, _validated=True)
                assert oracles.reference_exchange_failure(m) is None
                assert exchange_failure(m) is None, family


def test_link_certificate_accepts_pg27():
    # the 57 lines of PG(2,7), translates of a perfect difference set
    lines = [mask_of(line) for line in singer_lines(7)]
    bases = [b for b in map(mask_of, combinations(range(57), 3))
             if not any(b & ~line == 0 for line in lines)]
    assert len(bases) == 26068
    assert exchange_failure(Matroid(57, 3, bases, _validated=True)) is None


def test_closure_and_lattice_match_the_loop_on_down_closed_families():
    rejected = 0
    for n, rank, family in _random_families(400, seed=21):
        m = Matroid(n, rank, family, _validated=True)
        indep = oracles.independent_by_definition(m)
        assert m.independent_masks == indep, family
        for x in range(1 << n):
            assert m.closure_mask(x) == oracles.reference_closure_mask(indep, n, x), (family, x)
        assert m.flat_lattice().by_rank == tuple(
            sort_masks({oracles.reference_closure_mask(indep, n, i)
                        for i in indep if i.bit_count() == k})
            for k in range(rank + 1)), family
        rejected += exchange_failure(m) is not None
    assert rejected > 0


def test_closure_detects_non_matroid():
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    ranks, closures = fake.ranks_and_closures()
    assert not properties._closure_lanes_match(closures, ranks, fake.n)
    assert properties._closure_walk(closures, ranks, fake.n) != []


def _perturbed_closures(count, seed):
    """Closure tables of small matroids with one or two bits flipped."""
    rng = random.Random(seed)
    hosts = [uniform(2, 4), uniform(3, 5), uniform(2, 5), fano_matroid()]
    for _ in range(count):
        m = rng.choice(hosts)
        ranks, table = m.ranks_and_closures()
        for _ in range(rng.randint(1, 2)):
            table[rng.randrange(1 << m.n)] ^= 1 << rng.randrange(m.n)
        yield SimpleNamespace(n=m.n, rank=m.rank,
                              ranks_and_closures=lambda t=(ranks, table): t)


def _digest(lists):
    return hashlib.sha256(repr(lists).encode()).hexdigest()


def _closure_battery(m):
    """The battery's closure side: the closure walk, which is empty exactly
    where the lanes accept (see the test below)."""
    ranks, closures = m.ranks_and_closures()
    return properties._closure_walk(closures, ranks, m.n)


def test_closure_failure_lists_are_pinned():
    """The closure battery's exact lists, recorded before the per-subset map.

    A non-extensive subset is reported and skipped without stopping the
    walk, so its list runs on to the next subset that is checked in full.
    """
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    assert _closure_battery(fake) == [
        "closure not idempotent at {2}", "closure changes rank at {2}",
        "closure not monotone at {2} + 0", "closure not monotone at {2} + 1"]
    families = [Matroid(n, rank, family, _validated=True)
                for n, rank, family in _random_families(400, seed=21)]
    families = [m for m in families if exchange_failure(m) is not None]
    perturbed = list(_perturbed_closures(300, seed=5))
    for ms, pins in (
            (families, ((97, 272),
                        "60f07f785e5953d3495990e58d6cf7e7860024ac3a92115330f075a94adc64f0")),
            (perturbed, ((300, 390),
                         "fb91e890e7d90cdaea5918b2c49310d8fceb0b1c8d0f84d892dfa04671026000"))):
        exhaustive = [_closure_battery(m) for m in ms]
        assert ((len(ms), sum(map(len, exhaustive))), _digest(exhaustive)) == pins
    assert ["closure not extensive at {0}",
            "closure exchange fails at {1}, e=4, f=0"] in exhaustive


def test_closure_lanes_accept_only_what_the_walk_accepts():
    """Acceptance by the lanes skips the walk, so it must never hide a
    failure; on these perturbed tables and random families the two
    verdicts agree, and both occur."""
    fakes = chain(_perturbed_closures(300, seed=5),
                  (Matroid(n, rank, family, _validated=True)
                   for n, rank, family in _random_families(2000, seed=8)))
    verdicts = set()
    for m in fakes:
        ranks, closures = m.ranks_and_closures()
        accepted = (properties._lanes_accept(ranks, m.n, m.rank)
                    and properties._closure_lanes_match(closures, ranks, m.n))
        walk = properties._closure_walk(closures, ranks, m.n)
        assert accepted == (walk == []), (m.n, list(closures))
        verdicts.add(accepted)
    assert verdicts == {False, True}


# -- the batteries' one read ------------------------------------------------------

def _per_query(m):
    masks = range(m.full + 1)
    return list(map(m.rank_of_mask, masks)), list(map(m.closure_mask, masks))


@pytest.mark.parametrize("name", TABLE_HOSTS)
def test_one_read_equals_the_per_query_methods(name):
    """Every table host (the census hosts and bundled M and N among them)."""
    m = fresh(name)
    assert m.ranks_and_closures() == _per_query(m)


def test_one_read_equals_the_per_query_methods_on_families():
    families = [Matroid(n, rank, family, _validated=True)
                for n, rank, family in _random_families(400, seed=21)]
    assert any(exchange_failure(m) is not None for m in families)
    for m in families:
        assert m.ranks_and_closures() == _per_query(m), m.basis_masks


def test_one_read_equals_the_per_query_methods_above_table_limit():
    m = fresh("gf5-17-2")
    assert m.n > RANK_TABLE_LIMIT
    assert m.ranks_and_closures() == _per_query(m)


def test_reproduce_reads_each_battery_matroid_once(monkeypatch):
    """The six rank and closure battery matroids are read once each, and
    inside the batteries nothing asks for a single subset."""
    reads, asked, inside = Counter(), [], []
    reader = Matroid.ranks_and_closures

    def counting(m):
        reads[m] += 1
        return reader(m)
    monkeypatch.setattr(Matroid, "ranks_and_closures", counting)
    for name in ("rank_of_mask", "closure_mask"):
        def query(m, x, original=getattr(Matroid, name), name=name):
            if inside:
                asked.append(name)
            return original(m, x)
        monkeypatch.setattr(Matroid, name, query)
    battery = properties.rank_and_closure_failures

    def marked(m):
        inside.append(m)
        try:
            return battery(m)
        finally:
            inside.pop()
    monkeypatch.setattr(properties, "rank_and_closure_failures", marked)
    assert run_reproduce().overall
    assert sorted(reads.values()) == [1] * 6
    assert asked == []


def test_minor_commutation(rank3_matroid):
    assert properties.minor_commutation_failures(fano_matroid()) == []
    assert properties.minor_commutation_failures(rank3_matroid) == []


def test_minor_commutation_detects_a_broken_delete(monkeypatch):
    monkeypatch.setattr(properties, "delete", lambda m, x: m)
    failures = properties.minor_commutation_failures(fano_matroid())
    assert len(failures) == 1
    assert failures[0].startswith("contract/delete disagree for X=")


# the (X, Y) pairs the commutation battery checks on bundled M: 30 samples,
# each of four randrange draws from random.Random(0xD7)
M_COMMUTATION_PAIRS = [
    (17, 580), (1330, 0), (245, 768), (130, 6405), (2115, 512), (2112, 4098),
    (1248, 256), (2056, 4), (526, 2208), (73, 2690), (17, 1476), (33, 384),
    (7746, 272), (0, 524), (581, 5378), (129, 32), (1316, 594), (2074, 96),
    (112, 2432), (2305, 728), (3104, 130), (3072, 296), (32, 272), (577, 3360),
    (0, 6), (5889, 24), (704, 2336), (264, 4160), (48, 2562), (2308, 1091)]


def test_minor_commutation_checks_the_pinned_pairs(monkeypatch):
    m = host("M")
    handed = []
    for name in ("contract", "delete"):
        def op(a, x, original=getattr(properties, name), name=name):
            if a is m:
                handed.append((name, x))
            return original(a, x)
        monkeypatch.setattr(properties, name, op)
    assert properties.minor_commutation_failures(m) == []
    # each sample hands M its X to contract, then its Y to delete, or,
    # when Y is empty, X to contract again
    assert [op for op, _ in handed[::2]] == ["contract"] * 30
    pairs = [(x, y if op == "delete" else 0)
             for (_, x), (op, y) in zip(handed[::2], handed[1::2])]
    assert pairs == M_COMMUTATION_PAIRS


def test_erection_family_properties(erection_family):
    assert properties.erection_family_failures(erection_family) == []


def test_erection_family_battery_detects_a_broken_weak_order(
        monkeypatch, erection_family):
    monkeypatch.setattr(properties, "is_weak_map_image", lambda a, b: False)
    assert properties.erection_family_failures(erection_family) == [
        "weak order is not reflexive", "weak order is not reflexive",
        "free erection is not the unique weak-order maximum: maxima []"]
    monkeypatch.setattr(properties, "is_weak_map_image", lambda a, b: True)
    assert properties.erection_family_failures(erection_family) == [
        "weak order not antisymmetric on distinct erections",
        "free erection is not the unique weak-order maximum: maxima [0, 1]"]


def test_erection_family_battery_detects_a_missing_free_erection(erection_family):
    # cut down to its trivial member, the family's free() is the base, whose
    # one copoint E is not the merged hulls
    family = ErectionFamily(erection_family.base, erection_family.erections[:1])
    assert properties.erection_family_failures(family) == [
        "free erection's copoints are not the merged hulls"]


def test_formalization_quotient_for_all_matrices(
        realization, formal_matrix, informal_matrix, fano_gf2, fano_gf3):
    for a in (realization, formal_matrix, informal_matrix, fano_gf2, fano_gf3):
        assert properties.formalization_quotient_failures(a) == []


def test_quotient_order(rank3_matroid, rank4_matroid):
    chain = [truncation(rank3_matroid), rank3_matroid, rank4_matroid]
    assert properties.quotient_order_failures(chain) == []

"""Erection enumeration: block conditions, exact covers, the weak order."""

import pytest

from itertools import combinations

from matroid_forge.bitsets import format_set, mask_of, sort_masks
from matroid_forge.erection import (
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
from matroid_forge.matroid import Matroid, truncation
from matroid_forge.minors import fano_matroid, non_fano_matroid


def uniform(rank, n):
    return Matroid.from_bases(n, combinations(range(n), rank))


def test_k_closed_detection():
    f = fano_matroid()
    assert is_k_closed(f, (0, 1, 5), 2)            # a full line
    assert not is_k_closed(f, (0, 1), 2)           # misses its third point
    assert is_k_closed(f, range(7), 2)
    assert is_k_closed(f, (0,), 2)                 # no 2-subsets at all


def test_spanning_k_closed_on_four_point_line():
    u24 = uniform(2, 4)
    sets = spanning_k_closed_sets(u24, 1)
    # every subset with at least two points, except the full ground set
    assert len(sets) == 10
    assert (0, 1) in sets and (0, 1, 2) in sets
    assert (0, 1, 2, 3) not in sets
    with_full = spanning_k_closed_sets(u24, 1, proper_only=False)
    assert (0, 1, 2, 3) in with_full


def census_by_scan(m, k):
    """Spanning k-closed sets, full set included, by walking all 2^n subsets."""
    table = [(s, m.closure_mask(s))
             for s in map(mask_of, combinations(range(m.n), k))]
    return sort_masks(x for x in range(m.full + 1)
                      if m.rank_of_mask(x) == m.rank
                      and all(cl & ~x == 0 for s, cl in table if s & ~x == 0))


CENSUS_HOSTS = {
    **{f"U({r},{n})": (lambda gf5, r=r, n=n: uniform(r, n))
       for n in range(2, 9) for r in range(2, n + 1)},
    "fano": lambda gf5: fano_matroid(),
    "non-fano": lambda gf5: non_fano_matroid(),
    **{f"gf5-{n}-{r}-{seed}": (lambda gf5, args=(n, r, seed): gf5(*args))
       for n, r, seed in ((6, 3, 1), (8, 3, 2), (9, 4, 3), (10, 3, 4),
                          (12, 3, 5), (12, 4, 6))},
}


def assert_same_masks(got, expected):
    # pytest's sequence diff would take minutes on thousands of masks
    if got != expected:
        missing = [format_set(x) for x in sort_masks(set(expected) - set(got))]
        extra = [format_set(x) for x in sort_masks(set(got) - set(expected))]
        pytest.fail(f"{len(got)} sets vs {len(expected)} expected; "
                    f"missing {missing[:5]}, extra {extra[:5]}")


def assert_census_matches_scan(m):
    for k in range(1, m.rank):
        reference = census_by_scan(m, k)
        assert_same_masks(spanning_k_closed_masks(m, k, proper_only=False),
                          reference)
        assert_same_masks(spanning_k_closed_masks(m, k),
                          tuple(x for x in reference if x != m.full))


@pytest.mark.parametrize("name", CENSUS_HOSTS)
def test_census_matches_subset_scan(name, gf5_column_matroid):
    assert_census_matches_scan(CENSUS_HOSTS[name](gf5_column_matroid))


def test_census_matches_subset_scan_on_bundled(rank3_matroid):
    assert_census_matches_scan(rank3_matroid)
    assert len(spanning_k_closed_masks(rank3_matroid, 2)) == 52


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
    with pytest.raises(RankTooLow):
        enumerate_erections(uniform(1, 3))


def test_non_simple_rejected():
    parallel = Matroid.from_bases(3, [(0, 1), (0, 2)])
    assert not parallel.is_simple
    with pytest.raises(ValidationError):
        enumerate_erections(parallel)


def test_tiny_budget_exhausted():
    with pytest.raises(SearchBudgetExceeded):
        enumerate_erections(uniform(2, 4), budget=1)


def test_weak_order_shape(erection_family):
    k = len(erection_family)
    assert len(erection_family.weak_order) == k
    assert all(len(row) == k for row in erection_family.weak_order)
    assert all(erection_family.weak_order[i][i] for i in range(k))


def test_bundled_family(erection_family, rank4_matroid):
    assert len(erection_family) == 2
    assert erection_family.free() == rank4_matroid

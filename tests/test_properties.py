"""Axiom batteries over the whole corpus, plus detection of broken inputs."""

import pytest

from itertools import combinations

from matroid_forge import properties
from matroid_forge.bitsets import format_set, iter_elements, mask_of
from matroid_forge.matroid import (
    Matroid,
    contract,
    exchange_failure,
    simplify,
    truncation,
)
from matroid_forge.minors import fano_matroid, non_fano_matroid


def uniform(rank, n):
    return Matroid.from_bases(n, combinations(range(n), rank))


@pytest.fixture(scope="module")
def small_corpus(rank4_matroid):
    simple, _ = simplify(contract(rank4_matroid, (6,)))
    return [fano_matroid(), non_fano_matroid(), uniform(2, 4),
            uniform(3, 3), simple]


def test_closure_axioms_exhaustive(small_corpus):
    for m in small_corpus:
        assert properties.closure_axiom_failures(m) == []


def test_rank_axioms_exhaustive(small_corpus):
    for m in small_corpus:
        assert properties.rank_axiom_failures(m) == []


def test_axioms_sampled_on_large(rank3_matroid, rank4_matroid):
    for m in (rank3_matroid, rank4_matroid):
        assert properties.closure_axiom_failures(m, samples=500) == []
        assert properties.rank_axiom_failures(m, samples=2000) == []


def test_exchange_exhaustive(small_corpus, rank3_matroid, rank4_matroid):
    for m in small_corpus + [rank3_matroid, rank4_matroid]:
        assert properties.exchange_failures(m) == []


def test_exchange_detects_non_matroid():
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    assert properties.exchange_failures(fake) != []


def reference_exchange_failure(m):
    """The plain pairwise basis-exchange loop, kept as a test oracle."""
    basis_set = set(m.basis_masks)
    for b1 in m.basis_masks:
        for b2 in m.basis_masks:
            for f in iter_elements(b2 & ~b1):
                if not any((b1 ^ (1 << e)) | (1 << f) in basis_set
                           for e in iter_elements(b1 & ~b2)):
                    return (f"basis exchange fails for B={format_set(b1)}, "
                            f"B'={format_set(b2)}, f={f}")
    return None


def _families(n, k):
    subsets = [mask_of(c) for c in combinations(range(n), k)]
    for choice in range(1, 1 << len(subsets)):
        yield [s for i, s in enumerate(subsets) if (choice >> i) & 1]


def _one_basis_removals(m):
    for b in m.basis_masks:
        yield [c for c in m.basis_masks if c != b]


@pytest.mark.parametrize("n, rank, families", [
    (5, 2, lambda: _families(5, 2)),
    (5, 3, lambda: _families(5, 3)),
    (7, 3, lambda: _one_basis_removals(fano_matroid())),
    (7, 3, lambda: _one_basis_removals(non_fano_matroid())),
], ids=["2-subsets-of-5", "3-subsets-of-5", "fano-less-one", "non-fano-less-one"])
def test_exchange_certificate_matches_reference(n, rank, families):
    rejected = 0
    for family in families():
        m = Matroid(n, rank, family, _validated=True)
        expected = reference_exchange_failure(m)
        assert exchange_failure(m) == expected, family
        assert properties.exchange_failures(m) == (
            [] if expected is None else [expected])
        rejected += expected is not None
    assert rejected > 0


def test_closure_detects_non_matroid():
    fake = Matroid(4, 2, [0b0011, 0b1100], _validated=True)
    assert properties.closure_axiom_failures(fake) != []


def test_minor_commutation(rank3_matroid):
    assert properties.minor_commutation_failures(fano_matroid()) == []
    assert properties.minor_commutation_failures(rank3_matroid) == []


def test_erection_family_properties(erection_family):
    assert properties.erection_family_failures(erection_family) == []


def test_formalization_quotient_for_all_matrices(
        realization, formal_matrix, informal_matrix, fano_gf2, fano_gf3):
    for a in (realization, formal_matrix, informal_matrix, fano_gf2, fano_gf3):
        assert properties.formalization_quotient_failures(a) == []


def test_quotient_order(rank3_matroid, rank4_matroid):
    chain = [truncation(rank3_matroid), rank3_matroid, rank4_matroid]
    assert properties.quotient_order_failures(chain) == []

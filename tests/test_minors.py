"""Minor search, witness replay, and the field-obstruction verdicts."""

import pytest

from itertools import combinations

from matroid_forge.errors import SearchBudgetExceeded
from matroid_forge.matroid import Matroid
from matroid_forge.minors import (
    MinorWitness,
    fano_matroid,
    find_minor,
    non_fano_matroid,
    realizability_obstruction,
    replay_witness,
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

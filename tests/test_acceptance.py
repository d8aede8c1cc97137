"""Acceptance gate: twelve criteria, one printed verdict line each.

Every criterion corresponds to one named check of the reproduction report;
each test asserts that check passed within its time bound AND re-derives
the headline facts directly through the library, so a silently weakened
check cannot slip through.
"""

from matroid_forge.bitsets import mask_of
from matroid_forge.charpoly import characteristic_polynomial, splits_over_integers
from matroid_forge.erection import check_erection_blocks, spanning_k_closed_sets
from matroid_forge.formats import load_sets
from matroid_forge.linalg import (
    column_matroid,
    formalization,
    is_formal,
    kernel_basis,
    realizes,
    weight3_subspace,
)
from matroid_forge.matroid import (
    are_isomorphic,
    contract,
    delete,
    exchange_failure,
    removal_map,
    simplify,
    truncation,
)
from matroid_forge.minors import (
    fano_matroid,
    find_minor,
    non_fano_matroid,
    realizability_obstruction,
)
from matroid_forge import properties

BOUNDS = {
    "m-wellformed": 1.0,
    "realization": 1.0,
    "erections": 60.0,
    "candidate-census": 10.0,
    "crapo-conditions": 5.0,
    "minor-chain": 30.0,
    "obstruction-verdicts": 30.0,
    "fano-matrices": 1.0,
    "yuzvinsky-pair": 5.0,
    "formality": 5.0,
    "non-freeness": 5.0,
    "property-suites": 60.0,
}


def verdict(capsys, report, index, name, facts_ok):
    res = next(c for c in report.checks if c.name == name)
    bound = BOUNDS[name]
    ok = res.passed and facts_ok and res.elapsed < bound
    with capsys.disabled():
        print(f"\nacceptance {index:02d} {name}: "
              f"{'PASS' if ok else 'FAIL'} ({res.elapsed:.2f}s, bound {bound:.0f}s)")
    assert res.passed, f"check failed: {res.detail}"
    assert facts_ok, "direct re-derivation disagrees"
    assert res.elapsed < bound, f"took {res.elapsed:.2f}s, bound {bound}s"


def test_criterion_01_well_formed(capsys, report, rank3_matroid):
    m = rank3_matroid
    facts = ((m.n, m.rank) == (13, 3)
             and len(m.basis_masks) == 271
             and len(m.flats_at(2, min_size=3)) == 15
             and m.is_simple)
    verdict(capsys, report, 1, "m-wellformed", facts)


def test_criterion_02_realization(capsys, report, realization, rank3_matroid):
    verdict(capsys, report, 2, "realization",
            realizes(realization, rank3_matroid))


def test_criterion_03_erections(capsys, report, erection_family,
                                rank3_matroid, rank4_matroid):
    fam = erection_family
    facts = (len(fam) == 2
             and fam.erections[0] == rank3_matroid
             and fam.erections[1] == rank4_matroid
             and fam.free() == rank4_matroid
             and len(rank4_matroid.basis_masks) == 494
             and truncation(rank4_matroid) == rank3_matroid)
    verdict(capsys, report, 3, "erections", facts)


def test_criterion_04_candidate_census(capsys, report, data_dir,
                                       rank3_matroid, rank4_matroid):
    census = spanning_k_closed_sets(rank3_matroid, 2)
    spurious = load_sets(data_dir / "spurious_blocks.sets")
    expected = set(rank4_matroid.flats_at(3)) | set(spurious)
    facts = (len(census) == 52
             and len(spurious) == 13
             and set(census) == expected)
    verdict(capsys, report, 4, "candidate-census", facts)


def test_criterion_05_crapo_conditions(capsys, report, data_dir,
                                       rank3_matroid, rank4_matroid):
    chk = check_erection_blocks(rank3_matroid, rank4_matroid.flat_lattice()[3])
    census_masks = [mask_of(c)
                    for c in spanning_k_closed_sets(rank3_matroid, 2)]
    spurious3 = [s for s in load_sets(data_dir / "spurious_blocks.sets")
                 if len(s) == 3]
    excluded = True
    for x in spurious3:
        xmask = mask_of(x)
        # some basis inside a candidate containing x must have no other home
        homes = [c for c in census_masks if xmask & ~c == 0]
        pinned = any(
            sum(1 for c in census_masks if b & ~c == 0) == 1
            for z in homes for b in rank3_matroid.basis_masks if b & ~z == 0)
        excluded = excluded and pinned
    facts = bool(chk) and len(spurious3) == 7 and excluded
    verdict(capsys, report, 5, "crapo-conditions", facts)


def test_criterion_06_minor_chain(capsys, report, rank4_matroid):
    w1 = find_minor(rank4_matroid, non_fano_matroid())
    w2 = find_minor(rank4_matroid, fano_matroid())
    contracted = contract(rank4_matroid, (6,))
    simple, pmap = simplify(contracted)
    back = removal_map(13, (6,))
    classes = tuple(tuple(back(e) for e in c) for c in pmap.classes)
    facts = (w1 is not None and w1.contract_set == ()
             and w1.delete_set == (0, 1, 2, 3, 4, 5)
             and w2 is not None and w2.contract_set == (6,)
             and w2.delete_set == (10, 12)
             and simple.n == 8
             and classes == ((0, 5), (1,), (2, 3), (4,),
                             (7,), (8,), (9, 11), (10, 12))
             and len(simple.flats_at(2, min_size=3)) == 7)
    verdict(capsys, report, 6, "minor-chain", facts)


def test_criterion_07_obstruction_verdicts(capsys, report, rank4_matroid):
    facts = (realizability_obstruction(rank4_matroid).verdict == "no-field"
             and realizability_obstruction(fano_matroid()).verdict
             == "char-2-only"
             and realizability_obstruction(non_fano_matroid()).verdict
             == "char-not-2-only")
    verdict(capsys, report, 7, "obstruction-verdicts", facts)


def test_criterion_08_fano_matrices(capsys, report, fano_gf2, fano_gf3):
    facts = (column_matroid(fano_gf2) == fano_matroid()
             and column_matroid(fano_gf3) == non_fano_matroid())
    verdict(capsys, report, 8, "fano-matrices", facts)


def test_criterion_09_yuzvinsky_pair(capsys, report, formal_matrix,
                                     informal_matrix, rank3_matroid):
    nine_points = delete(rank3_matroid, (9, 10, 11, 12))
    cm1 = column_matroid(formal_matrix)
    cm2 = column_matroid(informal_matrix)
    facts = (is_formal(formal_matrix)
             and not is_formal(informal_matrix)
             and formalization(informal_matrix).rank() > 3
             and are_isomorphic(cm1, cm2) is not None
             and are_isomorphic(cm1, nine_points) is not None)
    verdict(capsys, report, 9, "yuzvinsky-pair", facts)


def test_criterion_10_formality(capsys, report, realization):
    facts = (is_formal(realization)
             and kernel_basis(realization).dim == 10
             and weight3_subspace(realization).dim == 10)
    verdict(capsys, report, 10, "formality", facts)


def test_criterion_11_non_freeness(capsys, report, rank3_matroid):
    chi = characteristic_polynomial(rank3_matroid)
    facts = (splits_over_integers(chi) is None
             and chi.coefficient(2) == -13
             and chi.evaluate(1) == 0)
    verdict(capsys, report, 11, "non-freeness", facts)


def test_criterion_12_property_suites(capsys, report, erection_family):
    facts = (properties.erection_family_failures(erection_family) == []
             and exchange_failure(fano_matroid()) is None)
    verdict(capsys, report, 12, "property-suites", facts)

"""Minor containment and the two classical realizability obstructions.

A minor comes from contracting some set and deleting another.  The search
below fixes a normal form: contract an independent set first (contracting
extra dependent elements only manufactures loops that simplification
removes, so independent sets suffice), simplify, then keep a subset of the
surviving points and match it against the target up to isomorphism.  The
returned witness replays deterministically and is verified before it is
handed back.

The seven-point projective plane and its relaxation are built in: one is
realizable only in characteristic two, the other only away from it, so
finding them as minors yields field obstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitsets import elements_of, format_set, mask_of
from .errors import SearchBudgetExceeded
from .matroid import (
    Matroid,
    PointedMap,
    are_isomorphic,
    contract,
    delete,
    matroid_from_flats,
    relabel,
    removal_map,
    simplify,
)

DEFAULT_MINOR_BUDGET = 10 ** 8

# The two seven-point rank-3 obstructions, by their three-point lines.
_FANO_LINES = ((0, 1, 5), (0, 2, 4), (0, 3, 6), (1, 2, 3),
               (1, 4, 6), (2, 5, 6), (3, 4, 5))

_cache: dict[str, Matroid] = {}


def fano_matroid() -> Matroid:
    """Seven points, seven three-point lines; realizable only in char 2."""
    if "fano" not in _cache:
        _cache["fano"] = matroid_from_flats(7, 3, [(2, L) for L in _FANO_LINES])
    return _cache["fano"]


def non_fano_matroid() -> Matroid:
    """The relaxation with six lines; realizable exactly away from char 2."""
    if "nonfano" not in _cache:
        _cache["nonfano"] = matroid_from_flats(
            7, 3, [(2, L) for L in _FANO_LINES[:-1]])
    return _cache["nonfano"]


@dataclass(frozen=True)
class MinorWitness:
    """A replayable recipe turning the host into the target.

    All labels are the host's.  ``contract_set`` goes first; the contraction
    is then simplified, ``parallel_classes`` recording the kept classes in
    minor-point order (images are least representatives).  ``delete_set``
    collects everything else that vanished: loops of the contraction and
    the parallel classes dropped wholesale.  Finally ``iso`` maps minor
    point i to target element iso(i).
    """

    contract_set: tuple[int, ...]
    delete_set: tuple[int, ...]
    parallel_classes: PointedMap
    iso: PointedMap

    def describe(self) -> str:
        parts = [f"contract {format_set(mask_of(self.contract_set))}",
                 f"delete {format_set(mask_of(self.delete_set))}"]
        nontrivial = [c for c in self.parallel_classes.classes or () if len(c) > 1]
        if nontrivial:
            collapsed = " ".join(format_set(mask_of(c)) for c in nontrivial)
            parts.append(f"collapse {collapsed}")
        return ", ".join(parts)


def replay_witness(host: Matroid, target: Matroid, w: MinorWitness) -> bool:
    """Re-run a witness from scratch and compare canonically with the target."""
    cmask = mask_of(w.contract_set)
    contracted = contract(host, cmask) if w.contract_set else host
    back = removal_map(host.n, cmask)
    simple, pmap = simplify(contracted)
    classes_host = tuple(tuple(back(e) for e in cls)
                         for cls in (pmap.classes or ()))
    loops_host = tuple(back(e) for e in elements_of(contracted.loops_mask))
    dset = set(w.delete_set)
    kept = [i for i, cls in enumerate(classes_host)
            if not any(e in dset for e in cls)]
    # the delete set must be exactly the loops plus the dropped classes
    removed = set(loops_host)
    for i, cls in enumerate(classes_host):
        if i not in kept:
            if not all(e in dset for e in cls):
                return False
            removed.update(cls)
    if removed != dset:
        return False
    if tuple(classes_host[i] for i in kept) != (w.parallel_classes.classes or ()):
        return False
    if len(kept) != target.n:
        return False
    if len(kept) == simple.n:
        restricted = simple
    else:
        drop = mask_of(i for i in range(simple.n) if i not in kept)
        restricted = delete(simple, drop)
    mapped = relabel(restricted, w.iso, target.n)
    return mapped == target


def find_minor(host: Matroid, target: Matroid, *,
               budget: int | None = None) -> MinorWitness | None:
    """First minor witness in canonical order, or None (search is exhaustive).

    Contraction sets run over independent sets of size 0 up to the rank
    difference (deletions alone can also lower rank, so size 0 is always
    tried), deduplicated by closure: contracting sets with the same closure
    yields the same simplification.  For each contraction the survivors are
    simplified and every point subset of the right size is compared against
    the target, cheap invariants first.
    """
    if target.rank > host.rank or target.n > host.n:
        return None
    node_budget = DEFAULT_MINOR_BUDGET if budget is None else budget
    nodes = 0
    target_bases = len(target.basis_masks)
    # every r-subset of a kept set is a basis or not, so a kept set holds
    # the target's basis count iff it holds this many non-bases
    target_nonbases = comb(target.n, target.rank) - target_bases
    for csize in range(host.rank - target.rank + 1):
        seen_closures: set[int] = set()
        for combo in combinations(range(host.n), csize):
            cmask = mask_of(combo)
            if cmask not in host.independent_masks:
                continue
            cl = host.closure_mask(cmask)
            if cl in seen_closures:
                continue
            seen_closures.add(cl)
            contracted = contract(host, cmask) if csize else host
            back = removal_map(host.n, cmask)
            simple, pmap = simplify(contracted)
            if simple.n < target.n or simple.rank < target.rank:
                continue
            classes_host = tuple(tuple(back(e) for e in cls)
                                 for cls in (pmap.classes or ()))
            loops_host = tuple(back(e) for e in elements_of(contracted.loops_mask))
            if simple.rank == target.rank:
                indep = simple.independent_masks
                nonbases = [s for s in map(mask_of, combinations(range(simple.n),
                                                                 simple.rank))
                            if s not in indep]
            for keep in combinations(range(simple.n), target.n):
                nodes += 1
                if nodes > node_budget:
                    raise SearchBudgetExceeded(
                        f"minor search exceeded {node_budget} nodes")
                kmask = mask_of(keep)
                if simple.rank_of_mask(kmask) != target.rank:
                    continue
                if simple.rank == target.rank:
                    # restriction keeps full rank, so its non-bases are
                    # exactly the ambient non-bases inside the kept set
                    if sum(1 for nb in nonbases if nb & ~kmask == 0) != target_nonbases:
                        continue
                if len(keep) == simple.n:
                    restricted = simple
                else:
                    restricted = delete(simple, simple.full & ~kmask)
                if len(restricted.basis_masks) != target_bases:
                    continue
                iso = are_isomorphic(restricted, target)
                if iso is None:
                    continue
                kept_classes = tuple(classes_host[i] for i in keep)
                dropped = set(loops_host)
                for i in range(simple.n):
                    if i not in keep:
                        dropped.update(classes_host[i])
                witness = MinorWitness(
                    contract_set=tuple(combo),
                    delete_set=tuple(sorted(dropped)),
                    parallel_classes=PointedMap(
                        tuple(min(c) for c in kept_classes), kept_classes),
                    iso=iso,
                )
                if not replay_witness(host, target, witness):
                    raise AssertionError("minor witness failed to replay")
                return witness
    return None


@dataclass(frozen=True)
class ObstructionReport:
    """Field obstructions from the two built-in seven-point minors.

    The verdict only ever *excludes* fields; "no-obstruction-found" is not
    a realizability claim.
    """

    has_fano: bool
    fano_witness: MinorWitness | None
    has_nonfano: bool
    nonfano_witness: MinorWitness | None
    verdict: str

    def __post_init__(self):
        expected = _verdict(self.has_fano, self.has_nonfano)
        if self.verdict != expected:
            raise AssertionError("verdict inconsistent with the minor flags")


def _verdict(has_fano: bool, has_nonfano: bool) -> str:
    if has_fano and has_nonfano:
        return "no-field"
    if has_fano:
        return "char-2-only"
    if has_nonfano:
        return "char-not-2-only"
    return "no-obstruction-found"


def realizability_obstruction(m: Matroid, *,
                              budget: int | None = None) -> ObstructionReport:
    """Search for both seven-point minors and report the field verdict."""
    fano_w = find_minor(m, fano_matroid(), budget=budget)
    nonfano_w = find_minor(m, non_fano_matroid(), budget=budget)
    return ObstructionReport(
        has_fano=fano_w is not None,
        fano_witness=fano_w,
        has_nonfano=nonfano_w is not None,
        nonfano_witness=nonfano_w,
        verdict=_verdict(fano_w is not None, nonfano_w is not None),
    )

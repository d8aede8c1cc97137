"""Erections: inverting truncation through the copoint characterization.

A rank-(r+1) matroid N on the same ground set is an *erection* of a rank-r
matroid M when truncating N gives back M; M counts as its own (trivial)
erection.  The nontrivial ones are found through their copoints: a family
of blocks is the copoint set of an erection exactly when

  (i)   every block spans M,
  (ii)  every block is (r-1)-closed with respect to M,
  (iii) every basis of M lies in exactly one block.

Condition (iii) is an exact-cover problem over the bases, which is how the
enumeration below works: candidates are all proper spanning (r-1)-closed
subsets, and each exact cover materializes into a matroid one rank up.
The *free* erection is the maximum under the weak order (every independent
set of the smaller is independent in the larger).  Two independent paths
find it.  A listed family picks its member with the most bases, and
:func:`free_erection` merges closed hulls (Crapo 1970, Knuth 1975) with no
enumeration.  They meet only in ``properties.erection_family_failures``,
which also builds the weak order.

Both paths take k-closed hulls, and a hull never looks at k-subsets: a
flat F is the closure of a k-subset of x exactly when F meets x in at
least k elements and in rank r(F) <= k, so the hull fires flats read from
the flat lattice, with no closure query.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .bitsets import (
    coerce_mask,
    elements_of,
    format_set,
    full_mask,
    iter_elements,
    mask_of,
    sort_masks,
)
from .errors import GroundSetTooLarge, RankTooLow, ValidationError, charger
from .matroid import Matroid, Record, matroid_from_flats, nontrivial_levels

# The census output alone can hold 2^n sets, so n stops here.  A host
# whose first basis has the ground set as its hull is answered before the
# census, so the cap binds only where the census runs.
EXHAUSTIVE_LIMIT = 20


class ErectionCheck(Record):
    """Outcome of the three-condition block test; falsy when any fails.

    ``condition`` is the 1-based index of the first violated condition.
    """

    __slots__ = _fields = ("ok", "condition", "witness")

    def __init__(self, ok: bool, condition: int | None, witness: str):
        Record.__init__(self, ok, condition, witness)

    def __bool__(self) -> bool:
        return self.ok


class ErectionFamily(Record):
    """All erections of a matroid: the trivial one first, then the rest."""

    __slots__ = _fields = ("base", "erections")

    def __init__(self, base: Matroid, erections: tuple[Matroid, ...]):
        Record.__init__(self, base, erections)

    def __len__(self) -> int:
        return len(self.erections)

    def nontrivial(self) -> tuple[Matroid, ...]:
        return self.erections[1:]

    def free(self) -> Matroid:
        """The weak-order maximum: the member of highest rank, then most bases.

        Every erection's independent sets lie inside the free erection's,
        and all erections share the base's independent sets of size at
        most r, so any other member of rank r + 1 has strictly fewer bases.
        The trivial member has rank r, so it is picked only when alone.
        """
        return max(self.erections, key=lambda e: (e.rank, len(e.basis_masks)))


def _closure_index(m: Matroid, k: int) -> tuple:
    """The hull's index: rank oracle, k, and per element e the pairs
    (F, r(F)) over the flats F through e with r(F) <= k < |F|.

    A k-subset S of x has cl(S) = F exactly when F meets x in at least k
    elements and in rank r(F) <= k: S lies in F & x and spans F, and
    conversely a basis of F & x, padded inside F & x to k elements, spans
    F.  A flat with at most k elements can only be the closure of a subset
    of x when it lies inside x, so it never grows x and is left out.  The
    index is one pass over the flat lattice, Σ|F| entries.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    index: list[list[tuple[int, int]]] = [[] for _ in range(m.n)]
    for rank, level in enumerate(m.flat_lattice()[:k + 1]):
        for f in level:
            if f.bit_count() > k:
                for e in iter_elements(f):
                    index[e].append((f, rank))
    return m.rank_of_mask, k, index


def _k_closed_hull(index: tuple, x: int, forbid: int = 0) -> int | None:
    """Least k-closed superset of x, or None once it would meet ``forbid``.

    LinClosure (Beeri & Bernstein 1979) over flats: each element of the
    growing set is processed once, against only the indexed flats F that
    contain it, and F fires (x takes all of F) when F & x has k elements
    and rank r(F), that is, when F is the closure of a k-subset of x.
    That test only turns true as x grows, and x grows by elements of F,
    which are processed afterwards, so every flat the hull comes to need
    fires.
    """
    rank_of, k, flats_through = index
    todo = x
    while todo:
        low = todo & -todo
        todo ^= low
        for f, rank in flats_through[low.bit_length() - 1]:
            meet = f & x
            if meet != f and meet.bit_count() >= k and rank_of(meet) == rank:
                gained = f ^ meet
                if gained & forbid:
                    return None
                x |= gained
                todo |= gained
    return x


def is_k_closed(m: Matroid, x, k: int) -> bool:
    """Does x contain the closure of each of its k-element subsets?"""
    xmask = coerce_mask(x, m.n)
    return _k_closed_hull(_closure_index(m, k), xmask) == xmask


def spanning_k_closed_masks(m: Matroid, k: int) -> tuple[int, ...]:
    if m.n > EXHAUSTIVE_LIMIT:
        raise GroundSetTooLarge(
            f"exhaustive scan caps at {EXHAUSTIVE_LIMIT} elements, got {m.n}")
    index = _closure_index(m, k)
    full = full_mask(m.n)
    out = []
    # NextClosure (Ganter 1984): each k-closed set once, in lectic order.
    # A candidate is canonical when its hull adds no element below i.
    x = _k_closed_hull(index, 0)
    while x != full:
        if m.closure_mask(x) == full:
            out.append(x)
        for i in range(m.n - 1, -1, -1):
            bit = 1 << i
            if x & bit:
                continue
            below = x & (bit - 1)
            y = _k_closed_hull(index, below | bit, (bit - 1) ^ below)
            if y is not None:
                x = y
                break
    return sort_masks(out)


def spanning_k_closed_sets(m: Matroid, k: int) -> tuple[tuple[int, ...], ...]:
    """All proper spanning k-closed subsets of the ground set, canonically sorted.

    The k-closed sets are the closed sets of the hull operator, so
    NextClosure lists each of them once, never visiting the other subsets.
    The output itself can have 2^n sets (every subset of U(2, n) is
    1-closed), so n stays capped at 20.  The full ground set, always
    spanning and k-closed, is left out.
    """
    return tuple(elements_of(x) for x in spanning_k_closed_masks(m, k))


def check_erection_blocks(m: Matroid, family) -> ErectionCheck:
    """Test the three copoint conditions, reporting the first violation."""
    _require_rank_two(m)
    blocks = sort_masks({coerce_mask(b, m.n, what="block") for b in family})
    k = m.rank - 1
    for b in blocks:
        if m.rank_of_mask(b) != m.rank:
            return ErectionCheck(False, 1, f"block {format_set(b)} does not span")
    index = _closure_index(m, k)
    for b in blocks:
        if _k_closed_hull(index, b) != b:
            return ErectionCheck(False, 2, f"block {format_set(b)} is not {k}-closed")
    for basis in m.basis_masks:
        hits = sum(1 for b in blocks if basis & ~b == 0)
        if hits != 1:
            return ErectionCheck(
                False, 3, f"basis {format_set(basis)} lies in {hits} blocks")
    return ErectionCheck(True, None,
                         f"{len(blocks)} blocks span, are {k}-closed, "
                         f"and partition the bases")


def _exact_covers(holders: list[int], budget: int | None) -> list[tuple[int, ...]]:
    """All exact covers of the items, given per item the candidates holding it.

    Plain recursive Algorithm X (Knuth, "Dancing Links", 2000): branch on
    the uncovered item with the fewest compatible candidates (first such
    item on ties), candidates in ascending index order, so the solution
    list is deterministic.  Every explored branch costs one node against
    the budget (default :data:`~.errors.DEFAULT_BUDGET`).

    Items held by the same candidates are always covered together, so
    they are merged into one class, listed at its least item: the first
    item with the fewest compatible candidates is a class's least item,
    so branching on classes makes the same choices and counts the same
    nodes.  The compatible candidates are a bitmask, from which each
    chosen candidate strikes those it shares an item with.
    """
    # dicts keep insertion order, so classes come by their least item
    classes = list(dict.fromkeys(holders))
    every = reduce(or_, classes, 0)
    covers = [0] * every.bit_length()
    clash = [0] * every.bit_length()
    for j, held in enumerate(classes):
        for ci in iter_elements(held):
            covers[ci] |= 1 << j
            clash[ci] |= held
    full = full_mask(len(classes))
    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []
    charge = charger(budget, "exact cover search")

    def rec(covered: int, alive: int) -> None:
        charge(1)
        if covered == full:
            solutions.append(tuple(chosen))
            return
        best = fewest = -1
        for j in iter_elements(full & ~covered):
            avail = classes[j] & alive
            count = avail.bit_count()
            if fewest < 0 or count < fewest:
                best, fewest = avail, count
                if not count:
                    break
        for ci in iter_elements(best):
            chosen.append(ci)
            rec(covered | covers[ci], alive & ~clash[ci])
            chosen.pop()

    rec(0, every)
    return solutions


def _materialize(m: Matroid, blocks: tuple[int, ...]) -> Matroid:
    """Build the erection whose copoints are the given blocks.

    The new matroid keeps every nontrivial flat of m at ranks 1..r-1 and
    gains the blocks with more than r elements as rank-r flats; blocks of
    exactly r elements become trivial flats on their own.  Full validation
    runs inside matroid_from_flats, so a bad block family cannot slip
    through as a non-matroid.  It also truncates back to m: the round-trip
    fixes every flat of rank below r, and both are loopless, so by the
    rank formula of matroid_from_flats the erection's independent sets of
    size at most r are m's.
    """
    r = m.rank
    flats = [(k, f) for k, level in enumerate(nontrivial_levels(m), 1) for f in level]
    flats.extend((r, b) for b in blocks if b.bit_count() > r)
    return matroid_from_flats(m.n, r + 1, flats)


def _require_rank_two(m: Matroid) -> None:
    if m.rank < 2:
        raise RankTooLow(f"erections need rank >= 2, got {m.rank}")


def _require_erectable(m: Matroid) -> None:
    _require_rank_two(m)
    if not m.is_simple:
        raise ValidationError("erection enumeration expects a simple matroid")


def enumerate_erections(m: Matroid, *, budget: int | None = None) -> ErectionFamily:
    """Every erection of m, trivial first, the rest by their basis lists.

    Candidates are the proper spanning (r-1)-closed sets; exact cover of
    the bases picks out the families satisfying the copoint conditions,
    and each solution is materialized, which certifies it.  It truncates
    back to m because the flat round-trip there fixes every flat of rank
    below r.  Distinct solutions are distinct copoint sets, so distinct
    matroids.

    A nontrivial erection puts every basis in a proper copoint, which
    holds the basis's (r-1)-closed hull (Crapo 1970).  So when the first
    basis's hull is the ground set, m is its only erection, and it is
    returned before the census, with no cap on n and nothing charged.
    """
    _require_erectable(m)
    if _k_closed_hull(_closure_index(m, m.rank - 1), m.basis_masks[0]) == m.full:
        return ErectionFamily(m, (m,))
    candidates = spanning_k_closed_masks(m, m.rank - 1)
    if not candidates:  # then no basis is held, so nothing but m erects
        return ErectionFamily(m, (m,))
    # a basis is held by the candidates that hold each of its elements
    having = [mask_of(ci for ci, cand in enumerate(candidates) if cand >> e & 1)
              for e in range(m.n)]
    holders = [reduce(and_, map(having.__getitem__, iter_elements(b)))
               for b in m.basis_masks]
    erected = [_materialize(m, tuple(candidates[ci] for ci in sol))
               for sol in _exact_covers(holders, budget)]
    erected.sort(key=lambda e: e.basis_masks)
    return ErectionFamily(m, (m, *erected))


def _free_blocks(m: Matroid) -> tuple[int, ...]:
    """The free erection's copoints, canonically sorted; (E,) if it is m.

    A basis in no kept block starts one at its (r-1)-closed hull, which
    absorbs, as the hull of the union, each kept block it shares a basis
    with.  The blocks meet the three conditions, and every erection's
    copoints are unions of them, so no erection is finer.  A basis whose
    hull is the ground set would absorb every block, so the merge stops
    there with (E,).
    """
    _require_erectable(m)
    r, full = m.rank, m.full
    index = _closure_index(m, r - 1)

    def shares_basis(g: int, h: int) -> bool:
        meet = g & h
        return meet.bit_count() >= r and m.closure_mask(meet) == full

    blocks: list[int] = []
    # per element, bit i for each block started at basis i that holds it;
    # a block merged away lies inside the block that absorbed it
    holding = [0] * m.n
    for i, basis in enumerate(m.basis_masks):
        if reduce(and_, map(holding.__getitem__, iter_elements(basis))):
            continue
        h = _k_closed_hull(index, basis)
        if h == full:
            return (full,)
        while (g := next((g for g in blocks if shares_basis(g, h)), None)) is not None:
            blocks.remove(g)
            h = _k_closed_hull(index, g | h)
        blocks.append(h)
        for e in iter_elements(h):
            holding[e] |= 1 << i
    return sort_masks(blocks)


def free_erection(m: Matroid) -> Matroid:
    """The weak-order maximum among the erections of m, with no census cap."""
    blocks = _free_blocks(m)
    return m if blocks == (m.full,) else _materialize(m, blocks)


def tautness_witness(m: Matroid) -> Matroid | None:
    """The free erection of m unless trivial — evidence that m is not taut.

    An erection has the same points and lines as m and admits m as a
    quotient, so its existence certifies non-tautness.  None means no
    one-step witness exists.  Above rank 3 it is *not* a tautness
    certificate, since higher-rank lifts beyond single erections are not
    searched.  In rank 3 it is one: a lift of m with the same points and
    lines has rank at least 4, and its truncation to rank 4 keeps those
    points and lines and truncates to m, so it is a nontrivial erection.
    """
    free = free_erection(m)
    return None if free.rank == m.rank else free

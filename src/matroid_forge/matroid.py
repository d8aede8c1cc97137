"""Matroids on small ground sets, represented by their bases.

A matroid here is an immutable value: a ground-set size ``n``, a rank, and
the canonically sorted tuple of basis bitmasks.  Everything else — rank
function, closure, flats, minors — is derived on demand and memoized.  One
lazily built table carries most of it: each independent set I maps to
ext(I), the mask of the elements e outside I with I + e independent.  Its
keys are the independent sets, and it is the one rank oracle: the rank of
X is the size of the greedy basis of X, walked through the table, and the
closure is one more lookup at that basis.  The flat lattice is one pass
over the table, and the matroid certificate reads the link of each small
independent set from it.  Rank is the size of a greedy basis at every n,
so it is the rank function on a matroid and agrees with closure on any
family.

The representation is deliberately explicit: desk-scale instances
(n <= 13 in the bundled data, n <= 64 as a hard cap) make enumeration the
simplest correct tool, and every validation step is a complete axiom
check rather than a heuristic.

Construction goes through two doors:

* :func:`Matroid.from_bases` — direct basis list, certified by its links.
* :func:`matroid_from_flats` — ground size, rank, and the *nontrivial*
  flats (those with more elements than their rank); trivial flats are
  implied.  This mirrors how geometric data is usually tabulated: points
  and the lines with three or more points, say.

Derived constructions (minors, truncations, simplifications) skip the
certificate — they are matroids by theorem — but remain covered by
the property test suite.  Minors keep canonical order by construction:
:func:`contract` and :func:`delete` filter the parent's basis tuple, which
is already canonical, and squeeze the removed elements out in an
order-preserving way, so the lowest element where two bases differ stays
the lowest.  The constructor sorts only input that is out of order, so
neither these nor :func:`matroid_from_flats` (which emits the rank-subsets
in ``combinations`` order) pay a sort.  No minor walks C(n, r) subsets or
builds a table of its parent: the rank of E - X and a basis of X are read
from the basis tuple as the largest intersections.
"""

from __future__ import annotations

from collections.abc import KeysView
from itertools import combinations, compress
from math import comb
from operator import and_, neg, sub, xor
from typing import Iterable, Sequence

from .bitsets import (
    MAX_GROUND,
    coerce_mask,
    elements_of,
    format_set,
    full_mask,
    iter_elements,
    mask_mapper,
    mask_of,
    sort_masks,
)
from .errors import (
    EmptyGroundSet,
    FormatError,
    GroundSetMismatch,
    GroundSetTooLarge,
    RankTooLow,
    ValidationError,
    charger,
)

# Matroid.ranks_and_closures builds the greedy basis of every subset by
# doubling up to this ground-set size; above it each subset walks its own.
RANK_TABLE_LIMIT = 16


def _in_canonical_order(masks: Sequence[int]) -> bool:
    """Are these same-size masks distinct and in canonical order?

    Canonical order puts first, at the lowest element where two masks
    differ, the mask holding it.  Checking consecutive pairs suffices, and
    a pair a, b is in order iff the lowest bit of a ^ b lies in a; equal
    neighbours have no such bit.  Every step runs in C.
    """
    d = list(map(xor, masks, masks[1:]))
    return all(map(and_, map(and_, d, map(neg, d)), masks))


def _squeeze(masks: Iterable[int], keep: int) -> list[int]:
    """Re-index masks inside ``keep`` onto 0..|keep|-1, order-preservingly.

    Each gap of k missing positions from p upward moves every bit above it
    down by k: with h = b >> (p + k), b becomes b - h * (2^(p+k) - 2^p).
    The gaps go from the top down, each in three C-level passes.  The map
    is increasing on elements, so the lowest element where two masks
    differ stays the lowest, and canonical order is kept.
    """
    masks = list(masks)
    gaps = ~keep & ((1 << keep.bit_length()) - 1)
    while gaps:
        top = gaps.bit_length()
        p = (~gaps & ((1 << top) - 1)).bit_length()
        drop = (1 << top) - (1 << p)
        masks = list(map(sub, masks, map(drop.__mul__, map(top.__rrshift__, masks))))
        gaps &= (1 << p) - 1
    return masks


class Record:
    """Base of the package's immutable values: slots named in ``_fields``.

    A subclass's ``__init__`` checks its arguments and hands them to
    ``Record.__init__`` in field order.  Equality holds only between
    objects of one class, the hash and ``Name(field=value, ...)`` repr read
    the fields, and any assignment or deletion raises AttributeError.
    Pickling and copying rebuild an object through its class's
    ``__init__``, checks included.  Slots that are not fields, such as a
    memo, stay out of equality, hash and repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class PointedMap(Record):
    """A labelled injection between ground sets.

    ``images[i]`` is the image of element ``i`` of the domain.  When the map
    arises from collapsing parallel classes, ``classes[i]`` records the
    original elements that were merged into domain point ``i`` (and
    ``images[i]`` is the least of them).  Isomorphisms leave ``classes``
    as None.
    """

    __slots__ = _fields = ("images", "classes")

    def __init__(self, images: tuple[int, ...],
                 classes: tuple[tuple[int, ...], ...] | None = None):
        if len(set(images)) != len(images):
            raise ValidationError("PointedMap images must be distinct")
        if any(i < 0 for i in images):
            raise ValidationError("PointedMap images must be non-negative")
        if classes is not None and len(classes) != len(images):
            raise ValidationError("PointedMap classes must match images in length")
        Record.__init__(self, images, classes)

    def __call__(self, element: int) -> int:
        return self.images[element]


class FlatLattice(Record):
    """All flats of a matroid, grouped by rank, masks in canonical order."""

    __slots__ = _fields = ("n", "rank", "by_rank")

    def __init__(self, n: int, rank: int, by_rank: tuple[tuple[int, ...], ...]):
        Record.__init__(self, n, rank, by_rank)

    def at(self, k: int) -> tuple[int, ...]:
        return self.by_rank[k]

    def nontrivial_at(self, k: int) -> tuple[int, ...]:
        """Flats of rank k with more than k elements."""
        return tuple(f for f in self.by_rank[k] if f.bit_count() > k)

    def all_flats(self) -> frozenset[int]:
        return frozenset(f for level in self.by_rank for f in level)


class Matroid:
    """An immutable matroid given by its bases.

    Ranks and closures are asked for by bitmask (the ``*_mask`` methods);
    bases and flats are also listed as element tuples.  Instances compare
    equal exactly when ground size, rank and canonical basis list coincide.

    The constructor keeps a basis list that is already distinct and in
    canonical order, which it checks in C; any other list, repeats
    included, is deduplicated and sorted.  Range, size and order checks
    all run in C.
    """

    __slots__ = ("n", "rank", "basis_masks", "_ext", "_lattice")

    def __init__(self, n: int, rank: int, basis_masks: Sequence[int], *,
                 _validated: bool = False):
        if n < 1:
            raise EmptyGroundSet("matroid needs at least one element")
        if n > MAX_GROUND:
            raise GroundSetTooLarge(f"ground set of size {n} exceeds the cap of {MAX_GROUND}")
        masks = tuple(basis_masks)
        if not masks:
            raise ValidationError("matroid needs at least one basis")
        if min(masks) < 0 or max(masks) >= 1 << n:
            raise FormatError("basis element out of range")
        if set(map(int.bit_count, masks)) != {rank}:
            raise ValidationError("all bases must have cardinality equal to the rank")
        if not _in_canonical_order(masks):
            masks = sort_masks(set(masks))
        self.n = n
        self.rank = rank
        self.basis_masks = masks
        self._ext = None
        self._lattice = None
        if not _validated:
            failure = exchange_failure(self)
            if failure is not None:
                raise ValidationError(failure)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_bases(n: int, bases: Iterable[Iterable[int] | int]) -> "Matroid":
        """Build and fully validate a matroid from an explicit basis list."""
        masks = [coerce_mask(b, n, what="basis") for b in bases]
        if not masks:
            raise ValidationError("matroid needs at least one basis")
        return Matroid(n, masks[0].bit_count(), masks)

    @property
    def full(self) -> int:
        return full_mask(self.n)

    # -- independence and rank ------------------------------------------

    def _extensions(self) -> dict[int, int]:
        """The single-element-extension table I -> ext(I) on every independent I.

        ext(I) is the mask of the elements e outside I with I + e
        independent.  The table is built top-down from the bases: for each
        independent J and each e in J, e joins ext(J - e), so level k - 1
        comes from level k at Σ|J| bit operations over the down-closure.
        Its keys come level by level, the bases first and the empty set last.
        """
        if self._ext is None:
            ext = dict.fromkeys(self.basis_masks, 0)
            level = self.basis_masks
            for _ in range(self.rank):
                below: dict[int, int] = {}
                get = below.get
                for j in level:
                    rest = j
                    while rest:
                        low = rest & -rest
                        i = j ^ low
                        below[i] = get(i, 0) | low
                        rest ^= low
                ext.update(below)
                level = below
            self._ext = ext
        return self._ext

    @property
    def independent_masks(self) -> KeysView[int]:
        """Every independent set, as masks: the keys of the extension table."""
        return self._extensions().keys()

    def _maximal_independent_mask(self, x: int) -> int:
        """A basis of x, grown greedily in element order (exact for matroids).

        Each step adds the least element of x that extends the basis so far.
        In any down-closed family ext only shrinks as the basis grows, so an
        element passed over once is never a candidate again.  This walk is
        the one rank and closure oracle: at most rank + 1 lookups per query.
        """
        ext = self._extensions()
        basis = 0
        grow = x & ext[0]
        while grow:
            basis |= grow & -grow
            grow = x & ext[basis]
        return basis

    def rank_of_mask(self, x: int) -> int:
        """The size of the greedy basis of x (the rank, on a matroid)."""
        return self._maximal_independent_mask(x).bit_count()

    # -- closure and flats ----------------------------------------------

    def closure_mask(self, x: int) -> int:
        """x plus every e whose addition to a basis of x is dependent.

        One lookup at the greedy basis of x: outside it, the elements that
        keep it independent are exactly those outside the closure.  On any
        down-closed family none of them lies in x, so this is also the
        per-element definition on families that are not matroids.  The walk
        has built the extension table, which is read directly: the erection
        census asks for one closure per candidate.
        """
        basis = self._maximal_independent_mask(x)
        return ((1 << self.n) - 1) ^ self._ext[basis]

    def ranks_and_closures(self) -> tuple[list[int], list[int]]:
        """The rank and the closure of every subset, in subset order.

        The same two lookups at a greedy basis G as :meth:`rank_of_mask`
        and :meth:`closure_mask`, |G| and E ^ ext(G), made in C over the
        greedy bases of all subsets.  Up to RANK_TABLE_LIMIT elements those
        come from one doubling pass instead of 2^n walks: the walk goes
        element by element in increasing order, so the greedy basis of
        X + h, for h above every element of X, is G[X] + h when h is in
        ext(G[X]) and G[X] otherwise, and the entries of the subsets with
        top element h, 2^h..2^(h+1) - 1 in order, are one pass over the
        first 2^h: 2^n steps in all.  This is the axiom batteries' one read.
        """
        ext = self._extensions()
        if self.n <= RANK_TABLE_LIMIT:
            greedy = [0]
            for h in range(self.n):
                bit = 1 << h
                greedy += [g | bit if ext[g] & bit else g for g in greedy]
        else:
            greedy = list(map(self._maximal_independent_mask, range(1 << self.n)))
        return (list(map(int.bit_count, greedy)),
                list(map(self.full.__xor__, map(ext.__getitem__, greedy))))

    def flat_lattice(self) -> FlatLattice:
        """Every flat, as the closure of an independent set of its rank.

        An independent set is its own greedy basis, so its closure is read
        straight from the extension table in one pass.
        """
        if self._lattice is None:
            full = self.full
            by_rank: list[set[int]] = [set() for _ in range(self.rank + 1)]
            for i, grow in self._extensions().items():
                by_rank[i.bit_count()].add(full & ~grow)
            self._lattice = FlatLattice(self.n, self.rank,
                                        tuple(map(sort_masks, by_rank)))
        return self._lattice

    def flats_at_masks(self, k: int) -> tuple[int, ...]:
        if not 0 <= k <= self.rank:
            raise ValueError(f"flat rank {k} outside 0..{self.rank}")
        return self.flat_lattice().at(k)

    def flats_at(self, k: int, *, min_size: int = 0) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(f) for f in self.flats_at_masks(k)
                     if f.bit_count() >= min_size)

    @property
    def loops_mask(self) -> int:
        return self.closure_mask(0)

    @property
    def is_simple(self) -> bool:
        if self.loops_mask:
            return False
        return all(f.bit_count() == 1 for f in self.flats_at_masks(1)) if self.rank >= 1 else True

    # -- bases ------------------------------------------------------------

    def bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(b) for b in self.basis_masks)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matroid)
                and self.n == other.n
                and self.rank == other.rank
                and self.basis_masks == other.basis_masks)

    def __hash__(self) -> int:
        return hash((self.n, self.rank, self.basis_masks))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.basis_masks)})"


# ---------------------------------------------------------------------------
# validation helpers


def exchange_failure(m: Matroid) -> str | None:
    """A complete matroid certificate on the extension table, by links.

    Returns None when the equal-cardinality basis family is a matroid's,
    else a message naming the first failing (B, B', f) of basis exchange.

    The link of an independent S is the graph on ext(S) with y ~ z iff
    S + y + z is independent.  The family is a matroid iff every link with
    |S| <= r - 2 is complete multipartite, that is, non-adjacency is an
    equivalence: the closed non-neighbourhoods ext(S) - ext(S + y), each
    containing its y, are pairwise disjoint or equal, so the distinct ones
    have |ext(S)| elements in all.  Proof: on a matroid the link of S is
    the rank-<=2 part of M/S, where non-adjacency means parallel.
    Conversely, take a pair (I, J) violating augmentation with |I - J|
    minimal and x in I - J.  Minimality gives y in J - I with I - x + y
    independent, and again z in J - I with I - x + y + z independent.  So
    the link of S = I - x (|S| <= r - 2) has the edge yz while x is
    adjacent to neither y nor z.  The test costs one lookup per element of
    ext(S), summed over the independent S with |S| <= r - 2, however many
    bases there are.

    Only a rejected family is split basis by basis, to name the first
    (B, B', f) a pairwise walk would.  For B and outside f let T_f = {e in
    B : f in ext(B - e)}; B has a failing partner iff f is in ext(T_f).
    The r masks ext(B - e) split the outside elements into parts of equal
    T_f; a B whose part meets ext(T_f) expands its swap sets and scans
    its partners in basis order.
    """
    ext = m._extensions()
    # the table lists the independent sets level by level from the bases
    # down, so read backwards it starts at the empty set
    for s, grow in reversed(ext.items()):
        if s.bit_count() > m.rank - 2:
            return None
        far = {grow & ~ext[s | 1 << y] for y in iter_elements(grow)}
        if sum(map(int.bit_count, far)) != grow.bit_count():
            break
    full = m.full
    for b1 in m.basis_masks:
        parts = [(0, full & ~b1)]
        rest = b1
        while rest:
            ebit = rest & -rest
            onto = ext[b1 ^ ebit]
            split = []
            for t, fs in parts:
                on = fs & onto
                if on:
                    split.append((t | ebit, on))
                if on != fs:
                    split.append((t, fs ^ on))
            parts = split
            rest ^= ebit
        for t, fs in parts:
            if fs & ext[t]:
                break
        else:
            continue
        swaps = {1 << f: t for t, fs in parts for f in iter_elements(fs)}
        for b2 in m.basis_masks:
            need = b2 & ~b1
            while need:
                fbit = need & -need
                if not swaps[fbit] & ~b2:
                    return (f"basis exchange fails for B={format_set(b1)}, "
                            f"B'={format_set(b2)}, f={fbit.bit_length() - 1}")
                need ^= fbit
    raise AssertionError("a link is not complete multipartite, "
                         "yet every basis passes exchange")


def matroid_from_flats(n: int, rank: int,
                       nontrivial_flats: Iterable[tuple[int, Iterable[int] | int]],
                       ) -> Matroid:
    """Build a loopless matroid from its nontrivial flats.

    ``nontrivial_flats`` lists pairs (k, flat) with 1 <= k < rank and
    |flat| > k; every independent k-set inside no listed flat of lower rank
    is implicitly its own (trivial) flat.  The rank function realized is

        rk(X) = min(|X|, rank, min{k : X is inside a listed rank-k flat}).

    The bases are the rank-subsets inside no listed flat.  Before that
    walk, C(n, rank) plus C(|F|, rank) per listed flat F is charged to one
    node budget (:data:`~matroid_forge.errors.DEFAULT_BUDGET`), so a
    listing too large to walk raises :class:`SearchBudgetExceeded` at once.

    Two checks make validation complete: the constructor's link
    certificate (the family is a matroid M), and the round-trip (the
    nontrivial flats of M at ranks 0..rank-1 are exactly the listed ones;
    none is listed at rank 0, so M is loopless).  Together they make the
    formula above M's rank function, so the listed flats are consistent.
    Take X with j = rk_M(X).  If X is independent, any listed rank-k flat
    holding X has k >= j = |X|.  Otherwise cl(X) has more than j elements:
    j = 0 is ruled out (no loops), j = rank leaves X inside no listed flat
    of lower rank, and any other j makes cl(X) a listed rank-j flat while
    every listed flat holding X has rank at least j.  In each case the
    formula gives j.  Hence each listed rank-k flat has rank k, and two
    distinct ones meet in a flat of rank below k.
    """
    if n < 1:
        raise EmptyGroundSet("matroid needs at least one element")
    if n > MAX_GROUND:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds the cap of {MAX_GROUND}")
    if not 1 <= rank <= n:
        raise ValidationError(f"rank {rank} outside 1..{n}")

    listed: dict[int, set[int]] = {}
    for k, flat in nontrivial_flats:
        if isinstance(flat, int):
            fmask = flat
            if fmask < 0 or fmask >= (1 << n):
                raise FormatError("flat element out of range")
        else:
            elems = tuple(flat)
            if any(not isinstance(e, int) or e < 0 or e >= n for e in elems):
                raise FormatError("flat element out of range")
            if len(set(elems)) != len(elems):
                raise FormatError("flat lists an element twice")
            fmask = mask_of(elems)
        if not 1 <= k < rank:
            raise ValidationError(f"listed flat rank {k} outside 1..{rank - 1}")
        if fmask.bit_count() <= k:
            raise ValidationError(
                f"rank-{k} flat {format_set(fmask)} is trivial and must not be listed")
        listed.setdefault(k, set()).add(fmask)

    charger(None, "basis listing")(
        comb(n, rank) + sum(comb(f.bit_count(), rank)
                            for flats_k in listed.values() for f in flats_k))

    # Candidate bases: the rank-subsets inside no listed flat (every listed
    # flat has lower rank).  The non-bases are thus the rank-subsets of the
    # listed flats with at least rank elements.  A sum of distinct bits is
    # their mask.
    nonbases = set()
    for flats_k in listed.values():
        for f in flats_k:
            if f.bit_count() >= rank:
                bits = [1 << e for e in iter_elements(f)]
                nonbases.update(map(sum, combinations(bits, rank)))
    bits = [1 << e for e in range(n)]
    bases = [b for b in map(sum, combinations(bits, rank)) if b not in nonbases]
    if not bases:
        raise ValidationError("flat list admits no basis")

    m = Matroid(n, rank, bases)

    # Round-trip: derived nontrivial flats must equal the listed ones, at
    # rank 0 too, where none is listed.
    for k in range(rank):
        derived = m.flat_lattice().nontrivial_at(k)
        if set(derived) != set(listed.get(k, ())):
            missing = set(listed.get(k, ())) - set(derived)
            extra = set(derived) - set(listed.get(k, ()))
            detail = []
            if missing:
                detail.append("not realized: "
                              + " ".join(format_set(f) for f in sort_masks(missing)))
            if extra:
                detail.append("unlisted: "
                              + " ".join(format_set(f) for f in sort_masks(extra)))
            raise ValidationError(
                f"rank-{k} flats do not round-trip ({'; '.join(detail)})")

    return m


# ---------------------------------------------------------------------------
# the operation surface


def removal_map(n: int, removed: Iterable[int] | int) -> PointedMap:
    """The order-preserving relabelling left by removing elements.

    Deletion and contraction re-index the surviving elements to 0..m-1 in
    increasing original order; this map sends each new index to its
    original label.
    """
    rmask = coerce_mask(removed, n, what="removed set")
    kept = [e for e in range(n) if not (rmask >> e) & 1]
    return PointedMap(tuple(kept))


def delete(m: Matroid, x: Iterable[int] | int) -> Matroid:
    """Restrict to E minus x; survivors are re-indexed order-preservingly.

    Every basis of M|(E - x) extends to a basis B of M, and B & (E - x) is
    then that basis; so the rank r' of the restriction is the largest
    |B & (E - x)|, and its bases are the B & (E - x) of size r'.  Both are
    read from the cut basis list in C, with no table of M.  When r' = r
    these are the bases avoiding x, a subsequence of the canonical tuple,
    distinct and in order, and squeezing keeps them so; when the rank
    drops the constructor dedupes and sorts them.  Use
    :func:`removal_map` to recover original labels.
    """
    xmask = coerce_mask(x, m.n)
    if xmask == m.full:
        raise EmptyGroundSet("cannot delete the whole ground set")
    keep = m.full & ~xmask
    cut = list(map(keep.__and__, m.basis_masks))
    new_rank = max(map(int.bit_count, cut))
    inside = compress(cut, map(new_rank.__eq__, map(int.bit_count, cut)))
    return Matroid(keep.bit_count(), new_rank, _squeeze(inside, keep),
                   _validated=True)


def contract(m: Matroid, x: Iterable[int] | int) -> Matroid:
    """Contract x; survivors re-indexed as in :func:`delete`.

    With I a basis of X, the bases of M/X are the B - I for the bases B of
    M with B ∩ X = I (Oxley, *Matroid Theory*, §3.1): Y in E - X is a
    basis of M/X iff Y ∪ I is a basis of M, and that basis meets X in I.
    M/X does not depend on the basis of X, so I is a largest B ∩ X, found
    in C with no table of M.  So the canonical basis tuple is filtered, I
    is dropped and X squeezed out.  Neither step changes the lowest
    element where two kept bases differ, so the result is in canonical
    order.  Loops and parallel elements may appear.
    """
    xmask = coerce_mask(x, m.n)
    if xmask == m.full:
        raise EmptyGroundSet("cannot contract the whole ground set")
    bases = m.basis_masks
    imask = max(map(xmask.__and__, bases), key=int.bit_count)
    kept = compress(bases, map(imask.__eq__, map(xmask.__and__, bases)))
    return Matroid(m.n - xmask.bit_count(), m.rank - imask.bit_count(),
                   _squeeze(map(imask.__xor__, kept), m.full & ~xmask),
                   _validated=True)


def simplify(m: Matroid) -> tuple[Matroid, PointedMap]:
    """Drop loops, collapse parallel classes onto least representatives.

    The simple matroid is M restricted to the least element of each
    parallel class: the representatives span M, so this is a rank-keeping
    :func:`delete`.  It is returned together with a PointedMap whose
    classes record, for each new point, the original elements it absorbs.
    A matroid that is already simple is returned itself, with the identity
    map and singleton classes, so it keeps its memoized flats and
    independent sets.
    """
    loops = m.loops_mask
    nonloops = m.full & ~loops
    if nonloops == 0:
        raise EmptyGroundSet("every element is a loop")
    # each class is met first at its least element, so the classes come in
    # the order of their representatives
    class_masks = []
    seen = 0
    for e in iter_elements(nonloops):
        if (seen >> e) & 1:
            continue
        cls = m.closure_mask(1 << e) & nonloops
        class_masks.append(cls)
        seen |= cls
    if len(class_masks) == m.n:
        return m, PointedMap(tuple(range(m.n)), tuple((e,) for e in range(m.n)))
    reps = sum(c & -c for c in class_masks)
    pmap = PointedMap(elements_of(reps),
                      tuple(elements_of(c) for c in class_masks))
    return delete(m, m.full & ~reps), pmap


def truncation(m: Matroid) -> Matroid:
    """Lower the rank by one: bases become the independent (r-1)-sets."""
    if m.rank <= 1:
        raise RankTooLow(f"cannot truncate a matroid of rank {m.rank}")
    new_bases = [i for i in m.independent_masks if i.bit_count() == m.rank - 1]
    return Matroid(m.n, m.rank - 1, new_bases, _validated=True)


def is_weak_map_image(m: Matroid, other: Matroid) -> bool:
    """True iff every independent set of ``m`` is independent in ``other``.

    One containment of the two tables' key views, run in C: a family with
    more independent sets is rejected by its size alone, and the walk
    meets the bases of ``m`` first, which decide it.
    """
    if m.n != other.n:
        raise GroundSetMismatch(
            f"ground sets differ: {m.n} vs {other.n}")
    return m.independent_masks <= other.independent_masks


def is_quotient(m: Matroid, other: Matroid) -> bool:
    """Weak map image whose flats all remain flats of ``other``."""
    if not is_weak_map_image(m, other):
        return False
    return m.flat_lattice().all_flats() <= other.flat_lattice().all_flats()


# ---------------------------------------------------------------------------
# isomorphism


def nontrivial_levels(m: Matroid) -> list[tuple[int, ...]]:
    """The nontrivial flats of ranks 1..r-1, one tuple per rank."""
    lattice = m.flat_lattice()
    return [lattice.nontrivial_at(k) for k in range(1, m.rank)]


def flat_profile(elements: Iterable[int],
                 levels: Sequence[Sequence[int]]) -> tuple[tuple, list[tuple]]:
    """Isomorphism invariants read from nontrivial flats given by rank.

    ``levels`` lists the flat masks of ranks 1..r-1 (as
    :func:`nontrivial_levels` does).  Returns each rank's sorted flat sizes
    and, for each of ``elements`` in order, its signature: per rank, the
    sorted sizes of the flats containing it.
    """
    sizes = tuple(tuple(sorted(f.bit_count() for f in level)) for level in levels)
    sigs = [tuple(tuple(sorted(f.bit_count() for f in level if f >> e & 1))
                  for level in levels)
            for e in elements]
    return sizes, sigs


def are_isomorphic(m1: Matroid, m2: Matroid) -> PointedMap | None:
    """Search for a bijection carrying bases exactly onto bases.

    Invariant pruning first (rank, basis count, per-rank flat size
    multisets, per-element flat membership signatures), then plain
    backtracking in ascending element order; for identical inputs this
    finds the identity.  Returns the PointedMap from ``m1``'s elements to
    ``m2``'s, or None.
    """
    if m1.n != m2.n or m1.rank != m2.rank:
        return None
    if len(m1.basis_masks) != len(m2.basis_masks):
        return None
    sizes1, sig1 = flat_profile(range(m1.n), nontrivial_levels(m1))
    sizes2, sig2 = flat_profile(range(m2.n), nontrivial_levels(m2))
    if sizes1 != sizes2:
        return None
    candidates = [[t for t in range(m2.n) if sig2[t] == sig1[d]]
                  for d in range(m1.n)]
    if any(not c for c in candidates):
        return None

    n, r = m1.n, m1.rank
    ind1, ind2 = m1.independent_masks, m2.independent_masks
    image = [-1] * n
    used = [False] * n

    def consistent(d: int, t: int) -> bool:
        # check every <= r sized subset whose largest domain element is d
        prior = list(range(d))
        for size in range(min(r, d + 1)):
            for combo in combinations(prior, size):
                dm = mask_of(combo) | (1 << d)
                im = mask_of(image[e] for e in combo) | (1 << t)
                if (dm in ind1) != (im in ind2):
                    return False
        return True

    def backtrack(d: int) -> bool:
        if d == n:
            return True
        for t in candidates[d]:
            if used[t]:
                continue
            if consistent(d, t):
                image[d] = t
                used[t] = True
                if backtrack(d + 1):
                    return True
                used[t] = False
                image[d] = -1
        return False

    if backtrack(0):
        return PointedMap(tuple(image))
    return None


def relabel(m: Matroid, pmap: PointedMap) -> Matroid:
    """Apply a PointedMap to every element: element e becomes pmap(e)."""
    image = mask_mapper([1 << pmap(e) for e in range(m.n)])
    new_bases = [image(b) for b in m.basis_masks]
    return Matroid(m.n, m.rank, new_bases, _validated=True)

"""Brute-force references: one per idea that the library computes faster.

Each reference evaluates a definition directly and stays off the library
code path it is compared with.  Sections follow the library's layers.
Tables over a whole ground set, and the contraction classes of a host,
are cached per catalogue host name for the session (see ``hosts.py``) and
returned read-only, since every caller shares them.
"""

from functools import cache
from itertools import combinations, permutations
from math import comb
from types import MappingProxyType

from matroid_forge import minors
from matroid_forge.bitsets import (
    elements_of,
    format_set,
    full_mask,
    iter_elements,
    mask_mapper,
    mask_of,
    sort_masks,
)
from matroid_forge.linalg import ExactMatrix, RelationSpace
from matroid_forge.matroid import (
    Matroid,
    PointedMap,
    contract,
    delete,
    nontrivial_levels,
    removal_map,
    simplify,
)
from matroid_forge.minors import MinorWitness, restriction_invariants

from hosts import host


# -- bitsets: the canonical subset order ----------------------------------------

def reference_canonical_key(mask):
    return (mask.bit_count(), elements_of(mask))


# -- matroid: independence, rank and closure -------------------------------------

def independent_by_definition(m):
    """Every set lying in a basis."""
    return {mask_of(c) for b in m.bases() for k in range(m.rank + 1)
            for c in combinations(b, k)}


def rank_and_closure_by_bases(m, x):
    """rank(x) = max |x ∩ B| over bases; e ∉ x is in cl(x) iff rank(x + e) = rank(x).

    rank(x + e) exceeds rank(x) exactly when e lies in a basis meeting x
    in rank(x) elements, which evaluates the definition for every e at once.
    """
    r = max((x & b).bit_count() for b in m.basis_masks)
    grows = 0
    for b in m.basis_masks:
        if (x & b).bit_count() == r:
            grows |= b
    return r, m.full & ~(grows & ~x)


@cache
def subsets_by_bases(name):
    """rank_and_closure_by_bases of every subset of the catalogue host."""
    m = host(name)
    return tuple(rank_and_closure_by_bases(m, x) for x in range(m.full + 1))


@cache
def reference_rank_table(name):
    """The subset DP over the independent family: entry X is the size of the
    largest independent subset of X, so |X| when X is independent and else
    the largest entry of X minus one element."""
    m = host(name)
    size = 1 << m.n
    table = bytearray(size)
    indep = independent_by_definition(m)
    for x in range(1, size):
        best = x.bit_count() if x in indep else 0
        rest = x
        while rest:
            low = rest & -rest
            best = max(best, table[x ^ low])
            rest ^= low
        table[x] = best
    return bytes(table)


def greedy_basis(indep, x):
    """The greedy basis of x in the down-closed family ``indep``: each
    element of x, in increasing order, joins when it extends the basis so far."""
    basis = 0
    for e in iter_elements(x):
        if basis | 1 << e in indep:
            basis |= 1 << e
    return basis


def reference_closure_mask(indep, n, x):
    """The per-element closure loop on any down-closed family ``indep``:
    x plus every e outside x whose addition to the greedy basis of x is
    dependent."""
    basis = greedy_basis(indep, x)
    return x | mask_of(e for e in range(n)
                       if not x >> e & 1 and basis | 1 << e not in indep)


# -- matroid: certification and construction from flats ---------------------------

def reference_exchange_failure(m):
    """The plain pairwise basis-exchange loop."""
    basis_set = set(m.basis_masks)
    for b1 in m.basis_masks:
        for b2 in m.basis_masks:
            for f in iter_elements(b2 & ~b1):
                if not any((b1 ^ (1 << e)) | (1 << f) in basis_set
                           for e in iter_elements(b1 & ~b2)):
                    return (f"basis exchange fails for B={format_set(b1)}, "
                            f"B'={format_set(b2)}, f={f}")
    return None


def failing_links(m):
    """Every independent S, |S| <= r - 2, whose link is not complete multipartite.

    The link of S joins y and z outside S when S + y + z is independent; it
    is complete multipartite iff non-adjacency is transitive.
    """
    indep = independent_by_definition(m)
    failing = []
    for s in sort_masks(indep):
        if s.bit_count() > m.rank - 2:
            continue
        link = [y for y in range(m.n) if not s >> y & 1 and s | 1 << y in indep]

        def apart(y, z):
            return s | 1 << y | 1 << z not in indep

        if any(apart(x, y) and apart(x, z) and not apart(y, z)
               for x, y, z in permutations(link, 3)):
            failing.append(s)
    return failing


def reference_formula_rank(rank, listed, x):
    """min(|x|, rank, least k with x inside a listed rank-k flat)."""
    return min([x.bit_count(), rank]
               + [k for k, flats in listed.items() if any(x & ~f == 0 for f in flats)])


def reference_consistency_failure(rank, listing):
    """The listed-flat consistency pass, which matroid_from_flats leaves out.

    Under the formula rank, each listed rank-k flat must have rank k, and
    two distinct listed rank-k flats must meet in a set of rank below k.
    Returns a description of the first failure, or None.
    """
    listed = {}
    for k, flat in listing:
        listed.setdefault(k, set()).add(mask_of(flat))
    for k in sorted(listed):
        flats_k = sort_masks(listed[k])
        for f in flats_k:
            if reference_formula_rank(rank, listed, f) != k:
                return f"listed rank-{k} flat {sorted(iter_elements(f))} has another rank"
        for f, g in combinations(flats_k, 2):
            if reference_formula_rank(rank, listed, f & g) >= k:
                return f"rank-{k} flats share the rank-{k} set {sorted(iter_elements(f & g))}"
    return None


# -- matroid: minors and simplification -------------------------------------------

def restriction_by_definition(indep, keep):
    """(rank, bases) of M|keep: its inclusion-maximal independent subsets.

    ``indep`` is M's independent family; the bases are relabelled to the
    kept elements' positions in increasing order, as delete does.
    """
    kept = [e for e in range(keep.bit_length()) if keep >> e & 1]
    maximal = [i for i in indep if i & ~keep == 0
               and not any(i | 1 << e in indep for e in kept if not i >> e & 1)]
    ranks = {i.bit_count() for i in maximal}
    assert len(ranks) == 1
    pos = {e: j for j, e in enumerate(kept)}
    bases = {mask_of(pos[e] for e in kept if i >> e & 1) for i in maximal}
    return ranks.pop(), bases


def greedy_basis_minor(m, x, contracting):
    """contract or delete through the greedy basis of X (or of E - X): the
    reference for the versions that read both from the basis list."""
    keep = m.full & ~x
    if contracting:
        i = m._maximal_independent_mask(x)
        rank, bases = m.rank - i.bit_count(), [b ^ i for b in m.basis_masks if b & x == i]
    else:
        rank = m._maximal_independent_mask(keep).bit_count()
        bases = [b & keep for b in m.basis_masks if (b & keep).bit_count() == rank]
    kept = elements_of(keep)
    return Matroid(len(kept), rank,
                   [mask_of(j for j, e in enumerate(kept) if b >> e & 1) for b in bases],
                   _validated=True)


def parent_simplify(m):
    """Collapse each parallel class onto its least element, basis by basis:
    the construction simplify used before it became a deletion."""
    nonloops = m.full & ~m.loops_mask
    class_masks = []
    seen = 0
    for e in iter_elements(nonloops):
        if not seen >> e & 1:
            class_masks.append(m.closure_mask(1 << e) & nonloops)
            seen |= class_masks[-1]
    class_masks.sort(key=lambda c: c & -c)
    point_of = [0] * m.n
    for i, cls in enumerate(class_masks):
        for e in iter_elements(cls):
            point_of[e] = 1 << i
    collapse = mask_mapper(point_of)
    simple = Matroid(len(class_masks), m.rank,
                     {collapse(b) for b in m.basis_masks}, _validated=True)
    pmap = PointedMap(tuple(min(iter_elements(c)) for c in class_masks),
                      tuple(elements_of(c) for c in class_masks))
    return simple, pmap


def relabel_element_by_element(masks, image_of):
    return sort_masks({mask_of(image_of[e] for e in iter_elements(b)) for b in masks})


def reference_contraction(m, contract_set):
    """(si(M/C), its parallel classes, the loops of M/C): contracted and
    simplified for real, classes and loops in the host's labels."""
    cmask = mask_of(contract_set)
    contracted = contract(m, cmask) if cmask else m
    back = removal_map(m.n, cmask)
    simple, pmap = simplify(contracted)
    return (simple,
            tuple(tuple(back(e) for e in cls) for cls in (pmap.classes or ())),
            tuple(back(e) for e in elements_of(contracted.loops_mask)))


@cache
def contraction_classes(name, rank):
    """{C: reference_contraction(M, C)} for the first independent set C of
    each closure, by size and then in combinations order, for a target of
    the given rank: the walk that reading the rank-s flats replaced."""
    m = host(name)
    out = {}
    for csize in range(m.rank - rank + 1):
        closures = set()
        for combo in combinations(range(m.n), csize):
            cmask = mask_of(combo)
            if cmask in m.independent_masks and m.closure_mask(cmask) not in closures:
                closures.add(m.closure_mask(cmask))
                out[combo] = reference_contraction(m, combo)
    return MappingProxyType(out)


def reference_find_minor(name, target):
    """(witness, nodes): the search over every kept set by combinations.

    Each kept set costs one node, whether it is screened out or not, so
    ``nodes`` is the least budget that does not raise.  Isomorphism is
    asked through ``minors.are_isomorphic``, so a test can record it.
    """
    m = host(name)
    nodes = 0
    if target.rank > m.rank or target.n > m.n:
        return None, nodes
    target_nonbases = comb(target.n, target.rank) - len(target.basis_masks)
    target_invariants = restriction_invariants(
        nontrivial_levels(target), target.full, target.rank)
    for combo, (simple, classes_host, loops_host) in \
            contraction_classes(name, target.rank).items():
        if simple.n < target.n or simple.rank < target.rank:
            continue
        levels = nontrivial_levels(simple)
        indep = simple.independent_masks
        dependent = [s for s in map(mask_of, combinations(range(simple.n), target.rank))
                     if s not in indep]
        for keep in combinations(range(simple.n), target.n):
            nodes += 1
            kmask = mask_of(keep)
            if sum(1 for nb in dependent if nb & ~kmask == 0) != target_nonbases:
                continue
            if restriction_invariants(levels, kmask, target.rank) != target_invariants:
                continue
            if len(keep) == simple.n:
                restricted = simple
            else:
                restricted = delete(simple, simple.full & ~kmask)
            iso = minors.are_isomorphic(restricted, target)
            if iso is None:
                continue
            kept_classes = tuple(classes_host[i] for i in keep)
            dropped = set(loops_host)
            for i in range(simple.n):
                if i not in keep:
                    dropped.update(classes_host[i])
            return MinorWitness(
                contract_set=combo,
                delete_set=tuple(sorted(dropped)),
                parallel_classes=PointedMap(
                    tuple(min(c) for c in kept_classes), kept_classes),
                iso=iso,
            ), nodes
    return None, nodes


# -- erection: k-closed sets, the census and exact cover -------------------------

def closure_table(m, k):
    """(S, cl(S)) for every k-subset S whose closure gains elements,
    closures read off the bases."""
    pairs = ((s, rank_and_closure_by_bases(m, s)[1])
             for s in map(mask_of, combinations(range(m.n), k)))
    return [(s, cl) for s, cl in pairs if cl != s]


def reference_k_closed_hull(table, x):
    """Least k-closed superset of x by sweeping the whole table to a fixpoint."""
    while True:
        grown = x
        for s, cl in table:
            if s & ~grown == 0:
                grown |= cl
        if grown == x:
            return x
        x = grown


def reference_is_k_closed(table, x):
    """hull(x) == x, decided by the first sweep: x holds the closure of
    each of its tabled k-subsets."""
    return all(cl & ~x == 0 for s, cl in table if s & ~x == 0)


def reference_census(m, k):
    """Proper spanning k-closed sets by NextClosure over full-table fixpoint hulls."""
    table = closure_table(m, k)
    out = []
    x = reference_k_closed_hull(table, 0)
    while x != m.full:
        if m.closure_mask(x) == m.full:
            out.append(x)
        for i in range(m.n - 1, -1, -1):
            bit = 1 << i
            if x & bit:
                continue
            below = x & (bit - 1)
            y = reference_k_closed_hull(table, below | bit)
            if y & (bit - 1) == below:
                x = y
                break
    return sort_masks(out)


def census_by_scan(m, k):
    """Spanning k-closed sets, full set included, by walking all 2^n subsets."""
    table = closure_table(m, k)
    return sort_masks(x for x in range(m.full + 1)
                      if m.rank_of_mask(x) == m.rank and reference_is_k_closed(table, x))


def reference_exact_covers(num_items, cover_masks):
    """(solutions, nodes): plain recursive Algorithm X over single items.

    Branch on the uncovered item with the fewest compatible candidates
    (first such item on ties), candidates in ascending index order; every
    explored branch is one node, so ``nodes`` is the least budget that
    does not raise.
    """
    full = full_mask(num_items)
    containing = [[] for _ in range(num_items)]
    for ci, cm in enumerate(cover_masks):
        for item in iter_elements(cm):
            containing[item].append(ci)
    solutions = []
    chosen = []
    nodes = 0

    def rec(covered):
        nonlocal nodes
        nodes += 1
        if covered == full:
            solutions.append(tuple(chosen))
            return
        best = None
        for item in iter_elements(full & ~covered):
            avail = [ci for ci in containing[item]
                     if cover_masks[ci] & covered == 0]
            if best is None or len(avail) < len(best):
                best = avail
                if not avail:
                    break
        for ci in best:
            chosen.append(ci)
            rec(covered | cover_masks[ci])
            chosen.pop()

    rec(0)
    return solutions, nodes


# -- properties: the rank axioms -------------------------------------------------

def reference_rank_axiom_failures(m):
    """The plain loop over all 4^n pairs (X, Y)."""
    full = (1 << m.n) - 1
    for x in range(full + 1):
        for y in range(full + 1):
            rx = m.rank_of_mask(x)
            if not 0 <= rx <= min(x.bit_count(), m.rank):
                return [f"rank out of bounds at {format_set(x)}"]
            e = (y % m.n) if m.n else 0
            if m.rank_of_mask(x | (1 << e)) - rx not in (0, 1):
                return [f"rank not unit-increasing at {format_set(x)} + {e}"]
            if (m.rank_of_mask(x | y) + m.rank_of_mask(x & y)
                    > rx + m.rank_of_mask(y)):
                return [f"rank not submodular at {format_set(x)}, "
                        f"{format_set(y)}"]
    return []


def axioms_hold_around(ranks, n, rank, x):
    """The local rank inequalities at every Y whose instances can read r(x).

    Those are Y = x minus at most two of its elements.  When a function
    that passes the battery changes at x alone, no other inequality can
    change, so this is the subset walk's verdict at O(n^4) comparisons
    instead of 2^n n^2.
    """
    inside = [1 << e for e in range(n) if x >> e & 1]
    ys = {x} | {x ^ a for a in inside} | {x ^ a ^ b for a, b in combinations(inside, 2)}
    for y in ys:
        ry = ranks[y]
        if not 0 <= ry <= min(y.bit_count(), rank):
            return False
        outside = [1 << e for e in range(n) if not y >> e & 1]
        if any(ranks[y | b] - ry not in (0, 1) for b in outside):
            return False
        if any(ranks[y | b] + ranks[y | c] < ranks[y | b | c] + ry
               for b, c in combinations(outside, 2)):
            return False
    return True


# -- linalg: elimination, kernels, relation spaces, column matroids ---------------

def reference_rref(field, rows, cols):
    """Gauss-Jordan with one field operation per entry."""
    p = getattr(field, "p", 0)

    def inv(a):
        return pow(a, p - 2, p) if p else 1 / a

    def reduce(a):
        return a % p if p else a

    mat = [list(row) for row in rows]
    pivots = []
    pr = 0
    for c in range(cols):
        if pr == len(mat):
            break
        pivot_row = next((r for r in range(pr, len(mat)) if mat[r][c]), None)
        if pivot_row is None:
            continue
        mat[pr], mat[pivot_row] = mat[pivot_row], mat[pr]
        scale = inv(mat[pr][c])
        mat[pr] = [reduce(scale * v) for v in mat[pr]]
        lead = mat[pr]
        for r in range(len(mat)):
            if r != pr and mat[r][c]:
                factor = mat[r][c]
                mat[r] = [reduce(v - factor * w) for v, w in zip(mat[r], lead)]
        pivots.append(c)
        pr += 1
    return mat[:pr], pivots


def reference_span(field, n, vectors):
    """The reduced-echelon basis of a span, by reference_rref."""
    reduced, pivots = reference_rref(field, vectors, n)
    return RelationSpace(field, n, tuple(map(tuple, reduced)), tuple(pivots))


def span_contains(space, vec):
    """Is vec in the space?  The span of vec alone is then a subspace of it."""
    return RelationSpace.from_vectors(space.field, space.ambient, [vec]).is_subspace_of(space)


def reference_kernel_basis(a):
    """One vector per free column of A's echelon form, whose span is then
    eliminated again."""
    f = a.field
    reduced, pivots = reference_rref(f, a.entries, a.cols)
    vectors = []
    for fc in range(a.cols):
        if fc in pivots:
            continue
        v = [f.from_int(0)] * a.cols
        v[fc] = f.from_int(1)
        for i, p in enumerate(pivots):
            v[p] = f.from_int(-reduced[i][fc])
        vectors.append(v)
    return reference_span(f, a.cols, vectors)


def reference_weight3_subspace(a):
    """The kernels of every set of at most three columns."""
    f = a.field
    generators = []
    for k in (1, 2, 3):
        for combo in combinations(range(a.cols), k):
            columns = tuple(tuple(row[j] for j in combo) for row in a.entries)
            for v in reference_kernel_basis(ExactMatrix(f, a.rows, k, columns)).vectors:
                big = [f.from_int(0)] * a.cols
                for idx, j in enumerate(combo):
                    big[j] = v[idx]
                generators.append(big)
    return reference_span(f, a.cols, generators)


def reference_column_matroid(a):
    """One reference rank per r-subset of columns."""
    def rank(combo):
        columns = [[row[j] for j in combo] for row in a.entries]
        return len(reference_rref(a.field, columns, len(combo))[1])

    r = rank(range(a.cols))
    bases = [mask_of(combo) for combo in combinations(range(a.cols), r)
             if rank(combo) == r]
    return Matroid(a.cols, r, bases, _validated=True)


def cofactor_determinant(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * cofactor_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


# -- charpoly: integer roots ------------------------------------------------------

def splits_by_full_divisor_walk(p):
    """Try every divisor 1..|c| of each constant term."""
    roots, work = [], p
    while work.degree > 0:
        c = work.coeffs[0]
        candidates = [0] if c == 0 else [
            s * d for d in range(1, abs(c) + 1) if c % d == 0 for s in (1, -1)]
        for cand in candidates:
            quotient, remainder = work.divide_by_root(cand)
            if remainder == 0:
                roots.append(cand)
                work = quotient
                break
        else:
            return None
    return tuple(sorted(roots))

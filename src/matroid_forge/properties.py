"""Axiom batteries: machine checks that the algebra behaves like it must.

Each function returns a list of human-readable failure strings (empty means
clean), so the same battery can run inside the reproduction report and the
test suite.  :func:`rank_and_closure_failures` is the one rank and closure
battery.  It is exhaustive and runs word-parallel: one big-int operation
checks a condition on all 2^n subsets at once, each subset's value held in
a lane of the int.  It reads one table pair,
:meth:`Matroid.ranks_and_closures`, the 2^n ranks and the 2^n closures read
in C.  The rank side checks submodularity locally,
r(X+e) + r(X+f) >= r(X+e+f) + r(X) for every X and distinct e, f outside
it, which is equivalent to the inequality for all pairs, with each rank
packed one byte per subset.  The closure side accepts when the rank lanes
do and every closure is X plus the e with r(X+e) = r(X), a few big-int
operations per element.  Both take about 1.2 ms at n = 13 (CPython 3.11,
one AMD EPYC core), where the subset-by-subset walks took 65-100 and
about 50 ms.  The battery walks subset by subset only when its lanes
reject, to name the first failure.
"""

from __future__ import annotations

import random
import sys
from array import array
from functools import reduce
from operator import and_, or_

from .bitsets import format_set, full_mask, iter_elements, mask_of
from .erection import ErectionFamily, _free_blocks
from .linalg import (
    ExactMatrix,
    column_matroid,
    formalization,
    kernel_basis,
    weight3_subspace,
)
from .matroid import (
    Matroid,
    contract,
    delete,
    is_quotient,
    is_weak_map_image,
    removal_map,
    truncation,
)


def rank_and_closure_failures(m: Matroid) -> list[str]:
    """The closure axioms' failures, then the rank axioms', on one read.

    :meth:`Matroid.ranks_and_closures` reads the 2^n ranks and the 2^n
    closures once, and :func:`_lanes_accept` runs once on the ranks.  When
    the lanes accept, r is a matroid's rank function, and
    :func:`_closure_lanes_match` checks in all lanes at once that
    cl(X) = X + {e : r(X+e) = r(X)}.  Then cl is a matroid's closure,
    which is extensive, idempotent, monotone, keeps rank and has exchange,
    so there is nothing to report.  Otherwise :func:`_closure_walk` visits
    the subsets in order on the same two tables and names what fails, and
    when the lanes reject the ranks, :func:`_rank_walk` names the rank
    function's first failure, which it must find.
    """
    ranks, closures = m.ranks_and_closures()
    if _lanes_accept(ranks, m.n, m.rank):
        if _closure_lanes_match(closures, ranks, m.n):
            return []
        return _closure_walk(closures, ranks, m.n)
    rank_failures = _rank_walk(ranks, m.n, m.rank)
    if not rank_failures:
        raise AssertionError("the byte lanes reject a rank function "
                             "the walk accepts")
    return _closure_walk(closures, ranks, m.n) + rank_failures


def _closure_lanes_match(closures: list[int], ranks: list[int], n: int) -> bool:
    """Is every closure X + {e : r(X+e) = r(X)}?  Checked in w-byte lanes.

    The ranks must pass :func:`_lanes_accept`, so each is at most n and
    each step d_e(X) = r(X+e) - r(X) is 0 or 1.  The closures are packed
    into an array of w-byte items, w the least of 1, 2, 4 and 8 bytes that
    holds n bits.  Lane X of one int holds cl(X) (little-endian) and lane
    X of another r(X) with a guard at the lane's top bit.  As in the byte
    lanes, one shift by 2^e lanes, a subtraction and the guards flipped
    back give d_e(X) in bit 0 of each lane lacking e.  Shifted to bit e it
    clears e from the all-ones lane exactly where e is outside the
    closure, so the expected table is n such steps, and one comparison
    also rules out bits at or above n.
    """
    closures = array(next(c for c in "BHIQ" if array(c).itemsize * 8 >= n), closures)
    if sys.byteorder == "big":
        closures.byteswap()
    w = closures.itemsize
    size = 1 << n
    lanes = bytearray(w * size)
    lanes[::w] = bytes(ranks)
    packed = int.from_bytes(lanes, "little")
    guards = int.from_bytes((bytes(w - 1) + b"\x80") * size, "little")
    raised = packed | guards
    low = b"\x01" + bytes(w - 1)
    expected = int.from_bytes(((1 << n) - 1).to_bytes(w, "little") * size, "little")
    for e in range(n):
        k = 1 << e
        lacks = int.from_bytes((low * k + bytes(w * k)) * (size // (2 * k)), "little")
        unit = (((raised >> (8 * w << e)) - packed) ^ guards) & lacks
        expected ^= unit << e
    return int.from_bytes(closures, "little") == expected


def _closure_walk(closures: list[int], ranks: list[int], n: int) -> list[str]:
    """The closure battery, subset by subset.

    The n closures cl(X+e) of a subset are read in one map; monotonicity
    is an AND over them, and only a subset where some cl(X+e) misses part
    of cl(X) or gains an element other than e is walked element by
    element.  A non-extensive subset is reported and skipped; the walk
    stops after the first other subset with a failure.
    """
    failures: list[str] = []
    full = full_mask(n)
    bits = [1 << e for e in range(n)]
    others = [full ^ b for b in bits]
    for x, cl in enumerate(closures):
        if x & ~cl:
            failures.append(f"closure not extensive at {format_set(x)}")
            continue
        if closures[cl] != cl:
            failures.append(f"closure not idempotent at {format_set(x)}")
        if ranks[cl] != ranks[x]:
            failures.append(f"closure changes rank at {format_set(x)}")
        ups = list(map(closures.__getitem__, map(x.__or__, bits)))
        if (cl & ~reduce(and_, ups, full)
                or reduce(or_, map(and_, ups, others), 0) & ~cl):
            for e, bigger in enumerate(ups):
                if cl & ~bigger:
                    failures.append(
                        f"closure not monotone at {format_set(x)} + {e}")
                # exchange: f in cl(X+e) - cl(X) implies e in cl(X+f)
                for f in iter_elements(bigger & ~cl & others[e]):
                    if not ups[f] >> e & 1:
                        failures.append(f"closure exchange fails at "
                                        f"{format_set(x)}, e={e}, f={f}")
        if failures:
            break
    return failures


def _lanes_accept(ranks: list[int], n: int, rank: int) -> bool:
    """Does the exhaustive local rank battery pass, checked in byte lanes?

    The battery checks 0 <= r(X) <= min(|X|, rank), r(X+e) - r(X) in
    {0, 1} and r(X+e) + r(X+f) >= r(X+e+f) + r(X) for every X and distinct
    e, f outside X.  The local inequality for all X, e, f is equivalent to
    submodularity for all pairs (Schrijver, *Combinatorial Optimization*,
    §44.1), and costs C(n,2) 2^(n-2) comparisons instead of 4^n pairs.

    Byte X of one int holds r(X) (Lamport, "Multiple byte processing with
    full-word instructions", 1975), so one big-int operation compares all
    2^n subsets at once.  Values outside 0..min(rank, n) are rejected
    first; a value above n already breaks r(X) <= |X|.  The rest fit in 7
    bits, so with the guard bit 0x80 set in each lane of the minuend a
    subtraction never borrows across lanes, and the guard survives
    exactly where the difference is not negative.

    - r(X) <= |X|: the popcount lanes, built by doubling with
      ``bytes.translate``, minus the rank lanes.
    - Unit increase: shifting by 2^e lanes puts r(X+e) in lane X, so the
      guarded difference with the guards flipped back holds d_e(X) =
      r(X+e) - r(X) modulo 256.  Masked to the low seven bits of the lanes
      lacking e (built by byte repetition), it must be 0 or 1 there; any
      other d_e in -n..n leaves a bit of 0x7e set.
    - Submodularity at (X, e, f) reads d_e(X) >= d_e(X+f), a bit test
      once d_e is 0/1: d_e shifted by 2^f lanes, masked to the lanes
      lacking f, must not exceed d_e.
    """
    if min(ranks) < 0 or max(ranks) > min(rank, n):
        return False
    size = 1 << n
    packed = int.from_bytes(bytes(ranks), "little")
    guards = int.from_bytes(b"\x80" * size, "little")
    counts = b"\x00"
    step = bytes(range(1, 256)) + b"\x00"
    while len(counts) < size:
        counts += counts.translate(step)
    if ((int.from_bytes(counts, "little") | guards) - packed) & guards != guards:
        return False
    wide = int.from_bytes(b"\x7e" * size, "little")
    lacks = [int.from_bytes((b"\x7f" * k + bytes(k)) * (size // (2 * k)), "little")
             for k in (1 << e for e in range(n))]
    raised = packed | guards
    for e in range(n):
        unit = (((raised >> (8 << e)) - packed) ^ guards) & lacks[e]
        if unit & wide:
            return False
        later = 0
        for f in range(e + 1, n):
            later |= (unit >> (8 << f)) & lacks[f]
        if later & ~unit:
            return False
    return True


def _rank_walk(ranks: list[int], n: int, rank: int) -> list[str]:
    """The exhaustive local rank battery, subset by subset: [] or the first failure.

    A submodularity failure names the pair (X+e, X+f), which breaks the
    global inequality too.
    """
    bits = [1 << e for e in range(n)]
    for x, rx in enumerate(ranks):
        if not 0 <= rx <= min(x.bit_count(), rank):
            return [f"rank out of bounds at {format_set(x)}"]
        outside = [b for b in bits if not x & b]
        ups = [ranks[x | b] for b in outside]
        for i, (b, rb) in enumerate(zip(outside, ups)):
            if rb - rx not in (0, 1):
                return [f"rank not unit-increasing at {format_set(x)} + "
                        f"{b.bit_length() - 1}"]
            for c, rc in zip(outside[i + 1:], ups[i + 1:]):
                if rb + rc < ranks[x | b | c] + rx:
                    return [f"rank not submodular at {format_set(x | b)}, "
                            f"{format_set(x | c)}"]
    return []


def minor_commutation_failures(m: Matroid) -> list[str]:
    """(M/X) - Y equals (M - Y)/X for 30 sampled disjoint X, Y.

    Both orders remove the same elements, so after the order-preserving
    re-indexings the two results must be canonically equal.
    """
    failures = []
    full = full_mask(m.n)
    rng = random.Random(0xD7)
    for _ in range(30):
        a, b, c, d = (rng.randrange(full + 1) for _ in range(4))
        x = a & b
        y = c & d & ~x
        if x | y == full or (x | y) == 0:
            continue
        # translate the second operation's set into post-removal labels
        via_contract = contract(m, x)
        y_after = mask_of(i for i, e in enumerate(removal_map(m.n, x).images)
                          if y >> e & 1)
        a = delete(via_contract, y_after) if y_after else via_contract
        via_delete = delete(m, y) if y else m
        x_after = mask_of(i for i, e in enumerate(removal_map(m.n, y).images)
                          if x >> e & 1)
        b = contract(via_delete, x_after) if x_after else via_delete
        if a != b:
            failures.append(
                f"contract/delete disagree for X={format_set(x)}, Y={format_set(y)}")
            break
    return failures


def erection_family_failures(family: ErectionFamily) -> list[str]:
    """Truncation identity, ``free()`` as the unique maximum of the weak
    order, which only this oracle builds (``order[i][j]`` says whether
    erection i is a weak map image of erection j), and ``free()``'s
    copoints as the merged hulls: the one place where the listed family
    and the hull merge meet."""
    failures = []
    base = family.base
    for e in family.nontrivial():
        if truncation(e) != base:
            failures.append("an erection does not truncate back to its base")
    members = family.erections
    order = [[is_weak_map_image(a, b) for b in members] for a in members]
    k = len(members)
    for i in range(k):
        if not order[i][i]:
            failures.append("weak order is not reflexive")
        for j in range(i + 1, k):
            if order[i][j] and order[j][i]:
                failures.append(
                    "weak order not antisymmetric on distinct erections")
    free = family.free()
    maxima = [j for j in range(k) if all(order[i][j] for i in range(k))]
    if [members[j] for j in maxima] != [free]:
        failures.append(f"free erection is not the unique weak-order "
                        f"maximum: maxima {maxima}")
    copoints = free.flat_lattice()[base.rank] if free.rank > base.rank else (base.full,)
    if copoints != _free_blocks(base):
        failures.append("free erection's copoints are not the merged hulls")
    return failures


def formalization_quotient_failures(a: ExactMatrix) -> list[str]:
    """The rebuilt arrangement must dominate the original.

    Checks: the weight-3 subspace sits inside the kernel; the column
    matroid of A is a quotient of the formalization's with identical
    rank-1 and rank-2 flats; and rank(A_F) = rank(A) exactly for formal A.
    """
    g = formalization(a)
    failures = []
    ker = kernel_basis(a)
    w3 = weight3_subspace(a)
    if not w3.is_subspace_of(ker):
        failures.append("weight-3 relations escape the kernel")
    ma, mg = column_matroid(a), column_matroid(g)
    if not is_quotient(ma, mg):
        failures.append("column matroid is not a quotient of its formalization")
    for k in (1, 2):
        if ma.rank >= k and mg.rank >= k:
            if ma.flat_lattice()[k] != mg.flat_lattice()[k]:
                failures.append(f"rank-{k} flats differ after formalization")
    formal = w3.dim == ker.dim
    if (g.rank() == a.rank()) != formal:
        failures.append("rank equality disagrees with formality")
    return failures


def quotient_order_failures(matroids: list[Matroid]) -> list[str]:
    """Reflexivity, antisymmetry, transitivity of the quotient relation."""
    failures = []
    n = len(matroids)
    rel = [[False] * n for _ in range(n)]
    for i, a in enumerate(matroids):
        for j, b in enumerate(matroids):
            if a.n == b.n:
                rel[i][j] = is_quotient(a, b)
    for i in range(n):
        if matroids[i].n and not rel[i][i]:
            failures.append("quotient relation not reflexive")
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i] and matroids[i] != matroids[j]:
                failures.append("quotient relation not antisymmetric")
            for k in range(n):
                if rel[i][j] and rel[j][k] and not rel[i][k]:
                    failures.append("quotient relation not transitive")
    return failures

"""Axiom batteries: machine checks that the algebra behaves like it must.

Each function returns a list of human-readable failure strings (empty means
clean), so the same battery can run inside the reproduction report and the
test suite.  Exhaustive checks cover every subset; the sampled variants use
a fixed seed and are deterministic.  The exhaustive rank battery checks
submodularity locally, r(X+e) + r(X+f) >= r(X+e+f) + r(X) for every X and
distinct e, f outside it, which is equivalent to the inequality for all
pairs and reads each of the 2^n ranks once: about 0.03 s at n = 13 on
one AMD EPYC core.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import islice

from .bitsets import format_set, full_mask, iter_elements, mask_of
from .erection import ErectionFamily
from .linalg import (
    ExactMatrix,
    _complement_of_relations,
    _reject_zero_functionals,
    column_matroid,
    kernel_basis,
    weight3_subspace,
)
from .matroid import (
    Matroid,
    contract,
    delete,
    exchange_failure,
    is_quotient,
    removal_map,
    truncation,
)


def _draws(rng: random.Random, full: int):
    """Endless uniform subsets of ``full`` = 2^n - 1, drawn in C.

    ``rng.randrange(full + 1)`` draws n + 1 random bits until the value is
    at most ``full``; this is the same loop, so it yields the same values
    and leaves ``rng`` in the same state.
    """
    return filter(full.__ge__, iter(partial(rng.getrandbits, full.bit_length() + 1), -1))


def closure_axiom_failures(m: Matroid, *, samples: int | None = None,
                           seed: int = 0xC10) -> list[str]:
    """Extensive, monotone, idempotent closure plus the exchange property.

    With ``samples`` None every subset is visited (use only for small n);
    otherwise a fixed-seed random sample of subsets is checked.  Each
    subset's closure is computed once per call and looked up after that.
    """
    failures: list[str] = []
    full = full_mask(m.n)
    if samples is None:
        subsets = range(full + 1)
    else:
        subsets = list(islice(_draws(random.Random(seed), full), samples))
    closure = cache(m.closure_mask)
    rank = m.rank_of_mask
    for x in subsets:
        cl = closure(x)
        if x & ~cl:
            failures.append(f"closure not extensive at {format_set(x)}")
            continue
        if closure(cl) != cl:
            failures.append(f"closure not idempotent at {format_set(x)}")
        rx = rank(x)
        if rank(cl) != rx:
            failures.append(f"closure changes rank at {format_set(x)}")
        for e in range(m.n):
            ebit = 1 << e
            bigger = closure(x | ebit)
            if cl & ~bigger:
                failures.append(
                    f"closure not monotone at {format_set(x)} + {e}")
            # exchange: f in cl(X+e) - cl(X) implies e in cl(X+f)
            gained = bigger & ~cl & ~ebit
            for f in iter_elements(gained):
                if not (closure(x | (1 << f)) >> e) & 1:
                    failures.append(
                        f"closure exchange fails at {format_set(x)}, e={e}, f={f}")
        if failures:
            break
    return failures


def rank_axiom_failures(m: Matroid, *, samples: int | None = None,
                        seed: int = 0xA5) -> list[str]:
    """Bounds, unit increase, and submodularity of the rank function.

    With ``samples`` None the check is exhaustive but local: the 2^n ranks
    are read once, and for every X and distinct e, f outside X it checks
    0 <= r(X) <= min(|X|, rank), r(X+e) - r(X) in {0, 1} and
    r(X+e) + r(X+f) >= r(X+e+f) + r(X).  The local inequality for all X, e, f
    is equivalent to submodularity for all pairs (Schrijver, *Combinatorial
    Optimization*, §44.1), and costs C(n,2) 2^(n-2) comparisons instead
    of 4^n pairs.  A failure names the pair (X+e, X+f), which breaks the
    global inequality too.  Otherwise ``samples`` fixed-seed random pairs
    (X, Y) are checked against the global inequality.
    """
    if samples is not None:
        return _sampled_rank_failures(m, samples, seed)
    full = full_mask(m.n)
    ranks = [m.rank_of_mask(x) for x in range(full + 1)]
    bits = [1 << e for e in range(m.n)]
    for x, rx in enumerate(ranks):
        if not 0 <= rx <= min(x.bit_count(), m.rank):
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


def _sampled_rank_failures(m: Matroid, samples: int, seed: int) -> list[str]:
    draws = _draws(random.Random(seed), full_mask(m.n))
    rank = m.rank_of_mask
    for x, y in islice(zip(draws, draws), samples):
        rx = rank(x)
        if not 0 <= rx <= min(x.bit_count(), m.rank):
            return [f"rank out of bounds at {format_set(x)}"]
        e = (y % m.n) if m.n else 0
        if rank(x | (1 << e)) - rx not in (0, 1):
            return [f"rank not unit-increasing at {format_set(x)} + {e}"]
        if rank(x | y) + rank(x & y) > rx + rank(y):
            return [f"rank not submodular at {format_set(x)}, {format_set(y)}"]
    return []


def exchange_failures(m: Matroid) -> list[str]:
    """The matroid certificate as a list: [] or its one basis-exchange message."""
    failure = exchange_failure(m)
    return [] if failure is None else [failure]


def minor_commutation_failures(m: Matroid, *, samples: int = 30,
                               seed: int = 0xD7) -> list[str]:
    """(M/X) - Y equals (M - Y)/X for sampled disjoint X, Y.

    Both orders remove the same elements, so after the order-preserving
    re-indexings the two results must be canonically equal.
    """
    failures = []
    full = full_mask(m.n)
    draws = _draws(random.Random(seed), full)
    for a, b, c, d in islice(zip(draws, draws, draws, draws), samples):
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
    """Truncation identity, weak-order antisymmetry, unique maximum."""
    failures = []
    base = family.base
    for e in family.nontrivial():
        if truncation(e) != base:
            failures.append("an erection does not truncate back to its base")
    order = family.weak_order
    k = len(family.erections)
    for i in range(k):
        if not order[i][i]:
            failures.append("weak order is not reflexive")
        for j in range(i + 1, k):
            if order[i][j] and order[j][i]:
                failures.append(
                    "weak order not antisymmetric on distinct erections")
    try:
        family.free()
    except Exception as exc:  # MaximalityViolation included
        failures.append(f"no unique weak-order maximum: {exc}")
    return failures


def formalization_quotient_failures(a: ExactMatrix) -> list[str]:
    """The rebuilt arrangement must dominate the original.

    Checks: the weight-3 subspace sits inside the kernel; the column
    matroid of A is a quotient of the formalization's with identical
    rank-1 and rank-2 flats; and rank(A_F) = rank(A) exactly for formal A.
    """
    _reject_zero_functionals(a)
    failures = []
    ker = kernel_basis(a)
    w3 = weight3_subspace(a)
    if not w3.is_subspace_of(ker):
        failures.append("weight-3 relations escape the kernel")
    g = _complement_of_relations(a, w3)
    ma, mg = column_matroid(a), column_matroid(g)
    if not is_quotient(ma, mg):
        failures.append("column matroid is not a quotient of its formalization")
    for k in (1, 2):
        if ma.rank >= k and mg.rank >= k:
            if ma.flats_at_masks(k) != mg.flats_at_masks(k):
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

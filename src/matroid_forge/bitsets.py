"""Subsets of {0, ..., n-1} as int bitmasks.

All set manipulation in the combinatorial core runs on plain Python ints,
which keeps union/intersection/containment O(1) word operations for the
ground-set sizes we care about (n <= 64).  The helpers here convert between
masks and sorted element tuples and provide the canonical ordering used
everywhere: subsets sort by (cardinality, sorted element tuple).
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_GROUND = 64


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_elements(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1


def _descending_key(mask: int) -> tuple[int, str]:
    """Sort key whose descending order is the canonical subset order.

    Among masks of one size, the element tuples order as the binary digits
    read from bit 0 upward, descending: at the lowest bit where two masks
    differ, the one holding it comes first.  The digit strings need no
    padding, since neither of two same-size masks' strings is a prefix of
    the other's.
    """
    return (-mask.bit_count(), bin(mask)[:1:-1])


def sort_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The masks in canonical order: size first, then sorted element tuple."""
    return tuple(sorted(masks, key=_descending_key, reverse=True))


def coerce_mask(x: int | Iterable[int], n: int, *, what: str = "subset") -> int:
    """Accept either a bitmask or an iterable of elements; range-check."""
    if isinstance(x, int):
        m = x
    else:
        m = mask_of(x)
    if m < 0 or m >= (1 << n):
        raise ValueError(f"{what} is not inside the ground set of size {n}")
    return m


def format_set(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"

"""Subsets of {0, ..., n-1} as int bitmasks.

All set manipulation in the combinatorial core runs on plain Python ints,
which keeps union/intersection/containment O(1) word operations for the
ground-set sizes we care about (n <= 64).  The helpers here convert between
masks and sorted element tuples and provide the canonical ordering used
everywhere: subsets sort by (cardinality, sorted element tuple).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

MAX_GROUND = 64


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def mask_mapper(images: Sequence[int]) -> Callable[[int], int]:
    """The map sending a mask to the union of images[e] over its elements.

    It reads the mask a byte at a time from tables built once: entry v of
    a byte's table is the union of the images of v's bits, built from v
    without its top bit.
    """
    tables = []
    for lo in range(0, len(images), 8):
        table = [0]
        for image in images[lo:lo + 8]:
            table += [t | image for t in table]
        tables.append(table)

    def mapped(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out

    return mapped


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
    """Accept either a bitmask or an iterable of elements; range-check.

    Elements are checked before any shift: 1 << e raises on a negative e
    and allocates e bits on a huge one.
    """
    if not isinstance(x, int):
        elements = tuple(x)
        inside = not elements or (min(elements) >= 0 and max(elements) < n)
        x = mask_of(elements) if inside else -1
    if x < 0 or x >= (1 << n):
        raise ValueError(f"{what} is not inside the ground set of size {n}")
    return x


def format_set(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"

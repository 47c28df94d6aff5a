"""Subsets of {0..n-1} encoded as integer bitmasks.

Masks are the universal carrier for subgroups, subbraces and ideals; all
structural operations work on them directly.
"""

from __future__ import annotations

from typing import Iterable

ElementSet = int


def mask_of(indices: Iterable[int]) -> ElementSet:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def members(mask: ElementSet) -> list[int]:
    """Indices present in the mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def size(mask: ElementSet) -> int:
    return mask.bit_count()


def full_mask(n: int) -> ElementSet:
    return (1 << n) - 1

"""Integer partitions with stabilizer and orbit-size arithmetic.

A partition is a plain tuple of positive parts, weakly decreasing.  All
counts are exact Python integers; nothing here ever touches floats.
"""
from __future__ import annotations

import math
from collections import Counter


def partitions(n: int, min_parts: int = 1) -> list[tuple[int, ...]]:
    """All partitions of n with at least min_parts parts.

    Emitted in decreasing lexicographic order, e.g. for (5, 2):
    (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1), (1,1,1,1,1).
    """
    if min_parts < 1:
        raise ValueError("min_parts must be >= 1")
    if n < 1:
        return []
    out: list[tuple[int, ...]] = []
    _extend(n, n, [], min_parts, out)
    return out


def _extend(remaining: int, largest: int, prefix: list[int], min_parts: int, out: list) -> None:
    """Append to out each partition that extends prefix by parts of at most
    largest summing to remaining, and has at least min_parts parts."""
    if remaining == 0:
        if len(prefix) >= min_parts:
            out.append(tuple(prefix))
        return
    for p in range(min(largest, remaining), 0, -1):
        prefix.append(p)
        _extend(remaining - p, p, prefix, min_parts, out)
        prefix.pop()


def _check(parts: tuple[int, ...]) -> None:
    if not parts:
        raise ValueError("partition must have at least one part")
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts}")


def stabilizer_order(parts: tuple[int, ...]) -> int:
    """Order of the subgroup of S_m permuting equal parts among themselves."""
    _check(parts)
    return math.prod(map(math.factorial, Counter(parts).values()))


def orbit_count(parts: tuple[int, ...]) -> int:
    """n! / (n_1! ... n_m! * stabilizer_order), always an exact integer.

    This is the number of set partitions of an n-set whose block-size
    profile is parts.
    """
    denom = stabilizer_order(parts) * math.prod(map(math.factorial, parts))
    q, r = divmod(math.factorial(sum(parts)), denom)
    if r:
        raise ArithmeticError(f"orbit count for {parts} is not integral (bug)")
    return q

import math
import re

import pytest
from hypothesis import given, strategies as st

from freeop.partitions import partitions, stabilizer_order, orbit_count


def test_partitions_of_5_with_two_parts():
    assert partitions(5, 2) == [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_partitions_trivial_and_small():
    assert partitions(1, 1) == [(1,)]
    assert partitions(4, 2) == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions(0, 1) == []


def test_partitions_refuses_min_parts_below_one():
    for min_parts in (0, -1):
        with pytest.raises(ValueError, match="^min_parts must be >= 1$"):
            partitions(4, min_parts)


def test_partition_validation():
    for parts, message in [
        ((), "partition must have at least one part"),
        ((1, 2), "parts must be weakly decreasing: (1, 2)"),
        ((2, 0), "parts must be positive: (2, 0)"),
    ]:
        for fn in (orbit_count, stabilizer_order):
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(parts)


def test_stabilizer_orders():
    assert stabilizer_order((2, 2, 1)) == 2
    assert stabilizer_order((1, 1, 1, 1, 1)) == 120
    assert stabilizer_order((3, 2)) == 1


def test_orbit_counts():
    assert orbit_count((4, 1)) == 5
    assert orbit_count((3, 2)) == 10
    assert orbit_count((1,) * 7) == 1


def _set_partition_count_by_profile(n):
    """Brute-force: set partitions of {1..n} grouped by block-size profile."""
    from collections import Counter

    profiles = Counter()

    def rec(i, blocks):
        if i > n:
            profile = tuple(sorted((len(b) for b in blocks), reverse=True))
            profiles[profile] += 1
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [])
    return profiles


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_count_is_set_partition_count(n):
    profiles = _set_partition_count_by_profile(n)
    for p in partitions(n, 1):
        assert orbit_count(p) == profiles[p]
    assert sum(orbit_count(p) for p in partitions(n, 1)) == sum(profiles.values())


@given(st.integers(min_value=1, max_value=20))
def test_orbit_stabilizer_identity(n):
    for p in partitions(n, 1):
        prod = orbit_count(p) * stabilizer_order(p)
        for part in p:
            prod *= math.factorial(part)
        assert prod == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_min_parts_split(n):
    with_all = set(partitions(n, 1))
    with_two = set(partitions(n, 2))
    assert with_two | {(n,)} == with_all
    assert (n,) not in with_two or n == 1

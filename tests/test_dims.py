import random

import pytest

from freeop.dims import (
    OperadError,
    builtin_operad,
    explicit_operad,
    free_product_dims,
    parse_operad_config,
    symbolic_dims,
)
from freeop.partitions import orbit_count, partitions
from freeop.polynomials import MultiPoly


def x(i):
    return MultiPoly.var("x", i)


def y(i):
    return MultiPoly.var("y", i)


AS = builtin_operad("as")
LIE = builtin_operad("lie")
COM = builtin_operad("com")
COMAS = builtin_operad("com-as")
NOV = builtin_operad("nov")


def test_builtin_values():
    assert LIE.dim(4) == 6
    assert COMAS.dim(7) == 1
    assert COM.dim(4) == 15
    assert [NOV.dim(n) for n in range(1, 6)] == [1, 2, 6, 20, 70]
    assert AS.dim(5) == 120
    with pytest.raises(OperadError):
        builtin_operad("nope")


def test_dim_tables_match_reference_values():
    assert free_product_dims(AS, AS, 5).totals() == [1, 4, 36, 528, 10800]
    assert free_product_dims(LIE, NOV, 5).totals() == [1, 3, 20, 216, 3274]
    assert free_product_dims(LIE, COM, 7).totals() == [
        1, 2, 11, 101, 1299, 21484, 434314,
    ]
    assert free_product_dims(LIE, COM, 3).totals()[2] == 11
    assert free_product_dims(LIE, COMAS, 4).totals()[3] == 67


def test_rejects_bad_n_max():
    with pytest.raises(OperadError):
        free_product_dims(AS, AS, 1)
    with pytest.raises(OperadError):
        symbolic_dims(9)
    with pytest.raises(OperadError):
        symbolic_dims(1)


def test_symbolic_small_polynomials():
    table = symbolic_dims(5)
    assert table[3][0] == x(3) + 3 * x(2) * y(2)
    assert table[3][1] == y(3) + 3 * y(2) * x(2)
    d4 = x(4) + 6 * x(3) * y(2) + 3 * x(2) * y(2) * y(2) + 4 * x(2) * y(3) \
        + 12 * x(2) * x(2) * y(2)
    assert table[4][0] == d4
    d5 = (
        x(5) + 10 * x(4) * y(2) + 5 * x(2) * y(4) + 15 * x(3) * y(2) * y(2)
        + 30 * x(2) * x(2) * y(3) + 50 * x(2) * x(3) * y(2)
        + 10 * x(2) * y(2) * y(3) + 90 * x(2) * x(2) * y(2) * y(2)
        + 15 * x(2) * x(2) * x(2) * y(2) + 10 * x(3) * y(3)
    )
    assert table[5][0] == d5


def test_symbolic_d5_total_has_180_term():
    table = symbolic_dims(5)
    total = table[5][0] + table[5][1]
    mono = ((("x", 2), 2), (("y", 2), 2))
    assert total.terms[mono] == 180


def _swap_xy(poly):
    flipped = {}
    for m, c in poly.terms.items():
        flipped[tuple(sorted((("y" if l == "x" else "x", i), e) for (l, i), e in m))] = c
    return MultiPoly(flipped)


def test_circ_is_bullet_with_xy_interchanged():
    table = symbolic_dims(6)
    for n, (b, c) in table.items():
        assert c == _swap_xy(b)


def _random_operad(rng, name, n_max):
    return explicit_operad(name, [rng.randint(0, 5) for _ in range(n_max - 1)])


def test_symmetry_property():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_operad(rng, "a", 8)
        b = _random_operad(rng, "b", 8)
        ab = free_product_dims(a, b, 8)
        ba = free_product_dims(b, a, 8)
        for n in range(2, 9):
            assert ab.bullet[n] == ba.circ[n]
            assert ab.circ[n] == ba.bullet[n]


def test_numeric_matches_symbolic_evaluation():
    rng = random.Random(11)
    table = symbolic_dims(6)
    for _ in range(20):
        a = _random_operad(rng, "a", 6)
        b = _random_operad(rng, "b", 6)
        values = {}
        for i in range(2, 7):
            values[("x", i)] = a.dim(i)
            values[("y", i)] = b.dim(i)
        numeric = free_product_dims(a, b, 6)
        for n in range(2, 7):
            assert table[n][0].substitute(values) == numeric.bullet[n]
            assert table[n][1].substitute(values) == numeric.circ[n]


def _partition_sum_dims(xdim, ydim, n_max):
    """Independent route: a sum over the block-size profiles of the root.

    bullet(n) = sum over partitions lam of n with >= 2 parts of
    orbit_count(lam) * xdim(len(lam)) * prod of circ(k) over parts k >= 2.
    """
    bullet, circ = {}, {}
    for n in range(2, n_max + 1):
        bullet[n] = circ[n] = 0
        for lam in partitions(n, 2):
            tb = orbit_count(lam) * xdim(lam.m)
            tc = orbit_count(lam) * ydim(lam.m)
            for k in lam.parts:
                if k >= 2:
                    tb, tc = tb * circ[k], tc * bullet[k]
            bullet[n] = bullet[n] + tb
            circ[n] = circ[n] + tc
    return bullet, circ


def test_numeric_matches_partition_sum_oracle():
    rng = random.Random(5)
    for _ in range(10):
        a = _random_operad(rng, "a", 12)
        b = _random_operad(rng, "b", 12)
        table = free_product_dims(a, b, 12)
        assert (table.bullet, table.circ) == _partition_sum_dims(a.dim, b.dim, 12)


def test_symbolic_matches_partition_sum_oracle():
    bullet, circ = _partition_sum_dims(x, y, 6)
    table = symbolic_dims(6)
    for n in range(2, 7):
        assert table[n] == (bullet[n], circ[n])


def test_explicit_operad_bounds():
    op = explicit_operad("short", [2, 5])
    assert op.dim(1) == 1 and op.dim(2) == 2 and op.dim(3) == 5
    with pytest.raises(OperadError):
        op.dim(4)
    tailed = explicit_operad("tailed", [9], builtin_operad("lie"))
    assert tailed.dim(2) == 9
    assert tailed.dim(4) == 6


def test_config_parsing():
    table = parse_operad_config(
        """
        # a comment
        mine = [2, 3, 5]   # inline comment
        aka = builtin:lie
        head = [7] builtin:as
        """
    )
    assert table["mine"].dim(3) == 3
    assert table["aka"].dim(4) == 6
    assert table["head"].dim(2) == 7
    assert table["head"].dim(3) == 6
    with pytest.raises(OperadError):
        parse_operad_config("bad line here")
    with pytest.raises(OperadError):
        parse_operad_config("z = [1, two]")

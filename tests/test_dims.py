import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freeop.dims import (
    DimTable,
    OperadDims,
    OperadError,
    avoiding_count,
    basis_count,
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


def test_dims_records_are_frozen_and_compare_by_field():
    a = OperadDims("as", math.factorial)
    assert (a.name, a.fn, a.dim(4)) == ("as", math.factorial, 24)
    assert a == OperadDims("as", math.factorial) != OperadDims("as2", math.factorial)
    assert hash(a) == hash(OperadDims("as", math.factorial))
    t = DimTable(3, {2: 1, 3: 5}, {2: 1, 3: 6})
    assert (t.n_max, t.bullet, t.circ) == (3, {2: 1, 3: 5}, {2: 1, 3: 6})
    assert t == free_product_dims(LIE, COM, 3) != DimTable(3, {2: 1, 3: 5}, {2: 1, 3: 7})
    assert repr(t) == "DimTable(n_max=3)"  # the tables themselves stay out
    for record, name in ((a, "name"), (a, "other"), (t, "bullet"), (t, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


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
            tb = orbit_count(lam) * xdim(len(lam))
            tc = orbit_count(lam) * ydim(len(lam))
            for k in lam:
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


def _reversion(f, n_max):
    """Compositional inverse g of the power series f = t + f_2 t^2 + ...,
    coefficients [0, 1, g_2, ..., g_n_max] as Fractions.

    [t^n] f(g) = 0 for n >= 2 gives g_n = -sum_{k>=2} f_k [t^n] g^k, and
    [t^n] g^k = sum_j g_j [t^(n-j)] g^(k-1) reads only g_1..g_(n-1).
    """
    g = [Fraction(0), Fraction(1)]
    # powers[k][m] = [t^m] g^k, filled in as m grows
    powers = [None, g]
    for n in range(2, n_max + 1):
        powers.append([Fraction(0)] * n)
        g_n = Fraction(0)
        for k in range(2, n + 1):
            p = sum(g[j] * powers[k - 1][n - j] for j in range(1, n - k + 2))
            powers[k].append(p)
            g_n -= f[k] * p
        g.append(g_n)
    return g


def _egf_reversion_totals(xdim, ydim, n_max):
    """Independent route: f_{P*Q}^{-1} = f_P^{-1} + f_Q^{-1} - t for the
    exponential generating series f_P = sum_n dim_P(n) t^n / n!."""

    def egf(dim):
        return [Fraction(0), Fraction(1)] + [
            Fraction(dim(n), math.factorial(n)) for n in range(2, n_max + 1)
        ]

    gx, gy = _reversion(egf(xdim), n_max), _reversion(egf(ydim), n_max)
    inverse = [a + b for a, b in zip(gx, gy)]
    inverse[1] -= 1
    h = _reversion(inverse, n_max)
    out = [h[n] * math.factorial(n) for n in range(1, n_max + 1)]
    assert all(v.denominator == 1 for v in out)
    return [int(v) for v in out]


def test_numeric_matches_egf_reversion_to_n40():
    rng = random.Random(9)
    builtins = [builtin_operad(name) for name in _BUILTIN_IDS]
    pairs = [(AS, AS), (LIE, COM), (NOV, COMAS)]
    for i in range(6):
        a = explicit_operad("a", [rng.randint(0, 10**6) for _ in range(39)])
        b = explicit_operad("b", [rng.randint(0, 3) for _ in range(rng.randint(0, 6))],
                            rng.choice(builtins))
        pairs.append((a, b) if i % 2 else (b, a))
    for a, b in pairs:
        assert free_product_dims(a, b, 40).totals() == _egf_reversion_totals(a.dim, b.dim, 40)


def _no_dimension(name, n):
    return f"{name}: no dimension supplied for arity {n} (sequence covers up to {n - 1})"


def test_first_operand_to_run_out_is_named_in_either_order():
    a = explicit_operad("a", [1, 2, 3, 4])  # arities up to 5
    b = explicit_operad("b", [1, 2])  # arities up to 3
    for x_op, y_op in ((a, b), (b, a)):
        # the recursion reads both operands arity by arity, so b runs out
        # first even where a would run out later
        with pytest.raises(OperadError, match=f"^{re.escape(_no_dimension('b', 4))}$"):
            free_product_dims(x_op, y_op, 8)
        for color in ("bullet", "circ"):
            with pytest.raises(OperadError, match=f"^{re.escape(_no_dimension('b', 4))}$"):
                avoiding_count(x_op, y_op, 5, color)
    # at the same arity the left operand is read first
    c = explicit_operad("c", [5, 6])
    for x_op, y_op in ((b, c), (c, b)):
        with pytest.raises(OperadError, match=f"^{re.escape(_no_dimension(x_op.name, 4))}$"):
            free_product_dims(x_op, y_op, 8)


def test_basis_count_refuses_an_unknown_root():
    com = builtin_operad("com")
    for n in (1, 3):
        with pytest.raises(OperadError, match="^bad root 'square'$"):
            basis_count(com, com, n, "square")


def test_avoiding_count_refuses_an_unknown_color():
    com = builtin_operad("com")
    for color in ("square", "any"):
        with pytest.raises(OperadError, match=f"^bad color '{color}'$"):
            avoiding_count(com, com, 3, color)


def test_symbolic_d8_polynomials_are_pinned():
    # sha256 of each d_n bullet and circ string, n = 2..8, one per line
    table = symbolic_dims(8)
    text = "".join(f"{table[n][0]}\n{table[n][1]}\n" for n in range(2, 9))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8da1d4d71d2f3a39001a67a68b329de231c610aff1cba4bdfa04604e07d988ca"
    )


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


# --- config text round trips ---------------------------------------------

_BUILTIN_IDS = ("as", "lie", "com", "com-as", "anti-com", "nov")
_ARITIES = range(2, 9)


def _dims(op):
    """op's dimensions at arities 2..8, None past the end of a sequence."""
    out = []
    for k in _ARITIES:
        try:
            out.append(op.dim(k))
        except OperadError:
            out.append(None)
    return out


def _config_text(entries):
    lines = ["# generated"]
    for name, (seq, tail) in entries.items():
        line = f"{name} ="
        if seq is not None:
            line += " [" + ", ".join(map(str, seq)) + "]"
        if tail is not None:
            line += f" builtin:{tail}"
        lines.append(line)
    return "\n".join(lines)


_ENTRIES = st.dictionaries(
    st.from_regex(r"[A-Za-z0-9_-]{1,6}", fullmatch=True),
    st.tuples(
        st.none() | st.lists(st.integers(0, 10**30), max_size=5),
        st.none() | st.sampled_from(_BUILTIN_IDS),
    ).filter(lambda entry: entry != (None, None)),
    max_size=4,
)


@given(_ENTRIES)
def test_config_text_round_trip(entries):
    table = parse_operad_config(_config_text(entries))
    assert sorted(table) == sorted(entries)
    for name, (seq, tail) in entries.items():
        seq = seq or []
        expected = [
            seq[k - 2] if k - 2 < len(seq) else builtin_operad(tail).dim(k) if tail else None
            for k in _ARITIES
        ]
        assert table[name].name == name
        assert _dims(table[name]) == expected


@st.composite
def _near_miss(draw, texts):
    """A valid text with one character dropped."""
    text = draw(texts)
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1:]


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="ab_-=[]0123, #:builtin\n"),
        _near_miss(_ENTRIES.map(_config_text)),
    )
)
def test_parse_operad_config_returns_a_table_or_raises_operad_error(text):
    try:
        table = parse_operad_config(text)
    except OperadError:
        return
    for name, op in table.items():
        assert op.name == name
        dims = _dims(op)
        known = dims[: dims.index(None)] if None in dims else dims
        assert all(d is None for d in dims[len(known):])
        again = parse_operad_config(f"{name} = [{', '.join(map(str, known))}]")[name]
        assert _dims(again) == dims


# Config lines, valid or not, most of them past what the plain-line check
# vouches for: each is checked whatever entries the request names.
_ODD_LINES = [
    "u = [+3, 4]", "v = [\u0663, 2] builtin:lie", "w = [1_0]", "t = [\t2 ,3 ]builtin:as",
    "big = [2, " + "9" * 5000 + "]", "neg = [1, -1]", "nob = builtin:nope",
    "tail = [1] builtin:nope", "e = [1,]", "a = [2]  # comment", "a = builtin:com",
    "c = [-2]", "d = [3] builtin:com-as-", "f = [2 3]", "g = [, 2]",
]


def _table_outcome(*args):
    try:
        table = parse_operad_config(*args)
    except OperadError as exc:
        return str(exc)
    return {name: _dims(op) for name, op in table.items()}


@given(
    st.lists(
        st.one_of(
            _ENTRIES.map(_config_text),
            st.sampled_from(_ODD_LINES),
            st.text(alphabet="ab_-=[]0123, #:builtin"),
        ),
        max_size=5,
    ).map("\n".join),
    st.data(),
)
@settings(max_examples=60)
def test_named_entries_are_the_whole_tables(text, data):
    """Building only some entries still checks every line: the same
    refusal, or the whole table's entries of those names."""
    whole = _table_outcome(text)
    known = sorted(whole) if isinstance(whole, dict) else []
    names = data.draw(st.sets(st.sampled_from(known + ["a", "u", "missing"])))
    named = _table_outcome(text, names)
    if isinstance(whole, str):
        assert named == whole
    else:
        assert named == {name: dims for name, dims in whole.items() if name in names}


@pytest.mark.parametrize("line", _ODD_LINES)
def test_an_unnamed_line_is_checked(line):
    text = f"a = builtin:lie\n{line}\nz = [1, 2]"
    whole = _table_outcome(text)
    for names in ({"z"}, set()):
        expected = whole if isinstance(whole, str) else {
            name: dims for name, dims in whole.items() if name in names}
        assert _table_outcome(text, names) == expected

import functools
import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from freeop.dims import (
    OperadError,
    avoiding_count,
    basis_count,
    builtin_operad,
    explicit_operad,
    free_product_dims,
)
from freeop.trees import (
    BULLET,
    CIRC,
    PATTERNS_BY_NAME,
    arity,
    basis_pieces,
    count_avoiding,
    count_avoiding_recursive,
    enumerate_basis,
    enumerate_unlabeled,
    format_tree,
    graft,
    leaf_labels,
    other_color,
    parse_tree,
    structural_key,
    tree_matches,
    validate_tree,
)
from freeop import dims as dims_mod
from freeop import spnet
from freeop import trees as trees_mod
from freeop.partitions import partitions

LIE = builtin_operad("lie")
COMAS = builtin_operad("com-as")


# --- enumeration vs the dimension recursion ----------------------------


def test_arity_one_is_the_identity():
    assert list(enumerate_basis(LIE, COMAS, 1)) == [1]


def test_counts_match_dims_engine_lie_comas():
    table = free_product_dims(LIE, COMAS, 5)
    for n in range(2, 6):
        trees = list(enumerate_basis(LIE, COMAS, n))
        assert len(trees) == table.total[n]
        assert len(set(trees)) == len(trees)
    assert sum(1 for _ in enumerate_basis(LIE, COMAS, 4)) == 67


def test_root_split_matches_bullet_circ():
    table = free_product_dims(LIE, COMAS, 4)
    for n in range(2, 5):
        assert sum(1 for _ in enumerate_basis(LIE, COMAS, n, BULLET)) == table.bullet[n]
        assert sum(1 for _ in enumerate_basis(LIE, COMAS, n, CIRC)) == table.circ[n]


def test_counts_match_dims_for_random_sequences():
    rng = random.Random(3)
    for _ in range(6):
        a = explicit_operad("a", [rng.randint(0, 3) for _ in range(4)])
        b = explicit_operad("b", [rng.randint(0, 3) for _ in range(4)])
        table = free_product_dims(a, b, 5)
        for n in range(2, 6):
            assert sum(1 for _ in enumerate_basis(a, b, n)) == table.total[n]


def test_basis_count_matches_enumeration_or_fails_with_it():
    # Zeros and short sequences: a count reads no dimension a listing, of
    # trees or of text, would not.
    rng = random.Random(9)

    def op(name):
        return explicit_operad(
            name, [rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(0, 4))]
        )

    def listed_trees(a, b, n, root):
        return sum(1 for _ in enumerate_basis(a, b, n, root))

    def listed_text(a, b, n, root):
        text = "\n".join(basis_pieces(a, b, n, root, "\n"))
        return text.count("\n") + 1 if text else 0

    for _ in range(60):
        a, b, n = op("a"), op("b"), rng.randint(1, 5)
        for root in (BULLET, CIRC, "any"):
            for listed in (listed_trees, listed_text):
                try:
                    count = listed(a, b, n, root)
                except OperadError:
                    with pytest.raises(OperadError):
                        basis_count(a, b, n, root)
                else:
                    assert basis_count(a, b, n, root) == count


def test_a_listing_reads_no_dimension_its_count_did_not():
    # The CLI writes a listing's pieces as they are built, after its count:
    # an OperadError from a dimension only the listing reads would come
    # after the first byte.  Nor does a count read a dimension that its
    # listing, on fresh operands, does not.  Operands with zeros, short
    # sequences and builtin tails; every dimension read through fn, by side.
    rng = random.Random(21)
    tails = [None, None, COMAS, LIE, builtin_operad("com")]

    def op():
        seq = [rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(0, 5))]
        return explicit_operad("o", seq, rng.choice(tails))

    def recorded(side, operand, reads):
        return dims_mod.OperadDims(side, lambda m: reads.add((side, m)) or operand.fn(m))

    listed = refused = 0
    for _ in range(40):
        a, b = op(), op()
        for n in range(1, 8):
            for root in (BULLET, CIRC, "any"):
                reads = set()
                x, y = recorded("x", a, reads), recorded("y", b, reads)
                try:
                    count = basis_count(x, y, n, root)
                except OperadError:
                    refused += 1
                    continue
                if count > 3000:
                    continue
                counted = set(reads)
                text = "\n".join(basis_pieces(x, y, n, root))
                assert reads == counted, (a, b, n, root, reads - counted)
                assert text.count("\n") + bool(text) == count
                reads.clear()
                x, y = recorded("x", a, reads), recorded("y", b, reads)
                list(basis_pieces(x, y, n, root))
                assert reads == counted, (a, b, n, root, counted - reads)
                listed += 1
    assert listed > 300 and refused > 50


def _zero_laden_pairs():
    rng = random.Random(5)
    return [
        tuple(
            explicit_operad(name, [rng.choice((0, 0, 1, 2)) for _ in range(5)])
            for name in "ab"
        )
        for _ in range(8)
    ]


def _formatted(a, b, n, root):
    """format_tree of each tree of enumerate_basis, in order."""
    return [format_tree(t) for t in enumerate_basis(a, b, n, root)]


def _rooted(lines, root):
    """The lines of trees with the given root color ("any" keeps all)."""
    return [line for line in lines if root in ("any", line[:line.index("[")])]


def _first_difference(got: str, expected: str, sep: str) -> tuple:
    """Where two listings joined by sep first differ: the item's index and
    each listing's item there (None past its end).  Listings are compared
    outside assert, which would diff megabytes of text for minutes."""
    pairs = itertools.zip_longest(got.split(sep), expected.split(sep))
    return next((i, g, e) for i, (g, e) in enumerate(pairs) if g != e)


def test_basis_lines_are_the_formatted_enumeration():
    # Zero dimensions drop whole label blocks; every root, list and order.
    for a, b in [(LIE, COMAS)] + _zero_laden_pairs():
        for n in range(1, 7):
            for root in (BULLET, CIRC, "any"):
                expected = "\n".join(_formatted(a, b, n, root))
                got = "\n".join(basis_pieces(a, b, n, root))
                same = got == expected
                assert same, (a.name, b.name, n, root, _first_difference(got, expected, "\n"))


def test_basis_pieces_join_as_the_lines():
    zero = explicit_operad("z", [0] * 5)
    corolla = explicit_operad("s", [0, 0, 0, 0, 0, 0, 1])
    cases = [(a, b, n) for a, b in [(LIE, COMAS), (zero, LIE)] + _zero_laden_pairs()
             for n in range(1, 7)]
    for a, b, n in cases + [(corolla, corolla, 8)]:
        for root in (BULLET, CIRC, "any"):
            lines = _formatted(a, b, n, root)
            for sep in ("\n", '", "'):
                pieces = list(basis_pieces(a, b, n, root, sep))
                got, expected = sep.join(pieces), sep.join(lines)
                same = got == expected
                assert same, (a.name, b.name, n, root, _first_difference(got, expected, sep))
                assert len(pieces) <= len(lines)
    assert list(basis_pieces(zero, LIE, 4, BULLET)) == []
    assert list(basis_pieces(corolla, corolla, 8, CIRC)) == [
        "circ[dec=0](1, 2, 3, 4, 5, 6, 7, 8)"]
    # A bullet root over the blocks {1, 2, 3} and {4}: lie's d2 = 1, so one
    # piece holds the four circ subtrees on {1, 2, 3}, each before the leaf 4.
    piece = "\n".join(
        f"bullet[dec=0]({t}, 4)" for t in _formatted(LIE, COMAS, 3, CIRC))
    assert piece.count("\n") == 3
    assert piece in list(basis_pieces(LIE, COMAS, 4, BULLET))


def test_basis_pieces_are_the_formatted_enumeration_byte_for_byte(monkeypatch):
    # The relabeled text against the independent route, format_tree over
    # enumerate_basis: every builtin and two sparse operands, each pair,
    # at n = 1..7 where the basis has at most 600 trees (the sparse pairs
    # reach n = 7), every root and both listing separators.  Vertices of
    # one decoration (com-as) and of 2 to 120 (as at n = 5), one text each
    # stamped with every decoration.
    operands = [builtin_operad(name) for name in sorted(dims_mod._BUILTINS)]
    operands += [explicit_operad("s", [1, 0, 0, 1, 0, 2]),
                 explicit_operad("t", [0, 1, 0, 0, 1, 0])]
    decorations = set()
    for a, b in itertools.product(operands, repeat=2):
        for n in range(1, 8):
            if basis_count(a, b, n) > 600:
                continue
            for root in (BULLET, CIRC, "any"):
                lines = [format_tree(t) for t in enumerate_basis(a, b, n, root)]
                for sep in ("\n", '", "'):
                    text, expected = sep.join(basis_pieces(a, b, n, root, sep)), sep.join(lines)
                    same = text == expected
                    assert same, (a.name, b.name, n, root, sep,
                                  _first_difference(text, expected, sep))
                decorations.update(re.findall(r"dec=(\d+)", "".join(lines)))
    assert {"0", "11", "119"} <= decorations
    # Then two sparse operands up to n = 10, the leaf 10 printed as two
    # digits: d5 and d7 against d4, d5 and d10 = 12 (two-digit decorations
    # beside it), 126 to 342 trees.  Both routes walk the same set
    # partitions, so they are built once for the test.
    monkeypatch.setattr(trees_mod, "_set_partitions",
                        functools.cache(trees_mod._set_partitions))
    a = explicit_operad("s", [0, 0, 0, 1, 0, 1, 0, 0, 0])
    b = explicit_operad("t", [0, 0, 1, 1, 0, 0, 0, 0, 12])
    for n in range(8, 11):
        lines = [format_tree(t) for t in enumerate_basis(a, b, n)]
        assert any("10)" in line for line in lines) == (n == 10)
        assert ("circ[dec=11](1, 2, 3, 4, 5, 6, 7, 8, 9, 10)" in lines) == (n == 10)
        for root in (BULLET, CIRC, "any"):
            rooted = _rooted(lines, root)
            for sep in ("\n", '", "'):
                text, expected = sep.join(basis_pieces(a, b, n, root, sep)), sep.join(rooted)
                same = text == expected
                assert same, (n, root, sep, _first_difference(text, expected, sep))


def test_one_tree_per_decoration_is_the_formatted_enumeration(monkeypatch):
    # Under an as root, com-as children of sizes 1 and 2 are one tree each,
    # so a root over such blocks is one tree per decoration, d = k! >= 2 of
    # them; every root and both separators, against format_tree over
    # enumerate_basis (compared outside assert: a diff of megabytes of
    # text would take minutes).
    monkeypatch.setattr(trees_mod, "_set_partitions",
                        functools.cache(trees_mod._set_partitions))
    as_ = builtin_operad("as")
    for n in range(2, 7):
        lines = _formatted(as_, COMAS, n, "any")
        corolla = f"({', '.join(map(str, range(1, n + 1)))})"
        assert f"bullet[dec={math.factorial(n) - 1}]{corolla}" in lines
        for root in (BULLET, CIRC, "any"):
            rooted = _rooted(lines, root)
            for sep in ("\n", '", "'):
                same = sep.join(basis_pieces(as_, COMAS, n, root, sep)) == sep.join(rooted)
                assert same, (n, root, sep)


def test_readme_sparse_listing_at_ten_leaves_is_the_formatted_enumeration(monkeypatch):
    # README's s = [0, 0, 1, 0, 0, 0, 0, 0, 1] against itself at n = 10:
    # 11,552 trees of one decoration each, the label 10 among them.
    monkeypatch.setattr(trees_mod, "_set_partitions",
                        functools.cache(trees_mod._set_partitions))
    s = explicit_operad("s", [0, 0, 1, 0, 0, 0, 0, 0, 1])
    lines = _formatted(s, s, 10, "any")
    assert len(lines) == 11552 and "circ[dec=0](1, 2, 3, 4, 5, 6, 7, 8, 9, 10)" in lines
    for root in (BULLET, CIRC, "any"):
        same = "\n".join(basis_pieces(s, s, 10, root)) == "\n".join(_rooted(lines, root))
        assert same, root


def test_basis_pieces_refuse_more_leaves_than_placeholders():
    # Refused by the call, before the first piece, as the count would be.
    with pytest.raises(ValueError, match="arity must be <= 10, got 11"):
        basis_pieces(COMAS, COMAS, 11)
    with pytest.raises(ValueError, match="bad root 'root'"):
        basis_pieces(COMAS, COMAS, 3, "root")
    with pytest.raises(ValueError, match="arity must be >= 1, got 0"):
        basis_pieces(COMAS, COMAS, 0)


def _extend_partition(i, k, parts, results):
    """Reference: append to results each set partition of range(k) that
    extends parts, a set partition of range(i), as (composition, order),
    the order the bytes of its blocks' indices concatenated."""
    if i == k:
        results.append((tuple(map(len, parts)), bytes(itertools.chain.from_iterable(parts))))
        return
    for b in parts:
        b.append(i)
        _extend_partition(i + 1, k, parts, results)
        b.pop()
    parts.append([i])
    _extend_partition(i + 1, k, parts, results)
    parts.pop()


def test_set_partitions_are_the_recursive_reference_in_order():
    for k in range(10):
        expected = []
        _extend_partition(0, k, [], expected)
        assert trees_mod._set_partitions(k) == expected, k
    assert len(expected) == 21147


def test_relabeling_tables_fix_all_of_ascii_but_the_placeholders(monkeypatch):
    # Every table a listing translates through, on a text that holds each
    # placeholder and every other byte: the labels at the root (_pieces),
    # over a set partition in block order and reversed, and a placeholder
    # shift at each offset (_subtrees).  Only the first k placeholders
    # change; a separator outside ASCII passes through as its UTF-8 bytes.
    placeholders = trees_mod._PLACEHOLDERS.decode()
    # every code point below 0x800, then one for each longer UTF-8 lead byte
    text = "".join(map(chr, [*range(0x800), *(max(0x800, i << 12) for i in range(16)),
                             *(max(0x10000, i << 18) for i in range(5))]))
    assert set(text.encode()) == set(range(256)) - {0xC0, 0xC1, *range(0xF5, 0x100)}

    def relabeled(labels):
        return text.translate(str.maketrans(placeholders[:len(labels)], labels))

    monkeypatch.setattr(trees_mod, "_composed", lambda *args: text)
    for k in range(1, 11):
        for order, labels in [(bytes(range(k)), "123456789T"[:k]),
                              (bytes(range(k))[::-1], "T987654321"[10 - k:])]:
            memo = {k: [((k,), order)]}
            pieces = list(trees_mod._pieces(
                k, BULLET, "\n", b"123456789" + trees_mod._TEN.encode(), {}, memo))
            assert pieces == [relabeled(labels)], (k, order)
        for offset in range(11 - k):
            memo = {(k, CIRC, 0): text.split("\n")}
            shifted = "\n".join(trees_mod._subtrees(k, CIRC, offset, {}, memo))
            expected = placeholders[offset] if k == 1 else relabeled(
                placeholders[offset:offset + k])
            assert shifted == expected, (k, offset)


def _walk_bound(n):
    """2 (Bell(2) + ... + Bell(n)), Bell numbers by their recurrence."""
    bell = [1]
    for m in range(n):
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))
    return 2 * sum(bell[2:])


def test_basis_walk_is_the_com_as_walk_and_bounds_the_rest(monkeypatch):
    # The (size, color, partition) visits: each (size, color) walks the
    # partitions of its size, computed once per size and call.
    sizes = []
    visits = [0]
    set_partitions = trees_mod._set_partitions

    class Walked(list):
        def __iter__(self):
            for blocks in super().__iter__():
                visits[0] += 1
                yield blocks

    def counted(k):
        sizes.append(k)
        return Walked(set_partitions(k))

    def walked(a, b, n, root, sep="\n"):
        sizes.clear()
        visits[0] = 0
        list(basis_pieces(a, b, n, root, sep))
        assert len(sizes) == len(set(sizes))
        return visits[0]

    monkeypatch.setattr(trees_mod, "_set_partitions", counted)
    # com-as*com-as visits every size from 2 to n in both colors, once
    # whatever the separator.
    assert [_walk_bound(n) for n in (1, 2, 3, 10)] == [0, 4, 14, 284832]
    for n in range(1, 9):
        assert walked(COMAS, COMAS, n, "any") == _walk_bound(n), n
        assert walked(COMAS, COMAS, n, "any", '", "') == _walk_bound(n), n
    rng = random.Random(13)
    for _ in range(2):
        a, b = (
            explicit_operad(name, [rng.choice((0, 0, 1)) for _ in range(7)])
            for name in "ab"
        )
        for n in range(1, 9):
            for root in (BULLET, CIRC, "any"):
                assert walked(a, b, n, root) <= _walk_bound(n), (n, root)


def test_enumerated_trees_are_canonical_and_alternating():
    for t in enumerate_basis(LIE, COMAS, 4):
        validate_tree(t)
        labels = leaf_labels(t)
        assert sorted(labels) == [1, 2, 3, 4]

        def check_child_order(node):
            if isinstance(node, int):
                return
            mins = [min(leaf_labels(c)) for c in node[2]]
            assert mins == sorted(mins)
            for c in node[2]:
                check_child_order(c)

        check_child_order(t)


# --- grafting ----------------------------------------------------------


def test_graft_worked_example():
    t = (BULLET, 0, (2, 1, 3))
    args = [1, (CIRC, 0, (2, 1)), (BULLET, 0, (1, 2))]
    out = graft(t, args)
    assert out == (BULLET, 0, ((CIRC, 0, (3, 2)), 1, 4, 5))
    validate_tree(out)


def test_graft_identity_laws():
    t = (CIRC, 0, ((BULLET, 0, (2, 3)), 1))
    assert graft(t, [1] * 3) == t
    assert graft(1, [t]) == t


def test_graft_merges_same_color():
    assert graft((BULLET, 0, (1, 2)), [(BULLET, 0, (1, 2)), 1]) == (BULLET, 0, (1, 2, 3))


def test_graft_arity_mismatch():
    with pytest.raises(ValueError):
        graft((BULLET, 0, (1, 2)), [1])


def _random_planar_tree(rng, n, color=None):
    """A random B-operad tree: planar, alternating, random leaf permutation."""

    def shape(k, c):
        if k == 1:
            return 0
        m = rng.randint(2, k)
        cuts = sorted(rng.sample(range(1, k), m - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [k])]
        return (c, 0, tuple(shape(s, other_color(c)) for s in sizes))

    if n == 1:
        return 1
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    it = iter(labels)

    def fill(node):
        if isinstance(node, int):
            return next(it)
        return (node[0], node[1], tuple(fill(c) for c in node[2]))

    return fill(shape(n, color or rng.choice((BULLET, CIRC))))


def test_graft_alternation_and_associativity_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 4)
        t = _random_planar_tree(rng, n)
        us = [_random_planar_tree(rng, rng.randint(1, 3)) for _ in range(n)]
        total = sum(arity(u) for u in us)
        vs = [_random_planar_tree(rng, rng.randint(1, 2)) for _ in range(total)]

        left = graft(graft(t, us), vs)
        validate_tree(left)

        ws = []
        pos = 0
        for u in us:
            k = arity(u)
            ws.append(graft(u, vs[pos:pos + k]))
            pos += k
        right = graft(t, ws)
        assert left == right


# --- pattern avoidance -------------------------------------------------


def test_poisson_quotient_counts():
    pattern = [PATTERNS_BY_NAME["bullet-composite-child"]]
    assert count_avoiding(LIE, COMAS, 3, pattern) == 6
    assert count_avoiding(LIE, COMAS, 4, pattern) == 24
    total4 = sum(1 for _ in enumerate_basis(LIE, COMAS, 4))
    assert total4 == 67
    reduced = sum(1 for t in enumerate_basis(LIE, COMAS, 4) if tree_matches(t, pattern))
    assert reduced == 43


def test_empty_pattern_list_counts_everything():
    assert count_avoiding(LIE, COMAS, 4, []) == 67


def _count_avoiding_by_enumeration(x, y, n, patterns):
    """Oracle: the basis trees of enumerate_basis that tree_matches rejects."""
    if n == 1:
        return 1
    return sum(1 for t in enumerate_basis(x, y, n) if not tree_matches(t, patterns))


def test_avoiding_matches_recursive_oracle():
    rng = random.Random(5)
    for _ in range(5):
        a = explicit_operad("a", [rng.randint(0, 3) for _ in range(4)])
        b = explicit_operad("b", [rng.randint(0, 3) for _ in range(4)])
        for pattern in PATTERNS_BY_NAME.values():
            for n in range(1, 6):
                assert _count_avoiding_by_enumeration(
                    a, b, n, [pattern]
                ) == count_avoiding_recursive(a, b, n, [pattern])


@pytest.mark.parametrize("seed", range(8))
def test_avoiding_count_matches_both_oracles(seed):
    rng = random.Random(seed)
    a = explicit_operad("a", [rng.randint(0, 2) for _ in range(5)])
    b = explicit_operad("b", [rng.randint(0, 2) for _ in range(5)])
    for name, pattern in PATTERNS_BY_NAME.items():
        for n in range(1, 7):
            got = avoiding_count(a, b, n, pattern)
            assert got == count_avoiding(a, b, n, [pattern]), (name, n)
            assert got == _count_avoiding_by_enumeration(a, b, n, [pattern]), (name, n)
            assert got == count_avoiding_recursive(a, b, n, [pattern]), (name, n)


@pytest.mark.parametrize("seed", range(4))
def test_count_avoiding_matches_enumeration_for_any_pattern_list(seed):
    rng = random.Random(seed)
    a = explicit_operad("a", [rng.randint(0, 2) for _ in range(5)])
    b = explicit_operad("b", [rng.randint(0, 2) for _ in range(5)])
    pattern_lists = [[], [BULLET, CIRC], [CIRC, BULLET, CIRC], [CIRC]]
    for patterns in pattern_lists:
        for n in range(1, 7):
            assert count_avoiding(a, b, n, patterns) == _count_avoiding_by_enumeration(
                a, b, n, patterns
            ), (patterns, n)


def test_a_pattern_that_is_not_a_color_is_refused():
    # A pattern's name, a bare color string or an unknown entry would
    # otherwise count as no pattern, or match as a substring; the
    # enumeration oracle's tree_matches refuses them as the counts do.
    as_ = builtin_operad("as")
    tree = next(t for t in enumerate_basis(as_, as_, 4) if tree_matches(t, [BULLET]))
    for patterns, bad in ((["bullet-composite-child"], "bullet-composite-child"),
                          ("bullet-composite-child", "b"), ([CIRC, BULLET, "other"], "other"),
                          ("bullet", "b"), ([None], None)):
        for count in (count_avoiding, count_avoiding_recursive):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                count(as_, as_, 5, patterns)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            tree_matches(tree, patterns)
    for count in (count_avoiding, count_avoiding_recursive):
        assert count(as_, as_, 5, [PATTERNS_BY_NAME["bullet-composite-child"]]) == 1920


def test_both_colors_leave_the_root_corollas():
    both = [BULLET, CIRC]
    assert count_avoiding(LIE, COMAS, 1, both) == 1
    for n in range(2, 6):
        assert count_avoiding(LIE, COMAS, n, both) == LIE.dim(n) + COMAS.dim(n)
    with pytest.raises(OperadError):
        count_avoiding(LIE, COMAS, 0, both)


def test_poisson_dimension_is_factorial_up_to_5():
    import math

    pattern = [PATTERNS_BY_NAME["bullet-composite-child"]]
    for n in range(1, 6):
        assert count_avoiding(LIE, COMAS, n, pattern) == math.factorial(n)


# --- series-parallel classification ------------------------------------


def test_classify_small_trees():
    assert spnet.tree_to_network((BULLET, 0, (1, 2))) == spnet.make_node(
        spnet.PARALLEL, (spnet.EDGE, spnet.EDGE)
    )
    assert spnet.tree_to_network((CIRC, 0, (1, 2))) == spnet.make_node(
        spnet.SERIES, (spnet.EDGE, spnet.EDGE)
    )


def test_arity_4_comas_trees_fall_into_10_fibers():
    fibers = {spnet.tree_to_network(t) for t in enumerate_basis(COMAS, COMAS, 4)}
    assert len(fibers) == 10


def test_fiber_sum_decomposition():
    com = builtin_operad("com")
    for n in range(2, 7):
        total = 0
        fibers = Counter()
        for t in enumerate_basis(LIE, com, n):
            fibers[spnet.tree_to_network(t)] += 1
            total += 1
        assert sum(fibers.values()) == total
        assert total == free_product_dims(LIE, com, n).total[n]
        assert len(fibers) <= spnet.macmahon(n)


# --- unlabeled mode ----------------------------------------------------


def test_unlabeled_comas_count_is_macmahon():
    for n in range(1, 9):
        count = sum(1 for _ in enumerate_unlabeled(COMAS, COMAS, n))
        assert count == spnet.macmahon(n)


def _unlabeled_by_partitions(x, y, n, color, cache):
    """Reference enumeration: children chosen per integer partition of the
    arity (parts descending), one multiset of subtrees per part size."""
    key = (n, color)
    if key not in cache:
        out = []
        dim = x.dim if color == BULLET else y.dim
        for lam in partitions(n, 2):
            per_size = [
                [(0,) * mult]
                if s == 1
                else list(
                    itertools.combinations_with_replacement(
                        _unlabeled_by_partitions(x, y, s, other_color(color), cache), mult
                    )
                )
                for s, mult in sorted(Counter(lam).items(), reverse=True)
            ]
            for dec in range(dim(len(lam))):
                for groups in itertools.product(*per_size):
                    children = sorted(itertools.chain.from_iterable(groups), key=structural_key)
                    out.append((color, dec, tuple(children)))
        cache[key] = out
    return cache[key]


# Zero dimensions at every other arity, so whole partitions drop out.
ZEROS_ODD = explicit_operad("zeros-odd", [1, 0, 2, 0, 1, 0, 1])
ZEROS_EVEN = explicit_operad("zeros-even", [0, 1, 0, 3, 0, 1, 2])


@pytest.mark.parametrize(
    "x, y",
    [
        (COMAS, COMAS),
        (LIE, builtin_operad("com")),
        (ZEROS_ODD, ZEROS_EVEN),
        (ZEROS_EVEN, ZEROS_ODD),
    ],
    ids=["comas-comas", "lie-com", "zeros-odd-even", "zeros-even-odd"],
)
def test_unlabeled_order_matches_partition_loop(x, y):
    cache = {}
    for n in range(1, 9):
        bullet = [0] if n == 1 else _unlabeled_by_partitions(x, y, n, BULLET, cache)
        circ = [0] if n == 1 else _unlabeled_by_partitions(x, y, n, CIRC, cache)
        assert list(enumerate_unlabeled(x, y, n, BULLET)) == bullet
        assert list(enumerate_unlabeled(x, y, n, CIRC)) == circ
        any_root = list(enumerate_unlabeled(x, y, n))
        assert any_root == ([0] if n == 1 else bullet + circ)


def test_unlabeled_rejects_bad_requests():
    with pytest.raises(ValueError, match="arity"):
        list(enumerate_unlabeled(COMAS, COMAS, 0))
    with pytest.raises(ValueError, match="bad root"):
        list(enumerate_unlabeled(COMAS, COMAS, 3, "square"))


# --- serialization -----------------------------------------------------


def test_round_trip_serialization():
    for n in range(1, 5):
        for t in enumerate_basis(LIE, COMAS, n):
            assert parse_tree(format_tree(t)) == t


@st.composite
def _trees(draw, parent=None, depth=0):
    """Valid trees: any leaf labels, vertex colors alternating."""
    if depth == 4 or draw(st.booleans()):
        return draw(st.integers(0, 10**6))
    color = draw(st.sampled_from([c for c in (BULLET, CIRC) if c != parent]))
    children = draw(st.lists(_trees(color, depth + 1), min_size=2, max_size=4))
    return (color, draw(st.integers(0, 99)), tuple(children))


@given(_trees())
def test_tree_text_round_trip(t):
    assert parse_tree(format_tree(t)) == t


@st.composite
def _near_miss(draw, texts):
    """A valid text with one character dropped."""
    text = draw(texts)
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1:]


def _nested_tree(levels):
    """A tree text with levels vertices on the path to leaf 1."""
    text = "1"
    for i in range(2, levels + 2):
        text = f"{(CIRC, BULLET)[i % 2]}[dec=0]({text}, {i})"
    return text


@pytest.mark.parametrize(
    "text, refusal",
    [
        # the first fault the parser meets is named, not a later stray
        ("bullet[dec=0](1, x)", "expected color or leaf, got 'x' at position 17"),
        ("bullet[dec=0]((1, 2)  E", "expected color or leaf, got '(' at position 14"),
        ("bullet[dec=](1, 2)", "expected [dec=K] after bullet at position 6"),
        ("bullet[dec=0]1, 2)", "expected '(' at position 13"),
        ("bullet[dec=0](1, 2", "expected ')' at position 18"),
        ("bullet(1, 2)", "expected [dec=K] after bullet at position 6"),
        ("bullet[dec=0](1, 2) 3", "trailing tokens at position 20"),
        ("", "unexpected end of input at position 0"),
        ("bullet[dec=0](", "unexpected end of input at position 14"),
        ("bullet[dec=0](, 2)", "expected color or leaf, got ',' at position 14"),
        pytest.param("bullet[dec=0](" + "1" * 5000 + ", 2)",
                     "number too long (5000 digits) at position 14", id="long leaf"),
        pytest.param("circ[dec=" + "7" * 5000 + "](1, 2)",
                     "number too long (5000 digits) at position 9", id="long dec"),
        # the 201st vertex on the path to leaf 1 starts at 2600
        pytest.param(_nested_tree(201), "nesting deeper than 200 levels at position 2600",
                     id="nesting"),
    ],
)
def test_parse_tree_refusals(text, refusal):
    with pytest.raises(ValueError) as info:
        parse_tree(text)
    assert str(info.value) == refusal


def test_parse_tree_refuses_a_character_outside_the_grammar_anywhere():
    # first fault: a stray inserted into a valid text is refused where it
    # stands or, inside "bullet", "circ" or "[dec=K]", where that token starts
    rng = random.Random(22)
    texts = list(map(format_tree, enumerate_basis(LIE, COMAS, 5)))
    for _ in range(500):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice("xE@") + text[i:]
        with pytest.raises(ValueError, match=r" at position \d+$") as info:
            parse_tree(text)
        pos = int(info.value.args[0].rsplit(" ", 1)[1])
        assert pos <= i and not set(text[pos:i]) & set(" (),")


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="bulletcirc[dec=]0123456789(), "),
        _near_miss(_trees().map(format_tree)),
    )
)
def test_parse_tree_returns_a_tree_or_raises_value_error(text):
    try:
        t = parse_tree(text)
    except ValueError:
        return
    validate_tree(t)
    assert parse_tree(format_tree(t)) == t


def test_parse_rejects_malformed():
    # a vertex's own refusals name where the vertex starts
    for text, refusal in [
        ("bullet[dec=0](1)", "internal vertex needs at least two children at position 0"),
        ("circ[dec=0](1, bullet[dec=0](2))",
         "internal vertex needs at least two children at position 15"),
        ("bullet[dec=0](1, bullet[dec=0](2, 3))", "same-color edge at position 0"),
        ("circ[dec=1](3, bullet[dec=0](1, bullet[dec=0](2, 4)))",
         "same-color edge at position 15"),
        ("green[dec=0](1, 2)", "expected color or leaf, got 'g' at position 0"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_tree(text)
        assert str(info.value) == refusal


def test_validate_tree_rejects_list_children():
    validate_tree((BULLET, 0, (1, (CIRC, 0, (2, 3)))))
    with pytest.raises(ValueError, match="children must be a tuple, got list"):
        validate_tree((BULLET, 0, (1, (CIRC, 0, [2, 3]))))


def test_validate_tree_rejects_a_bad_color_or_decoration():
    with pytest.raises(ValueError, match="^bad color 'green'$"):
        validate_tree((BULLET, 0, (1, ("green", 0, (2, 3)))))
    with pytest.raises(ValueError, match="^bad decoration -1$"):
        validate_tree((CIRC, 0, (1, (BULLET, -1, (2, 3)))))


NOT_A_TREE = "a tree is an int leaf or a (color, dec, children) tuple, got "


@pytest.mark.parametrize("t, refusal", [
    ((BULLET, "x", (1, 2)), "bad decoration 'x'"),
    ((BULLET, True, (1, 2)), "bad decoration True"),
    ((BULLET, 1.0, (1, 2)), "bad decoration 1.0"),
    ((CIRC, 0, (1, (BULLET, None, (2, 3)))), "bad decoration None"),
    ((BULLET, 0, (1.5, 2)), NOT_A_TREE + "1.5"),
    ((BULLET, 0, (1, True)), NOT_A_TREE + "True"),
    ((BULLET, 0, (1, "2")), NOT_A_TREE + "'2'"),
    ((BULLET, 0, (1, (CIRC, 0))), NOT_A_TREE + "('circ', 0)"),
    (None, NOT_A_TREE + "None"),
])
def test_validate_tree_refuses_what_is_not_a_tree_by_value(t, refusal):
    with pytest.raises(ValueError) as info:
        validate_tree(t)
    assert str(info.value) == refusal


def test_validate_tree_takes_zero_leaves():
    # unlabeled mode writes every leaf as 0
    validate_tree(0)
    validate_tree((BULLET, 0, (0, (CIRC, 2, (0, 0, 0)))))
    for t in enumerate_unlabeled(COMAS, COMAS, 5):
        validate_tree(t)


@pytest.mark.parametrize(
    "text, pos",
    [("bullet[dec=0](" + "1" * 5000 + ", 2)", 14), ("bullet[dec=" + "7" * 5000 + "](1, 2)", 11)],
    ids=["leaf", "dec"],
)
def test_parse_refuses_numbers_past_the_int_string_limit(text, pos):
    with pytest.raises(ValueError, match=rf"^number too long \(5000 digits\) at position {pos}$"):
        parse_tree(text)


def test_parse_refuses_deep_nesting_by_name():
    text = "1"
    for i in range(2, 202):
        text = f"{(CIRC, BULLET)[i % 2]}[dec=0]({text}, {i})"
    assert arity(parse_tree(text)) == 201  # 200 levels
    deeper = f"circ[dec=0]({text}, 202)"
    innermost = deeper.index("(1, 2)") - len("circ[dec=0]")
    with pytest.raises(ValueError, match=f"nesting deeper than 200 levels at position {innermost}$"):
        parse_tree(deeper)

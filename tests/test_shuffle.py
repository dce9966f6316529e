import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from freeop import shuffle
from freeop.dims import builtin_operad, explicit_operad, free_product_dims
from freeop.shuffle import (
    ConfluenceReport,
    ParseError,
    RewriteRule,
    ShuffleConditionError,
    ShuffleElement,
    ShuffleError,
    all_embeddings,
    arity,
    check_confluence,
    compare,
    count_normal_monomials,
    enumerate_shuffle_trees,
    find_divisor,
    is_normal,
    leaves,
    min_leaf,
    monomial_key,
    normal_form,
    orient,
    overlaps,
    parse_element,
    parse_monomial,
    parse_rules,
    print_monomial,
    rewrite_at,
    rules_alphabet,
    symbols_of,
    validate_monomial,
)

XY = [("x", 2), ("y", 2)]

JACOBI = parse_rules("x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)")
LIE_ADM = parse_rules(
    "x(x(1 2) 3) = x(y(1 2) 3) + y(x(1 2) 3) - y(y(1 2) 3) - y(1 x(2 3))"
    " + y(1 y(2 3)) + x(1 x(2 3)) - x(1 y(2 3)) - x(y(1 3) 2) + x(x(1 3) 2)"
    " + y(y(1 3) 2) - y(x(1 3) 2)"
)
CUBIC = parse_rules("x(x(x(1 2) 3) 4) = x(1 x(2 x(3 4)))")


# --- parsing -----------------------------------------------------------


def test_parse_and_print_round_trip():
    for text in ("x(x(1 2) 3)", "x(1 2)", "y(x(1 4) x(2 3))", "x(1 x(2 x(3 4)))"):
        m = parse_monomial(text)
        assert print_monomial(m) == text
        assert parse_monomial(print_monomial(m)) == m


def test_parse_reports_shuffle_violation():
    with pytest.raises(ShuffleConditionError):
        parse_monomial("x(x(2 3) 1)")
    with pytest.raises(ShuffleConditionError):
        parse_monomial("x(1 x(2 2))")


def test_parse_reports_syntax_error_with_position():
    with pytest.raises(ParseError) as info:
        parse_monomial("x(1 2")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_monomial("x(1 2) junk")


def test_parse_refuses_numbers_past_the_int_string_limit():
    with pytest.raises(ParseError, match=r"^number too long \(5000 digits\) \(at position 0\)$"):
        parse_monomial("1" * 5000)
    with pytest.raises(ParseError) as info:
        parse_monomial("x(1 " + "2" * 5000 + ")")
    assert info.value.position == 4


def test_parse_refuses_deep_nesting_by_name():
    text = "x(1 2)"
    for i in range(3, 202):
        text = f"x({text} {i})"
    assert arity(parse_monomial(text)) == 201
    with pytest.raises(ParseError, match=r"nesting deeper than 200 levels \(at position 400\)"):
        parse_monomial(f"x({text} 202)")


def test_round_trip_on_enumerated_monomials():
    for m in enumerate_shuffle_trees(XY, 4):
        assert parse_monomial(print_monomial(m)) == m


# --- enumeration -------------------------------------------------------


def test_enumeration_counts():
    assert list(enumerate_shuffle_trees([("x", 2)], 2)) == [("x", 1, 2)]
    assert len(list(enumerate_shuffle_trees(XY, 2))) == 2
    assert len(list(enumerate_shuffle_trees(XY, 3))) == 12


def test_enumeration_matches_com_anticom_dims():
    table = free_product_dims(
        builtin_operad("com"), builtin_operad("anti-com"), 6
    )
    for n in range(2, 7):
        monos = list(enumerate_shuffle_trees(XY, n))
        assert len(monos) == table.total[n]
        assert len(set(monos)) == len(monos)


def test_single_generator_count_is_double_factorial():
    com = builtin_operad("com")
    for n in range(2, 7):
        count = sum(1 for _ in enumerate_shuffle_trees([("x", 2)], n))
        assert count == com.dim(n)


def test_enumerated_monomials_satisfy_shuffle_condition():
    for n in range(2, 6):
        for m in enumerate_shuffle_trees(XY, n):
            validate_monomial(m)
            assert sorted(leaves(m)) == list(range(1, n + 1))


def test_higher_arity_generators_rejected():
    with pytest.raises(ShuffleError, match="^only binary generators are supported, got t/3$"):
        list(enumerate_shuffle_trees([("t", 3)], 3))


# --- monomial order ----------------------------------------------------


def test_leading_monomial_comparisons():
    top = parse_monomial("x(x(1 2) 3)")
    assert compare(top, parse_monomial("x(x(1 3) 2)")) == 1
    assert compare(top, parse_monomial("x(1 x(2 3))")) == 1
    assert compare(top, parse_monomial("y(y(1 3) 2)")) == 1
    assert compare(top, top) == 0
    assert LIE_ADM[0].lhs == top
    assert JACOBI[0].lhs == top


def test_order_is_total_and_consistent():
    monos = list(enumerate_shuffle_trees(XY, 3))
    for a in monos:
        for b in monos:
            c = compare(a, b)
            assert c == -compare(b, a)
            assert (c == 0) == (a == b)
    # transitivity via sorted consistency
    import functools

    key = functools.cmp_to_key(compare)
    ordered = sorted(monos, key=key)
    for a, b in zip(ordered, ordered[1:]):
        assert compare(a, b) == -1


def test_order_is_graded_by_arity():
    small, large = parse_monomial("x(1 2)"), parse_monomial("y(1 y(2 3))")
    assert compare(small, large) == -1
    assert compare(large, small) == 1


def test_order_key_separates_symbols_of_several_characters():
    # joined without a boundary, the path words of these two were one word
    alphabet = [(s, 2) for s in ("a", "b", "ab", "ba")]
    monos = [m for n in range(1, 5) for m in enumerate_shuffle_trees(alphabet, n)]
    assert len({monomial_key(m) for m in monos}) == len(monos) == 1013
    # so an element's text does not depend on the order of its terms
    terms = [(m, 1 + k % 3) for k, m in enumerate(monos) if arity(m) == 4]
    assert str(ShuffleElement(dict(terms))) == str(ShuffleElement(dict(terms[::-1])))
    big, small = "a(ba(1 4) ba(2 3))", "ab(a(1 4) a(2 3))"
    assert compare(parse_monomial(big), parse_monomial(small)) == 1  # "a" beats "ab"
    assert parse_rules(f"{big} = {small}") == parse_rules(f"{small} = {big}")


def _ref_order_key(m):
    """The order key with path words as tuples: -ord(c) per symbol
    character, each symbol closed by 0, above every -ord(c), and the word
    closed by a sentinel below every -ord(c)."""
    words, planar = {}, []

    def walk(node, word):
        if isinstance(node, int):
            words[node] = word + (-0x110000,)
            planar.append(node)
            return
        word += tuple(-ord(c) for c in node[0]) + (0,)
        for c in node[1:]:
            walk(c, word)

    walk(m, ())
    return len(words), tuple(words[k] for k in sorted(words)), tuple(planar)


def test_order_key_matches_path_word_tuples():
    rng = random.Random(3)
    symbols = ["x", "y", "a", "ab", "ab_1", "b", "é", "_z", "Ab1"]
    monos = list(enumerate_shuffle_trees(XY, 4))
    for _ in range(200):
        low = rng.randint(1, 3)
        labels = list(range(low, low + rng.randint(1, 7)))
        monos.append(_random_monomial(rng, labels, symbols))
    monos += [parse_monomial(t) for t in ("t(1 2)", "x(t(1 3) 2)", "t(1 x(2 4))")]
    for _ in range(100):
        labels = list(range(1, rng.randint(3, 9)))
        monos.append(_random_monomial(rng, labels, symbols[:4] + ["t"]))
    keys = [(monomial_key(m), _ref_order_key(m)) for m in monos]
    for (ka, ra), (kb, rb) in itertools.combinations(keys, 2):
        assert (ka > kb) - (ka < kb) == (ra > rb) - (ra < rb)


def _insert_at_leaf(ctx, label, sub):
    """Plug sub into leaf `label` of ctx, relabeling to stay a shuffle tree."""
    k = arity(sub)

    def shift_ctx(node):
        if isinstance(node, int):
            return node + k - 1 if node > label else node
        return (node[0], *(shift_ctx(c) for c in node[1:]))

    def shift_sub(node):
        if isinstance(node, int):
            return node + label - 1
        return (node[0], *(shift_sub(c) for c in node[1:]))

    def plug(node):
        if isinstance(node, int):
            return shift_sub(sub) if node == label else node
        return (node[0], *(plug(c) for c in node[1:]))

    return plug(shift_ctx(ctx))


def test_order_admissibility_spot_checks():
    rng = random.Random(99)
    monos3 = list(enumerate_shuffle_trees(XY, 3))
    ctxs = list(enumerate_shuffle_trees(XY, 3))
    for _ in range(300):
        a, b = rng.sample(monos3, 2)
        ctx = rng.choice(ctxs)
        label = rng.randint(1, 3)
        big_a = _insert_at_leaf(ctx, label, a)
        big_b = _insert_at_leaf(ctx, label, b)
        validate_monomial(big_a)
        validate_monomial(big_b)
        assert compare(big_a, big_b) == compare(a, b)


# --- divisor search ----------------------------------------------------


def test_find_divisor_examples():
    lhs = parse_monomial("x(x(1 2) 3)")
    m = parse_monomial("x(x(x(1 2) 3) 4)")
    emb = find_divisor(m, lhs)
    assert emb is not None and emb.path == ()
    assert find_divisor(parse_monomial("x(1 x(2 3))"), lhs) is None
    self_emb = find_divisor(lhs, lhs)
    assert self_emb is not None and self_emb.slots == {1: 1, 2: 2, 3: 3}


def test_divisor_respects_order_pattern():
    lhs = parse_monomial("x(x(1 2) 3)")
    # structurally identical but the hanging minima rank differently
    assert find_divisor(parse_monomial("x(x(1 3) 2)"), lhs) is None
    assert find_divisor(parse_monomial("x(x(1 4) x(2 3))"), lhs) is None


def test_embeddings_inside_context():
    lhs = parse_monomial("x(x(1 2) 3)")
    m = parse_monomial("x(x(x(1 2) 3) 4)")
    embs = all_embeddings(m, lhs)
    assert len(embs) == 2
    assert embs[0].path == ()  # leftmost-outermost first
    assert embs[1].path == (0,)


def _sorted_embeddings(m, lhs):
    """(path, slots) of every occurrence of lhs in m, preorder: the
    structure matched first, then the hanging subtrees sorted by min_leaf
    and their lhs labels required to read 1..k in that order."""

    def match(node, pat, slots):
        if isinstance(pat, int):
            slots.append((pat, node))
            return True
        if isinstance(node, int) or node[0] != pat[0]:
            return False
        return all(match(cn, cp, slots) for cn, cp in zip(node[1:], pat[1:]))

    out = []

    def walk(node, path):
        if isinstance(node, int):
            return
        slots = []
        if match(node, lhs, slots):
            by_min = sorted(slots, key=lambda rs: min_leaf(rs[1]))
            if [rank for rank, _ in by_min] == list(range(1, len(slots) + 1)):
                out.append((path, dict(slots)))
        for i, c in enumerate(node[1:]):
            walk(c, path + (i,))

    walk(m, ())
    return out


def _assert_divisor_search_matches(m, lhs):
    expected = _sorted_embeddings(m, lhs)
    assert [(e.path, e.slots) for e in all_embeddings(m, lhs)] == expected
    emb = find_divisor(m, lhs)
    if expected:
        assert (emb.path, emb.slots) == expected[0]
    else:
        assert emb is None


def test_divisor_search_matches_sorted_order_check():
    lhss = [r.lhs for r in JACOBI + LIE_ADM + CUBIC]
    lhss += [parse_monomial(t) for t in ("y(x(1 2) 3)", "x(x(1 3) 4)")]
    for n in range(1, 6):
        for m in enumerate_shuffle_trees(XY, n):
            for lhs in lhss:
                _assert_divisor_search_matches(m, lhs)
    # Hosts over x and t, and lhs's that share a root symbol with hosts
    # whose shape they do not have there.
    lhss = [parse_monomial(t) for t in (
        "t(1 2)", "x(t(1 3) 2)", "t(1 x(2 3))", "t(x(1 2) 3)", "x(1 t(2 3))", "x(x(1 2) 3)")]
    rng = random.Random(11)
    hosts = [parse_monomial(t) for t in ("t(1 2)", "x(t(1 3) 2)", "x(t(1 2) 3)",
                                          "t(1 x(2 3))", "t(x(1 2) 3)", "x(1 x(t(2 3) 4))")]
    hosts += [_random_monomial(rng, list(range(1, rng.randint(3, 9))), ["x", "t"])
              for _ in range(300)]
    root_only = 0
    for m in hosts:
        for lhs in lhss:
            _assert_divisor_search_matches(m, lhs)
            root_only += m[0] == lhs[0] and shuffle._embedding_at(m, (), lhs) is None
    assert root_only > 50


# --- rewriting ---------------------------------------------------------


def test_jacobi_normal_form_matches_hand_reduction():
    big = parse_monomial("x(x(x(1 2) 3) 4)")
    expected = parse_element(
        "x(x(x(1 4) 3) 2) + x(x(1 x(3 4)) 2) + x(x(1 3) x(2 4))"
        " + x(x(1 4) x(2 3)) + x(1 x(x(2 4) 3)) + x(1 x(2 x(3 4)))"
    )
    nf = normal_form(ShuffleElement({big: 1}), JACOBI)
    assert nf == expected


@pytest.mark.parametrize("rules", [JACOBI, LIE_ADM], ids=["jacobi", "lie-adm"])
def test_two_reduction_paths_agree(rules):
    big = parse_monomial("x(x(x(1 2) 3) 4)")
    embs = all_embeddings(big, rules[0].lhs)
    assert len(embs) == 2
    results = [
        normal_form(rewrite_at(big, emb, rules[0]), rules) for emb in embs
    ]
    assert results[0] == results[1]
    assert results[0]


def test_normal_element_is_unchanged():
    e = parse_element("x(1 x(2 3)) - 2*x(x(1 3) 2)")
    assert normal_form(e, JACOBI) == e


def test_strategy_independence_under_confluence():
    rng = random.Random(17)
    monos = list(enumerate_shuffle_trees(XY, 4))
    for _ in range(20):
        e = ShuffleElement(
            {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, 5)}
        )
        reference = normal_form(e, LIE_ADM)
        assert normal_form(e, LIE_ADM, rng=rng) == reference


def test_rewrite_steps_strictly_decrease():
    big = parse_monomial("x(x(x(1 2) 3) 4)")
    for emb in all_embeddings(big, JACOBI[0].lhs):
        for m in rewrite_at(big, emb, JACOBI[0]).terms:
            assert compare(m, big) == -1


def test_misoriented_rule_is_refused():
    # x(1 x(2 3)) -> x(x(1 2) 3) rewrites upwards in the order.
    rule = RewriteRule(parse_monomial("x(1 x(2 3))"), parse_element("x(x(1 2) 3)"))
    e = parse_element("x(1 x(2 3)) + x(x(1 3) 2)")
    with pytest.raises(
        ShuffleError, match=r"^rewrite does not decrease: x\(1 x\(2 3\)\) -> x\(x\(1 2\) 3\)$"
    ):
        normal_form(e, [rule])


def test_refusal_after_a_term_lands_on_a_pending_monomial():
    # The rhs's first term, x(1 x(2 3)), decreases and is already pending;
    # its second, x(x(1 2) 3), is above the lhs x(x(1 3) 2).
    lhs = parse_monomial("x(x(1 3) 2)")
    rule = RewriteRule(lhs, parse_element("x(1 x(2 3)) - x(x(1 2) 3)"))
    assert [compare(r, lhs) for r in rule.rhs.terms] == [-1, 1]
    with pytest.raises(ShuffleError) as step:
        rewrite_at(lhs, find_divisor(lhs, lhs), rule)
    message = "rewrite does not decrease: x(x(1 3) 2) -> x(x(1 2) 3)"
    assert str(step.value) == message
    with pytest.raises(ShuffleError) as reduction:
        normal_form(parse_element("x(x(1 3) 2) + 2*x(1 x(2 3))"), [rule])
    assert str(reduction.value) == message


def _normal_form_by_resorting(e, rules):
    """Reference route: re-sort every pending term at each step and rewrite
    the largest reducible one by its first dividing rule, at the first of
    all its occurrences (all_embeddings, which walks every vertex)."""
    terms = dict(e.terms)
    while True:
        for m in sorted(terms, key=monomial_key, reverse=True):
            hits = [(r, embs[0]) for r in rules if (embs := all_embeddings(m, r.lhs))]
            if hits:
                break
        else:
            return ShuffleElement(terms)
        rule, emb = hits[0]
        coeff = terms.pop(m)
        for new, c in rewrite_at(m, emb, rule).terms.items():
            terms[new] = terms.get(new, 0) + coeff * c
        terms = {m: c for m, c in terms.items() if c}


def _random_monomial(rng, labels, symbols):
    """A shuffle monomial on the increasing labels: the least label goes left."""
    if len(labels) == 1:
        return labels[0]
    rest = labels[1:]
    right = sorted(rng.sample(rest, rng.randint(1, len(rest))))
    left = [labels[0]] + [x for x in rest if x not in right]
    return (rng.choice(symbols), _random_monomial(rng, left, symbols),
            _random_monomial(rng, right, symbols))


def _random_nary_monomial(rng, labels, symbols):
    """A shuffle-ordered tree on the labels with binary and ternary nodes,
    which the engine refuses: each node's labels fall into blocks, its
    children, listed by least label."""
    if len(labels) == 1:
        return labels[0]
    firsts = rng.sample(labels, min(rng.choice((2, 3)), len(labels)))
    blocks = [[x] for x in firsts]
    for x in labels:
        if x not in firsts:
            rng.choice(blocks).append(x)
    blocks.sort(key=min)
    return (rng.choice(symbols), *[_random_nary_monomial(rng, sorted(b), symbols) for b in blocks])


def _has_non_binary_node(m):
    return not isinstance(m, int) and (
        len(m) != 3 or any(_has_non_binary_node(c) for c in m[1:]))


BAD_JACOBI = parse_rules("x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)")
# Divisor search skips cherries for an lhs with an internal child, such as
# the cubic rule's, and walks every vertex for a one-vertex lhs.
ONE_VERTEX = parse_rules("x(1 2) = y(1 2)")


@pytest.mark.parametrize(
    "rules, symbols",
    [(JACOBI, "x"), (LIE_ADM, "xy"), (BAD_JACOBI, "x"), (CUBIC, "x"), (ONE_VERTEX, "xy")],
    ids=["lie", "lie-adm", "bad-jacobi", "cubic", "one-vertex"],
)
def test_normal_form_matches_resorting_route(rules, symbols):
    rng = random.Random(7)
    for arity_ in range(4, 8):
        labels = list(range(1, arity_ + 1))
        for size in range(1, 9):
            e = ShuffleElement({
                _random_monomial(rng, labels, symbols): rng.choice((-2, -1, 1, 3))
                for _ in range(size)
            })
            got = normal_form(e, rules)
            expected = _normal_form_by_resorting(e, rules)
            assert got == expected
            assert str(got) == str(expected)


# --- the integer path against Fraction routes ----------------------------
#
# normal_form reduces den * e over ints; the random route and the resorting
# route keep Fraction coefficients throughout.


_FRACTIONS = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
# lie-adm with y scaled by 1/2: confluent, as the scaling is an automorphism,
# and its right-hand side mixes integer and non-integer coefficients.
LIE_ADM_HALF_Y = parse_rules(
    "x(x(1 2) 3) = 1/2*x(y(1 2) 3) + 1/2*y(x(1 2) 3) - 1/4*y(y(1 2) 3)"
    " - 1/2*y(1 x(2 3)) + 1/4*y(1 y(2 3)) + x(1 x(2 3)) - 1/2*x(1 y(2 3))"
    " - 1/2*x(y(1 3) 2) + x(x(1 3) 2) + 1/4*y(y(1 3) 2) - 1/2*y(x(1 3) 2)"
)
HALF_JACOBI = parse_rules("2*x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)")


def _seeded_elements(rng, symbols, arities, sizes):
    for arity_ in arities:
        labels = list(range(1, arity_ + 1))
        for size in sizes:
            yield ShuffleElement({
                _random_monomial(rng, labels, symbols): rng.choice(_FRACTIONS)
                for _ in range(size)
            })


def _check_fractions(nf):
    assert all(type(c) is Fraction and c for c in nf.terms.values())


@pytest.mark.parametrize(
    "rules, symbols",
    [(JACOBI, "x"), (LIE_ADM, "xy"), (LIE_ADM_HALF_Y, "xy")],
    ids=["lie", "lie-adm", "lie-adm-half-y"],
)
def test_integer_normal_form_matches_the_random_route(rules, symbols):
    rng = random.Random(29)
    for e in _seeded_elements(rng, symbols, range(4, 7), range(1, 6)):
        nf = normal_form(e, rules)
        assert nf == normal_form(e, rules, rng=rng)
        _check_fractions(nf)


def test_non_integer_rule_coefficients_stay_exact():
    # Not confluent, so its normal forms depend on the strategy: the
    # reference is the same strategy over Fractions.
    assert set(HALF_JACOBI[0].rhs.terms.values()) == {Fraction(1, 2)}
    assert not check_confluence(HALF_JACOBI, 4).passed
    rng = random.Random(31)
    for e in _seeded_elements(rng, "x", range(3, 7), range(1, 5)):
        nf = normal_form(e, HALF_JACOBI)
        assert nf == _normal_form_by_resorting(e, HALF_JACOBI)
        _check_fractions(nf)


@pytest.mark.parametrize("rules", [JACOBI, LIE_ADM_HALF_Y], ids=["lie", "lie-adm-half-y"])
def test_cancelling_terms_give_zero(rules):
    lhs = ShuffleElement({rules[0].lhs: Fraction(-2, 3)})
    nf = normal_form(lhs - Fraction(-2, 3) * rules[0].rhs, rules)
    assert nf.terms == {} and str(nf) == "0"


def _pinned_reductions():
    """The seeded lie and lie-adm elements the work pins reduce."""
    rng = random.Random(41)
    for rules, symbols in ((JACOBI, "x"), (LIE_ADM, "xy")):
        for e in _seeded_elements(rng, symbols, range(4, 8), range(1, 7)):
            yield e, rules


def test_divisor_search_work_is_pinned():
    # A work count, the same on any machine: the vertices at which divisor
    # search tries to match an lhs while seeded lie and lie-adm elements
    # reduce.  Only a vertex with the lhs root's symbol, whose children
    # carry the symbols of the lhs root's internal children, is probed; a
    # walk that probes every vertex with the root symbol except cherries
    # (vertices whose children are both leaves) probes 1,280, and one that
    # probes the cherries too 1,949.
    with mock.patch.object(shuffle, "_embedding_at", wraps=shuffle._embedding_at) as probe:
        for e, rules in _pinned_reductions():
            normal_form(e, rules)
    assert probe.call_count == 668


def test_order_key_work_is_pinned():
    # The order keys the same reductions compute: each distinct monomial
    # of one reduction is keyed once, when it first appears.
    total = 0
    with mock.patch.object(shuffle, "_order_key", wraps=shuffle._order_key) as key:
        for e, rules in _pinned_reductions():
            key.reset_mock()
            normal_form(e, rules)
            keyed = [call.args[0] for call in key.call_args_list]
            assert len(keyed) == len(set(keyed))
            total += len(keyed)
    assert total == 673


@pytest.mark.parametrize("rules, max_arity, keyed", [(LIE_ADM, 5, 120), (CUBIC, 7, 8)],
                         ids=["lie-adm", "cubic"])
def test_confluence_keys_each_monomial_once(rules, max_arity, keyed):
    # check_confluence shares one memo of order keys between overlaps, the
    # S-elements' rewrite steps and their reductions.
    with mock.patch.object(shuffle, "_order_key", wraps=shuffle._order_key) as key:
        check_confluence(rules, max_arity)
    monomials = [call.args[0] for call in key.call_args_list]
    assert len(monomials) == len(set(monomials)) == keyed


# --- printing against a reference --------------------------------------


def _ref_print(m):
    """The recursive printer, one call per node."""
    if isinstance(m, int):
        return str(m)
    return m[0] + "(" + " ".join(_ref_print(c) for c in m[1:]) + ")"


def _ref_str(e):
    """str() of an element: terms sorted by the tuple order key, largest
    first, with Fraction arithmetic for signs and coefficients."""
    if not e.terms:
        return "0"
    parts = []
    for m, c in sorted(e.terms.items(), key=lambda t: _ref_order_key(t[0]), reverse=True):
        body = _ref_print(m)
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


@pytest.mark.parametrize(
    "m",
    [
        5, 0, -3, True, ("x", 1, 2), ("ab_1", ("y", 1, 2), 3), ("é", 1, 2), ("x",),
        ("a b", 1, 2), ("a, b", ("x", 1, 2), 3), ("a', ('b", 1, 2), ("x\n", 1, 2),
        ("x", -1, 2), ("x", ("y", 1), 2), ("x", 1, ("y", 2, 3, 4)),
    ],
)
def test_print_monomial_matches_the_recursive_printer(m):
    if not _has_non_binary_node(m):
        assert print_monomial(m) == _ref_print(m)
        return
    # The printer and the order key read a node as (symbol, left, right),
    # trusting validation: any other node is refused, not printed.
    for walk in (print_monomial, monomial_key):
        with pytest.raises(ValueError, match="values to unpack"):
            walk(m)


def test_print_monomial_takes_linear_time_on_long_labels():
    # A long digit run before a symbol outside the rule grammar: a printer
    # that matched the text against a pattern could take exponential time.
    m = ("x", int("1" * 60), ("a b", 2, 3))
    assert print_monomial(m) == _ref_print(m) == "x(" + "1" * 60 + " a b(2 3))"


def test_print_monomial_matches_the_recursive_printer_on_a_seeded_sweep():
    rng = random.Random(2020)
    symbols = ["x", "ab_1", "é", "a b", "a, b", "a'b"]
    sample = []
    for _ in range(2000):
        labels = sorted(rng.sample(range(1, 10), rng.randint(1, 7)))
        if rng.random() < 0.2:
            labels = [10 ** 59 + x for x in labels]  # 60-digit labels
        if rng.random() < 0.3:  # a leaf that no valid monomial has
            labels[rng.randrange(len(labels))] = rng.choice((0, -rng.randint(1, 99), True))
        sample.append(_random_monomial(rng, labels, rng.sample(symbols, rng.randint(1, 3))))
    round_trips = 0
    for m in sample:
        text = print_monomial(m)
        assert text == _ref_print(m)
        try:
            validate_monomial(m)
        except ShuffleConditionError:
            continue
        if symbols_of(m) <= {"x", "ab_1"}:
            assert parse_monomial(text) == m
            round_trips += 1
    assert round_trips > 300
    assert any(re.search(r"\bTrue\b", _ref_print(m)) for m in sample)
    assert any(re.search(r"\(-\d|\d{60}", _ref_print(m)) for m in sample)
    # printing recurses once per level, in Python: the deepest monomial parsed
    text = "x(1 2)"
    for i in range(3, 202):
        text = f"x({text} {i})"
    assert str(ShuffleElement({parse_monomial(text): 1})) == text


LIE_AB = parse_rules(
    "ab_1(ab_1(1 2) 3) = ab_1(1 ab_1(2 3)) + ab_1(ab_1(1 3) 2)"
)
LIE_ADM_AB = parse_rules(
    "ab_1(ab_1(1 2) 3) = ab_1(y(1 2) 3) + y(ab_1(1 2) 3) - y(y(1 2) 3) - y(1 ab_1(2 3))"
    " + y(1 y(2 3)) + ab_1(1 ab_1(2 3)) - ab_1(1 y(2 3)) - ab_1(y(1 3) 2)"
    " + ab_1(ab_1(1 3) 2) + y(y(1 3) 2) - y(ab_1(1 3) 2)"
)
_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(-1, 9))


@pytest.mark.parametrize(
    "rules, symbols",
    [(JACOBI, ["x"]), (LIE_ADM, ["x", "y"]), (LIE_AB, ["ab_1"]), (LIE_ADM_AB, ["ab_1", "y"])],
    ids=["lie", "lie-adm", "lie-ab_1", "lie-adm-ab_1"],
)
def test_normal_form_text_matches_the_reference(rules, symbols):
    rng = random.Random(11)
    for arity_ in range(5, 8):
        labels = list(range(1, arity_ + 1))
        for _ in range(20):
            e = ShuffleElement({
                _random_monomial(rng, labels, symbols): rng.choice(_COEFFS)
                for _ in range(rng.randint(1, 6))
            })
            nf = normal_form(e, rules)
            assert str(nf) == _ref_str(nf)
            assert str(e) == _ref_str(e)
    zero = normal_form(ShuffleElement({rules[0].lhs: 1}) - rules[0].rhs, rules)
    assert str(zero) == _ref_str(zero) == "0"
    assert str(normal_form(ShuffleElement(), rules)) == "0"


def test_confluence_failure_text_matches_the_reference():
    report = check_confluence(BAD_JACOBI, 6)
    assert not report.passed
    lines = [f"FAIL: {len(report.failures)} of {report.overlap_count} overlap(s) do not resolve"]
    lines += [f"  at {_ref_print(m)}: {_ref_str(nf)}" for m, nf in report.failures]
    assert str(report) == "\n".join(lines)


def test_normal_form_order_does_not_leak_into_derived_elements():
    rng = random.Random(5)
    labels = list(range(1, 7))
    for _ in range(10):
        nf = normal_form(ShuffleElement({
            _random_monomial(rng, labels, "xy"): rng.choice(_COEFFS) for _ in range(4)
        }), LIE_ADM)
        other = ShuffleElement({
            _random_monomial(rng, labels, "xy"): rng.choice(_COEFFS) for _ in range(4)
        })
        fresh = ShuffleElement(dict(nf.terms))
        for derive in (lambda a: a + other, lambda a: other + a, lambda a: -a,
                       lambda a: a * 2, lambda a: Fraction(-1, 3) * a, lambda a: a - a,
                       lambda a: a - other):
            got, expected = derive(nf), derive(fresh)
            assert got == expected
            assert str(got) == str(expected) == _ref_str(expected)


# --- overlaps and confluence -------------------------------------------


def test_jacobi_overlap_is_unique():
    found = overlaps(JACOBI[0], JACOBI[0])
    assert len(found) == 1
    m, s_elem = found[0]
    assert print_monomial(m) == "x(x(x(1 2) 3) 4)"
    assert s_elem  # one-step results differ before full reduction


def test_disjoint_rules_have_no_overlap():
    r1 = parse_rules("x(x(1 2) 3) = x(1 x(2 3))")[0]
    r2 = parse_rules("y(y(1 2) 3) = y(1 y(2 3))")[0]
    assert overlaps(r1, r2) == []


def _internal_vertices(m, base=()):
    if isinstance(m, int):
        return set()
    out = {base}
    for i, c in enumerate(m[1:]):
        out |= _internal_vertices(c, base + (i,))
    return out


def _overlaps_by_enumeration(r1, r2):
    """Reference route: every shuffle tree up to arity a1 + a2 - 1 over the
    lhs symbols, and every pair of occurrences that share a vertex and
    jointly cover every internal vertex."""
    alphabet = sorted({(s, 2) for s in symbols_of(r1.lhs) | symbols_of(r2.lhs)})
    same = r1 == r2
    found = []
    for n in range(2, arity(r1.lhs) + arity(r2.lhs)):
        for m in enumerate_shuffle_trees(alphabet, n):
            e1s = all_embeddings(m, r1.lhs)
            e2s = e1s if same else all_embeddings(m, r2.lhs)
            pairs = itertools.combinations(e1s, 2) if same else itertools.product(e1s, e2s)
            for e1, e2 in pairs:
                v1 = _internal_vertices(r1.lhs, e1.path)
                v2 = _internal_vertices(r2.lhs, e2.path)
                if v1 & v2 and v1 | v2 == _internal_vertices(m):
                    found.append((m, rewrite_at(m, e1, r1) - rewrite_at(m, e2, r2)))
    found.sort(key=lambda pair: monomial_key(pair[0]), reverse=True)
    return found


def _random_rule(rng, alphabet, k):
    monos = list(enumerate_shuffle_trees(alphabet, k))
    picked = rng.sample(monos, rng.randint(1, min(4, len(monos))))
    return orient(ShuffleElement({m: rng.choice((-2, -1, 1, 2)) for m in picked}))


def _outcome(fn, r1, r2):
    try:
        return fn(r1, r2)
    except ShuffleError:  # e.g. a rewrite that does not decrease
        return "refused"


# (symbols, lhs arities): arity-3 rules in both orders and with themselves;
# larger cases once each, since the oracle enumerates up to arity 7.
@pytest.mark.parametrize(
    "seed, symbols, arities",
    [(seed, "xy"[: 1 + seed % 2], (3, 3)) for seed in range(8)]
    + [(8, "x", (4,)), (9, "xy", (3, 4))],
)
def test_overlaps_match_enumeration(seed, symbols, arities):
    rng = random.Random(seed)
    alphabet = [(s, 2) for s in symbols]
    rules = [_random_rule(rng, alphabet, k) for k in arities]
    pairs = [(rules[0], rules[-1])]
    if len(rules) == 2 and arities == (3, 3):
        pairs += [(rules[0], rules[0]), (rules[1], rules[0])]
    for r1, r2 in pairs:
        assert _outcome(overlaps, r1, r2) == _outcome(_overlaps_by_enumeration, r1, r2)


def _sized(shape):
    """(arity, shape with each vertex as (sym, left, right, arity of left))."""
    if isinstance(shape, int):
        return 1, shape
    sym, left, right = shape
    a, left = _sized(left)
    b, right = _sized(right)
    return a + b, (sym, left, right, a)


def _labelings(node, labels):
    """Every shuffle tree of a binary shape, given as _sized returns it, on
    the given increasing labels: the left child takes the least label and
    any others, in lexicographic order of the combinations."""
    if isinstance(node, int):
        yield labels[0]
        return
    sym, left, right, k = node
    first, rest = labels[0], labels[1:]
    for picked in itertools.combinations(rest, k - 1):
        others = tuple(x for x in rest if x not in picked)
        rights = list(_labelings(right, others))
        for lt in _labelings(left, (first, *picked)):
            for rt in rights:
                yield (sym, lt, rt)


def _overlaps_by_filter(r1, r2):
    """Reference route: every shuffle labeling of each merged shape, kept
    when both occurrences pass the divisor search's order-pattern check."""
    same = r1 == r2
    found = []
    for top, inner in ((r1, r2),) if same else ((r1, r2), (r2, r1)):
        for q in shuffle._internal_vertices(top.lhs):
            if q == () and (same or top is not r1):
                continue
            shape = shuffle._merge(shuffle._subtree_at(top.lhs, q), inner.lhs)
            if shape is None:
                continue
            n, shape = _sized(shuffle._replace_at(top.lhs, q, shape))
            for m in _labelings(shape, tuple(range(1, n + 1))):
                e_top = shuffle._embedding_at(m, (), top.lhs)
                e_inner = shuffle._embedding_at(shuffle._subtree_at(m, q), q, inner.lhs)
                if e_top is None or e_inner is None:
                    continue
                found.append((m, e_top, e_inner) if top is r1 else (m, e_inner, e_top))
    found.sort(key=lambda t: monomial_key(t[0]), reverse=True)
    return [(m, rewrite_at(m, e1, r1) - rewrite_at(m, e2, r2)) for m, e1, e2 in found]


def _outcome_with_message(fn, r1, r2):
    try:
        return fn(r1, r2)
    except ShuffleError as exc:
        return str(exc)


def _comb_rule(k):
    """x(...x(x(1 2) 3)... k) = x(1 x(2 ... x(k-1 k)...)), the arity-k comb."""
    left, right = "1", str(k)
    for i in range(2, k + 1):
        left = f"x({left} {i})"
    for i in range(k - 1, 0, -1):
        right = f"x({i} {right})"
    return parse_rules(f"{left} = {right}")[0]


def _random_pairs(count):
    """Seeded rule pairs, lhs arity 3-4 over one or two generators, with a
    rule against itself in every third pair."""
    rng = random.Random(16)
    pairs = []
    for i in range(count):
        alphabet = XY[: 1 + i % 2]
        r1 = _random_rule(rng, alphabet, rng.randint(3, 4))
        pairs.append((r1, r1 if i % 3 == 0 else _random_rule(rng, alphabet, rng.randint(3, 4))))
    return pairs


# The construction puts the overlaps, S-elements and any refusal message
# in the filter route's order, so every outcome compares whole.
@pytest.mark.parametrize(
    "r1, r2",
    _random_pairs(40)
    + [(_comb_rule(k),) * 2 for k in (4, 5)]
    + [(JACOBI[0], JACOBI[0]), (LIE_ADM[0], LIE_ADM[0]), (JACOBI[0], CUBIC[0])],
    ids=[f"random-{i}" for i in range(40)] + ["comb-4", "comb-5", "lie", "lie-adm", "lie-cubic"],
)
def test_overlaps_match_the_filter_route(r1, r2):
    assert _outcome_with_message(overlaps, r1, r2) == _outcome_with_message(
        _overlaps_by_filter, r1, r2
    )


def test_overlap_refusal_names_the_filter_routes_first_overlap():
    # Two overlaps of one glued shape rewrite upwards; both routes build
    # S-elements largest overlap first, so both name the larger.
    r1 = RewriteRule(parse_monomial("y(y(1 5) y(y(2 3) 4))"),
                     parse_element("y(y(1 2) x(x(3 5) 4))"))
    r2 = RewriteRule(parse_monomial("y(x(1 2) y(3 y(4 5)))"),
                     parse_element("y(y(1 x(2 3)) y(4 5))"))
    message = ("rewrite does not decrease: y(y(1 8) y(y(x(2 3) y(4 y(5 6))) 7))"
               " -> y(y(1 x(2 3)) x(x(y(4 y(5 6)) 8) 7))")
    assert _outcome_with_message(overlaps, r1, r2) == message
    assert _outcome_with_message(_overlaps_by_filter, r1, r2) == message


def test_comb_6_overlaps_are_pinned():
    # The filter route builds 408,960 labelings here to keep these 4.
    rule = _comb_rule(6)
    assert [(print_monomial(m), str(e)) for m, e in overlaps(rule, rule)] == [
        ("x(x(x(x(x(x(x(x(x(1 2) 3) 4) 5) 6) 7) 8) 9) 10)",
         "-x(x(x(x(x(1 x(2 x(3 x(4 x(5 6))))) 7) 8) 9) 10)"
         " + x(x(x(x(x(1 2) 3) 4) 5) x(6 x(7 x(8 x(9 10)))))"),
        ("x(x(x(x(x(x(x(x(1 2) 3) 4) 5) 6) 7) 8) 9)",
         "-x(x(x(x(1 x(2 x(3 x(4 x(5 6))))) 7) 8) 9)"
         " + x(x(x(x(1 2) 3) 4) x(5 x(6 x(7 x(8 9)))))"),
        ("x(x(x(x(x(x(x(1 2) 3) 4) 5) 6) 7) 8)",
         "-x(x(x(1 x(2 x(3 x(4 x(5 6))))) 7) 8) + x(x(x(1 2) 3) x(4 x(5 x(6 x(7 8)))))"),
        ("x(x(x(x(x(x(1 2) 3) 4) 5) 6) 7)",
         "-x(x(1 x(2 x(3 x(4 x(5 6))))) 7) + x(x(1 2) x(3 x(4 x(5 x(6 7)))))"),
    ]


@pytest.mark.parametrize("rules", [JACOBI, LIE_ADM], ids=["jacobi", "lie-adm"])
def test_confluence_passes(rules):
    report = check_confluence(rules, 5)
    assert report.passed
    assert report.overlap_count == 1


def test_confluence_report_is_a_frozen_record_with_its_text():
    passed = ConfluenceReport(True, 1, ())
    assert passed == check_confluence(JACOBI, 5)
    assert str(passed) == "PASS: 1 overlap(s), all S-elements reduce to zero"
    failure = (parse_monomial("x(x(1 2) 3)"), parse_element("2*x(x(1 3) 2) - 1/2*x(1 x(2 3))"))
    failed = ConfluenceReport(False, 4, (failure,))
    assert (failed.passed, failed.overlap_count, failed.failures) == (False, 4, (failure,))
    assert failed == ConfluenceReport(False, 4, (failure,)) != passed
    assert str(failed) == (
        "FAIL: 1 of 4 overlap(s) do not resolve\n"
        "  at x(x(1 2) 3): 2*x(x(1 3) 2) - 1/2*x(1 x(2 3))"
    )
    for name in ("passed", "other"):
        with pytest.raises(AttributeError):
            setattr(passed, name, False)


def test_perturbed_system_fails():
    bad = parse_rules("x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)")
    report = check_confluence(bad, 5)
    assert not report.passed
    assert report.failures
    for _, nf in report.failures:
        assert nf


# --- normal monomial counting ------------------------------------------


def test_normal_count_jacobi_is_factorial():
    for n in range(1, 31):
        assert count_normal_monomials([("x", 2)], JACOBI, n) == math.factorial(n - 1)


def test_normal_count_lie_adm_matches_free_product():
    table = free_product_dims(builtin_operad("lie"), builtin_operad("com"), 30)
    for n in range(2, 31):
        assert count_normal_monomials(XY, LIE_ADM, n) == table.total[n]


def test_lie_with_a_free_generator_counts_lie_star_com():
    # The free product's law: the bundled lie rule over {x, y} leaves y
    # under no rule, the free operad on one generator, which com counts
    # ((2n-3)!!), so the normal monomials count lie * com.
    lie = parse_rules((Path(shuffle.__file__).parent / "rules" / "lie.rules").read_text())
    table = free_product_dims(builtin_operad("lie"), builtin_operad("com"), 8)
    assert [count_normal_monomials(XY, lie, n) for n in range(1, 9)] == table.totals()


def _quotient_dim(alphabet, rules, n):
    """The arity-n dimension of the quotient by the rules' ideal, with no
    monomial order: the shuffle trees minus the rank of the span of m - (the
    rhs substituted at the occurrence) for each occurrence of each rule's
    lhs in each tree m, found by the tests' own matcher.  The rank is exact,
    over the rationals (Fraction): a rank mod a prime can only be lower."""
    trees = list(enumerate_shuffle_trees(alphabet, n))
    index = {m: i for i, m in enumerate(trees)}
    pivots = {}  # leading column -> its row, scaled to lead with 1
    for m in trees:
        for rule in rules:
            for path, slots in _sorted_embeddings(m, rule.lhs):
                row = {index[m]: Fraction(1)}
                for r, c in rule.rhs.terms.items():
                    j = index[shuffle._replace_at(m, path, shuffle._substitute(r, slots))]
                    row[j] = row.get(j, 0) - c
                row = {j: c for j, c in row.items() if c}
                while row and (top := max(row)) in pivots:
                    lead = row[top]
                    for j, c in pivots[top].items():
                        if v := row.get(j, 0) - lead * c:
                            row[j] = v
                        else:
                            del row[j]
                if row:
                    pivots[top] = {j: c / row[top] for j, c in row.items()}
    return len(trees) - len(pivots)


def test_quotient_dimension_by_rank_needs_no_order():
    # The paper's theorem by a route that never reduces: the lie-adm
    # quotient has the lie * com dimensions, and lie's is (n-1)!.
    assert [_quotient_dim([("x", 2)], JACOBI, n) for n in range(2, 7)] == [
        math.factorial(n - 1) for n in range(2, 7)]
    lie_com = free_product_dims(builtin_operad("lie"), builtin_operad("com"), 5).totals()
    assert lie_com[1:] == [2, 11, 101, 1299]
    assert [_quotient_dim(XY, LIE_ADM, n) for n in range(2, 6)] == lie_com[1:]


def test_monomial_rules_on_disjoint_alphabets_count_the_free_product():
    # The free product's law by a route that shares no code with dims: the
    # union of two quadratic monomial rule sets, on disjoint alphabets,
    # leaves as many normal monomials as the free product of the parts'
    # counts, operands with no builtin tail.
    shapes = ("{s}(1 {t}(2 3))", "{s}({t}(1 2) 3)", "{s}({t}(1 3) 2)")
    n_max = 9
    for seed in range(40):
        rng = random.Random(seed)
        parts = []
        for symbols in ("ac", "bd"):
            rules = [
                RewriteRule(
                    parse_monomial(rng.choice(shapes).format(
                        s=rng.choice(symbols), t=rng.choice(symbols))),
                    ShuffleElement(),
                )
                for _ in range(rng.randint(0, 3))
            ]
            counts = [count_normal_monomials([(s, 2) for s in symbols], rules, n)
                      for n in range(2, n_max + 1)]
            parts.append((rules, explicit_operad(symbols, counts)))
        (left, p), (right, q) = parts
        union = [count_normal_monomials([(s, 2) for s in "abcd"], left + right, n)
                 for n in range(1, n_max + 1)]
        assert union == free_product_dims(p, q, n_max).totals(), seed


def _count_normal_by_enumeration(alphabet, rules, n):
    if n == 1:
        return 1
    return sum(1 for m in enumerate_shuffle_trees(alphabet, n) if is_normal(m, rules))


# Every lhs with at most two internal vertices, and one whose labels are
# not 1..k, which never divides.
LHS_SHAPES = ("{s}(1 2)", "{s}(1 {t}(2 3))", "{s}({t}(1 2) 3)", "{s}({t}(1 3) 2)",
              "{s}(2 {t}(3 4))")


@pytest.mark.parametrize("seed", range(24))
def test_normal_count_dp_matches_enumeration(seed):
    rng = random.Random(seed)
    symbols = "xy"[: 1 + seed % 2]
    alphabet = [(s, 2) for s in symbols]
    rules = [
        RewriteRule(
            parse_monomial(
                rng.choice(LHS_SHAPES).format(s=rng.choice(symbols), t=rng.choice(symbols))
            ),
            ShuffleElement(),
        )
        for _ in range(rng.randint(1, 3))
    ]
    # arity 6 over {x, y} has 30240 shuffle trees: seeds 1, 9 and 17 only
    n_max = 6 if len(symbols) == 1 or seed % 8 == 1 else 5
    for n in range(1, n_max + 1):
        assert count_normal_monomials(alphabet, rules, n) == _count_normal_by_enumeration(
            alphabet, rules, n
        )


def test_normal_count_rejects_a_repeated_generator():
    with pytest.raises(ShuffleError, match="twice"):
        count_normal_monomials([("x", 2), ("x", 2)], JACOBI, 4)


# --- rule parsing ------------------------------------------------------


def test_a_cancelled_non_binary_term_is_refused():
    # refused where the parser meets its third child, before terms cancel
    lie = "x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)"
    message = "rule line 1, right side: a generator takes two arguments (at position 35)"
    with pytest.raises(ShuffleError, match=f"^{re.escape(message)}$"):
        parse_rules(lie + " + z(1 2 3) - z(1 2 3)")


def test_orient_refuses_leaf_labels_other_than_one_to_k():
    # Divisor search ranks the subtrees hanging at an lhs's leaves by its
    # labels: with labels 2..4 the rule would never apply, not even to its lhs.
    message = "a rule's leaf labels must be 1..k, got [2, 3, 4]"
    with pytest.raises(ShuffleError, match=f"^{re.escape(message)}$"):
        orient(parse_element("x(x(2 3) 4) - x(2 x(3 4))"))
    with pytest.raises(ShuffleError, match=re.escape("got [1, 2, 4]")):
        parse_rules("x(1 x(2 4)) = 0")
    assert orient(parse_element("x(x(1 2) 3) - x(1 x(2 3))")).lhs == parse_monomial("x(x(1 2) 3)")


def test_orient_puts_leading_monomial_left():
    e = parse_element("x(1 x(2 3)) - x(x(1 2) 3) + x(x(1 3) 2)")
    rule = orient(e)
    assert rule.lhs == parse_monomial("x(x(1 2) 3)")
    assert rule.rhs == parse_element("x(1 x(2 3)) + x(x(1 3) 2)")


NON_SHUFFLE_TERMS = [
    (("x", ("x", 2, 1), 3), "child minima not increasing at x(2 1)"),
    (("x", ("x", 1, 2), 2), "duplicate leaf labels"),
    (("x", 0, 1), "leaf labels must be positive"),
]


@pytest.mark.parametrize("term, message", NON_SHUFFLE_TERMS)
def test_orient_rejects_a_term_that_is_not_a_shuffle_tree(term, message):
    with pytest.raises(ShuffleConditionError, match=re.escape(message)):
        orient(ShuffleElement({term: 1}))


@pytest.mark.parametrize("term, message", NON_SHUFFLE_TERMS + [
    (("x", 1, 1), "duplicate leaf labels in x(1 1)"),
])
@pytest.mark.parametrize("coeff", [1, 0])
def test_an_element_refuses_a_term_that_is_not_a_shuffle_tree(term, message, coeff):
    with pytest.raises(ShuffleConditionError, match=re.escape(message)):
        ShuffleElement({term: coeff})


def test_orient_rejects_a_non_shuffle_term_beside_a_shuffle_lead():
    # The element refuses the term as it is built, before orient sees it.
    with pytest.raises(ShuffleError, match=re.escape("x(2 1)")):
        orient(ShuffleElement({parse_monomial("x(x(1 2) 3)"): 1, ("x", ("x", 2, 1), 3): 1}))


@pytest.mark.parametrize("e, message", [
    (ShuffleElement(), "equation is trivially zero"),
    (ShuffleElement({3: 1}), "every term must apply a generator, not be a bare leaf"),
])
def test_orient_refuses_an_equation_that_is_no_rule(e, message):
    with pytest.raises(ShuffleError, match=re.escape(message)):
        orient(e)


def test_zero_element_has_no_leading_monomial():
    with pytest.raises(ShuffleError, match="^zero element has no leading monomial$"):
        ShuffleElement().leading_monomial()


def test_enumeration_refuses_an_empty_alphabet_or_an_arity_below_one():
    with pytest.raises(ShuffleError, match="^the alphabet needs at least one generator$"):
        list(enumerate_shuffle_trees([], 3))
    for n in (0, -1):
        with pytest.raises(ShuffleError, match=f"^arity must be >= 1, got {n}$"):
            list(enumerate_shuffle_trees(XY, n))


def test_scaling_a_normal_form_matches_the_checked_construction():
    e = normal_form(parse_element("x(x(x(1 2) 3) 4) - 1/2*x(x(1 3) x(2 4))"), JACOBI)
    assert e.ordered and len(e.terms) > 2
    for got, scalar in ((-e, -1), (2 * e, 2), (e * Fraction(-2, 3), Fraction(-2, 3)), (0 * e, 0)):
        want = ShuffleElement({m: scalar * c for m, c in e.terms.items()})
        assert got == want
        assert str(got) == str(want)
        assert all(type(c) is Fraction for c in got.terms.values())
    assert str(0 * e) == "0"


def test_parse_rules_with_coefficients_and_comments():
    rules = parse_rules(
        """
        # comment line
        x(x(1 2) 3) = 1/2 * x(1 x(2 3)) + 1/2 * x(x(1 3) 2)  # trailing
        """
    )
    assert len(rules) == 1
    assert rules[0].rhs.terms[parse_monomial("x(1 x(2 3))")] == Fraction(1, 2)


def test_a_bare_leaf_parses_as_str_prints_it():
    for e in (ShuffleElement({3: 1}), ShuffleElement({3: -1}), ShuffleElement({3: 2})):
        assert parse_element(str(e)) == e
    assert parse_element("2 3") == ShuffleElement({3: 2})
    with pytest.raises(ParseError):
        parse_element("1/2")


def test_zero_parses_as_str_prints_it():
    for text in ("0", " 00 ", "٠"):
        assert parse_element(text) == ShuffleElement()
    for text in ("-0", "2*0", "0 + x(1 2)"):
        with pytest.raises(ShuffleConditionError, match="^leaf labels must be positive$"):
            parse_element(text)


def test_parse_element_drops_cancelled_terms_before_the_label_check():
    assert parse_element("x(1 2) - x(1 2)") == ShuffleElement()
    assert str(parse_element("x(1 2) - 1/2*x(1 2) - 1/2*x(1 2)")) == "0"
    e = parse_element("x(1 2) + y(1 3) - x(1 2)")
    assert e == ShuffleElement({("y", 1, 3): 1})
    message = "terms with different leaf labels: [[1, 2], [1, 3], [2, 3]]"
    with pytest.raises(ShuffleError, match=f"^{re.escape(message)}$"):
        parse_element("x(1 3) + x(2 3) - x(1 2) + 2*x(1 3)")


def test_sums_and_differences_drop_cancelled_terms_and_refuse_mixed_labels():
    e = parse_element("x(1 2) - 2*y(1 2)")
    f = parse_element("x(1 2) + y(1 2)")
    zero = ShuffleElement()
    assert (e - e).terms == {} and (e + -e).terms == {}
    assert (e - f).terms == {("y", 1, 2): -3}
    assert (e + f).terms == {("x", 1, 2): 2, ("y", 1, 2): -1}
    assert e - zero == e + zero == e and zero - e == -e and zero + zero == zero
    message = "terms with different leaf labels: [[1, 2], [1, 3]]"
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ShuffleError, match=f"^{re.escape(message)}$"):
            combine(e, parse_element("x(1 3)"))
        with pytest.raises(ShuffleError, match=f"^{re.escape(message)}$"):
            combine(parse_element("x(1 3)"), e)


def test_an_element_repr_shows_its_text():
    assert repr(parse_element("x(1 x(2 3)) - 1/2*x(x(1 3) 2)")) == (
        "ShuffleElement(-1/2*x(x(1 3) 2) + x(1 x(2 3)))")
    assert repr(ShuffleElement()) == "ShuffleElement(0)"


def test_rules_alphabet():
    assert rules_alphabet(LIE_ADM) == [("x", 2), ("y", 2)]
    assert rules_alphabet(JACOBI) == [("x", 2)]


def test_element_validation():
    with pytest.raises(ShuffleError, match="terms with different leaf labels"):
        ShuffleElement({parse_monomial("x(1 2)"): 1, parse_monomial("x(x(1 2) 3)"): 1})
    assert not ShuffleElement({parse_monomial("x(1 2)"): 0})


# --- text round trips ----------------------------------------------------


@st.composite
def _monomials(draw, labels):
    """A valid shuffle monomial on the given distinct positive labels."""
    if len(labels) == 1:
        return labels[0]
    labels = draw(st.permutations(labels))
    cut = draw(st.integers(1, len(labels) - 1))
    children = sorted((draw(_monomials(labels[:cut])), draw(_monomials(labels[cut:]))),
                      key=min_leaf)
    return (draw(st.sampled_from(["x", "y", "_z", "Ab1"])), *children)


_LABELS = st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True)


@st.composite
def _elements(draw):
    """A shuffle element: nonzero rational coefficients on one label set."""
    labels = draw(_LABELS)
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)
    return ShuffleElement(
        draw(st.dictionaries(_monomials(labels), coeffs, min_size=0, max_size=4))
    )


@given(_LABELS.flatmap(_monomials))
def test_monomial_text_round_trip(m):
    validate_monomial(m)
    assert parse_monomial(print_monomial(m)) == m


@given(_elements())
def test_element_text_round_trip(e):
    assert parse_element(str(e)) == e


@st.composite
def _near_miss(draw, texts):
    """A valid text with one character dropped."""
    text = draw(texts)
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1:]


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="xy_(0123) "),
        _near_miss(_LABELS.flatmap(_monomials).map(print_monomial)),
    )
)
def test_parse_monomial_returns_a_monomial_or_raises_shuffle_error(text):
    try:
        m = parse_monomial(text)
    except ShuffleError:
        return
    validate_monomial(m)
    assert parse_monomial(print_monomial(m)) == m


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="xy(0123) +-*/"),
        _near_miss(_elements().filter(bool).map(str)),
    )
)
def test_parse_element_returns_an_element_or_raises_shuffle_error(text):
    try:
        e = parse_element(text)
    except ShuffleError:
        return
    assert parse_element(str(e)) == e


def test_parse_element_refuses_a_character_outside_the_grammar_anywhere():
    # first fault: a stray inserted into a valid text is refused where it
    # stands or, inside a symbol or number, no later
    rng = random.Random(22)
    coefficients = [1, -1, 2, Fraction(-1, 2), Fraction(3, 4)]
    for _ in range(500):
        labels = list(range(1, rng.randint(1, 6) + 1))
        text = str(ShuffleElement({
            _random_monomial(rng, labels, ["x", "ab_1", "y"]): rng.choice(coefficients)
            for _ in range(rng.randint(1, 3))}))
        i = rng.randrange(len(text) + 1)
        with pytest.raises(ParseError) as info:
            parse_element(text[:i] + rng.choice("@!") + text[i:])
        assert info.value.position <= i


# --- the token parser against the character scanner -----------------------
#
# The reference: a parser that scans character by character and validates
# in three walks (leaves, their signs, the child minima at each node).  The
# token parser must return the same value, or raise the same class with the
# same message and position, except on the two inputs it reads differently
# on purpose: a zero denominator in non-ASCII digits (the reference divides
# by zero) and a lone number of value 0 (the zero element as str() prints it).


class _RefScanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def match(self, regex):
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return m.group(0)
        return None

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


_REF_SYM = re.compile(r"[A-Za-z_]\w*")
_REF_INT = re.compile(r"\d+")


def _ref_int(num, sc):
    try:
        return int(num)
    except ValueError:
        raise ParseError(f"number too long ({len(num)} digits)", sc.pos - len(num)) from None


def _ref_monomial_from(sc, depth=1):
    num = sc.match(_REF_INT)
    if num is not None:
        return _ref_int(num, sc)
    sym = sc.match(_REF_SYM)
    if sym is None:
        raise ParseError("expected a leaf number or generator symbol", sc.pos)
    if depth > 200:
        raise ParseError("nesting deeper than 200 levels", sc.pos - len(sym))
    sc.take("(")
    args = []
    while sc.peek() != ")":
        if sc.at_end():
            raise ParseError("missing ')'", sc.pos)
        if len(args) == 2:
            raise ParseError("a generator takes two arguments", sc.pos)
        args.append(_ref_monomial_from(sc, depth + 1))
    if len(args) == 1:
        raise ParseError("a generator takes two arguments", sc.pos)
    sc.take(")")
    if not args:
        raise ParseError("generator application needs arguments", sc.pos)
    return (sym, *args)


def _ref_check_shape(m):
    """Refuse the first node in preorder that is not (symbol, left, right)."""
    if isinstance(m, int):
        return
    if len(m) != 3:
        raise ShuffleConditionError(f"a generator takes two arguments, got {m!r}")
    for c in m[1:]:
        _ref_check_shape(c)


def _ref_validate(m):
    _ref_check_shape(m)
    seen = leaves(m)
    if len(set(seen)) != len(seen):
        raise ShuffleConditionError(f"duplicate leaf labels in {print_monomial(m)}")
    if any(label < 1 for label in seen):
        raise ShuffleConditionError("leaf labels must be positive")
    _ref_check_minima(m)
    return list(seen)


def _ref_check_minima(m):
    if isinstance(m, int):
        return
    mins = [min_leaf(c) for c in m[1:]]
    if any(a >= b for a, b in zip(mins, mins[1:])):
        raise ShuffleConditionError(f"child minima not increasing at {print_monomial(m)}: {mins}")
    for c in m[1:]:
        _ref_check_minima(c)


def _ref_parse_monomial(text):
    sc = _RefScanner(text)
    m = _ref_monomial_from(sc)
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    _ref_validate(m)
    return m


def _ref_coefficient(sc, sign):
    start = sc.pos
    num = sc.match(_REF_INT)
    if num is None:
        return Fraction(sign)
    value = Fraction(_ref_int(num, sc))
    if sc.peek() in ("", "+", "-"):
        sc.pos = start
        return Fraction(sign)
    if sc.peek() == "/":
        sc.take("/")
        den = sc.match(_REF_INT)
        if den is None:
            raise ParseError("expected denominator", sc.pos)
        if not den.strip("0"):
            raise ParseError("zero denominator", sc.pos - len(den))
        value /= _ref_int(den, sc)
    if sc.peek() == "*":
        sc.take("*")
    return sign * value


def _ref_parse_element(text):
    sc = _RefScanner(text)
    terms = {}
    sign = 1
    if sc.peek() == "-":
        sc.take("-")
        sign = -1
    elif sc.peek() == "+":
        sc.take("+")
    while True:
        coeff = _ref_coefficient(sc, sign)
        m = _ref_monomial_from(sc)
        _ref_validate(m)
        terms[m] = terms.get(m, 0) + coeff
        if sc.at_end():
            break
        nxt = sc.peek()
        if nxt == "+":
            sc.take("+")
            sign = 1
        elif nxt == "-":
            sc.take("-")
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {nxt!r}", sc.pos)
    return ShuffleElement(terms)


def _ref_parse_rules(text):
    """parse_rules with the reference element parser under it."""
    with mock.patch.object(shuffle, "parse_element", _ref_parse_element):
        return parse_rules(text)


def _parse_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the class, message and position are compared
        return type(exc), str(exc), getattr(exc, "position", None)


def _lone_zero(piece):
    return re.fullmatch(r"\s*\d{1,50}\s*", piece) is not None and int(piece) == 0


def _agrees_with_reference(text):
    """Check parse_monomial, parse_element and parse_rules on text against
    the reference; False if the text is one of the inputs changed on purpose."""
    pairs = [(parse_monomial, _ref_parse_monomial), (parse_element, _ref_parse_element),
             (parse_rules, _ref_parse_rules)]
    if any(_lone_zero(piece) for piece in re.split(r"[=#\n]", text)):
        pairs = pairs[:1]
    compared = False
    for fn, ref in pairs:
        expected = _parse_outcome(ref, text)
        if expected[0] is ZeroDivisionError:
            continue
        assert _parse_outcome(fn, text) == expected, (fn.__name__, text)
        compared = True
    return compared


_MONOMIAL_TEXTS = _LABELS.flatmap(_monomials).map(print_monomial)
_ELEMENT_TEXTS = _elements().filter(bool).map(str)
_RULE_TEXTS = st.tuples(_ELEMENT_TEXTS, _ELEMENT_TEXTS).map(" = ".join)


@given(
    st.one_of(
        _MONOMIAL_TEXTS, _ELEMENT_TEXTS, _RULE_TEXTS,
        _near_miss(_MONOMIAL_TEXTS), _near_miss(_ELEMENT_TEXTS), _near_miss(_RULE_TEXTS),
        st.text(alphabet="xy(0123) +-*/=#\t\n٣"),
    )
)
@settings(max_examples=50)
def test_token_parser_matches_the_reference_on_strategy_texts(text):
    _agrees_with_reference(text)


def test_token_parser_matches_the_reference_on_mutated_texts():
    # The lexer splits on whitespace and falls back to findall where a
    # piece is not one whole token: touching tokens ("2x", "1x"),
    # characters that splitting glues to a neighbour (' ,), a digit that is
    # not decimal (²), a character str.isidentifier takes and \w does not
    # (·), and whitespace other than ASCII's (NBSP, \x1c).
    rng = random.Random(10)
    chars = "xy_A1(0123456789) +-*/=#\t\n" + "٠٣۵०৩" + "éλж" + "',²·\xa0\x1c"
    seeds = [
        "x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)",
        "-2/3*y(1 x(2 3)) + 5 x(x(1 3) 2) - y(y(1 2) 3)",
        "x(1 2) = -1/2 * y(1 2)  # comment\nx(x(1 2) 3) = 0 x(1 x(2 3))",
        "Ab1(_z(1 4) x(2 3)) - 3 _z(1 Ab1(2 x(3 4)))",
        "x(1 2)\t=\ty(1 2)\n\ny(y(1 2) 3) = 7/9 y(1 y(2 3))",
        "x(1x(2 3) 4)",
        "2x(1 2)",
    ]
    compared = fallbacks = 0
    for _ in range(800):
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice(chars) + text[i + (op == 2):]
        expected = re.findall(shuffle._TOKENS + r"|\S", text) + [""]
        with mock.patch.object(shuffle.re, "findall", wraps=re.findall) as findall:
            assert shuffle._lex(text) == expected, text
        fallbacks += findall.called
        compared += _agrees_with_reference(text)
    assert compared > 700
    assert 100 < fallbacks < 700


@pytest.mark.parametrize(
    "text, refusal",
    [
        # a shuffle violation in term 1 is met before a syntax error in term 2
        ("x(2 1) + x(1 2", "child minima not increasing at x(2 1): [2, 1]"),
        ("-1/2*x(1 x(3 2)) + 3 * ) x(1 2)", "child minima not increasing at x(3 2): [3, 2]"),
        # a duplicate label before an order violation in one monomial
        ("x(x(2 2) 1)", "duplicate leaf labels in x(x(2 2) 1)"),
        ("x(1 2) - 2*x(3 x(1 1))", "duplicate leaf labels in x(3 x(1 1))"),
        # label 0, alone and beside an order violation
        ("x(0 1)", "leaf labels must be positive"),
        ("y(1 x(0 3)) + y(1 x(3 2))", "leaf labels must be positive"),
    ],
)
def test_parse_refusal_precedence_matches_the_reference(text, refusal):
    expected = (ShuffleConditionError, refusal, None)
    assert _parse_outcome(_ref_parse_element, text) == expected
    assert _parse_outcome(parse_element, text) == expected
    monomial = text.split(" + ")[0].split(" - ")[0]
    if not re.search(r"[*+-]", monomial):
        assert _parse_outcome(parse_monomial, monomial) == _parse_outcome(
            _ref_parse_monomial, monomial)


@pytest.mark.parametrize(
    "m",
    [
        0, -3, 7, ("x", 0, 1), ("x", -2, -1), ("x", 1, -1), ("x", 1, 2, 3), ("x", 1, 3, 2),
        ("x", 2, 1), ("x", ("y", 2, 1), 3), ("x", ("y", 3, 2), 1),
        ("x", ("y", 2, 1), 2), ("x", ("y", 1, 1), 0), ("x", 2, ("y", 2, 0)),
        ("x", ("y", 1, ("z", 5, 4)), ("y", 3, 2)), ("x", 1, ("y", ("z", 2, 3), 4)),
    ],
)
def test_validate_monomial_matches_the_reference(m):
    assert _parse_outcome(validate_monomial, m) == _parse_outcome(_ref_validate, m)


@pytest.mark.parametrize(
    "m, node", [(("x",), "('x',)"), (("x", 1, "a"), "'a'"), (("x", ("y",), 2), "('y',)")]
)
def test_validate_monomial_refuses_a_node_without_children(m, node):
    # a str stands where a subtree should; a tuple node without children
    # is refused as every node that is not (symbol, left, right) is
    if node.startswith("("):
        message = f"a generator takes two arguments, got {node}"
    else:
        message = f"a generator node needs children, got {node}"
    with pytest.raises(ShuffleConditionError, match=f"^{re.escape(message)}$"):
        validate_monomial(m)


@pytest.mark.parametrize("m, node", [
    (("x", 1), "('x', 1)"), (("x", ("y", 1), 2), "('y', 1)"),
    (("x", 1, 2, 3), "('x', 1, 2, 3)"), (("x", 1, ("y", 2, 3, 4)), "('y', 2, 3, 4)"),
    # the first in preorder, before a shuffle violation below it
    (("t", ("x", 3, 2), 1, 4), "('t', ('x', 3, 2), 1, 4)"),
])
def test_validate_monomial_refuses_a_node_that_is_not_binary(m, node):
    message = f"a generator takes two arguments, got {node}"
    for build in (validate_monomial, lambda m: ShuffleElement({m: 1})):
        with pytest.raises(ShuffleConditionError, match=f"^{re.escape(message)}$"):
            build(m)


@pytest.mark.parametrize("parse, text, position", [
    (parse_monomial, "t(1 2 3)", 6), (parse_monomial, "x(1)", 3),
    (parse_monomial, "x(1 y(2 3 4))", 10), (parse_monomial, "x(x(1) 2 3)", 5),
    (parse_element, "x(1 2 3) + x(1 2 3)", 6), (parse_element, "2*x(1 y(2))", 9),
])
def test_the_parser_refuses_a_node_that_is_not_binary_where_it_stands(parse, text, position):
    with pytest.raises(ParseError, match=r"^a generator takes two arguments \(at position") as info:
        parse(text)
    assert info.value.position == position


def test_every_non_binary_tree_of_a_seeded_sweep_is_refused():
    rng = random.Random(2020)
    refused = 0
    for _ in range(2000):
        labels = list(range(1, rng.randint(3, 9)))
        m = _random_nary_monomial(rng, labels, ["x", "ab_1"])
        if not _has_non_binary_node(m):
            validate_monomial(m)
            continue
        for build in (validate_monomial, lambda m: ShuffleElement({m: 1})):
            with pytest.raises(ShuffleConditionError, match="^a generator takes two arguments, got"):
                build(m)
        text = _ref_print(m)
        for parse in (parse_monomial, parse_element):
            with pytest.raises(ParseError, match="^a generator takes two arguments"):
                parse(text)
        assert _parse_outcome(parse_monomial, text) == _parse_outcome(_ref_parse_monomial, text)
        refused += 1
    assert refused > 1000


NOT_A_LEAF_OR_NODE = "a leaf must be an int (not a bool) and a node a tuple, got "


@pytest.mark.parametrize("m, message", [
    (("x", True, 2), NOT_A_LEAF_OR_NODE + "True"),
    (("x", 1.5, 2), NOT_A_LEAF_OR_NODE + "1.5"),
    (("x", None, 2), NOT_A_LEAF_OR_NODE + "None"),
    (True, NOT_A_LEAF_OR_NODE + "True"),
    (("x", "1", 2), "a generator node needs children, got '1'"),
])
def test_an_element_refuses_a_leaf_that_is_not_an_int(m, message):
    # the walks after validation take a leaf for an int exactly
    for build in (validate_monomial, lambda m: ShuffleElement({m: 1})):
        with pytest.raises(ShuffleConditionError, match=f"^{re.escape(message)}$"):
            build(m)


def test_validate_monomial_refuses_a_node_that_is_not_a_tuple():
    message = NOT_A_LEAF_OR_NODE + "['y', 2, 3]"
    with pytest.raises(ShuffleConditionError, match=f"^{re.escape(message)}$"):
        validate_monomial(("x", 1, ["y", 2, 3]))


@pytest.mark.parametrize("m, sym", [
    ((5, 1, 2), "5"), (("a b", 1, 2), "'a b'"), (("é", 1, 2), "'é'"),
    (("", 1, 2), "''"), (("x", ("a b", 1, 2), 3), "'a b'"),
])
def test_an_element_refuses_a_symbol_the_parser_does_not_read(m, sym):
    # the printer would write text that parse_element refuses, or raise
    message = f"generator symbol {sym} is not of the form [A-Za-z_]\\w*"
    for build in (validate_monomial, lambda m: ShuffleElement({m: 1})):
        with pytest.raises(ShuffleConditionError, match=f"^{re.escape(message)}$"):
            build(m)


def test_an_element_takes_a_symbol_the_parser_reads():
    e = ShuffleElement({("xé", 1, ("_y2", 2, 3)): 1})
    assert str(e) == "xé(1 _y2(2 3))"
    assert parse_element(str(e)) == e

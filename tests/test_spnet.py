import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from freeop import trees
from freeop.cli import LISTING_SEP
from freeop.dims import builtin_operad
from freeop.partitions import partitions
from freeop.spnet import (
    EDGE,
    PARALLEL,
    SERIES,
    enumerate_networks,
    format_network,
    macmahon,
    make_node,
    network_pieces,
    network_to_tree,
    parse_network,
    size,
    tree_to_network,
    validate_network,
)

MACMAHON = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624]

COMAS = builtin_operad("com-as")


def test_macmahon_values():
    assert [macmahon(n) for n in range(1, 11)] == MACMAHON
    # OEIS A000084
    assert macmahon(20) == 513477502
    assert macmahon(30) == 90479177302242
    with pytest.raises(ValueError):
        macmahon(0)


def _quadratic_macmahon(n_max):
    """The Euler transform term by term: each c'_k by a scan of the
    divisors of k, each u_k by the full convolution."""
    u, b, c = [0, 1], [1, 1], [0, 1]
    for k in range(2, n_max + 1):
        c_rest = sum(d * u[d] for d in range(1, k // 2 + 1) if k % d == 0)
        u.append((sum(c[j] * b[k - j] for j in range(1, k)) + c_rest) // k)
        b.append(2 * u[k])
        c.append(c_rest + k * u[k])
    return b


def test_macmahon_matches_quadratic_convolution():
    b = _quadratic_macmahon(399)
    assert [macmahon(n) for n in range(1, 400)] == b[1:]


def test_enumeration_agrees_with_convolution():
    for n in range(1, 11):
        nets = list(enumerate_networks(n))
        assert len(nets) == macmahon(n)
        assert len(set(nets)) == len(nets)
        for net in nets:
            validate_network(net)
            assert size(net) == n


def test_small_networks():
    assert list(enumerate_networks(1)) == [EDGE]
    three = list(enumerate_networks(3))
    assert len(three) == 4
    assert len(list(enumerate_networks(7))) == 180


def _networks_by_make_node(n, root, cache):
    """Reference enumeration: every node built by make_node."""
    key = (n, root)
    if key not in cache:
        if n == 1:
            out = [EDGE] if root == "any" else []
        elif root == "any":
            out = _networks_by_make_node(n, SERIES, cache) + _networks_by_make_node(
                n, PARALLEL, cache
            )
        else:
            opposite = PARALLEL if root == SERIES else SERIES
            out = []
            for lam in partitions(n, 2):
                per_size = [
                    [(EDGE,) * mult]
                    if s == 1
                    else list(
                        itertools.combinations_with_replacement(
                            _networks_by_make_node(s, opposite, cache), mult
                        )
                    )
                    for s, mult in sorted(Counter(lam).items(), reverse=True)
                ]
                for groups in itertools.product(*per_size):
                    out.append(make_node(root, itertools.chain.from_iterable(groups)))
        cache[key] = out
    return cache[key]


def test_enumeration_matches_make_node_route():
    cache = {}
    for n in range(1, 11):
        assert list(enumerate_networks(n)) == _networks_by_make_node(n, "any", cache)


def test_make_node_rejects_like_nesting():
    s2 = make_node(SERIES, (EDGE, EDGE))
    with pytest.raises(ValueError):
        make_node(SERIES, (s2, EDGE))
    with pytest.raises(ValueError):
        make_node(PARALLEL, (EDGE,))


def test_tree_network_dictionary():
    assert tree_to_network((trees.BULLET, 0, (1, 2))) == make_node(
        PARALLEL, (EDGE, EDGE)
    )
    assert tree_to_network((trees.CIRC, 0, (0, 0, 0))) == make_node(
        SERIES, (EDGE, EDGE, EDGE)
    )
    mixed = tree_to_network((trees.BULLET, 0, ((trees.CIRC, 0, (0, 0)), 0)))
    assert mixed == make_node(PARALLEL, (EDGE, make_node(SERIES, (EDGE, EDGE))))


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_exhaustive(n):
    for net in enumerate_networks(n):
        assert tree_to_network(network_to_tree(net)) == net
    for t in trees.enumerate_unlabeled(COMAS, COMAS, n):
        assert network_to_tree(tree_to_network(t)) == t


@pytest.mark.parametrize("n", range(1, 8))
def test_text_round_trip(n):
    for net in enumerate_networks(n):
        assert parse_network(format_network(net)) == net


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_network("S(e)")
    with pytest.raises(ValueError):
        parse_network("S(S(e e) e)")
    with pytest.raises(ValueError):
        parse_network("Q(e e)")


def test_parse_refuses_deep_nesting_by_name():
    text = "e"
    for i in range(200):
        text = f"{'SP'[i % 2]}(e {text})"
    net = parse_network(text)  # 200 levels
    assert (size(net), format_network(net)) == (201, text)
    with pytest.raises(ValueError, match="nesting deeper than 200 levels at position 800$"):
        parse_network(f"S(e {text})")  # 201 levels; the innermost starts at 4 * 200


@pytest.mark.parametrize(
    "text, refusal",
    [
        # the first fault the parser meets is named, not a later stray
        ("S(e x)", "expected node, got 'x' at position 4"),
        ("S(e e))  E", "trailing tokens at position 6"),
        ("S e e)", "expected '(' after S at position 2"),
        ("P(e S(e e)", "missing ')' at position 10"),
        ("S(e e) e", "trailing tokens at position 7"),
        ("", "unexpected end of input at position 0"),
        ("  ", "unexpected end of input at position 2"),
        # a node's own refusals name where the node starts
        ("S(e ))", "series/parallel node needs at least two children at position 0"),
        ("P(e S(e ))", "series/parallel node needs at least two children at position 4"),
        ("S(S(e e) e)", "S node may not contain a S child at position 0"),
        ("P(e S(e S(e e)))", "S node may not contain a S child at position 4"),
        ("P(S(e e) e)", "children not in canonical order at position 0"),
        ("P(e S(P(e e) e))", "children not in canonical order at position 4"),
        (")", "expected node, got ')' at position 0"),
        ("S(e (e e))", "expected node, got '(' at position 4"),
        # the 201st node from the root starts at 4 * 200
        pytest.param("P" + "(e S(e P" * 100 + "(e e" + "))" * 100 + ")",
                     "nesting deeper than 200 levels at position 800", id="nesting"),
    ],
)
def test_parse_network_refusals(text, refusal):
    with pytest.raises(ValueError) as info:
        parse_network(text)
    assert str(info.value) == refusal


def test_parse_network_refuses_a_character_outside_the_grammar_anywhere():
    # first fault: every token is one character, so a stray inserted into a
    # valid text is refused where it stands
    rng = random.Random(22)
    texts = list(map(format_network, enumerate_networks(7)))
    for _ in range(500):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        with pytest.raises(ValueError, match=f" at position {i}$"):
            parse_network(text[:i] + rng.choice("xE@") + text[i:])


def test_validate_network_rejects_children_out_of_order():
    validate_network((PARALLEL, (EDGE, (SERIES, (EDGE, EDGE)))))
    # a network that is no text has no positions to name
    with pytest.raises(ValueError, match="^children not in canonical order$"):
        validate_network((PARALLEL, ((SERIES, (EDGE, EDGE)), EDGE)))
    # make_node orders its own children, but each must already be canonical.
    with pytest.raises(ValueError, match="^children not in canonical order$"):
        make_node(SERIES, (EDGE, (PARALLEL, ((SERIES, (EDGE, EDGE)), EDGE))))


def test_make_node_refuses_a_bad_kind():
    for kind in ("Q", "e", ""):
        with pytest.raises(ValueError, match=f"^bad kind '{kind}'$"):
            make_node(kind, (EDGE, EDGE))


def test_validate_network_rejects_list_children():
    with pytest.raises(ValueError, match="children must be a tuple, got list"):
        validate_network((SERIES, [EDGE, EDGE]))


def test_validate_network_builds_each_key_once():
    net = EDGE
    for i in range(200):
        net = ("SP"[i % 2], (EDGE, net))
    started = time.monotonic()
    validate_network(net)  # recomputing every subtree's key took 1.4 s here
    assert time.monotonic() - started < 0.2


@st.composite
def _networks(draw, parent=None, depth=0):
    """Canonical networks: kinds alternate, children in key order."""
    if depth == 4 or draw(st.booleans()):
        return EDGE
    kind = draw(st.sampled_from([k for k in (SERIES, PARALLEL) if k != parent]))
    children = draw(st.lists(_networks(kind, depth + 1), min_size=2, max_size=4))
    return make_node(kind, children)


@given(_networks())
def test_network_text_round_trip(net):
    validate_network(net)
    assert parse_network(format_network(net)) == net


@st.composite
def _near_miss(draw, texts):
    """A valid text with one character dropped."""
    text = draw(texts)
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1:]


@given(
    st.one_of(
        st.text(),
        st.text(alphabet="SPe() x"),
        _near_miss(_networks().map(format_network)),
    )
)
def test_parse_network_returns_a_network_or_raises_value_error(text):
    try:
        net = parse_network(text)
    except ValueError:
        return
    validate_network(net)
    assert parse_network(format_network(net)) == net


def test_network_lines_are_the_formatted_enumeration():
    for n in range(1, 13):
        lines = [format_network(t) for t in enumerate_networks(n)]
        assert "\n".join(network_pieces(n)) == "\n".join(lines)
        for sep in LISTING_SEP.values():
            assert sep.join(network_pieces(n, sep)) == sep.join(lines), (n, sep)
    # The make_node route does not share _unlabeled's ordering of children.
    cache = {}
    for n in range(1, 11):
        expected = [format_network(t) for t in _networks_by_make_node(n, "any", cache)]
        assert "\n".join(network_pieces(n)) == "\n".join(expected)
    with pytest.raises(ValueError, match="arity must be >= 1, got 0"):
        network_pieces(0)  # by the call, before the first piece

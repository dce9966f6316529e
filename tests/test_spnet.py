import pytest

from freeop import trees
from freeop.dims import builtin_operad
from freeop.spnet import (
    EDGE,
    PARALLEL,
    SERIES,
    enumerate_networks,
    format_network,
    macmahon,
    make_node,
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
    with pytest.raises(ValueError, match="nesting deeper than 200 levels at position 800$"):
        parse_network(f"S(e {text})")  # 201 levels; the innermost starts at 4 * 200

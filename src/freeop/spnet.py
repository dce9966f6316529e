"""Series-parallel networks with unlabeled edges.

A network is a canonical term: the single edge "e", or ("S", children) /
("P", children) where children is a sorted tuple of at least two
networks, none of the same kind as the parent.  The counting sequence is
the MacMahon numbers 1, 2, 4, 10, 24, 66, 180, ...
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from operator import itemgetter, mul

from . import trees
from .dims import builtin_operad
from .shuffle import MAX_NESTING, _TOO_DEEP, _lex, _refusal, _start

EDGE = "e"
SERIES = "S"
PARALLEL = "P"


def is_edge(net) -> bool:
    return net == EDGE


def size(net) -> int:
    """Number of edges."""
    if is_edge(net):
        return 1
    return sum(size(c) for c in net[1])


def make_node(kind: str, children) -> tuple:
    """Build a canonical S/P node over canonical children in any order."""
    return _keyed_node(kind, [(_validated_key(c), c) for c in children])[1]


def _keyed_node(kind: str, keyed) -> tuple:
    """(key, node) of the canonical node over (key, child) pairs; rejects
    like-kinded nesting.  The key is trees.structural_key's, built by the
    same rule from the children's, so the bijection preserves sort order:
    series <-> circ (kind 1), parallel <-> bullet (kind 2)."""
    if kind not in (SERIES, PARALLEL):
        raise ValueError(f"bad kind {kind!r}")
    keyed = sorted(keyed, key=itemgetter(0))
    if len(keyed) < 2:
        raise ValueError("series/parallel node needs at least two children")
    keys, children = zip(*keyed)
    for c in children:
        if not is_edge(c) and c[0] == kind:
            raise ValueError(f"{kind} node may not contain a {kind} child")
    return trees._vertex_key(1 if kind == SERIES else 2, 0, keys), (kind, children)


_EDGE_KEYED = (trees._LEAF_KEY, EDGE)
_COM_AS = builtin_operad("com-as")


def _checked_node(kind: str, keyed: list) -> tuple:
    """_keyed_node over (key, child) pairs already in canonical order."""
    key, net = _keyed_node(kind, keyed)
    if net[1] != tuple(c for _, c in keyed):
        raise ValueError("children not in canonical order")
    return key, net


def validate_network(net) -> None:
    """Check that net is canonical; raise ValueError otherwise."""
    _validated_key(net)


def _validated_key(net):
    """The key of a canonical net, each subtree's key built once."""
    if is_edge(net):
        return _EDGE_KEYED[0]
    kind, children = net
    if not isinstance(children, tuple):
        raise ValueError(f"children must be a tuple, got {type(children).__name__}")
    return _checked_node(kind, [(_validated_key(c), c) for c in children])[0]


# --- enumeration and counting ------------------------------------------


def enumerate_networks(n: int) -> Iterator:
    """All canonical networks with n edges, deterministic order."""
    def nodes(kind, groups):
        return itertools.product((kind,), trees._ascending(groups))

    return _all_nets(n, tuple, nodes, nodes)


def network_pieces(n: int, sep: str = "\n") -> Iterator[str]:
    """`format_network` of each network of `enumerate_networks`, in the
    same order, joined by sep and yielded a piece at a time; n < 1 is
    refused by the call, before the first piece.

    Each shared subnetwork's text, and each multiset of them, is joined
    once, and a node's text is laid out by `_node_pieces`."""
    return _all_nets(n, " ".join, _node_lines, functools.partial(_node_pieces, sep=sep))


def _node_pieces(kind: str, groups, sep: str) -> Iterator[str]:
    """The text of the kind nodes over each choice of product(*groups),
    groups of children's text printed in reverse order, joined by sep.

    The groups after the last one with more than one option are the same
    in every node, and printed first, so each choice of the groups before
    it joins the text of all the nodes it ends in one call: one piece."""
    last = len(groups) - 1
    while last and len(groups[last]) == 1:
        last -= 1
    head = f"{kind}(" + "".join(g[0] + " " for g in reversed(groups[last + 1:]))
    block = groups[last]
    for rest in itertools.product(*groups[:last]):
        suffix = "".join(" " + g for g in reversed(rest)) + ")"
        yield head + (suffix + sep + head).join(block) + suffix


def _node_lines(kind: str, groups) -> list[str]:
    """The text of each kind node over product(*groups), as _node_pieces."""
    return "\n".join(_node_pieces(kind, groups, "\n")).split("\n")


def _all_nets(n: int, group, nodes, top) -> Iterator:
    """The networks with n edges, as `group(children)` builds a multiset
    of children of one size and `nodes(kind, groups)` the nodes of a kind
    over trees._unlabeled's groups of them, `top` (of the same arguments)
    those at the root; the edge is "e", both the network and its text."""
    # Networks are com-as*com-as trees (one decoration per arity) without
    # leaf labels.  Mapping the first color to series lists series-rooted
    # networks first, though tree_to_network maps bullet to parallel: kind
    # never decides between siblings, as those of equal size share it.
    kinds = {trees.BULLET: SERIES, trees.CIRC: PARALLEL}
    return trees._unlabeled(
        _COM_AS, _COM_AS, n, "any", EDGE, group,
        lambda color, d, groups: nodes(kinds[color], groups),
        lambda color, d, groups: top(kinds[color], groups),
    )


def macmahon(n: int) -> int:
    """Number of series-parallel networks with n unlabeled edges.

    Computed by the Euler transform, never by enumeration.  With u_k the
    non-series networks (u_1 = 1, the edge) and b_k the multisets of them
    with k edges in all, k * b_k = sum_j c_j * b_{k-j}, c_j = sum_{d | j}
    d * u_d.  A series network is a multiset of >= 2 non-series ones and,
    by the series/parallel symmetry, u_k of them exist: b_k = 2 * u_k for
    k >= 2, which leaves u_k = (sum_{j<k} c_j * b_{k-j} + c'_k) / k, c'_k
    being c_k without its d = k term.  The count is b_n: the edge for
    n = 1, otherwise u_n non-series networks and as many series ones.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # c_1, ..., c_(k-1), and b newest first, b_(k-1), ..., b_1, so that
    # c[j-1] = c_j meets b[j-1] = b_(k-j) with no copy or reversal.
    c = [1]
    b = [1]
    # rest[k] = c'_k, filled by a sieve: once u_d is known, d * u_d goes to
    # each proper multiple of d.  u_1 = 1 is already in.
    rest = [0, 0] + [1] * (n - 1)
    for k in range(2, n + 1):
        u_k = (sum(map(mul, c, b)) + rest[k]) // k
        b.insert(0, 2 * u_k)
        # k * u_k: the d = k term of c_k, and of c_m for each multiple m of k
        ku = k * u_k
        c.append(rest[k] + ku)
        for m in range(2 * k, n + 1, k):
            rest[m] += ku
    return b[0]


# --- bijection with unlabeled two-colored trees -------------------------


def tree_to_network(t):
    """bullet -> parallel, circ -> series, leaf -> edge."""
    return _keyed_network(t)[1]


def _keyed_network(t) -> tuple:
    """(key, network) of tree_to_network(t)."""
    if trees.is_leaf(t):
        return _EDGE_KEYED
    kind = PARALLEL if t[0] == trees.BULLET else SERIES
    return _keyed_node(kind, [_keyed_network(c) for c in t[2]])


def network_to_tree(net):
    """Inverse of tree_to_network, producing canonical unlabeled trees: the
    children of a canonical network are already in structural_key order."""
    if is_edge(net):
        return 0
    color = trees.BULLET if net[0] == PARALLEL else trees.CIRC
    return (color, 0, tuple(network_to_tree(c) for c in net[1]))


# --- text form ----------------------------------------------------------


def format_network(net) -> str:
    if is_edge(net):
        return EDGE
    return f"{net[0]}(" + " ".join(format_network(c) for c in net[1]) + ")"


_NET_TOKENS = r"[SPe()]"  # the network grammar, for shuffle._lex


def _network_at(text: str, tokens: list, i: int, depth: int = 1):
    """(key, network) of the network that starts at tokens[i], and the index
    after it."""
    tok = tokens[i]
    if tok == EDGE:
        return _EDGE_KEYED, i + 1
    if tok not in (SERIES, PARALLEL):
        raise _refusal(f"expected node, got {tok!r}" if tok else "unexpected end of input",
                       _start(text, i, _NET_TOKENS))
    if depth > MAX_NESTING:
        raise _refusal(_TOO_DEEP, _start(text, i, _NET_TOKENS))
    if tokens[i + 1] != "(":
        raise _refusal(f"expected '(' after {tok}", _start(text, i + 1, _NET_TOKENS))
    start, i = i, i + 2
    children = []
    while tokens[i] != ")":
        if not tokens[i]:
            raise _refusal("missing ')'", _start(text, i, _NET_TOKENS))
        child, i = _network_at(text, tokens, i, depth + 1)
        children.append(child)
    try:
        return _checked_node(tok, children), i + 1
    except ValueError as e:
        raise _refusal(str(e), _start(text, start, _NET_TOKENS)) from None


def parse_network(text: str):
    """Inverse of format_network; validates canonical form and raises
    ValueError at the first fault it meets."""
    tokens = _lex(text, _NET_TOKENS)
    (_, net), i = _network_at(text, tokens, 0)
    if tokens[i]:
        raise _refusal("trailing tokens", _start(text, i, _NET_TOKENS))
    return net

"""Series-parallel networks with unlabeled edges.

A network is a canonical term: the single edge "e", or ("S", children) /
("P", children) where children is a sorted tuple of at least two
networks, none of the same kind as the parent.  The counting sequence is
the MacMahon numbers 1, 2, 4, 10, 24, 66, 180, ...
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from operator import itemgetter, mul

from . import trees
from .dims import builtin_operad

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
_REVERSED = itemgetter(slice(None, None, -1))
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
    return _all_nets(n, tuple, lambda kind, groups: itertools.product(
        (kind,), trees._ascending(groups)))


def network_lines(n: int) -> list[str]:
    """`format_network` of each network of `enumerate_networks`, in the same
    order: each shared subnetwork's text, and each multiset of them, is
    joined once, and a network joins one multiset per size."""
    return list(_all_nets(n, " ".join, lambda kind, groups: map(
        f"{kind}({{}})".format,
        map(" ".join, map(_REVERSED, itertools.product(*groups))))))


def _all_nets(n: int, group, nodes) -> Iterator:
    """The networks with n edges, as `group(children)` builds a multiset
    of children of one size and `nodes(kind, groups)` the nodes of a kind
    over trees._unlabeled's groups of them; the edge is "e", both the
    network and its text."""
    # Networks are com-as*com-as trees (one decoration per arity) without
    # leaf labels.  Mapping the first color to series lists series-rooted
    # networks first, though tree_to_network maps bullet to parallel: kind
    # never decides between siblings, as those of equal size share it.
    kinds = {trees.BULLET: SERIES, trees.CIRC: PARALLEL}
    return trees._unlabeled(
        _COM_AS, _COM_AS, n, "any", EDGE, group,
        lambda color, d, groups: nodes(kinds[color], groups),
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
    b = [1, 1]
    c = [0, 1]
    # rest[k] = c'_k, filled by a sieve: once u_d is known, d * u_d goes to
    # each proper multiple of d.  u_1 = 1 is already in.
    rest = [0, 0] + [1] * (n - 1)
    for k in range(2, n + 1):
        u_k = (sum(map(mul, c[1:k], reversed(b[1:k]))) + rest[k]) // k
        b.append(2 * u_k)
        c.append(rest[k] + k * u_k)
        for m in range(2 * k, n + 1, k):
            rest[m] += k * u_k
    return b[n]


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


_NET_TOKEN_RE = re.compile(r"\s*([SPe()])")


def parse_network(text: str):
    """Inverse of format_network; validates canonical form."""
    tokens, starts = trees._scan(text, _NET_TOKEN_RE)
    idx = 0

    def node(depth: int = 1):
        """(key, network) of the node starting at token idx."""
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of input")
        tok = tokens[idx]
        idx += 1
        if tok == EDGE:
            return _EDGE_KEYED
        if tok not in (SERIES, PARALLEL):
            raise ValueError(f"expected node, got {tok!r}")
        if depth > trees.MAX_NESTING:
            raise ValueError(
                f"nesting deeper than {trees.MAX_NESTING} levels"
                f" at position {starts[idx - 1]}"
            )
        if idx >= len(tokens) or tokens[idx] != "(":
            raise ValueError(f"expected '(' after {tok}")
        idx += 1
        children = []
        while idx < len(tokens) and tokens[idx] != ")":
            children.append(node(depth + 1))
        if idx >= len(tokens):
            raise ValueError("missing ')'")
        idx += 1
        return _checked_node(tok, children)

    _, net = node()
    if idx != len(tokens):
        raise ValueError("trailing tokens")
    return net

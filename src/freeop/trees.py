"""Two-colored alternating trees: the explicit basis of a free product.

A tree is a nested tuple (color, dec, children) with color "bullet" or
"circ", dec an index into a basis of the component operad at that arity,
and children a tuple of subtrees; a leaf is a bare int label (0 in
unlabeled mode).  No edge ever joins two vertices of the same color, and
every internal vertex has at least two children.  Tree text (format_tree,
parse_tree) is read through the token layer that shuffle text uses.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator

from .dims import BULLET, CIRC, OperadDims, _check_request, avoiding_count, basis_count
from .shuffle import MAX_NESTING, _TOO_DEEP, _int, _lex, _refusal, _start


def other_color(color: str) -> str:
    return CIRC if color == BULLET else BULLET


def is_leaf(t) -> bool:
    return isinstance(t, int)


def arity(t) -> int:
    if is_leaf(t):
        return 1
    return sum(arity(c) for c in t[2])


def leaf_labels(t) -> tuple[int, ...]:
    """Leaf labels in planar (left-to-right) order."""
    if is_leaf(t):
        return (t,)
    out: list[int] = []
    for c in t[2]:
        out.extend(leaf_labels(c))
    return tuple(out)


def validate_tree(t) -> None:
    """Raise ValueError if t violates the arity or color-alternation
    invariants, or is neither an int leaf nor a (color, dec, children)
    tuple with dec an int >= 0; a bool is neither a leaf nor a dec."""
    if type(t) is int:
        return
    if type(t) is not tuple or len(t) != 3:
        raise ValueError(f"a tree is an int leaf or a (color, dec, children) tuple, got {t!r}")
    color, dec, children = t
    if not isinstance(children, tuple):
        raise ValueError(f"children must be a tuple, got {type(children).__name__}")
    if color not in (BULLET, CIRC):
        raise ValueError(f"bad color {color!r}")
    if type(dec) is not int or dec < 0:
        raise ValueError(f"bad decoration {dec!r}")
    for c in children:
        validate_tree(c)
    _check_vertex(color, children)


def _check_vertex(color: str, children) -> None:
    """Raise if a color vertex has fewer than two children or one of its color."""
    if len(children) < 2:
        raise ValueError("internal vertex needs at least two children")
    if any(not is_leaf(c) and c[0] == color for c in children):
        raise ValueError("same-color edge")


# --- labeled basis enumeration -----------------------------------------


def _set_partitions(k: int) -> list[tuple]:
    """The set partitions of range(k), blocks sorted internally and by
    minimum, each as (composition, order): its block sizes in block
    order, and its blocks' indices concatenated.  Those of range(j + 1)
    grow from those of range(j), j put last in each block in turn and
    then alone in a new block: restricted-growth order."""
    grown = [((), ())]
    for j in range(k):
        new = (j,)
        out = []
        for comp, order in grown:
            end = 0
            for i, size in enumerate(comp):
                end += size
                out.append((comp[:i] + (size + 1,) + comp[i + 1:], order[:end] + new + order[end:]))
            out.append((comp + (1,), order + new))
        grown = out
    return grown


def enumerate_basis(
    x: OperadDims, y: OperadDims, n: int, root: str = "any"
) -> Iterator:
    """Yield every canonical basis tree of arity n exactly once.

    Canonical form: children ordered by the smallest leaf label in each
    subtree.  `root` restricts the root color ("bullet", "circ", "any");
    arity 1 yields the bare leaf regardless.  The trees of each root color
    come by set partition of the labels into the root's blocks, then
    decoration, then one child from each block's trees; each (label set,
    color) is built once and shared by every tree that holds it.
    """
    _check_request(n, root)
    if n == 1:
        yield 1
        return
    dim_of = {BULLET: functools.cache(x.dim), CIRC: functools.cache(y.dim)}
    memo: dict = {}
    for color in (BULLET, CIRC):
        if root in (color, "any"):
            yield from _labeled_trees(tuple(range(1, n + 1)), color, dim_of, memo)


def _labeled_trees(labels: tuple[int, ...], color: str, dim_of: dict, memo: dict) -> list:
    """The color-rooted trees over labels; memo holds the set partitions of
    each size and the trees of each (labels, color) already built."""
    key = (labels, color)
    if key in memo:
        return memo[key]
    k = len(labels)
    if k not in memo:
        memo[k] = _set_partitions(k)
    out: list = []
    for comp, order in memo[k]:
        if len(comp) < 2:
            continue
        d = dim_of[color](len(comp))
        if d == 0:
            continue
        ordered = [labels[i] for i in order]
        options: list = []
        start = 0
        for size in comp:
            block = ordered[start:start + size]
            start += size
            subs = block if size == 1 else _labeled_trees(
                tuple(block), other_color(color), dim_of, memo)
            if not subs:
                break
            options.append(subs)
        else:
            out.extend(itertools.product((color,), range(d), itertools.product(*options)))
    memo[key] = out
    return out


# The largest arity a listing takes.  basis_pieces walks the Bell(k) set
# partitions of each size k it visits once per color, however few trees
# they give: 2 (Bell(2) + ... + Bell(10)) = 284,832 of them take 0.2-0.3 s
# to build and visit (CPython 3.11, 2-CPU Xeon), and n = 11, 2 Bell(11) =
# 1,357,140 more, 1.4-2.1 s.
LIST_ARITY_MAX = 10

# The text of a listing is built over placeholder labels, the first k of
# these for k leaves, then relabeled by str.translate.  Uppercase ASCII
# appears in no tree text and in neither listing separator, and keeps
# translate on CPython's ASCII fast path, which a two-character value
# leaves: the label 10 is written as _TEN, then replaced.  The table maps
# all of ASCII, each other code to itself, as translate looks each distinct
# character up once per call and a miss raises and clears a KeyError; a
# code above 127 is an IndexError, a LookupError, so it stays as it is.
_PLACEHOLDERS = "ABCDEFGHIJ"
_HEAD = "".join(map(chr, range(ord(_PLACEHOLDERS[0]))))
_TAIL = "".join(map(chr, range(ord(_PLACEHOLDERS[-1]) + 1, 128)))
_TEN = "T"
# Where a vertex's decoration goes in _vertices_text: no tree text or
# listing separator holds it.
_DEC = "#"


def _relabeling(labels: str) -> str:
    """The translate table that writes labels[i] for the i-th placeholder."""
    return _HEAD + labels + _PLACEHOLDERS[len(labels):] + _TAIL


def basis_pieces(
    x: OperadDims, y: OperadDims, n: int, root: str = "any", sep: str = "\n"
) -> Iterator[str]:
    """`format_tree` of each tree of `enumerate_basis`, in the same order,
    joined by sep and yielded one piece per root color and set partition
    of the labels into the root's blocks that has trees; a bad request is
    refused by the call, before the first piece.

    The trees over a set partition are an order-preserving relabeling of
    the trees over its composition, the block sizes in block order, each
    block's labels made consecutive.  So the text of each (size, color)
    and of each (composition, color) is built once over placeholders,
    and each set partition's is one translate of its composition's.  The
    set partitions of each size are walked once per color, and each
    dimension is read once, when a vertex first needs it.  The walk costs
    2 Bell(k) for each size k <= n, so n is at most LIST_ARITY_MAX.
    """
    _check_request(n, root)
    if n == 1:
        return iter(["1"])
    if n > LIST_ARITY_MAX:
        raise ValueError(f"a listing's arity must be <= {LIST_ARITY_MAX}, got {n}")
    dim_of = {BULLET: functools.cache(x.dim), CIRC: functools.cache(y.dim)}
    memo: dict = {}
    pieces = (piece for color in (BULLET, CIRC) if root in (color, "any")
              for piece in _pieces(n, color, sep, "123456789" + _TEN, dim_of, memo))
    return (p.replace(_TEN, "10") for p in pieces) if n == 10 else pieces


def _pieces(k: int, color: str, sep: str, labels, dim_of: dict, memo: dict) -> Iterator[str]:
    """The text of the (k, color) trees over labels, one piece per set
    partition of range(k) that has trees; memo holds the set partitions of
    each size and the (k, color, offset) lists of _subtrees.  No other call
    walks (k, color, sep), so each composition's text is kept here."""
    if k not in memo:
        memo[k] = _set_partitions(k)
    texts: dict[tuple, str] = {}
    for comp, order in memo[k]:
        text = texts.get(comp)
        if text is None:
            text = texts[comp] = _composed(comp, color, sep, dim_of, memo)
        if text:
            yield text.translate(_relabeling("".join(map(labels.__getitem__, order))))


def _subtrees(k: int, color: str, offset: int, dim_of: dict, memo: dict) -> list[str]:
    """The (k, color) trees over the placeholders from offset on."""
    if k == 1:
        return [_PLACEHOLDERS[offset]]
    key = (k, color, offset)
    if key not in memo:
        if offset:  # the trees from 0 on, shifted
            shift = _relabeling(_PLACEHOLDERS[offset:offset + k])
            text = "\n".join(_subtrees(k, color, 0, dim_of, memo)).translate(shift)
        else:
            text = "\n".join(_pieces(k, color, "\n", _PLACEHOLDERS, dim_of, memo))
        memo[key] = text.split("\n") if text else []
    return memo[key]


def _composed(comp: tuple, color: str, sep: str, dim_of: dict, memo: dict) -> str:
    """The color-rooted trees whose root's blocks are consecutive
    placeholders of sizes comp, joined by sep."""
    if len(comp) < 2:
        return ""
    d = dim_of[color](len(comp))
    if d == 0:
        return ""
    options = []
    offset = 0
    for size in comp:
        subs = _subtrees(size, other_color(color), offset, dim_of, memo)
        if not subs:
            return ""
        options.append(subs)
        offset += size
    return _vertices_text(sep, color, d, options)


def _vertices_text(sep: str, color: str, d: int, options) -> str:
    """The text of the color vertices of decorations 0..d-1, decoration
    first, over every choice of one child from each block's options,
    joined by sep.

    The blocks after the last one with more than one option are the same
    in every tree, so each choice of the children before that block joins
    the text of all the trees it starts in one call.  That text is built
    once, _DEC standing for the decoration, and stamped with each.
    """
    last = len(options) - 1
    while last and len(options[last]) == 1:
        last -= 1
    suffix = "".join(", " + o[0] for o in options[last + 1:]) + ")"
    firsts = itertools.product(*[[t + ", " for t in o] for o in options[:last]])
    head = f"{color}[dec={_DEC}]("
    block = options[last]
    text = sep.join(p + (suffix + sep + p).join(block) + suffix
                    for p in map(head.__add__, map("".join, firsts)))
    return sep.join(text.replace(_DEC, str(dec)) for dec in range(d))


# --- unlabeled mode -----------------------------------------------------


_LEAF_KEY = (1, 0)


def _vertex_key(kind: int, dec: int, keys: tuple) -> tuple:
    """(size, kind, dec, keys): the key of a vertex of kind (1 circ, 2
    bullet) over its children's keys, its size the sum of theirs."""
    return (sum(k[0] for k in keys), kind, dec, keys)


def structural_key(t):
    """Total order on unlabeled trees: by size, then color (circ first),
    decoration and children's keys, each key built once, by _vertex_key."""
    if is_leaf(t):
        return _LEAF_KEY
    color, dec, children = t
    return _vertex_key(1 if color == CIRC else 2, dec, tuple(map(structural_key, children)))


def _unlabeled(
    x: OperadDims, y: OperadDims, n: int, root: str, leaf, group, vertices, top
) -> Iterator:
    """`enumerate_basis` with leaf labels forgotten: `leaf` is the built
    leaf, and the root vertices come from `top`, which takes the arguments
    of `vertices`, yielded as it builds them and never listed; a bad
    request is refused by the call.

    A vertex's children, a multiset, are listed by partition of the arity,
    part sizes descending, then the product of one multiset of subtrees
    per part size, each built once by `group(subtrees)`.  `vertices(color,
    d, groups)` builds the vertices of decorations 0..d-1, decoration
    first, over each choice of product(*groups), whose children are its
    multisets' in reverse order (`_ascending`).  That is the order of
    `structural_key`: by size, then by rank, a subtree's place in its
    (size, color) list sorted by decoration, then by its children's
    (size, rank)s (siblings of equal size have one color).  Only siblings
    of equal size need ranks: lists up to size n/2.
    """
    _check_request(n, root)
    if n == 1:
        return iter((leaf,))
    walk = (n, leaf, group, vertices, {BULLET: x.dim, CIRC: y.dim}, {})
    return (v for color in (BULLET, CIRC) if root in (color, "any")
            for d, groups, _ in _shapes(n, color, walk) for v in top(color, d, groups))


def _shapes(k: int, color: str, walk: tuple) -> Iterator[tuple]:
    """(d, groups, ranks) of each partition of k into at least two parts
    whose color vertices have d > 0 decorations: groups holds a list of
    multisets per part size (`_multisets`), and ranks their (size, rank)s."""
    from .partitions import partitions

    dim_of = walk[4]
    for lam in partitions(k, 2):
        d = dim_of[color](len(lam))
        if d:
            yield (d, *zip(*[_multisets(size, len(list(run)), other_color(color), walk)
                             for size, run in itertools.groupby(lam)]))


def _unlabeled_trees(k: int, color: str, walk: tuple) -> tuple:
    """The trees of (k, color), and if 2k <= n the (k, rank) of each; walk
    is _unlabeled's (n, leaf, group, vertices, dim_of, memo), memo holding
    the answer of each (k, color) and (size, mult, color) already built."""
    n, _, _, vertices, _, memo = walk
    if (k, color) in memo:
        return memo[k, color]
    out: list = []
    order: list = []  # (decoration, children's flat (size, rank)s) per tree
    for d, subtrees, ranks in _shapes(k, color, walk):
        out.extend(vertices(color, d, subtrees))
        if 2 * k <= n:
            order.extend(itertools.product(range(d), _ascending(ranks)))
    rank = {o: (k, r) for r, o in enumerate(sorted(order))}
    memo[k, color] = out, [rank[o] for o in order]
    return memo[k, color]


def _multisets(size: int, mult: int, color: str, walk: tuple) -> tuple:
    """Each multiset of mult subtrees of (size, color), in enumeration
    order: the group of its subtrees by rank, and their (size, rank)s in
    one flat tuple, which sorts as the pairs do."""
    _, leaf, group, _, _, memo = walk
    key = (size, mult, color)
    if key in memo:
        return memo[key]
    subtrees, ranks = ((leaf,), [(1, 0)]) if size == 1 else _unlabeled_trees(size, color, walk)
    if mult == 1:
        memo[key] = list(map(group, zip(subtrees))), ranks
    else:
        sets = [sorted(s) for s in itertools.combinations_with_replacement(
            zip(ranks, subtrees), mult)]
        memo[key] = ([group([t for _, t in s]) for s in sets],
                     [sum((r for r, _ in s), ()) for s in sets])
    return memo[key]


def _ascending(groups) -> Iterator[tuple]:
    """Each of product(*groups), its groups joined in reverse order."""
    return map(tuple, map(itertools.chain.from_iterable,
                          map(reversed, itertools.product(*groups))))


def enumerate_unlabeled(
    x: OperadDims, y: OperadDims, n: int, root: str = "any"
) -> Iterator:
    """Basis trees up to forgetting leaf labels: canonical multisets of children."""
    def vertices(color, d, groups):
        return itertools.product((color,), range(d), _ascending(groups))

    return _unlabeled(x, y, n, root, 0, tuple, vertices, vertices)


# --- grafting with suppression (the As*As planar model) -----------------


def graft(t, args: list):
    """Compose planar trees: substitute, renumber leaves by blocks, then
    contract every edge joining same-color vertices.

    Decorations are carried by the planar arrangement itself (the As*As
    model), so `dec` values pass through untouched.
    """
    n = arity(t)
    if len(args) != n:
        raise ValueError(f"arity mismatch: tree has {n} inputs, got {len(args)} args")

    offset = 0
    plugged: dict[int, object] = {}
    for i, a in enumerate(args, start=1):
        plugged[i] = _shifted(a, offset)
        offset += arity(a)
    return _grafted(t, plugged)


def _shifted(node, off: int):
    """node with off added to each leaf label."""
    if is_leaf(node):
        return node + off
    return (node[0], node[1], tuple(_shifted(c, off) for c in node[2]))


def _grafted(node, plugged: dict):
    """node with each leaf i replaced by plugged[i] and each edge that
    then joins two vertices of one color contracted."""
    if is_leaf(node):
        return plugged[node]
    color, dec, children = node
    flat: list = []
    for c in children:
        k = _grafted(c, plugged)
        if not is_leaf(k) and k[0] == color:
            flat.extend(k[2])
        else:
            flat.append(k)
    return (color, dec, tuple(flat))


# --- pattern-avoidance counting ----------------------------------------


# A pattern is a color c: it matches every c vertex with a composite
# child.  In an alternating tree that child always has the other color.


def tree_matches(t, patterns) -> bool:
    """Does any vertex of t match any of the patterns, each a color
    (anything else is refused, as by `count_avoiding`)?"""
    return _matches(t, _pattern_colors(patterns))


def _matches(t, colors: list[str]) -> bool:
    """Has t a vertex of one of colors over a composite child?"""
    if is_leaf(t):
        return False
    children = t[2]
    if t[0] in colors and not all(map(is_leaf, children)):
        return True
    return any(_matches(c, colors) for c in children)


def _pattern_colors(patterns) -> list[str]:
    """The colors in a pattern list, which holds nothing else."""
    if bad := [p for p in patterns if p not in (BULLET, CIRC)]:
        raise ValueError(f"a pattern is {BULLET!r} or {CIRC!r}, got {bad[0]!r}")
    return [c for c in (BULLET, CIRC) if c in patterns]


def count_avoiding(x: OperadDims, y: OperadDims, n: int, patterns: list[str]) -> int:
    """Number of basis trees containing no vertex matching any pattern.

    Answered from `dims`, each pattern a color (anything else is refused):
    with none, the basis count; with one, `dims.avoiding_count`; with both,
    every vertex is over leaves only, which leaves the root corollas,
    dim_x(n) + dim_y(n) (1 at n = 1, as avoiding_count gives it).
    """
    colors = _pattern_colors(patterns)
    if len(colors) == 2 and n > 1:
        return x.dim(n) + y.dim(n)
    return avoiding_count(x, y, n, colors[0]) if colors else basis_count(x, y, n)


def count_avoiding_recursive(
    x: OperadDims, y: OperadDims, n: int, patterns: list[str]
) -> int:
    """Independent oracle: the avoidance count via a partition recursion.

    Works because the patterns are local: whether a vertex of color c
    over a block-size profile matches depends only on (c, profile).
    """
    from .partitions import partitions, orbit_count

    patterns = _pattern_colors(patterns)
    if n == 1:
        return 1
    dim_of = {BULLET: x.dim, CIRC: y.dim}
    count = {(1, BULLET): 1, (1, CIRC): 1}  # by (arity, root color), a leaf at 1
    for k in range(2, n + 1):
        for color in (BULLET, CIRC):
            count[k, color] = sum(
                orbit_count(lam) * dim_of[color](len(lam))
                * math.prod(count[s, other_color(color)] for s in lam)
                for lam in partitions(k, 2) if color not in patterns or lam[0] == 1)
    return count[n, BULLET] + count[n, CIRC]


PATTERNS_BY_NAME = {
    "bullet-composite-child": BULLET,
    "circ-composite-child": CIRC,
}


# --- serialization ------------------------------------------------------

_TOKENS = r"bullet|circ|\[dec=\d+\]|\d+|[(),]"  # the tree grammar, for shuffle._lex


def format_tree(t) -> str:
    if is_leaf(t):
        return str(t)
    color, dec, children = t
    return f"{color}[dec={dec}](" + ", ".join(format_tree(c) for c in children) + ")"


def _tree_at(text: str, tokens: list, i: int, depth: int = 1):
    """The tree that starts at tokens[i], and the index after it."""
    start, tok = i, tokens[i]
    if tok.isdecimal():
        return _int(tok, text, i, _TOKENS, _refusal), i + 1
    if tok not in (BULLET, CIRC):
        raise _refusal(f"expected color or leaf, got {tok!r}" if tok
                       else "unexpected end of input", _start(text, i, _TOKENS))
    if depth > MAX_NESTING:
        raise _refusal(_TOO_DEEP, _start(text, i, _TOKENS))
    if not tokens[i + 1].startswith("[dec="):
        raise _refusal(f"expected [dec=K] after {tok}", _start(text, i + 1, _TOKENS))
    dec = _int(tokens[i + 1][5:-1], text, i + 1, _TOKENS, _refusal, 5)
    if tokens[i + 2] != "(":
        raise _refusal("expected '('", _start(text, i + 2, _TOKENS))
    child, i = _tree_at(text, tokens, i + 3, depth + 1)
    children = [child]
    while tokens[i] == ",":
        child, i = _tree_at(text, tokens, i + 1, depth + 1)
        children.append(child)
    if tokens[i] != ")":
        raise _refusal("expected ')'", _start(text, i, _TOKENS))
    try:
        _check_vertex(tok, children)
    except ValueError as e:
        raise _refusal(str(e), _start(text, start, _TOKENS)) from None
    return (tok, dec, tuple(children)), i + 1


def parse_tree(text: str):
    """Inverse of format_tree; raises ValueError at the first fault it meets,
    malformed input or a vertex validate_tree refuses, each checked as built."""
    tokens = _lex(text, _TOKENS)
    t, i = _tree_at(text, tokens, 0)
    if tokens[i]:
        raise _refusal("trailing tokens", _start(text, i, _TOKENS))
    return t

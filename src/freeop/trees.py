"""Two-colored alternating trees: the explicit basis of a free product.

A tree is a nested tuple (color, dec, children) with color "bullet" or
"circ", dec an index into a basis of the component operad at that arity,
and children a tuple of subtrees; a leaf is a bare int label (0 in
unlabeled mode).  No edge ever joins two vertices of the same color, and
every internal vertex has at least two children.
"""
from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterator

from .dims import OperadDims, avoiding_count, basis_count

BULLET = "bullet"
CIRC = "circ"


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
    """Raise if t violates the arity or color-alternation invariants."""
    if is_leaf(t):
        return
    color, dec, children = t
    if not isinstance(children, tuple):
        raise ValueError(f"children must be a tuple, got {type(children).__name__}")
    if color not in (BULLET, CIRC):
        raise ValueError(f"bad color {color!r}")
    if dec < 0:
        raise ValueError(f"bad decoration {dec}")
    _check_vertex(color, children)
    for c in children:
        validate_tree(c)


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
    order, and its blocks' indices concatenated."""
    parts: list[list[int]] = []
    results: list[tuple] = []

    def rec(i: int) -> None:
        if i == k:
            results.append((tuple(map(len, parts)),
                            tuple(itertools.chain.from_iterable(parts))))
            return
        for b in parts:
            b.append(i)
            rec(i + 1)
            b.pop()
        parts.append([i])
        rec(i + 1)
        parts.pop()

    rec(0)
    return results


def _check_request(n: int, root: str) -> None:
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if root not in (BULLET, CIRC, "any"):
        raise ValueError(f"bad root {root!r}")


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
    partitions: dict[int, list] = {}
    cache: dict[tuple, list] = {}

    def trees_for(labels: tuple[int, ...], color: str) -> list:
        key = (labels, color)
        if key in cache:
            return cache[key]
        k = len(labels)
        if k not in partitions:
            partitions[k] = _set_partitions(k)
        out: list = []
        for comp, order in partitions[k]:
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
                subs = block if size == 1 else trees_for(tuple(block), other_color(color))
                if not subs:
                    break
                options.append(subs)
            else:
                out.extend(itertools.product(
                    (color,), range(d), itertools.product(*options)))
        cache[key] = out
        return out

    try:
        for color in (BULLET, CIRC):
            if root in (color, "any"):
                yield from trees_for(tuple(range(1, n + 1)), color)
    finally:
        # trees_for refers to itself, so without this the cache lives
        # until the cycle collector runs.
        cache.clear()
        partitions.clear()


# The text of a listing is built over placeholder labels, the first k of
# these for k leaves, then relabeled by str.translate.  Uppercase ASCII
# appears in no tree text and in neither listing separator, and keeps
# translate on CPython's ASCII fast path.
_PLACEHOLDERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CODES = [ord(c) for c in _PLACEHOLDERS]


def basis_pieces(
    x: OperadDims, y: OperadDims, n: int, root: str = "any", sep: str = "\n"
) -> list[str]:
    """Text whose sep.join is sep.join(basis_lines(x, y, n, root)): one
    piece per root color and set partition of the labels into the root's
    blocks that has trees.

    The trees over a set partition are an order-preserving relabeling of
    the trees over its composition, the block sizes in block order, each
    block's labels made consecutive.  So the text of each (size, color)
    and of each (composition, color) is built once over placeholders,
    and each set partition's is one translate of its composition's.  The
    set partitions of each size are walked once per color (basis_walk),
    and each dimension is read once, when a vertex first needs it.
    """
    _check_request(n, root)
    if n == 1:
        return ["1"]
    if n > len(_PLACEHOLDERS):
        raise ValueError(f"a listing's arity must be <= {len(_PLACEHOLDERS)}, got {n}")
    dim_of = {BULLET: functools.cache(x.dim), CIRC: functools.cache(y.dim)}
    partitions = functools.cache(_set_partitions)

    def walk(k: int, color: str, sep: str, labels) -> list[str]:
        """The text of the (k, color) trees over labels, one piece per set
        partition of range(k) that has trees."""
        out = []
        for comp, order in partitions(k):
            text = composed(comp, color, sep)
            if text:
                out.append(text.translate(dict(zip(_CODES, map(labels.__getitem__, order)))))
        return out

    @functools.cache
    def subtrees(k: int, color: str, offset: int) -> list[str]:
        """The (k, color) trees over the placeholders from offset on."""
        if k == 1:
            return [_PLACEHOLDERS[offset]]
        if offset:
            text = "\n".join(subtrees(k, color, 0))
            shift = dict(zip(_CODES, _PLACEHOLDERS[offset:]))
            return text.translate(shift).split("\n") if text else []
        text = "\n".join(walk(k, color, "\n", _PLACEHOLDERS))
        return text.split("\n") if text else []

    @functools.cache
    def composed(comp: tuple, color: str, sep: str) -> str:
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
            subs = subtrees(size, other_color(color), offset)
            if not subs:
                return ""
            options.append(subs)
            offset += size
        return _vertices_text(sep, color, d, options)

    labels = [str(label) for label in range(1, n + 1)]
    try:
        return [piece for color in (BULLET, CIRC) if root in (color, "any")
                for piece in walk(n, color, sep, labels)]
    finally:
        # The closures refer to each other, so without this their caches
        # live until the cycle collector runs, which text (untracked
        # strings) rarely triggers: listings would pile up across calls.
        subtrees.cache_clear()
        composed.cache_clear()
        partitions.cache_clear()


def basis_lines(x: OperadDims, y: OperadDims, n: int, root: str = "any") -> list[str]:
    """`format_tree` of each tree of `enumerate_basis`, in the same order:
    the "\\n" pieces of basis_pieces, split."""
    text = "\n".join(basis_pieces(x, y, n, root))
    return text.split("\n") if text else []


def basis_walk(n: int) -> int:
    """W(n) = 2 (Bell(2) + ... + Bell(n)): the set partitions basis_pieces
    walks at arity n, at most.

    basis_pieces walks the Bell(k) set partitions of range(k) once per
    (size k, color) it visits, however few trees they give: com-as*com-as
    visits every size from 2 to n in both colors, other operands and one
    root color fewer.
    """
    row = [1]
    walk = 0
    for m in range(2, n + 1):
        # Row m - 1 of the Bell triangle, which ends with Bell(m).
        row = list(itertools.accumulate(row, initial=row[-1]))
        walk += 2 * row[-1]
    return walk


def _vertices_text(sep: str, color: str, d: int, options) -> str:
    """The text of the color vertices of decorations 0..d-1, decoration
    first, over every choice of one child from each block's options,
    joined by sep.

    The blocks after the last one with more than one option are the same
    in every tree, so each choice of decoration and of the children before
    that block joins the text of all the trees it starts in one call.
    """
    last = len(options) - 1
    while last and len(options[last]) == 1:
        last -= 1
    suffix = "".join(", " + o[0] for o in options[last + 1:]) + ")"
    firsts = list(map("".join, itertools.product(
        *[[t + ", " for t in o] for o in options[:last]])))
    prefixes = [f"{color}[dec={dec}](" + f for dec in range(d) for f in firsts]
    block = options[last]
    return sep.join(p + (suffix + sep + p).join(block) + suffix for p in prefixes)


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
    x: OperadDims, y: OperadDims, n: int, root: str, leaf, group, vertices
) -> Iterator:
    """`enumerate_basis` with leaf labels forgotten: `leaf` is the built leaf.

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
    from .partitions import partitions

    _check_request(n, root)
    if n == 1:
        yield leaf
        return
    dim_of = {BULLET: x.dim, CIRC: y.dim}

    @functools.cache
    def multisets(size: int, mult: int, color: str) -> tuple:
        """Each multiset of mult subtrees of (size, color), in enumeration
        order: the group of its subtrees by rank, and their (size, rank)s
        in one flat tuple, which sorts as the pairs do."""
        subtrees, ranks = ((leaf,), [(1, 0)]) if size == 1 else trees_for(size, color)
        if mult == 1:
            return list(map(group, zip(subtrees))), ranks
        sets = [sorted(s) for s in itertools.combinations_with_replacement(
            zip(ranks, subtrees), mult)]
        return ([group([t for _, t in s]) for s in sets],
                [sum((r for r, _ in s), ()) for s in sets])

    @functools.cache
    def trees_for(k: int, color: str) -> tuple:
        """The trees of (k, color), and if 2k <= n the (k, rank) of each."""
        out: list = []
        order: list = []  # (decoration, children's flat (size, rank)s) per tree
        for lam in partitions(k, 2):
            d = dim_of[color](len(lam))
            if d == 0:
                continue
            subtrees, ranks = zip(*[
                multisets(size, len(list(run)), other_color(color))
                for size, run in itertools.groupby(lam)])
            out.extend(vertices(color, d, subtrees))
            if 2 * k <= n:
                order.extend(itertools.product(range(d), _ascending(ranks)))
        rank = {o: (k, r) for r, o in enumerate(sorted(order))}
        return out, [rank[o] for o in order]

    try:
        for color in (BULLET, CIRC):
            if root in (color, "any"):
                yield from trees_for(n, color)[0]
    finally:
        trees_for.cache_clear()  # as in basis_pieces
        multisets.cache_clear()


def _ascending(groups) -> Iterator[tuple]:
    """Each of product(*groups), its groups joined in reverse order."""
    return map(tuple, map(itertools.chain.from_iterable,
                          map(reversed, itertools.product(*groups))))


def enumerate_unlabeled(
    x: OperadDims, y: OperadDims, n: int, root: str = "any"
) -> Iterator:
    """Basis trees up to forgetting leaf labels: canonical multisets of children."""
    return _unlabeled(x, y, n, root, 0, tuple, lambda color, d, groups: itertools.product(
        (color,), range(d), _ascending(groups)))


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

    def shift(node, off: int):
        if is_leaf(node):
            return node + off
        return (node[0], node[1], tuple(shift(c, off) for c in node[2]))

    offset = 0
    plugged: dict[int, object] = {}
    for i, a in enumerate(args, start=1):
        plugged[i] = shift(a, offset)
        offset += arity(a)

    def build(node):
        if is_leaf(node):
            return plugged[node]
        color, dec, children = node
        flat: list = []
        for c in children:
            k = build(c)
            if not is_leaf(k) and k[0] == color:
                flat.extend(k[2])
            else:
                flat.append(k)
        return (color, dec, tuple(flat))

    return build(t)


# --- pattern-avoidance counting ----------------------------------------


# A pattern is a color c: it matches every c vertex with a composite
# child.  In an alternating tree that child always has the other color.


def tree_matches(t, patterns) -> bool:
    """Does any vertex of t match any of the patterns?"""
    if is_leaf(t):
        return False
    children = t[2]
    if t[0] in patterns and not all(map(is_leaf, children)):
        return True
    return any(tree_matches(c, patterns) for c in children)


def count_avoiding(x: OperadDims, y: OperadDims, n: int, patterns: list[str]) -> int:
    """Number of basis trees containing no vertex matching any pattern.

    Answered from `dims`: with no color among the patterns, the basis
    count; with one, `dims.avoiding_count`; with both, every vertex is
    over leaves only, which leaves the root corollas, dim_x(n) + dim_y(n)
    (1 at n = 1, as avoiding_count gives it).
    """
    colors = [c for c in (BULLET, CIRC) if c in patterns]
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

    if n == 1:
        return 1
    dim_of = {BULLET: x.dim, CIRC: y.dim}
    cache: dict[tuple, int] = {}

    def avoid(k: int, color: str) -> int:
        key = (k, color)
        if key in cache:
            return cache[key]
        total = 0
        for lam in partitions(k, 2):
            if color in patterns and lam[0] > 1:
                continue
            term = orbit_count(lam) * dim_of[color](len(lam))
            for s in lam:
                if s >= 2:
                    term *= avoid(s, other_color(color))
            total += term
        cache[key] = total
        return total

    return avoid(n, BULLET) + avoid(n, CIRC)


PATTERNS_BY_NAME = {
    "bullet-composite-child": BULLET,
    "circ-composite-child": CIRC,
}


# --- serialization ------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(bullet|circ|\[dec=\d+\]|\d+|[(),])")


def format_tree(t) -> str:
    if is_leaf(t):
        return str(t)
    color, dec, children = t
    return f"{color}[dec={dec}](" + ", ".join(format_tree(c) for c in children) + ")"


# Deeper input is a parse error, well before Python's recursion limit.
MAX_NESTING = 200


def _scan(text: str, token_re: re.Pattern) -> tuple[list[str], list[int]]:
    """The tokens token_re's group 1 matches across text, and where each
    starts; raises ValueError at the first character no token matches."""
    tokens, starts, pos = [], [], 0
    while m := token_re.match(text, pos):
        tokens.append(m.group(1))
        starts.append(m.start(1))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"bad token at position {pos}: {text[pos:pos + 10]!r}")
    return tokens, starts


def parse_tree(text: str):
    """Inverse of format_tree; raises ValueError on input that is malformed
    or that validate_tree refuses, checking each vertex as it is built."""
    tokens, starts = _scan(text, _TOKEN_RE)
    idx = 0

    def number(digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # past Python's int string limit
            raise ValueError(
                f"number too long ({len(digits)} digits) at position {pos}"
            ) from None

    def expect(tok: str) -> None:
        nonlocal idx
        if idx >= len(tokens) or tokens[idx] != tok:
            raise ValueError(f"expected {tok!r} at token {idx}")
        idx += 1

    def node(depth: int = 1):
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of input")
        tok = tokens[idx]
        if tok.isdigit():
            idx += 1
            return number(tok, starts[idx - 1])
        if tok not in (BULLET, CIRC):
            raise ValueError(f"expected color or leaf, got {tok!r}")
        if depth > MAX_NESTING:
            raise ValueError(
                f"nesting deeper than {MAX_NESTING} levels at position {starts[idx]}"
            )
        idx += 1
        m = re.fullmatch(r"\[dec=(\d+)\]", tokens[idx]) if idx < len(tokens) else None
        if not m:
            raise ValueError(f"expected [dec=K] after {tok}")
        dec = number(m.group(1), starts[idx] + m.start(1))
        idx += 1
        expect("(")
        children = [node(depth + 1)]
        while idx < len(tokens) and tokens[idx] == ",":
            idx += 1
            children.append(node(depth + 1))
        expect(")")
        _check_vertex(tok, children)
        return (tok, dec, tuple(children))

    t = node()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens at {idx}")
    return t

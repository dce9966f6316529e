r"""Shuffle-tree monomials, rewriting, and confluence checking.

A monomial is a nested tuple: a leaf is a positive int, an internal node
is (symbol, child, child, ...) with the symbol a generator name.  At
every node the blocks of leaf labels under the children have strictly
increasing minima (the shuffle condition).  Elements are rational linear
combinations of monomials on one set of leaf labels, checked when an
element is built; `orient` owns the checks that make an equation a rule.

The monomial order is graded path-lexicographic: compare arity (the
larger arity is the greater, so any two monomials compare), then for
each leaf label in increasing order the word of symbols along the
root-to-leaf path (alphabetically earlier symbol wins, a proper
extension beats its prefix), then the planar leaf sequence.  It is one
tuple sort key, `monomial_key`.  This makes x(x(1 2) 3) the largest of
the three Jacobi monomials and ranks x-rooted monomials above y-rooted
ones.

Confluence checking builds each overlap directly from two left-hand
sides, placing leaf labels only where both occurrences keep their order
pattern, so it builds no other labeling and the rules alone bound the
arities it visits; rule files take binary generators only.

Text is read as one list of tokens, separated by whitespace: a decimal
number (\d+), a generator symbol ([A-Za-z_]\w*), or any other single
character.  Over them

    monomial := number | symbol "(" monomial+ ")"
    element  := "0" | ["+" | "-"] term (("+" | "-") term)*
    term     := [number ["/" number] ["*"]] monomial

where a number directly before "+", "-" or the end is a leaf, not a
coefficient, and "0" stands for any lone number of value 0.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
from collections import defaultdict, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from operator import itemgetter


class ShuffleError(ValueError):
    pass


class ParseError(ShuffleError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ShuffleConditionError(ShuffleError):
    pass


# --- monomial basics ----------------------------------------------------


def is_leaf(m) -> bool:
    return isinstance(m, int)


def leaves(m) -> tuple[int, ...]:
    """Leaf labels in planar order."""
    if is_leaf(m):
        return (m,)
    out: list[int] = []
    for c in m[1:]:
        out.extend(leaves(c))
    return tuple(out)


def arity(m) -> int:
    return len(leaves(m))


def min_leaf(m) -> int:
    if is_leaf(m):
        return m
    return min(min_leaf(c) for c in m[1:])


def validate_monomial(m) -> list[int]:
    """Check distinct positive leaves and the shuffle condition throughout;
    return the leaf labels in planar order.

    One walk collects the leaves and each subtree's least label; it raises
    a node without children at once, then duplicates, then labels below 1,
    then the first node in preorder whose child minima do not increase.
    """
    seen: list[int] = []

    def walk(node) -> tuple[int, tuple | None]:
        """(least label, first offending (node, child minima) in preorder)."""
        if is_leaf(node):
            seen.append(node)
            return node, None
        if len(node) < 2:
            raise ShuffleConditionError(f"a generator node needs children, got {node!r}")
        mins = []
        bad = None
        for c in node[1:]:
            low, below = walk(c)
            mins.append(low)
            bad = bad or below
        if any(a >= b for a, b in zip(mins, mins[1:])):
            bad = node, mins
        return min(mins), bad

    _, bad = walk(m)
    if len(set(seen)) != len(seen):
        raise ShuffleConditionError(f"duplicate leaf labels in {print_monomial(m)}")
    if any(label < 1 for label in seen):
        raise ShuffleConditionError("leaf labels must be positive")
    if bad:
        node, mins = bad
        raise ShuffleConditionError(
            f"child minima not increasing at {print_monomial(node)}: {mins}"
        )
    return seen


def symbols_of(m) -> set[str]:
    if is_leaf(m):
        return set()
    out = {m[0]}
    for c in m[1:]:
        out |= symbols_of(c)
    return out


# --- printing and parsing ----------------------------------------------


# repr() of a monomial whose symbols are words and whose leaves are
# non-negative ints is made of these tokens only: "('x', " opens a node,
# ", " separates siblings, ")" closes a node.  Three replacements then turn
# it into the printed text in C, in one pass each.  A leaf's digits are one
# token, (?!\d), so a failed match does not try every split of them.
_REPR_RE = re.compile(r"(?:\('\w+', |\d+(?!\d)|, |\))+")


def print_monomial(m) -> str:
    text = repr(m)
    if _REPR_RE.fullmatch(text):
        return text.replace("('", "").replace("', ", "(").replace(", ", " ")
    return _print_walk(m)


def _print_walk(m) -> str:
    """print_monomial one node at a time, for any other symbol or leaf."""
    if is_leaf(m):
        return str(m)
    return m[0] + "(" + " ".join(_print_walk(c) for c in m[1:]) + ")"


_SYM_RE = re.compile(r"[A-Za-z_]\w*")
_TOKEN_RE = re.compile(rf"(?P<num>\d+)|(?P<sym>{_SYM_RE.pattern})|(?P<op>\S)")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, closed by ("end", "", len(text))."""
    toks = [(t.lastgroup, t[0], t.start()) for t in _TOKEN_RE.finditer(text)]
    toks.append(("end", "", len(text)))
    return toks


# The parser recurses once per level and later passes (validation, the
# order key, divisor search) up to about twice as deep, so a limit well
# under Python's recursion limit makes deep input a parse error.
MAX_NESTING = 200


def _int(num: str, pos: int) -> int:
    """int(num) of the digits at pos; a ParseError there if they are more
    than Python converts."""
    try:
        return int(num)
    except ValueError:
        raise ParseError(f"number too long ({len(num)} digits)", pos) from None


def _monomial(toks: list, i: int, seen: list, depth: int = 1):
    """The monomial that starts at toks[i], the index after it, its least
    label, and whether the child minima increase at every node of it.

    The leaf labels are appended to seen in planar order.  A node's least
    label is its first child's, which is the least only while the minima
    increase; once they do not, the caller validates and does not use it.
    """
    kind, tok, pos = toks[i]
    if kind == "num":
        label = _int(tok, pos)
        seen.append(label)
        return label, i + 1, label, True
    if kind != "sym":
        raise ParseError("expected a leaf number or generator symbol", pos)
    if depth > MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
    if toks[i + 1][1] != "(":
        raise ParseError("expected '('", toks[i + 1][2])
    i += 2
    if toks[i][1] == ")":
        raise ParseError("generator application needs arguments", toks[i][2] + 1)
    args = []
    least = last = -1
    ok = True
    while toks[i][1] != ")":
        if toks[i][0] == "end":
            raise ParseError("missing ')'", toks[i][2])
        m, i, low, good = _monomial(toks, i, seen, depth + 1)
        args.append(m)
        ok = ok and good and low > last
        if last < 0:
            least = low
        last = low
    return (tok, *args), i + 1, least, ok


def _leaf_set(m, seen: list, low: int, ok: bool) -> frozenset:
    """The leaf labels of m, as _monomial built it; validate_monomial
    raises where its inline checks fail (the minima, a duplicate or a
    label below 1), so every refusal has one wording."""
    labels = frozenset(seen)
    if not ok or low < 1 or len(labels) != len(seen):
        validate_monomial(m)
    return labels


def parse_monomial(text: str):
    """Parse notation like "x(x(1 2) 3)"; validates the shuffle condition."""
    toks = _tokens(text)
    seen: list[int] = []
    m, i, low, ok = _monomial(toks, 0, seen)
    if toks[i][0] != "end":
        raise ParseError("trailing input", toks[i][2])
    _leaf_set(m, seen, low, ok)
    return m


# --- the monomial order -------------------------------------------------


# A path word is one str holding chr(0x10FFFF - ord(c)) per symbol
# character c, so an alphabetically earlier symbol compares greater, and an
# extension beats its prefix as a longer str does.


@functools.lru_cache(maxsize=1024)
def _symbol_word(sym: str) -> str:
    return "".join(chr(0x10FFFF - ord(c)) for c in sym)


def _order_key(m) -> tuple:
    """Sort key: (arity, path word per leaf label, planar leaves)."""
    if type(m) is int:
        return 1, ("",), (m,)
    words: dict[int, str] = {}
    planar: list[int] = []

    def walk(node, word: str) -> None:
        word += _symbol_word(node[0])
        for c in node[1:]:
            if type(c) is int:
                words[c] = word
                planar.append(c)
            else:
                walk(c, word)

    walk(m, "")
    return len(words), tuple([words[k] for k in sorted(words)]), tuple(planar)


def compare(a, b) -> int:
    """Total order: +1 if a > b, -1 if a < b, 0 if equal."""
    ka, kb = _order_key(a), _order_key(b)
    return (ka > kb) - (ka < kb)


monomial_key = _order_key


# --- elements -----------------------------------------------------------


def _one_label_set(label_sets: set) -> None:
    """Refuse the terms of one element whose leaf label sets differ."""
    if len(label_sets) > 1:
        raise ShuffleError(
            f"terms with different leaf labels: {sorted(sorted(s) for s in label_sets)}"
        )


class ShuffleElement:
    """A rational linear combination of monomials on one set of leaf labels.

    Building one validates every term and the one label set; arithmetic
    trusts its operands (`_of`).  `ordered` says that `terms` already lists
    its monomials largest first, as normal_form finalises them, so printing
    need not sort by key again.  Every other element sorts when printed.
    """

    __slots__ = ("terms", "ordered")

    def __init__(self, terms=None):
        self.ordered = False
        clean: dict = {}
        label_sets = set()
        for m, c in (terms or {}).items():
            labels = frozenset(validate_monomial(m))
            if c := Fraction(c):
                clean[m] = c
                label_sets.add(labels)
        _one_label_set(label_sets)
        self.terms = clean

    @classmethod
    def _of(cls, terms: dict, ordered: bool = False) -> "ShuffleElement":
        """Wrap nonzero Fraction coefficients of monomials on one label set,
        as arithmetic and rewriting produce them, without checking again."""
        e = cls.__new__(cls)
        e.terms = terms
        e.ordered = ordered
        return e

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShuffleElement) and self.terms == other.terms

    def __add__(self, other: "ShuffleElement") -> "ShuffleElement":
        return self._combined(other, operator.add)

    def __neg__(self) -> "ShuffleElement":
        return ShuffleElement._of({m: -c for m, c in self.terms.items()}, self.ordered)

    def __sub__(self, other: "ShuffleElement") -> "ShuffleElement":
        return self._combined(other, operator.sub)

    def _combined(self, other: "ShuffleElement", op) -> "ShuffleElement":
        """self op other, in one dict.  Each operand's terms share one label
        set, so one term of each stands for its operand's."""
        if self.terms and other.terms:
            _one_label_set({frozenset(leaves(next(iter(e.terms)))) for e in (self, other)})
        out = dict(self.terms)
        for m, c in other.terms.items():
            c = op(out.get(m, 0), c)
            if c:
                out[m] = c
            else:
                del out[m]
        return ShuffleElement._of(out)

    def __mul__(self, scalar) -> "ShuffleElement":
        scalar = Fraction(scalar)
        terms = {m: c * scalar for m, c in self.terms.items()} if scalar else {}
        return ShuffleElement._of(terms, self.ordered)

    __rmul__ = __mul__

    def leading_monomial(self):
        if not self.terms:
            raise ShuffleError("zero element has no leading monomial")
        return max(self.terms, key=monomial_key)

    def sorted_terms(self) -> list:
        if self.ordered:
            return list(self.terms.items())
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Coefficients are read as integers: Fraction arithmetic and
        # comparisons cost more than the monomials' text.
        text = []
        for m, c in self.sorted_terms():
            num, den = c.numerator, c.denominator
            text.append(" - " if num < 0 else " + ")
            if den != 1:
                text.append(f"{abs(num)}/{den}*")
            elif num != 1 and num != -1:
                text.append(f"{abs(num)}*")
            text.append(print_monomial(m))
        text[0] = "-" if text[0] == " - " else ""
        return "".join(text)

    def __repr__(self) -> str:
        return f"ShuffleElement({self})"


# A rule rewrites its lhs, a monomial, to its rhs, a ShuffleElement.
RewriteRule = namedtuple("RewriteRule", "lhs rhs")


def orient(e: ShuffleElement) -> RewriteRule:
    """Turn an equation e = 0 into a rule: leading monomial -> minus rest.

    A rule rewrites a generator application, so e must be nonzero and its
    leading monomial not a bare leaf.
    """
    if not e:
        raise ShuffleError("equation is trivially zero")
    lead = e.leading_monomial()
    if is_leaf(lead):
        raise ShuffleError("every term must apply a generator, not be a bare leaf")
    scale = -1 / e.terms[lead]
    rhs = {m: c * scale for m, c in e.terms.items() if m != lead}
    return RewriteRule(lead, ShuffleElement._of(rhs))


# --- free shuffle tree enumeration -------------------------------------


def _symbols(alphabet) -> list[str]:
    """The generator symbols of (symbol, arity) pairs: binary, each once,
    each one the rule grammar can write, and at least one."""
    symbols = []
    for sym, ar in alphabet:
        if not (isinstance(sym, str) and _SYM_RE.fullmatch(sym)):
            raise ShuffleError(f"generator symbol {sym!r} is not of the form [A-Za-z_]\\w*")
        if ar != 2:
            raise ShuffleError(f"only binary generators are supported, got {sym}/{ar}")
        if sym in symbols:
            raise ShuffleError(f"generator {sym!r} appears twice in the alphabet")
        symbols.append(sym)
    if not symbols:
        raise ShuffleError("the alphabet needs at least one generator")
    return symbols


def enumerate_shuffle_trees(alphabet, n: int) -> Iterator:
    """All shuffle monomials with leaves 1..n over binary generators.

    `alphabet` is a list of (symbol, arity) pairs; only arity 2 is
    supported.
    """
    if n < 1:
        raise ShuffleError(f"arity must be >= 1, got {n}")
    symbols = _symbols(alphabet)
    cache: dict[tuple[int, ...], list] = {}

    def trees_on(labels: tuple[int, ...]) -> list:
        if labels in cache:
            return cache[labels]
        if len(labels) == 1:
            out = [labels[0]]
        else:
            out = []
            rest = labels[1:]
            # right child's labels: any nonempty subset of the non-minimal
            # labels, iterated in a fixed subset order
            for mask in range(1, 1 << len(rest)):
                right = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
                left = (labels[0],) + tuple(x for x in rest if x not in right)
                for sym in symbols:
                    for lt in trees_on(left):
                        for rt in trees_on(right):
                            out.append((sym, lt, rt))
        cache[labels] = out
        return out

    yield from trees_on(tuple(range(1, n + 1)))


# --- divisor search (shuffle subtree embeddings) ------------------------


Embedding = namedtuple("Embedding", "path slots")
Embedding.__doc__ = """An occurrence of a rule's lhs inside a monomial.

path: child-index path from the root of the host to the root of the
occurrence; slots maps each lhs leaf label to the host subtree
hanging there.
"""


# The hot walks below test for a leaf inline, as type(x) is int: a call
# to is_leaf per visited node costs more than the test itself.


def _match_structure(node, pat, out: list) -> bool:
    if type(pat) is int:
        out.append((pat, node))
        return True
    if type(node) is int or node[0] != pat[0] or len(node) != len(pat):
        return False
    for cn, cp in zip(node[1:], pat[1:]):
        if type(cp) is int:
            out.append((cp, cn))
        elif not _match_structure(cn, cp, out):
            return False
    return True


def _internal_vertices(m, base: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """The paths to m's internal vertices, in preorder."""
    if is_leaf(m):
        return []
    out = [base]
    for i, c in enumerate(m[1:]):
        out.extend(_internal_vertices(c, base + (i,)))
    return out


def _subtree_at(m, path: tuple[int, ...]):
    for i in path:
        m = m[i + 1]
    return m


def _embedding_at(node, path: tuple[int, ...], lhs) -> Embedding | None:
    if node[0] != lhs[0] or len(node) != len(lhs):
        return None
    slots: list = []
    if not _match_structure(node, lhs, slots):
        return None
    # order pattern: the lhs leaf labels must rank the hanging subtrees
    # exactly by their minimal host labels.  The host is a shuffle tree, so
    # a subtree's least label is its leftmost leaf.
    by_label = dict(slots)
    prev = 0
    for rank in range(1, len(slots) + 1):
        sub = by_label.get(rank)
        if sub is None:
            return None
        while type(sub) is not int:
            sub = sub[1]
        if sub <= prev:
            return None
        prev = sub
    return Embedding(path, by_label)


def all_embeddings(m, lhs) -> list[Embedding]:
    """Every occurrence of lhs in m, preorder (leftmost-outermost first)."""
    return [e for p in _internal_vertices(m) if (e := _embedding_at(_subtree_at(m, p), p, lhs))]


def find_divisor(m, lhs) -> Embedding | None:
    """Leftmost-outermost occurrence of lhs as a shuffle subtree, if any."""
    if type(m) is int:
        return None
    emb = _embedding_at(m, (), lhs)
    if emb is not None:
        return emb
    for i, c in enumerate(m[1:]):
        if type(c) is not int:
            sub = find_divisor(c, lhs)
            if sub is not None:
                return Embedding((i,) + sub.path, sub.slots)
    return None


def _substitute(pat, slots: dict):
    if type(pat) is int:
        return slots[pat]
    return (pat[0], *[slots[c] if type(c) is int else _substitute(c, slots) for c in pat[1:]])


def _replace_at(m, path: tuple[int, ...], sub):
    if not path:
        return sub
    i = path[0]
    return m[: i + 1] + (_replace_at(m[i + 1], path[1:], sub),) + m[i + 2:]


def rewrite_at(m, emb: Embedding, rule: RewriteRule, key=_order_key) -> ShuffleElement:
    """One reduction step: replace the occurrence of rule.lhs in m.

    Every produced monomial is strictly smaller than m; this is asserted
    on each step, so a non-admissible order or badly oriented rule fails
    loudly.  `key` computes order keys (normal_form passes its memo).
    """
    top = key(m)
    out: dict = {}
    for r, coeff in rule.rhs.terms.items():
        new = _replace_at(m, emb.path, _substitute(r, emb.slots))
        if key(new) >= top:
            raise ShuffleError(
                f"rewrite does not decrease: {print_monomial(m)} -> {print_monomial(new)}"
            )
        if new in out:
            out[new] += coeff
        else:
            out[new] = coeff
    return ShuffleElement._of({m: c for m, c in out.items() if c})


# --- normal forms -------------------------------------------------------


def normal_form(
    e: ShuffleElement, rules: list[RewriteRule], rng=None, keys: dict | None = None
) -> ShuffleElement:
    """Reduce until no monomial is divisible by any rule's lhs.

    Deterministic strategy, top-down: take the largest pending monomial.
    If no rule divides it, its coefficient is final, since every later
    rewrite yields only smaller monomials.  Otherwise rewrite it by the
    first rule at the leftmost-outermost occurrence and queue the new
    monomials.  This is the Groebner-basis reduction of Dotsenko-Khoroshkin
    (arXiv:0812.4069): each monomial is keyed and searched for a divisor
    once.  `keys` memoises order keys by monomial; check_confluence shares
    one memo across its S-elements.

    Reduction is linear: which rule rewrites a monomial, and where, does
    not depend on its coefficient, so nf(den * e) = den * nf(e).  The loop
    reduces den * e, den the lcm of e's denominators, whose coefficients
    are ints, as are the rules' integer coefficients; a rule coefficient
    that is not an integer stays a Fraction, and mixed arithmetic is
    exact.  Each final coefficient is divided by den once.

    With `rng` the reducible monomial, rule, and occurrence are all chosen
    at random among all pending terms: an independent route, used to check
    that confluent systems give strategy-independent results.
    """
    if rng is not None:
        return _random_normal_form(e, rules, rng)
    memo = {} if keys is None else keys

    def key(m) -> tuple:
        k = memo.get(m)
        if k is None:
            k = memo[m] = _order_key(m)
        return k

    den = math.lcm(*[c.denominator for c in e.terms.values()])
    coeffs = {m: c.numerator * (den // c.denominator) for m, c in e.terms.items()}
    # Converted once per call: Fraction.numerator and .denominator are
    # Python properties, too slow to read per term.
    rules = [
        RewriteRule(rule.lhs, ShuffleElement._of({
            m: c.numerator if c.denominator == 1 else c for m, c in rule.rhs.terms.items()
        }))
        for rule in rules
    ]
    # (key, monomial) pairs in increasing order; a monomial is queued once,
    # when it first appears, and never reappears after it is taken.
    pending = sorted(((key(m), m) for m in coeffs), key=itemgetter(0))
    final = {}
    while pending:
        _, m = pending.pop()
        coeff = coeffs.pop(m)
        if not coeff:
            continue
        for rule in rules:
            emb = find_divisor(m, rule.lhs)
            if emb is not None:
                break
        else:
            final[m] = Fraction(coeff, den)
            continue
        for new, c in rewrite_at(m, emb, rule, key).terms.items():
            if new in coeffs:
                coeffs[new] += coeff * c
            else:
                coeffs[new] = coeff * c
                bisect.insort(pending, (memo[new], new), key=itemgetter(0))
    # Terms were finalised largest first, so str() need not sort them.
    return ShuffleElement._of(final, ordered=True)


def _random_normal_form(e: ShuffleElement, rules: list[RewriteRule], rng) -> ShuffleElement:
    terms = dict(e.terms)
    normal: set = set()
    while True:
        choices = []
        for m in sorted(terms, key=monomial_key, reverse=True):
            if m in normal:
                continue
            found = [(m, rule, emb) for rule in rules for emb in all_embeddings(m, rule.lhs)]
            if not found:
                normal.add(m)
            choices += found
        if not choices:
            return ShuffleElement._of(terms)
        m, rule, emb = rng.choice(choices)
        coeff = terms.pop(m)
        for new, c in rewrite_at(m, emb, rule).terms.items():
            acc = terms.get(new, 0) + coeff * c
            if acc:
                terms[new] = acc
            else:
                terms.pop(new, None)


def is_normal(m, rules: list[RewriteRule]) -> bool:
    return all(find_divisor(m, r.lhs) is None for r in rules)


def count_normal_monomials(alphabet, rules: list[RewriteRule], n: int) -> int:
    """Number of arity-n shuffle monomials with no divisor among the lhs set.

    When every lhs has at most two internal vertices, a DP counts without
    enumerating (O(n^3 |S|^2) integer operations, S the alphabet).  Its
    state N[k][s][p] is the number of normal trees on [k] with root s
    whose right child has least label p.  A root s over a left tree of
    size a and a right tree of size c = k - a: the left tree holds every
    label below p, so C(k-p, c-1) interleavings put the right tree's
    least label at p, and a left right-minimum of rank r in the left tree
    lies below p exactly when r < p.  An lhs s(1 2) forbids the root s,
    s(1 t(2 3)) a right child t under s, s(t(1 2) 3) a left child t with
    r < p and s(t(1 3) 2) one with r >= p (Dotsenko-Khoroshkin 2013,
    consecutive pattern avoidance).  An lhs whose labels are not 1..k
    never divides.  Other rules fall back to testing every shuffle tree,
    so n <= 7 there.
    """
    symbols = _symbols(alphabet)
    if n == 1:
        return 1
    if n < 1:
        raise ShuffleError(f"arity must be >= 1, got {n}")
    patterns = _quadratic_patterns(symbols, rules)
    if patterns is not None:
        return _count_quadratic(symbols, patterns, n)
    if n > 7:
        raise ShuffleError(
            "counting rules with a left-hand side of three or more vertices"
            " tests every shuffle tree; n <= 7 only"
        )
    return sum(
        1 for m in enumerate_shuffle_trees(alphabet, n) if is_normal(m, rules)
    )


def _quadratic_patterns(symbols: list[str], rules: list[RewriteRule]):
    """(banned roots, then per root s: banned right children, left children
    banned with r < p, left children banned with r >= p), or None if some
    lhs has more than two internal vertices."""
    banned: set[str] = set()
    right, low, high = defaultdict(set), defaultdict(set), defaultdict(set)
    for rule in rules:
        m = rule.lhs
        if sorted(leaves(m)) != list(range(1, arity(m) + 1)):
            continue  # its order pattern never matches
        if is_leaf(m):
            banned.update(symbols)
        elif is_leaf(m[1]) and is_leaf(m[2]):
            banned.add(m[0])
        elif is_leaf(m[1]) and is_leaf(m[2][1]) and is_leaf(m[2][2]):
            right[m[0]].add(m[2][0])
        elif is_leaf(m[2]) and is_leaf(m[1][1]) and is_leaf(m[1][2]):
            # s(t(1 2) 3) puts the left right-minimum below p, s(t(1 3) 2) above
            (low if m[2] == 3 else high)[m[0]].add(m[1][0])
        else:
            return None
    return banned, right, low, high


def _count_quadratic(symbols: list[str], patterns, n: int) -> int:
    """The DP of count_normal_monomials, for n >= 2."""
    banned, no_right, no_low, no_high = patterns
    roots = [s for s in symbols if s not in banned]
    binom = [[math.comb(m, j) for j in range(m + 1)] for m in range(n)]
    # left[s][a][q]: left trees of size a that root s admits when its right
    # child's least label is p = q + 1; right[s][c]: right trees of size c
    # that root s admits.  Size 1 is the leaf.
    left = {s: [None, [1] * (n + 1)] for s in roots}
    right = {s: [None, 1] for s in roots}
    for k in range(2, n + 1):
        # prefix[t][q]: normal trees on [k] rooted at t whose right child's
        # least label is at most q, the prefix sums of N[k][t][p]
        prefix = {}
        for s in roots:
            lefts, rights = left[s], right[s]
            row = [0, 0]
            for p in range(2, k + 1):
                comb = binom[k - p]
                row.append(sum(
                    comb[k - a - 1] * lefts[a][p - 1] * rights[k - a]
                    for a in range(p - 1, k)
                ))
            prefix[s] = list(itertools.accumulate(row))
        for s in roots:
            lo, hi = no_low[s], no_high[s]
            cols = [0] * (k + 1)
            for t in roots:
                pre = prefix[t]
                for q in range(k + 1):
                    cols[q] += (0 if t in lo else pre[q]) + (0 if t in hi else pre[k] - pre[q])
            left[s].append(cols)
            right[s].append(sum(prefix[t][k] for t in roots if t not in no_right[s]))
    return sum(pre[n] for pre in prefix.values())


# --- overlaps and confluence -------------------------------------------


def _merge(a, b):
    """The smallest shape with shapes a and b at one root; None if they clash."""
    if is_leaf(a):
        return b
    if is_leaf(b):
        return a
    if a[0] != b[0] or len(a) != len(b):
        return None
    kids = [_merge(x, y) for x, y in zip(a[1:], b[1:])]
    return None if None in kids else (a[0], *kids)


def _numbered(shape, count):
    """shape with its leaves renumbered by count, in planar order."""
    if is_leaf(shape):
        return next(count)
    return (shape[0], *[_numbered(c, count) for c in shape[1:]])


def _occurrence(m, path: tuple[int, ...], lhs) -> Embedding:
    """The occurrence of lhs at path in m, whose shape has lhs there."""
    slots: list = []
    _match_structure(_subtree_at(m, path), lhs, slots)
    return Embedding(path, dict(slots))


def _pattern_labelings(shape, placed) -> list:
    """The shuffle trees of shape in which each lhs placed at its path
    keeps its order pattern: its slots take their least labels in the
    order of their lhs labels.  Labels 1..n are placed in increasing order
    on the leaves, numbered in planar order, and a leaf takes the next one
    only if, in each occurrence, its slot already has a label or is the
    next to start.  Every vertex lies in an occurrence of a shuffle tree,
    so every labeling built is one.  They are sorted by each vertex's
    left-child labels in preorder, combinations compared lexicographically,
    so that a refusal in overlaps names a fixed overlap.
    """
    shape = _numbered(shape, itertools.count())
    slot_of = [{leaf: k for k, sub in _occurrence(shape, *p).slots.items()
                for leaf in leaves(sub)} for p in placed]
    rows = [[s.get(leaf, 0) for s in slot_of] for leaf in range(arity(shape))]
    labels = [0] * len(rows)

    def place(k: int, started: list[int]) -> Iterator:
        if k > len(rows):
            yield _substitute(shape, labels)
        for leaf, row in enumerate(rows):
            if not labels[leaf] and all(s <= t + 1 for s, t in zip(row, started)):
                labels[leaf] = k
                yield from place(k + 1, list(map(max, row, started)))
                labels[leaf] = 0

    return sorted(place(1, [0] * len(placed)), key=lambda m: [
        sorted(leaves(_subtree_at(m, p)[1])) for p in _internal_vertices(m)])


def overlaps(r1: RewriteRule, r2: RewriteRule) -> list[tuple[object, ShuffleElement]]:
    """Every overlap of the two lhs's with its S-element, largest first.

    An overlap, a small common multiple (Dotsenko-Khoroshkin 2010), puts
    one lhs at the root and the other at one of its internal vertices,
    merges the two shapes and builds each shuffle labeling in which both
    occurrences keep their order pattern (_pattern_labelings).  Pairs of
    two rules are ordered, of one rule unordered; a root-root pair counts
    once.  The S-element is r1's one-step reduction minus r2's.  Both
    lhs's must be monomials, shuffle trees, as parse_rules gives them.
    """
    same = r1 == r2
    found = []
    for top, inner in ((r1, r2),) if same else ((r1, r2), (r2, r1)):
        for q in _internal_vertices(top.lhs):
            if q == () and (same or top is not r1):
                continue
            shape = _merge(_subtree_at(top.lhs, q), inner.lhs)
            if shape is None:
                continue
            placed = ((), top.lhs), (q, inner.lhs)
            for m in _pattern_labelings(_replace_at(top.lhs, q, shape), placed):
                e_top, e_inner = [_occurrence(m, *p) for p in placed]
                e1, e2 = (e_top, e_inner) if top is r1 else (e_inner, e_top)
                s_elem = rewrite_at(m, e1, r1) - rewrite_at(m, e2, r2)
                found.append((m, s_elem))
    # Stable: one monomial's pairs stay in (r1 path, r2 path) order.
    found.sort(key=lambda pair: monomial_key(pair[0]), reverse=True)
    return found


class ConfluenceReport(namedtuple("ConfluenceReport", "passed overlap_count failures")):
    """failures holds (overlap monomial, nonzero normal form) pairs."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.passed:
            return f"PASS: {self.overlap_count} overlap(s), all S-elements reduce to zero"
        lines = [f"FAIL: {len(self.failures)} of {self.overlap_count} overlap(s) do not resolve"]
        for m, nf in self.failures:
            lines.append(f"  at {print_monomial(m)}: {nf}")
        return "\n".join(lines)


def check_confluence(rules: list[RewriteRule], max_arity: int) -> ConfluenceReport:
    """Reduce every overlap of arity <= max_arity; PASS iff all vanish.

    Raise ShuffleError if none failed but some lie above max_arity, so a
    PASS means that every overlap was reduced.
    """
    count = 0
    skipped = 0
    failures = []
    keys: dict = {}
    for i, r1 in enumerate(rules):
        for r2 in rules[i:]:
            for m, s_elem in overlaps(r1, r2):
                if arity(m) > max_arity:
                    skipped += 1
                    continue
                count += 1
                nf = normal_form(s_elem, rules, keys=keys)
                if nf:
                    failures.append((m, nf))
    if skipped and not failures:
        raise ShuffleError(f"{skipped} overlap(s) lie above max_arity {max_arity}")
    return ConfluenceReport(not failures, count, tuple(failures))


# --- rule files ---------------------------------------------------------
#
# One equation per line, '#' comments:
#   x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)
# Terms may carry rational coefficients: 2*x(...), -1/2 * x(...).


def parse_element(text: str) -> ShuffleElement:
    """Parse a signed sum of monomials with optional rational coefficients,
    or "0", the zero element as str() prints it."""
    toks = _tokens(text)
    kind, tok, pos = toks[0]
    if len(toks) == 2 and kind == "num" and not _int(tok, pos):
        return ShuffleElement()
    terms: dict = {}
    labels: dict = {}  # monomial -> its leaf labels
    i = 0
    while True:
        sign = -1 if toks[i][1] == "-" else 1
        if toks[i][1] in ("+", "-"):
            i += 1
        kind, tok, pos = toks[i]
        num = den = 1
        # A number that ends its term is the term itself, a leaf, as str()
        # prints a leaf with coefficient 1; any other is a coefficient.
        if kind == "num" and toks[i + 1][1] not in ("", "+", "-"):
            num = _int(tok, pos)
            i += 1
            if toks[i][1] == "/":
                kind, tok, pos = toks[i + 1]
                if kind != "num":
                    raise ParseError("expected denominator", pos)
                # ASCII zeros past the int string limit are still zero
                den = _int(tok, pos) if tok.strip("0") else 0
                if not den:
                    raise ParseError("zero denominator", pos)
                i += 2
            if toks[i][1] == "*":
                i += 1
        seen: list[int] = []
        m, i, low, ok = _monomial(toks, i, seen)
        labels[m] = _leaf_set(m, seen, low, ok)
        coeff = Fraction(sign * num, den)
        if m in terms:
            terms[m] += coeff
        else:
            terms[m] = coeff
        kind, tok, pos = toks[i]
        if kind == "end":
            terms = {m: c for m, c in terms.items() if c}
            _one_label_set({labels[m] for m in terms})
            return ShuffleElement._of(terms)
        if tok not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {tok[0]!r}", pos)


def _is_binary(m) -> bool:
    return is_leaf(m) or (len(m) == 3 and _is_binary(m[1]) and _is_binary(m[2]))


def _parse_side(text: str, lineno: int, side: str) -> ShuffleElement:
    try:
        return parse_element(text)
    except ShuffleError as exc:
        raise ShuffleError(f"rule line {lineno}, {side} side: {exc}") from None


def parse_rules(text: str) -> list[RewriteRule]:
    """Parse a rule file body into oriented rewrite rules."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ShuffleError(f"rule line {lineno}: expected 'LHS = RHS'")
        left, right = line.split("=", 1)
        lhs = _parse_side(left, lineno, "left")
        rhs = _parse_side(right, lineno, "right")
        if not all(_is_binary(m) for m in (*lhs.terms, *rhs.terms)):
            raise ShuffleError(
                f"rule line {lineno}: every generator must take two arguments"
            )
        try:  # the sides' labels differ, or orient refuses the equation
            rules.append(orient(lhs - rhs))
        except ShuffleError as exc:
            raise ShuffleError(f"rule line {lineno}: {exc}") from None
    return rules


def rules_alphabet(rules: list[RewriteRule]) -> list[tuple[str, int]]:
    """Binary alphabet spanned by the rules' monomials."""
    syms: set[str] = set()
    for r in rules:
        syms |= symbols_of(r.lhs)
        for m in r.rhs.terms:
            syms |= symbols_of(m)
    return [(s, 2) for s in sorted(syms)]

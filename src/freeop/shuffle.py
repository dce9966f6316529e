r"""Shuffle-tree monomials, rewriting, and confluence checking.

A monomial is a nested tuple: a leaf is a positive int, an internal node
is (symbol, left, right) with the symbol a binary generator's name.  At
every node the left child's least leaf label is below the right child's
(the shuffle condition).  Elements are rational linear combinations of
monomials on one set of leaf labels, checked when an element is built;
`orient` owns the checks that make an equation a rule.

The monomial order compares arity first (the larger arity is the greater,
so any two monomials compare), then, for each leaf label in increasing
order, the word of symbols along the root-to-leaf path, compared
lexicographically (an alphabetically earlier symbol wins, a proper
extension beats its prefix), then the planar leaf sequence.  It is one
tuple sort key, `monomial_key`.  This makes x(x(1 2) 3) the largest of
the three Jacobi monomials and ranks x-rooted monomials above y-rooted
ones.  The order is not monotone under substitution: x(y(1 3) 2) lies
above x(1 y(2 3)), but x(y(x(1 2) 4) 3) lies below x(x(1 2) y(3 4)).
Each rewrite step checks that it decreases, so a rule system that
rewrites upwards somewhere is refused ("rewrite does not decrease", exit
2 from the CLI), never looped on.

Confluence checking builds each overlap directly from two left-hand
sides, placing leaf labels only where both occurrences keep their order
pattern, so it builds no other labeling and the rules alone bound the
arities it visits.  Every generator is binary: the parser and
validate_monomial refuse a node with one child or more than two where
they meet it, and the walks after them read exactly two children.

Shuffle, tree and network text share one token layer (_lex): a text's
tokens are the matches of its grammar's regular expression or else any one
character, and only a refusal scans it again, for a position.  Shuffle
tokens are a decimal number (\d+), a generator symbol ([A-Za-z_]\w*), or
any other character.  A shuffle text is lexed by padding ( ) + - * / with
spaces and splitting on whitespace, which gives exactly the regular
expression's tokens when every piece is one whole token (all decimal
digits, a symbol, or one character); a text with any other piece, such as
"2x" or "1,", and tree and network text, take one findall.  Over them

    monomial := number | symbol "(" monomial monomial ")"
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
    out: list[int] = []
    _leaves_into(m, out)
    return tuple(out)


def _leaves_into(m, out: list) -> None:
    """Append m's leaf labels to out in planar order."""
    if isinstance(m, int):
        out.append(m)
    else:
        _leaves_into(m[1], out)
        _leaves_into(m[2], out)


def arity(m) -> int:
    return len(leaves(m))


def validate_monomial(m) -> list[int]:
    """Check that m is a binary shuffle tree with distinct positive leaves;
    return the leaf labels in planar order.

    One walk collects the leaves and each subtree's least label; it raises
    at once a str where a subtree should be, any other object that is
    neither an int leaf nor a tuple node, a node that is not (symbol,
    left, right), or a symbol the parser does not read; then duplicates,
    then labels below 1, then the first node in preorder whose left
    child's least label is not below its right child's.  A leaf is an
    int exactly, not a bool, as the walks over monomials test it.
    """
    seen: list[int] = []
    _, bad = _least_label(m, seen)
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


def _least_label(node, seen: list) -> tuple[int, tuple | None]:
    """validate_monomial's walk: node's least label and first offending
    (node, child minima) in preorder; node's leaves are appended to seen."""
    if type(node) is int:
        seen.append(node)
        return node, None
    if isinstance(node, str):  # a str stands where a subtree should
        raise ShuffleConditionError(f"a generator node needs children, got {node!r}")
    if type(node) is not tuple:
        raise ShuffleConditionError(
            f"a leaf must be an int (not a bool) and a node a tuple, got {node!r}")
    if len(node) != 3:
        raise ShuffleConditionError(f"{_BINARY}, got {node!r}")
    sym, a, b = node
    if not (isinstance(sym, str) and _SYM_RE.fullmatch(sym)):
        raise ShuffleConditionError(
            f"generator symbol {sym!r} is not of the form {_SYM_RE.pattern}")
    low, bad = _least_label(a, seen)
    high, below = _least_label(b, seen)
    if low >= high:
        return high, (node, [low, high])
    return low, bad or below


def symbols_of(m) -> set[str]:
    if is_leaf(m):
        return set()
    return {m[0]} | symbols_of(m[1]) | symbols_of(m[2])


# --- printing and parsing ----------------------------------------------


def print_monomial(m) -> str:
    return _printed(m) if type(m) is tuple else str(m)


def _printed(node) -> str:
    """The text of a generator node: one recursion, one f-string per node,
    which writes a leaf child (any child but a tuple node) as str() does.
    It calls itself, not print_monomial, so a wrapped print_monomial sees
    one call per monomial."""
    sym, a, b = node
    if type(a) is tuple:
        a = _printed(a)
    if type(b) is tuple:
        b = _printed(b)
    return f"{sym}({a} {b})"


_SYM_RE = re.compile(r"[A-Za-z_]\w*")
_SYM_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_TOKENS = rf"\d+|{_SYM_RE.pattern}"


def _lex(text: str, grammar: str = _TOKENS) -> list[str]:
    """The tokens of text, matches of grammar or else single characters, closed by "".

    For the shuffle grammar, whitespace splitting after padding the
    one-character tokens ( ) + - * / gives the same tokens whenever each
    piece is one whole token: a decimal number, a symbol or one character.
    Otherwise (a piece like "2x" or "1,"), and for other grammars, findall.
    """
    if grammar == _TOKENS:
        toks = (text.replace("(", " ( ").replace(")", " ) ").replace("+", " + ")
                .replace("-", " - ").replace("*", " * ").replace("/", " / ").split())
        for tok in set(toks):
            if not (len(tok) == 1 or tok.isdecimal() or _SYM_RE.fullmatch(tok)):
                break
        else:
            toks.append("")
            return toks
    return re.findall(grammar + r"|\S", text) + [""]


def _start(text: str, i: int, grammar: str = _TOKENS) -> int:
    """Where token i of _lex(text, grammar) starts."""
    return ([t.start() for t in re.finditer(grammar + r"|\S", text)] + [len(text)])[i]


def _refusal(message: str, position: int) -> ValueError:
    """A tree or network text's refusal at position."""
    return ValueError(f"{message} at position {position}")


# The parsers recurse once per level and later passes (validation, the
# order key, divisor search) up to about twice as deep, so a limit well
# under Python's recursion limit makes deep input a parse error.
MAX_NESTING = 200
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"
_BINARY = "a generator takes two arguments"


def _int(digits: str, text: str, i: int, grammar=_TOKENS, error=ParseError, shift=0) -> int:
    """int(digits), shift characters into token i; error(message, position)
    there if they are more than Python converts."""
    try:
        return int(digits)
    except ValueError:
        message = f"number too long ({len(digits)} digits)"
        raise error(message, _start(text, i, grammar) + shift) from None


def _monomial(text: str, toks: list, i: int, seen: list, depth: int = 1):
    """The monomial that starts at toks[i], the index after it, its least
    label, and whether the child minima increase at every node of it.

    The leaf labels are appended to seen in planar order.  A node's least
    label is its left child's, which is the least only while the minima
    increase; once they do not, the caller validates and does not use it.
    A node's text ends after its second child: a ')' after one child, or a
    third child, is refused where it stands.
    """
    tok = toks[i]
    if tok.isdecimal():
        label = _int(tok, text, i)
        seen.append(label)
        return label, i + 1, label, True
    if tok[:1] not in _SYM_START:
        if not tok and depth > 1:  # the text ended inside a node
            raise ParseError("missing ')'", _start(text, i))
        raise ParseError("expected a leaf number or generator symbol", _start(text, i))
    if depth > MAX_NESTING:
        raise ParseError(_TOO_DEEP, _start(text, i))
    if toks[i + 1] != "(":
        raise ParseError("expected '('", _start(text, i + 1))
    i += 2
    if toks[i] == ")":
        raise ParseError("generator application needs arguments", _start(text, i) + 1)
    a, i, least, ok = _monomial(text, toks, i, seen, depth + 1)
    if toks[i] == ")":
        raise ParseError(_BINARY, _start(text, i))
    b, i, low, good = _monomial(text, toks, i, seen, depth + 1)
    if toks[i] != ")":
        raise ParseError(_BINARY if toks[i] else "missing ')'", _start(text, i))
    return (tok, a, b), i + 1, least, ok and good and least < low


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
    toks = _lex(text)
    seen: list[int] = []
    m, i, low, ok = _monomial(text, toks, 0, seen)
    if toks[i]:
        raise ParseError("trailing input", _start(text, i))
    _leaf_set(m, seen, low, ok)
    return m


# --- the monomial order -------------------------------------------------


# A path word is one str holding chr(0x10FFFF - ord(c)) per symbol
# character c, each symbol closed by "\U0010ffff", which is above them all.
# Words compare symbol by symbol: an alphabetically earlier symbol compares
# greater ("a" above "ab"), and an extension beats its prefix as a longer
# str does.  _WORDS holds each symbol's word, emptied when it reaches
# _WORDS_MAX symbols; the walk reads it directly and calls _symbol_word
# only for a symbol it lacks.
_WORDS: dict[str, str] = {}
_WORDS_MAX = 1024


def _symbol_word(sym: str) -> str:
    if len(_WORDS) >= _WORDS_MAX:
        _WORDS.clear()
    word = _WORDS[sym] = "".join(chr(0x10FFFF - ord(c)) for c in sym) + "\U0010ffff"
    return word


def _order_key(m) -> tuple:
    """Sort key: (arity, path word per leaf label, planar leaves)."""
    if type(m) is int:
        return 1, ("",), (m,)
    words: dict[int, str] = {}
    planar: list[int] = []
    _path_words(m, "", words, planar)
    # an internal vertex has two leaves or more, so itemgetter gives a tuple
    return len(words), itemgetter(*sorted(words))(words), tuple(planar)


def _path_words(node, word: str, words: dict, planar: list) -> None:
    """Set words[c] to the path word of each leaf c under node, word being
    that of node's parent, and append the leaves to planar in order."""
    sym, a, b = node
    try:
        word += _WORDS[sym]
    except KeyError:
        word += _symbol_word(sym)
    if type(a) is int:
        words[a] = word
        planar.append(a)
    else:
        _path_words(a, word, words, planar)
    if type(b) is int:
        words[b] = word
        planar.append(b)
    else:
        _path_words(b, word, words, planar)


def _key(m, keys: dict) -> tuple:
    """m's order key, from the memo keys or computed once into it."""
    k = keys.get(m)
    if k is None:
        k = keys[m] = _order_key(m)
    return k


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
    leading monomial not a bare leaf.  Divisor search matches a rule's
    leaf labels to the ranks of the subtrees hanging there, so they must
    be 1..k: any others would never match, not even the rule's own lhs.
    """
    if not e:
        raise ShuffleError("equation is trivially zero")
    lead = e.leading_monomial()
    if is_leaf(lead):
        raise ShuffleError("every term must apply a generator, not be a bare leaf")
    labels = sorted(leaves(lead))
    if labels != list(range(1, len(labels) + 1)):
        raise ShuffleError(f"a rule's leaf labels must be 1..k, got {labels}")
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
    yield from _trees_on(tuple(range(1, n + 1)), symbols, {})


def _trees_on(labels: tuple[int, ...], symbols: list[str], cache: dict) -> list:
    """The shuffle trees over symbols with leaves labels; cache holds the
    trees of each label tuple already built."""
    if len(labels) == 1:
        return [labels[0]]
    if labels not in cache:
        out = cache[labels] = []
        rest = labels[1:]
        # right child's labels: any nonempty subset of the non-minimal
        # labels, iterated in a fixed subset order
        for mask in range(1, 1 << len(rest)):
            right = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            left = (labels[0],) + tuple(x for x in rest if x not in right)
            out.extend(itertools.product(
                symbols, _trees_on(left, symbols, cache), _trees_on(right, symbols, cache)))
    return cache[labels]


# --- divisor search (shuffle subtree embeddings) ------------------------


Embedding = namedtuple("Embedding", "path slots")
Embedding.__doc__ = """An occurrence of a rule's lhs inside a monomial.

path: child-index path from the root of the host to the root of the
occurrence; slots maps each lhs leaf label to the host subtree
hanging there.
"""


# The hot walks below test for a leaf inline, as type(x) is int: a call
# to is_leaf per visited node costs more than the test itself.


def _match_children(node, pat, out: list) -> bool:
    """Match node's children against pat's, node having the root symbol of
    pat, an lhs or one of its internal subtrees (never a bare leaf: orient
    refuses one), noting (label, subtree) in out."""
    _, a, b = node
    _, pa, pb = pat
    if type(pa) is int:
        out.append((pa, a))
    elif type(a) is int or a[0] != pa[0] or not _match_children(a, pa, out):
        return False
    if type(pb) is int:
        out.append((pb, b))
    elif type(b) is int or b[0] != pb[0] or not _match_children(b, pb, out):
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
    """The occurrence of lhs at node, whose root symbol is lhs's,
    if node's children match lhs's and keep its order pattern."""
    slots: list = []
    if not _match_children(node, lhs, slots):
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
    return [e for p in _internal_vertices(m) if (s := _subtree_at(m, p))[0] == lhs[0]
            and (e := _embedding_at(s, p, lhs))]


def find_divisor(m, lhs) -> Embedding | None:
    """Leftmost-outermost occurrence of lhs as a shuffle subtree, if any.

    A vertex is probed (_embedding_at) only if its symbol is lhs's root
    symbol and each internal child of lhs's root has, at the vertex, an
    internal child of the same symbol.
    """
    if type(m) is int:
        return None
    a, b = lhs[1], lhs[2]
    return _divisor(m, lhs, lhs[0], None if type(a) is int else a[0],
                    None if type(b) is int else b[0])


def _divisor(node, lhs, top: str, left: str | None, right: str | None) -> Embedding | None:
    """find_divisor below node, an internal vertex; top is the symbol of
    lhs's root, left and right those of its children (None at a leaf)."""
    sym, a, b = node
    a_leaf, b_leaf = type(a) is int, type(b) is int
    if (sym == top and (left is None or not a_leaf and a[0] == left)
            and (right is None or not b_leaf and b[0] == right)
            and (emb := _embedding_at(node, (), lhs))):
        return emb
    if not a_leaf and (sub := _divisor(a, lhs, top, left, right)):
        return Embedding((0,) + sub.path, sub.slots)
    if not b_leaf and (sub := _divisor(b, lhs, top, left, right)):
        return Embedding((1,) + sub.path, sub.slots)
    return None


def _substitute(pat, slots: dict):
    """pat (never a bare leaf) with each leaf label replaced by its slot."""
    sym, a, b = pat
    return (sym, slots[a] if type(a) is int else _substitute(a, slots),
            slots[b] if type(b) is int else _substitute(b, slots))


def _replace_at(m, path: tuple[int, ...], sub):
    """m with sub in place of the subtree at path."""
    if not path:
        return sub
    sym, a, b = m
    if path[0]:
        return sym, a, _replace_at(b, path[1:], sub)
    return sym, _replace_at(a, path[1:], sub), b


def _no_decrease(m, new) -> ShuffleError:
    """The refusal of a rewrite step from m that produced new, not below m."""
    return ShuffleError(f"rewrite does not decrease: {print_monomial(m)} -> {print_monomial(new)}")


def rewrite_at(m, emb: Embedding, rule: RewriteRule, keys: dict | None = None) -> ShuffleElement:
    """One reduction step: replace the occurrence of rule.lhs in m.

    Every produced monomial is strictly smaller than m; this is asserted
    on each step, so a non-admissible order or badly oriented rule fails
    loudly.  Distinct rhs terms give distinct monomials, each its nonzero
    coefficient.  `keys` memoises order keys by monomial, as in normal_form.
    """
    memo = {} if keys is None else keys
    top = _key(m, memo)
    out: dict = {}
    for r, coeff in rule.rhs.terms.items():
        new = _replace_at(m, emb.path, _substitute(r, emb.slots))
        if _key(new, memo) >= top:
            raise _no_decrease(m, new)
        out[new] = coeff
    return ShuffleElement._of(out)


# --- normal forms -------------------------------------------------------


def normal_form(
    e: ShuffleElement, rules: list[RewriteRule], rng=None, keys: dict | None = None
) -> ShuffleElement:
    """Reduce until no monomial is divisible by any rule's lhs.

    Deterministic strategy, top-down, in one table of pending terms: take
    the largest pending monomial.  If no rule divides it (find_divisor),
    its coefficient is final, since every later rewrite yields only
    smaller monomials.  Otherwise rewrite it by the first rule at the
    leftmost-outermost occurrence, adding each rhs term's monomial to the
    table in place: a monomial already pending takes the added
    coefficient, and only a new one is keyed, checked to lie below the
    rewritten monomial's key and queued.  This is the Groebner-basis
    reduction of Dotsenko-Khoroshkin (arXiv:0812.4069): each monomial is
    keyed and searched for a divisor once.  `keys` memoises order keys by
    monomial; check_confluence shares one memo across its S-elements.

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
    # No monomial returns once taken, so a memo private to this call would
    # never be read: without `keys`, each new monomial is keyed directly.
    key = _order_key if keys is None else functools.partial(_key, keys=keys)
    den = math.lcm(*[c.denominator for c in e.terms.values()])
    # coeffs is the table: every pending monomial's coefficient, 0 once
    # its terms cancel, until it is taken.
    coeffs = {m: c.numerator * (den // c.denominator) for m, c in e.terms.items()}
    # (lhs, [(rhs monomial, coefficient)]) per rule, converted once per
    # call: Fraction.numerator and .denominator are Python properties, too
    # slow to read per term.
    table = [
        (rule.lhs, [(r, c.numerator if c.denominator == 1 else c)
                    for r, c in rule.rhs.terms.items()])
        for rule in rules
    ]
    # (key, monomial) pairs in increasing order; a monomial is queued once,
    # when it first appears, and never reappears after it is taken.
    pending = sorted(((key(m), m) for m in coeffs), key=itemgetter(0))
    final = {}
    while pending:
        top, m = pending.pop()
        coeff = coeffs.pop(m)
        if not coeff:
            continue
        for lhs, rhs in table:
            emb = find_divisor(m, lhs)
            if emb is not None:
                break
        else:
            final[m] = Fraction(coeff) if den == 1 else Fraction(coeff, den)
            continue
        path, slots = emb
        for r, c in rhs:
            new = _replace_at(m, path, _substitute(r, slots))
            acc = coeffs.get(new)
            if acc is not None:  # pending, so below every monomial taken
                coeffs[new] = acc + coeff * c
                continue
            k = key(new)
            if k >= top:
                raise _no_decrease(m, new)
            coeffs[new] = coeff * c
            bisect.insort(pending, (k, new), key=itemgetter(0))
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


# The (shuffle tree, rule) tests count_normal_monomials may make: each costs
# 5-18 us (CPython 3.11, 2-CPU Xeon; the most with one rule at n = 7, where
# building the trees dominates), so the most accepted costs about 1.5 s, as
# the dims recurrence does at cli.COUNT_MAX.
_ENUMERATION_MAX = 80_000


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
    |S|^(n-1) (2n-3)!! of them, against every rule, refused past
    _ENUMERATION_MAX tests.
    """
    symbols = _symbols(alphabet)
    if n == 1:
        return 1
    if n < 1:
        raise ShuffleError(f"arity must be >= 1, got {n}")
    patterns = _quadratic_patterns(rules)
    if patterns is not None:
        return _count_quadratic(symbols, patterns, n)
    trees = len(symbols) ** (n - 1) * math.prod(range(1, 2 * n - 2, 2))
    if trees * len(rules) > _ENUMERATION_MAX:
        raise ShuffleError(
            "counting rules with a left-hand side of three or more vertices tests every"
            f" shuffle tree against every rule, at most {_ENUMERATION_MAX} tests;"
            f" {trees} trees of arity {n} times {len(rules)} rule(s) make {trees * len(rules)}"
        )
    return sum(
        1 for m in enumerate_shuffle_trees(alphabet, n) if is_normal(m, rules)
    )


def _quadratic_patterns(rules: list[RewriteRule]):
    """(banned roots, then per root s: banned right children, left children
    banned with r < p, left children banned with r >= p), or None if some
    lhs has more than two internal vertices.  No lhs is a bare leaf."""
    banned: set[str] = set()
    right, low, high = defaultdict(set), defaultdict(set), defaultdict(set)
    for rule in rules:
        m = rule.lhs
        if sorted(leaves(m)) != list(range(1, arity(m) + 1)):
            continue  # its order pattern never matches
        if is_leaf(m[1]) and is_leaf(m[2]):
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
    if a[0] != b[0]:
        return None
    left, right = _merge(a[1], b[1]), _merge(a[2], b[2])
    return None if left is None or right is None else (a[0], left, right)


def _numbered(shape, count):
    """shape with its leaves renumbered by count, in planar order."""
    if is_leaf(shape):
        return next(count)
    return (shape[0], *[_numbered(c, count) for c in shape[1:]])


def _occurrence(m, path: tuple[int, ...], lhs) -> Embedding:
    """The occurrence of lhs at path in m, whose shape has lhs there."""
    slots: list = []
    _match_children(_subtree_at(m, path), lhs, slots)
    return Embedding(path, dict(slots))


def _pattern_labelings(shape, placed) -> Iterator:
    """The shuffle trees of shape in which each lhs placed at its path
    keeps its order pattern: its slots take their least labels in the
    order of their lhs labels.  Labels 1..n are placed in increasing order
    on the leaves, numbered in planar order, and a leaf takes the next one
    only if, in each occurrence, its slot already has a label or is the
    next to start.  Every vertex lies in an occurrence of a shuffle tree,
    so every labeling built is one.  They come in the order labels are
    placed; overlaps sorts them.
    """
    shape = _numbered(shape, itertools.count())
    slot_of = [{leaf: k for k, sub in _occurrence(shape, *p).slots.items()
                for leaf in leaves(sub)} for p in placed]
    rows = [[s.get(leaf, 0) for s in slot_of] for leaf in range(arity(shape))]
    return _placed(shape, rows, [0] * len(rows), 1, [0] * len(placed))


def _placed(shape, rows: list, labels: list, k: int, started: list[int]) -> Iterator:
    """The labelings of shape that extend labels (0 on a leaf not yet
    labelled) by k, k+1, ...: rows[leaf] holds the leaf's slot in each
    occurrence, and started the highest slot per occurrence labelled so far."""
    if k > len(rows):
        yield _substitute(shape, labels)
    for leaf, row in enumerate(rows):
        if not labels[leaf] and all(s <= t + 1 for s, t in zip(row, started)):
            labels[leaf] = k
            yield from _placed(shape, rows, labels, k + 1, list(map(max, row, started)))
            labels[leaf] = 0


def overlaps(
    r1: RewriteRule, r2: RewriteRule, keys: dict | None = None
) -> list[tuple[object, ShuffleElement]]:
    """Every overlap of the two lhs's with its S-element, largest first.

    An overlap, a small common multiple (Dotsenko-Khoroshkin 2010), puts
    one lhs at the root and the other at one of its internal vertices,
    merges the two shapes and builds each shuffle labeling in which both
    occurrences keep their order pattern (_pattern_labelings).  Pairs of
    two rules are ordered, of one rule unordered; a root-root pair counts
    once.  The S-element is r1's one-step reduction minus r2's, built once
    the overlaps are sorted, so a rewrite that does not decrease is refused
    at the largest overlap it spoils.  Both lhs's must be monomials, shuffle
    trees, as parse_rules gives them.  `keys` memoises order keys by
    monomial, as in normal_form.
    """
    memo = {} if keys is None else keys
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
                found.append((m, e_top, e_inner) if top is r1 else (m, e_inner, e_top))
    # Stable: one monomial's pairs stay in (r1 path, r2 path) order.
    found.sort(key=lambda t: _key(t[0], memo), reverse=True)
    return [(m, rewrite_at(m, e1, r1, memo) - rewrite_at(m, e2, r2, memo))
            for m, e1, e2 in found]


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
    PASS means that every overlap was reduced.  One memo of order keys
    serves every overlap, S-element and reduction, so each monomial is
    keyed once; a key's first entry is the arity.
    """
    count = 0
    skipped = 0
    failures = []
    keys: dict = {}
    for i, r1 in enumerate(rules):
        for r2 in rules[i:]:
            for m, s_elem in overlaps(r1, r2, keys):
                if keys[m][0] > max_arity:
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
    toks = _lex(text)
    if len(toks) == 2 and toks[0].isdecimal() and not _int(toks[0], text, 0):
        return ShuffleElement()
    terms: dict = {}
    labels: dict = {}  # monomial -> its leaf labels
    i = 0
    while True:
        sign = -1 if toks[i] == "-" else 1
        if toks[i] in ("+", "-"):
            i += 1
        num = den = 1
        # A number that ends its term is the term itself, a leaf, as str()
        # prints a leaf with coefficient 1; any other is a coefficient.
        if toks[i].isdecimal() and toks[i + 1] not in ("", "+", "-"):
            num = _int(toks[i], text, i)
            i += 1
            if toks[i] == "/":
                i += 1
                if not toks[i].isdecimal():
                    raise ParseError("expected denominator", _start(text, i))
                # ASCII zeros past the int string limit are still zero
                den = _int(toks[i], text, i) if toks[i].strip("0") else 0
                if not den:
                    raise ParseError("zero denominator", _start(text, i))
                i += 1
            if toks[i] == "*":
                i += 1
        seen: list[int] = []
        m, i, low, ok = _monomial(text, toks, i, seen)
        labels[m] = _leaf_set(m, seen, low, ok)
        coeff = Fraction(sign * num) if den == 1 else Fraction(sign * num, den)
        if m in terms:
            terms[m] += coeff
        else:
            terms[m] = coeff
        if not toks[i]:
            terms = {m: c for m, c in terms.items() if c}
            _one_label_set({labels[m] for m in terms})
            return ShuffleElement._of(terms)
        if toks[i] not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {toks[i][0]!r}", _start(text, i))


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

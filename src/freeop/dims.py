"""Dimension engine for free products of binary operads.

The arity-n component of the free product splits into trees with a
bullet root and trees with a circ root; each color's count is its
operand's dimensions composed over the other color's series, a sum of
partial Bell polynomials.  One kernel, `_compose`, runs that composition
one arity at a time: the free product is two kernels fed each other's
values, the quotient by a pattern avoidance one kernel fed one color's
dimensions.  Each caller passes the dimensions its answer reads; the
kernel continues them with the builtin family that matches their last two
and leaves the shortest head, or with zeros, and builds Bell columns up to
the head's end K only: O(K n^2) ring operations, over integers or polynomials.
Every builtin is a row of one table, its family of first or second order
(nov), so only a sequence with no builtin tail builds the whole O(n^3) triangle.
"""
from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable

from .polynomials import MultiPoly

SYMBOLIC_MAX = 8

# The two colors of a free product's trees: bullet vertices are decorated
# by the left operad, circ vertices by the right.
BULLET = "bullet"
CIRC = "circ"


class OperadError(ValueError):
    pass


def _check_request(n: int, root: str) -> None:
    """Refuse an arity below 1 or a root other than BULLET, CIRC or "any"."""
    if n < 1:
        raise OperadError(f"arity must be >= 1, got {n}")
    if root not in (BULLET, CIRC, "any"):
        raise OperadError(f"bad root {root!r}")


class OperadDims(namedtuple("OperadDims", "name fn")):
    """A named dimension sequence, dim(1) = 1 always; fn(n) gives the
    dimension at each arity n >= 2."""

    __slots__ = ()

    def dim(self, n: int) -> int:
        if n < 1:
            raise OperadError(f"arity must be >= 1, got {n}")
        if n == 1:
            return 1
        d = self.fn(n)
        if d < 0:
            raise OperadError(f"{self.name}: negative dimension at arity {n}")
        return d


# Each builtin operad's closed form d(n), n >= 2, and its family row
# (alpha, beta, second), d(1) = 1: a first-order row has d(k+1) = (alpha*k
# + beta) * d(k), a second-order row k * d(k+1) = (alpha*k + beta) * d(k).
# com and anti-com share (2n-3)!!, the free one-generator magma count.
_BUILTINS: dict[str, tuple[Callable[[int], int], tuple[int, int, bool]]] = {
    "com-as": (lambda n: 1, (0, 1, False)),
    "as": (math.factorial, (1, 1, False)),
    "lie": (lambda n: math.factorial(n - 1), (1, 0, False)),
    **dict.fromkeys(("com", "anti-com"),
                    (lambda n: math.prod(range(1, 2 * n - 2, 2)), (2, -1, False))),
    "nov": (lambda n: math.comb(2 * n - 2, n - 1), (4, -2, True)),
}


def builtin_operad(name: str) -> OperadDims:
    """Look up one of the bundled dimension sequences by id."""
    try:
        fn, _ = _BUILTINS[name]
    except KeyError:
        raise OperadError(
            f"unknown operad {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None
    return OperadDims(name, fn)


def explicit_operad(
    name: str, dims: list[int], tail: OperadDims | None = None
) -> OperadDims:
    """Operad from an explicit sequence [d2, d3, ...].

    Arities beyond the sequence fall through to `tail` if given,
    otherwise raise.
    """
    seq = list(dims)
    if any(d < 0 for d in seq):
        raise OperadError(f"{name}: dimensions must be nonnegative")

    def fn(n: int) -> int:
        if n - 2 < len(seq):
            return seq[n - 2]
        if tail is not None:
            return tail.dim(n)
        raise OperadError(
            f"{name}: no dimension supplied for arity {n} (sequence covers up to {len(seq) + 1})"
        )

    return OperadDims(name, fn)


class DimTable(namedtuple("DimTable", "n_max bullet circ")):
    """Per-arity dimensions of a free product; total[1] = 1 by convention.

    bullet and circ map each arity 2..n_max to its dimension.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"DimTable(n_max={self.n_max!r})"

    @property
    def total(self) -> dict[int, int]:
        out = {1: 1}
        for n in range(2, self.n_max + 1):
            out[n] = self.bullet[n] + self.circ[n]
        return out

    def totals(self) -> list[int]:
        """[total(1), ..., total(n_max)] as a plain list."""
        t = self.total
        return [t[n] for n in range(1, self.n_max + 1)]


def _bell_step(cols: list, cw: list, k_max: int) -> list:
    """Row n of the partial Bell polynomials up to column k_max >= 2, from
    rows 1..n-1.

    The triangle is kept by column, newest-first: cols[k-1] holds B(n-1, k),
    B(n-2, k), ..., B(k, k), and column 1 is the weights, B(m, 1) = w_m with
    w_1 = 1 for the bare leaf.  Choosing the block that holds leaf 1 gives
    B(n, k+1) = sum_i C(n-1, i-1) * w_i * B(n-i, k), so with cw[i-1] =
    C(n-1, i-1) * w_i each entry is one dot product of cw with column k,
    which ends where the sum does.  Each B(n, k) goes to the head of its
    column and the row is returned as [B(n, 2), ..., B(n, min(n, k_max))];
    B(n, 1) = w_n is the caller's to insert.  Column n is opened here while
    n < k_max: no column at or above k_max is kept, as nothing reads it, and
    k_max = n_max gives the whole triangle.
    """
    row = [sum(map(operator.mul, cw, col)) for col in cols]
    if len(cols) < k_max - 1:
        cols.append([])
    for col, b in zip(cols[1:], row):
        col.insert(0, b)
    return row


# The distinct family rows of the builtins, in table order, which breaks
# _split's ties.  A first-order row's exponential series f = sum_k d(k)
# u^k / k! solves (1 - alpha*u) f' = beta*f + 1, a second-order row's
# u f'' = alpha*u f' + beta*f.
_FAMILIES = tuple(dict.fromkeys(row for _, row in _BUILTINS.values()))


def _trimmed(seq) -> list:
    """seq without its trailing zeros."""
    k = len(seq)
    while k and not seq[k - 1]:
        k -= 1
    return seq[:k]


def _split(seq) -> tuple:
    """(head, row) for the dimensions seq = [d(2), ..., d(N)].

    d(k) = family(k) + head[k-2], the head ending at the last arity K at
    which d and the row's family differ, so that only Bell columns 2..K
    are needed; row None is d(k) = 0 past K.  Of None and the rows of
    _FAMILIES whose ratio d(N) / d(N-1) matches seq's last two entries
    (d(1) = 1), the shortest head wins, None on a tie.  Past N the split
    continues d with its row's family, or with zeros for None.
    """
    best = _trimmed(seq), None
    prev, last = [1, 1, *seq][-2:]  # d(1) = 1; an empty seq keeps None
    k = len(seq)
    for row in _FAMILIES:
        alpha, beta, second = row
        if (k if second else 1) * last != (alpha * k + beta) * prev:
            continue
        fam, d = [], 1
        for j in range(1, k + 1):
            d = (alpha * j + beta) * d // (j if second else 1)
            fam.append(d)
        head = _trimmed(list(map(operator.sub, seq, fam)))
        if len(head) < len(best[0]):
            best = head, row
    return best


def _compose(seq, n_max: int):
    """d composed over weights w, w_1 = 1 for the bare leaf: yields c_n =
    sum_k d(k) * B(n, k) for n = 2..n_max, B the partial Bell polynomial
    over w, and is then sent w_n (c_n reads only w_1..w_(n-1)).

    d is seq = [d(2), ..., d(N)], N <= n_max, continued past N as `_split`
    continues it: its head reads Bell columns 2..K, K the head's end
    (`_bell_step`), and its family's share, sum_k family(k) * B(n, k), is
    f_n - w_n for F = f(W), f the family's series, W = t + sum_m w_m t^m /
    m! and f_n = n! [t^n] F.  For a first-order row, F' = f'(W) W' and
    the row's equation give F' = W' + beta*F*W' + alpha*W*F', that is
    f_n = w_n + sum_i phi_n(i) * w_i * f_(n-i), phi_n(i) = beta*C(n-1, i-1)
    + alpha*C(n-1, i) (Pascal's rule from phi_1 = [beta]): one dot product
    per arity.  For a second-order row, G = f'(W) gives F' = G W', so f_n -
    w_n = sum_(i<n) C(n-1, i-1) * w_i * g_(n-i), g_0 = 1, and Q = W f''(W)
    = alpha*W G + beta*F with G' = f''(W) W' gives W G' = Q W', from which
    n * g_n = Q_n + sum_(i=2..n) C(n, i-1) * w_i * Q_(n+1-i) - sum_(i=2..n)
    C(n, i) * w_i * g_(n+1-i) once w_n is known: four dot products per
    arity.
    """
    head, fam = _split(seq)
    reach = len(head) + 1
    alpha, beta, second = fam or (0, 0, False)
    phi, fcol, share = [beta], [], 0  # fcol: f_(n-1), ..., f_1
    gcol, qcol = [1], []  # second order: g_(n-1), ..., g_0 and Q_(n-1), ..., Q_1
    weights = [1]  # w_(n-1), ..., w_1: Bell column 1
    cols = [weights]
    binom = [1]
    for n in range(2, n_max + 1):
        row = ()
        if reach > 1 or second:
            binom = [1, *map(operator.add, binom, binom[1:]), 1]  # row n-1
            cw = list(map(operator.mul, binom, reversed(weights)))  # C(n-1, i-1) * w_i
            if reach > 1:
                row = _bell_step(cols, cw, reach)
        if second:  # Q_(n-1) and g_(n-1), from w_(n-1)
            bw = list(map(operator.mul, binom[1:], reversed(weights)))  # C(n-1, i) * w_i
            qcol.insert(0, alpha * sum(map(operator.mul, bw, gcol))
                        + beta * (weights[0] + share))
            gcol.insert(0, (sum(map(operator.mul, cw, qcol))
                            - sum(map(operator.mul, bw[1:], gcol))) // (n - 1))
            share = sum(map(operator.mul, cw, gcol))
        elif fam:
            fcol.insert(0, weights[0] + share)
            phi = [alpha + phi[0], *map(operator.add, phi, phi[1:]), phi[-1]]
            share = sum(map(operator.mul, map(operator.mul, phi, reversed(weights)), fcol))
        w = yield sum(map(operator.mul, head, row), share)
        weights.insert(0, w)


def _run_recursion(xs, ys, n_max):
    """The recursion itself, generic over the coefficient semiring.

    A bullet-rooted tree on n leaves is an x-decoration of arity k >= 2
    over a set partition of the leaves into k blocks, each a leaf or a
    circ-rooted tree: bullet(n) = sum_k x(k) * B(n, k), B the partial Bell
    polynomial over (1, circ(2), circ(3), ...), and circ(n) likewise with
    the colors swapped: one `_compose` kernel per color, fed the other's
    dimensions, O(K n^2) ring operations, K an operand's head's end.

    xs/ys are [x(2), ...] and [y(2), ...], values supporting + and * with
    ints, continued past their ends as `_split` continues them.  Returns
    (bullet, circ) dicts for 2 <= n <= n_max.
    """
    bullets, circs = _compose(xs, n_max), _compose(ys, n_max)
    bullet, circ = {2: next(bullets)}, {2: next(circs)}
    for n in range(3, n_max + 1):
        bullet[n], circ[n] = bullets.send(circ[n - 1]), circs.send(bullet[n - 1])
    return bullet, circ


def _read(x: OperadDims, y: OperadDims, n: int, y_end: int) -> tuple:
    """[x(2), ..., x(n)] and [y(2), ..., y(y_end)], x(m) read before y(m)."""
    xs, ys = [], []
    for m in range(2, n + 1):
        xs.append(x.dim(m))
        if m <= y_end:
            ys.append(y.dim(m))
    return xs, ys


def free_product_dims(x: OperadDims, y: OperadDims, n_max: int) -> DimTable:
    """Dimension table of the free product of two binary operads."""
    if n_max < 2:
        raise OperadError(f"n_max must be >= 2, got {n_max}")
    bullet, circ = _run_recursion(*_read(x, y, n_max, n_max), n_max)
    return DimTable(n_max, bullet, circ)


def basis_count(x: OperadDims, y: OperadDims, n: int, root: str = "any") -> int:
    """Number of basis trees of arity n with root color `root`.

    `root` is "bullet", "circ" or "any"; arity 1 is the bare leaf.  A
    one-colored count reads no dimension that listing the trees would not:
    it reads the other operad to arity n-k+1 only, k the root operad's
    least arity with a nonzero dimension.  Past n-k+1 that operad enters
    only Bell terms of fewer than k blocks, which the root's zeros cancel.
    """
    _check_request(n, root)
    if n == 1:
        return 1
    if root == "any":
        return free_product_dims(x, y, n).total[n]
    if root == CIRC:
        x, y = y, x
    k = next((k for k in range(2, n + 1) if x.dim(k)), n + 1)
    return _run_recursion(*_read(x, y, n, n - k + 1), n)[0][n]


def avoiding_count(x: OperadDims, y: OperadDims, n: int, color: str) -> int:
    """Basis trees of arity n with no `color` vertex over a composite child.

    `color` is "bullet" (x decorates it) or "circ" (y).  In such a tree
    every `color` vertex sits over leaves only, so the count is dim_c(n)
    for a `color` root plus sum_k dim_o(k) * B(n, k) for the other root,
    c the color's operad, o the other's and B the partial Bell polynomial
    over (1, dim_c(2), dim_c(3), ...): one color of _run_recursion, the
    `_compose` kernel of dim_o fed dim_c, in O(K n^2) integer operations.
    """
    if n < 1:
        raise OperadError(f"arity must be >= 1, got {n}")
    if color not in (BULLET, CIRC):
        raise OperadError(f"bad color {color!r}")
    if n == 1:
        return 1
    own, other = _read(x, y, n, n)
    if color == CIRC:
        own, other = other, own
    rooted = _compose(other, n)
    count = next(rooted)
    for d in own[:-1]:
        count = rooted.send(d)
    return own[-1] + count


def symbolic_dims(n_max: int) -> dict[int, tuple[MultiPoly, MultiPoly]]:
    """Bullet/circ dimensions as polynomials in x2..xn, y2..yn.

    The circ polynomial is the bullet one with x and y interchanged, so one
    `_compose` kernel, the bullet color's, runs, fed each circ(n) made by
    that interchange from bullet(n).
    """
    if not 2 <= n_max <= SYMBOLIC_MAX:
        raise OperadError(f"n_max must be in [2, {SYMBOLIC_MAX}], got {n_max}")
    bullets = _compose([MultiPoly.var("x", m) for m in range(2, n_max + 1)], n_max)
    table, circ = {}, None
    for n in range(2, n_max + 1):
        bullet = bullets.send(circ)  # circ(n-1); None starts the kernel
        circ = _swap_xy(bullet)
        table[n] = bullet, circ
    return table


def _swap_xy(poly: MultiPoly) -> MultiPoly:
    """poly with the letters x and y interchanged."""
    swap = {"x": "y", "y": "x"}
    return MultiPoly({tuple(sorted(((swap[letter], i), e) for (letter, i), e in m)): c
                      for m, c in poly.terms.items()})


# --- operad config files ------------------------------------------------
#
# Line-oriented, UTF-8, '#' comments.  Each entry is one of
#   name = builtin:<id>
#   name = [d2, d3, ...]
#   name = [d2, d3, ...] builtin:<id>     (explicit head, builtin tail)

_ENTRY_RE = re.compile(
    r"^(?P<name>[\w-]+)\s*=\s*(?:(?P<seq>\[[^\]]*\])\s*)?(?:builtin:(?P<builtin>[\w-]+))?\s*$"
)


# A line that surely parses: its sequence is plain digits, no more of them
# than int() converts under any int string limit (640 is its least nonzero
# value), and its builtin tail exists.
_PLAIN_SEQ = r"\[[ \t]*(?:[0-9]{1,640}[ \t]*(?:,[ \t]*[0-9]{1,640}[ \t]*)*)?\]"
_PLAIN_TAIL = "builtin:(?:" + "|".join(map(re.escape, _BUILTINS)) + ")"
_PLAIN_ENTRY_RE = re.compile(
    rf"([\w-]+)[ \t]*=[ \t]*(?:{_PLAIN_SEQ}(?:[ \t]*{_PLAIN_TAIL})?|{_PLAIN_TAIL})"
)


def parse_operad_config(text: str, names=None) -> dict[str, OperadDims]:
    """Parse a config file body into named dimension sequences.

    Every line is checked, so a malformed line anywhere is refused; with
    `names`, only the entries named there are built.  A line that
    _PLAIN_ENTRY_RE does not vouch for is built to be checked, and that
    operand is kept.
    """
    # name -> its last line and, if built to be checked, the line's operand
    entries: dict[str, tuple[int, str, OperadDims | None]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        plain = _PLAIN_ENTRY_RE.fullmatch(line)
        op = None if plain else _entry(lineno, raw)
        entries[plain[1] if plain else op.name] = lineno, raw, op
    return {
        name: op or _entry(lineno, raw)
        for name, (lineno, raw, op) in entries.items()
        if names is None or name in names
    }


def _entry(lineno: int, raw: str) -> OperadDims:
    """The operad that config line lineno, raw, defines."""
    line = raw.split("#", 1)[0].strip()
    m = _ENTRY_RE.match(line)
    if not m or (m.group("seq") is None and m.group("builtin") is None):
        raise OperadError(f"config line {lineno}: cannot parse {raw!r}")
    name = m.group("name")
    try:
        tail = builtin_operad(m.group("builtin")) if m.group("builtin") else None
        body = (m.group("seq") or "[]")[1:-1].strip()
        toks = body.split(",") if body else []
        return explicit_operad(name, [int(tok) for tok in toks], tail)
    except OperadError as exc:
        raise OperadError(f"config line {lineno}: {exc}") from None
    except ValueError:
        raise OperadError(f"config line {lineno}: {_refused_entry(toks)}") from None


def _refused_entry(toks: list[str]) -> str:
    """Why int() refused the first of toks it refused: not an integer, or
    a digit string past Python's length limit."""
    for tok in toks:
        try:
            int(tok)
        except ValueError:
            digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", tok)
            if digits:
                return f"number too long ({len(digits[1])} digits)"
            break
    return "sequence entries must be integers"

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
Every builtin is a family, nov through a second-order equation of its own,
so only a sequence with no builtin tail builds the whole O(n^3) triangle.
"""
from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable
from itertools import accumulate

from .polynomials import MultiPoly

SYMBOLIC_MAX = 8


class OperadError(ValueError):
    pass


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


def _double_factorial_odd(n: int) -> int:
    # (2n-3)!! = 1*3*5*...*(2n-3); the free one-generator magma count
    return math.prod(range(1, 2 * n - 2, 2))


_BUILTINS: dict[str, Callable[[int], int]] = {
    "com-as": lambda n: 1,
    "as": math.factorial,
    "lie": lambda n: math.factorial(n - 1),
    "com": _double_factorial_odd,
    "anti-com": _double_factorial_odd,
    "nov": lambda n: math.comb(2 * n - 2, n - 1),
}


def builtin_operad(name: str) -> OperadDims:
    """Look up one of the bundled dimension sequences by id."""
    try:
        fn = _BUILTINS[name]
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


# The builtin families with d(1) = 1 and d(k+1) = (alpha*k + beta) * d(k),
# as (alpha, beta): com-as, as, lie, and com and anti-com.  Their exponential
# series f = sum_k d(k) u^k / k! solve (1 - alpha*u) f' = beta*f + 1.
_FAMILIES = ((0, 1), (1, 1), (1, 0), (2, -1))
# nov, with k * d(k+1) = (4k - 2) * d(k): its series solves u f'' = 4u f' - 2f.
_NOV = (4, -2)


def _trimmed(seq) -> list:
    """seq without its trailing zeros."""
    k = len(seq)
    while k and not seq[k - 1]:
        k -= 1
    return seq[:k]


def _split(seq) -> tuple:
    """(head, family) for the dimensions seq = [d(2), ..., d(N)].

    d(k) = family(k) + head[k-2], the head ending at the last arity K at
    which d and the family differ, so that only Bell columns 2..K are
    needed; family None is d(k) = 0 past K.  Of None, the families in
    _FAMILIES and _NOV whose ratio d(N) / d(N-1) matches seq's last two
    entries (d(1) = 1), the shortest head wins, None on a tie.  Past N the
    split continues d with its family, or with zeros for None.
    """
    best = _trimmed(seq), None
    prev, last = [1, 1, *seq][-2:]  # d(1) = 1; an empty seq keeps None
    k = len(seq)
    for alpha, beta in _FAMILIES:
        if last != (alpha * k + beta) * prev:
            continue
        fam = accumulate([alpha * j + beta for j in range(1, k + 1)], operator.mul)
        head = _trimmed(list(map(operator.sub, seq, fam)))
        if len(head) < len(best[0]):
            best = head, (alpha, beta)
    if k * last == (4 * k - 2) * prev:
        head = _trimmed([d - math.comb(2 * j, j) for j, d in enumerate(seq, 1)])
        if len(head) < len(best[0]):
            best = head, _NOV
    return best


def _compose(seq, n_max: int):
    """d composed over weights w, w_1 = 1 for the bare leaf: yields c_n =
    sum_k d(k) * B(n, k) for n = 2..n_max, B the partial Bell polynomial
    over w, and is then sent w_n (c_n reads only w_1..w_(n-1)).

    d is seq = [d(2), ..., d(N)], N <= n_max, continued past N as `_split`
    continues it: its head reads Bell columns 2..K, K the head's end
    (`_bell_step`), and its family's share, sum_k family(k) * B(n, k), is
    f_n - w_n for F = f(W), f the family's series, W = t + sum_m w_m t^m /
    m! and f_n = n! [t^n] F.  For a first-order family, F' = f'(W) W' and
    the family's equation give F' = W' + beta*F*W' + alpha*W*F', that is
    f_n = w_n + sum_i phi_n(i) * w_i * f_(n-i), phi_n(i) = beta*C(n-1, i-1)
    + alpha*C(n-1, i) (Pascal's rule from phi_1 = [beta]): one dot product
    per arity.  For nov, G = f'(W) gives F' = G W', so f_n - w_n = sum_(i<n)
    C(n-1, i-1) * w_i * g_(n-i), and Q = W f''(W) = 4 W G - 2F with G' =
    f''(W) W' gives W G' = Q W', from which n * g_n = Q_n + sum_(i=2..n)
    C(n, i-1) * w_i * Q_(n+1-i) - sum_(i=2..n) C(n, i) * w_i * g_(n+1-i) once
    w_n is known: four dot products per arity.
    """
    head, fam = _split(seq)
    reach = len(head) + 1
    nov = fam is _NOV
    alpha, beta = fam or (0, 0)
    phi, fcol, share = [beta], [], 0  # fcol: f_(n-1), ..., f_1
    gcol, qcol = [2, 1], [2]  # nov: g_(n-1), ..., g_0 and Q_(n-1), ..., Q_1
    weights = [1]  # w_(n-1), ..., w_1: Bell column 1
    cols = [weights]
    binom = [1]
    for n in range(2, n_max + 1):
        row = ()
        if reach > 1 or nov:
            binom = [1, *map(operator.add, binom, binom[1:]), 1]  # row n-1
            cw = list(map(operator.mul, binom, reversed(weights)))  # C(n-1, i-1) * w_i
            if reach > 1:
                row = _bell_step(cols, cw, reach)
        if nov:
            if n > 2:  # g_(n-1) and Q_(n-1), from w_(n-1)
                bw = list(map(operator.mul, binom[1:], reversed(weights)))  # C(n-1, i) * w_i
                qcol.insert(0, 4 * sum(map(operator.mul, bw, gcol))
                            - 2 * (weights[0] + share))
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
    if n < 1:
        raise OperadError(f"arity must be >= 1, got {n}")
    if root not in ("bullet", "circ", "any"):
        raise OperadError(f"bad root {root!r}")
    if n == 1:
        return 1
    if root == "any":
        return free_product_dims(x, y, n).total[n]
    if root == "circ":
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
    if color not in ("bullet", "circ"):
        raise OperadError(f"bad color {color!r}")
    if n == 1:
        return 1
    own, other = _read(x, y, n, n)
    if color == "circ":
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
        if m.group("seq") is None:
            return OperadDims(name, tail.fn)
        body = m.group("seq")[1:-1].strip()
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

"""Dimension engine for free products of binary operads.

The arity-n component of the free product splits into trees with a
bullet root and trees with a circ root; each is a sum over the root's
arity of partial Bell polynomials in the other color's smaller
dimensions, O(n^3) ring operations in all.  The same recursion can be
run over integers or over polynomials in the component dimensions, and
one color's Bell rows count the quotient by a pattern avoidance.
"""
from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable

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


def _bell_row(cols, n: int) -> list:
    """Row n of the partial Bell polynomials over the weights w = cols[1].

    The triangle is stored by column, cols[k][m] = B(m, k) for m < n;
    column 1 is w itself, B(m, 1) = w[m], with w[1] = 1 for the bare leaf.
    Choosing the block that holds leaf 1 gives B(n, k) = sum_i C(n-1, i-1)
    * w[i] * B(n-i, k-1) for 2 <= k <= n: one dot product of the row's
    weighted w[1..n-1] with column k-1 read upwards.  Each B(n, k) is
    appended to cols[k] (cols[n] is opened here) and the row is returned
    as [B(n, 2), ..., B(n, n)]; B(n, 1) = w[n] is the caller's to append.
    """
    w = cols[1]
    cw = [0] + [math.comb(n - 1, i - 1) * w[i] for i in range(1, n)]
    cols.append([0] * n)
    row = []
    for k in range(2, n + 1):
        b = sum(map(operator.mul, cw[1:n - k + 2], reversed(cols[k - 1][k - 1:n])))
        cols[k].append(b)
        row.append(b)
    return row


def _run_recursion(xdim, ydim, n_max):
    """The recursion itself, generic over the coefficient semiring.

    A bullet-rooted tree on n leaves is an x-decoration of arity k >= 2
    over a set partition of the leaves into k blocks, each a leaf or a
    circ-rooted tree: bullet(n) = sum_k xdim(k) * B(n, k), B the partial
    Bell polynomial over (1, circ(2), circ(3), ...), and circ(n) likewise
    with the colors swapped (`_bell_row`).

    xdim/ydim map an arity m >= 2 to a value supporting + and * with ints;
    each is read once per arity, xdim(n) before ydim(n).  Returns (bullet,
    circ) dicts for 2 <= n <= n_max.
    """
    dims = (xdim, ydim)
    # seen[c]: dims[c] at arities 2, 3, ...; cols[c][k][m]: B(m, k) over
    # (1, d(2), d(3), ...), d(m) the dimension with a color-c root, which
    # is column 1.
    seen = ([], [])
    cols = ([[1], [0, 1]], [[1], [0, 1]])
    for n in range(2, n_max + 1):
        for c in (0, 1):
            seen[c].append(dims[c](n))
        rows = [_bell_row(cols[c], n) for c in (0, 1)]
        for c in (0, 1):
            cols[c][1].append(sum(map(operator.mul, seen[c], rows[1 - c])))
    return tuple({n: col[1][n] for n in range(2, n_max + 1)} for col in cols)


def free_product_dims(x: OperadDims, y: OperadDims, n_max: int) -> DimTable:
    """Dimension table of the free product of two binary operads."""
    if n_max < 2:
        raise OperadError(f"n_max must be >= 2, got {n_max}")
    bullet, circ = _run_recursion(x.dim, y.dim, n_max)
    return DimTable(n_max, bullet, circ)


def basis_count(x: OperadDims, y: OperadDims, n: int, root: str = "any") -> int:
    """Number of basis trees of arity n with root color `root`.

    `root` is "bullet", "circ" or "any"; arity 1 is the bare leaf.  A
    one-colored count reads no dimension that listing the trees would not.
    """
    if n < 1:
        raise OperadError(f"arity must be >= 1, got {n}")
    if root not in ("bullet", "circ", "any"):
        raise OperadError(f"bad root {root!r}")
    if n == 1:
        return 1
    if root == "circ":
        x, y = y, x
    if root != "any":
        # The other operad decorates only subtrees of at most n-k+1 leaves,
        # k the least arity at which the root's operad is nonzero.
        k = next((k for k in range(2, n + 1) if x.dim(k)), n + 1)
        y_dim = y.dim
        y = OperadDims(y.name, lambda m: y_dim(m) if m <= n - k + 1 else 0)
    table = free_product_dims(x, y, n)
    return table.total[n] if root == "any" else table.bullet[n]


def avoiding_count(x: OperadDims, y: OperadDims, n: int, color: str) -> int:
    """Basis trees of arity n with no `color` vertex over a composite child.

    `color` is "bullet" (x decorates it) or "circ" (y).  In such a tree
    every `color` vertex sits over leaves only, so the count is dim_c(n)
    for a `color` root plus sum_k dim_o(k) * B(n, k) for the other root,
    c the color's operad, o the other's and B the partial Bell polynomial
    over (1, dim_c(2), dim_c(3), ...): O(n^3) integer operations.
    """
    if n < 1:
        raise OperadError(f"arity must be >= 1, got {n}")
    if color not in ("bullet", "circ"):
        raise OperadError(f"bad color {color!r}")
    if n == 1:
        return 1
    if color == "circ":
        x, y = y, x
    # Column 1 holds all the weights at once; _bell_row(cols, m) reads
    # only those below m.
    cols = [[1], [0, 1] + [x.dim(m) for m in range(2, n + 1)]]
    for m in range(2, n + 1):
        row = _bell_row(cols, m)
    return cols[1][n] + sum(map(operator.mul, [y.dim(k) for k in range(2, n + 1)], row))


def symbolic_dims(n_max: int) -> dict[int, tuple[MultiPoly, MultiPoly]]:
    """Bullet/circ dimensions as polynomials in x2..xn, y2..yn.

    The circ polynomial is the bullet one with x and y interchanged.
    """
    if not 2 <= n_max <= SYMBOLIC_MAX:
        raise OperadError(f"n_max must be in [2, {SYMBOLIC_MAX}], got {n_max}")
    bullet, circ = _run_recursion(
        lambda m: MultiPoly.var("x", m),
        lambda m: MultiPoly.var("y", m),
        n_max,
    )
    return {n: (bullet[n], circ[n]) for n in range(2, n_max + 1)}


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
    _PLAIN_ENTRY_RE does not vouch for is built to be checked.
    """
    entries: dict[str, tuple[int, str]] = {}  # name -> its last line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        plain = _PLAIN_ENTRY_RE.fullmatch(line)
        entries[plain[1] if plain else _entry(lineno, raw).name] = lineno, raw
    return {
        name: _entry(*entry)
        for name, entry in entries.items()
        if names is None or name in names
    }


def _entry(lineno: int, raw: str) -> OperadDims:
    """The operad that config line lineno, raw, defines."""
    line = raw.split("#", 1)[0].strip()
    m = _ENTRY_RE.match(line)
    if not m or (m.group("seq") is None and m.group("builtin") is None):
        raise OperadError(f"config line {lineno}: cannot parse {raw!r}")
    name = m.group("name")
    tail = builtin_operad(m.group("builtin")) if m.group("builtin") else None
    if m.group("seq") is None:
        return OperadDims(name, tail.fn)
    body = m.group("seq")[1:-1].strip()
    toks = body.split(",") if body else []
    try:
        seq = [int(tok) for tok in toks]
    except ValueError:
        raise OperadError(f"config line {lineno}: {_refused_entry(toks)}") from None
    return explicit_operad(name, seq, tail)


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

"""Expected answers computed by routes other than the freeop code paths.

Counts are kept as labeled counts: ``f[n] = n! [t^n] f(t)`` for an
exponential generating series, so every value is an exact integer.  An
operad P with ``dim P(m) = d[m]`` has series ``f_P = t + sum d[m] t^m/m!``,
and the free product satisfies ``f_{P*Q}^{-1} = f_P^{-1} + f_Q^{-1} - t``.
"""
from __future__ import annotations

import math
import re

BUILTIN_DIMS = {
    "com-as": lambda n: 1,
    "as": math.factorial,
    "lie": lambda n: math.factorial(n - 1),
    "com": lambda n: math.prod(range(1, 2 * n - 2, 2)),
    "anti-com": lambda n: math.prod(range(1, 2 * n - 2, 2)),
    "nov": lambda n: math.comb(2 * n - 2, n - 1),
}


def dims_sequence(head: list[int], tail: str, n_max: int) -> list[int]:
    """[0, 1, d2, ..., d_{n_max}] for an explicit head with a builtin tail."""
    seq = [0, 1]
    for m in range(2, n_max + 1):
        seq.append(head[m - 2] if m - 2 < len(head) else BUILTIN_DIMS[tail](m))
    return seq


def _bell_row(g: list[int], rows: list[list[int]], n: int) -> list[int]:
    """Row n of the partial Bell table of g: row[m] counts sets of m
    g-structures on n labels.  Needs rows 0..n-1; row[1] is left 0."""
    row = [0] * (n + 1)
    for m in range(2, n + 1):
        row[m] = sum(
            math.comb(n - 1, k - 1) * g[k] * rows[n - k][m - 1]
            for k in range(1, n - m + 2)
        )
    return row


def reverse(f: list[int], n_max: int) -> list[int]:
    """Labeled counts of the compositional inverse of f (f[1] == 1)."""
    g = [0, 1]
    rows = [[1], [0, 1]]
    for n in range(2, n_max + 1):
        row = _bell_row(g, rows, n)
        g.append(-sum(f[m] * row[m] for m in range(2, n + 1)))
        row[1] = g[n]
        rows.append(row)
    return g


def compose(a: list[int], g: list[int], n_max: int) -> list[int]:
    """Labeled counts of a(g(t)), both series without constant term."""
    out = [0, a[1] * g[1]]
    rows = [[1], [0, g[1]]]
    for n in range(2, n_max + 1):
        row = _bell_row(g, rows, n)
        row[1] = g[n]
        rows.append(row)
        out.append(sum(a[m] * row[m] for m in range(1, n + 1)))
    return out


def free_product(x: list[int], y: list[int], n_max: int):
    """(bullet, circ, total) labeled counts of X * Y up to arity n_max.

    With u = t + circ the bullet-rooted trees are X(u) - u, so
    f_X(u) = f and u = f_X^{-1}(f); hence bullet = f - f_X^{-1}(f).
    """
    gx, gy = reverse(x, n_max), reverse(y, n_max)
    total = total_from_inverses(gx, gy, n_max)
    ux, uy = compose(gx, total, n_max), compose(gy, total, n_max)
    bullet = [total[n] - ux[n] for n in range(n_max + 1)]
    circ = [total[n] - uy[n] for n in range(n_max + 1)]
    return bullet, circ, total


def total_from_inverses(gx: list[int], gy: list[int], n_max: int) -> list[int]:
    """Labeled counts of X * Y from f_X^{-1} and f_Y^{-1}."""
    return reverse([0, 1] + [gx[n] + gy[n] for n in range(2, n_max + 1)], n_max)


def macmahon_numbers(n_max: int) -> list[int]:
    """Series-parallel networks by edge count, via the Euler transform.

    A series network is a multiset of >= 2 non-series networks; by the
    series/parallel duality non-series networks of size n >= 2 are as
    many as series ones.  b is the Euler transform of u (multisets of
    non-series networks), from n b[n] = sum_k c[k] b[n-k] with
    c[k] = sum_{d | k} d u[d].
    """
    u = [0, 1] + [0] * (n_max - 1)
    b = [1] + [0] * n_max
    c = [0] * (n_max + 1)
    out = [0, 1]
    for n in range(1, n_max + 1):
        c_known = sum(d * u[d] for d in range(1, n) if n % d == 0)
        acc = sum(c[k] * b[n - k] for k in range(1, n)) + c_known
        s, r = divmod(acc, n)
        if r:
            raise ArithmeticError(f"Euler transform not integral at {n}")
        if n >= 2:
            u[n] = s
            out.append(2 * s)
        b[n] = u[n] + s
        c[n] = c_known + n * u[n]
    return out


_FACTOR_RE = re.compile(r"([xy])(\d+)(?:\^(\d+))?$")


def eval_polynomial(text: str, x: list[int], y: list[int]) -> int:
    """Evaluate a printed MultiPoly at x_k = x[k], y_k = y[k]."""
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        value = sign
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                value *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"bad polynomial factor {factor!r}")
            seq = x if m.group(1) == "x" else y
            value *= seq[int(m.group(2))] ** int(m.group(3) or 1)
        total += value
    return total

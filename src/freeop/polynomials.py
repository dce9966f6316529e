"""Sparse multivariate polynomials with integer coefficients.

Variables are (letter, index) pairs such as ("x", 2) for x2.  A monomial
is a sorted tuple of ((letter, index), exponent) entries; zero-coefficient
terms are never stored.  Display order is graded: total degree first, then
lexicographic on the monomial tuple.
"""
from __future__ import annotations

Var = tuple[str, int]
Monomial = tuple[tuple[Var, int], ...]

_ONE_MONOMIAL: Monomial = ()


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[Var, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_str(m: Monomial) -> str:
    factors = []
    for (letter, idx), e in m:
        name = f"{letter}{idx}"
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


class MultiPoly:
    """Immutable-by-convention polynomial; terms maps monomial -> int coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({_ONE_MONOMIAL: c})

    @classmethod
    def var(cls, letter: str, index: int) -> "MultiPoly":
        return cls({(((letter, index), 1),): 1})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {_ONE_MONOMIAL}:  # a constant, 0 included, hashes as its int
            return hash(self.terms.get(_ONE_MONOMIAL, 0))
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-other if isinstance(other, MultiPoly) else -other)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return MultiPoly(out)

    __rmul__ = __mul__

    def substitute(self, values: dict[Var, int]) -> int:
        """Evaluate at integer values for every variable occurring."""
        total = 0
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                term *= values[v] ** e
            total += term
        return total

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda t: (_mono_degree(t[0]), t[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if m == _ONE_MONOMIAL:
                body = str(mag)
            elif mag == 1:
                body = _mono_str(m)
            else:
                body = f"{mag}*{_mono_str(m)}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

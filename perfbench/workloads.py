"""Seeded request pools for the three workloads.

A run is a fixed pool of distinct requests: ``rounds`` copies of the
workload's per-round cells, each copy with fresh operands, plus the
per-run cells whose whole size range holds only a few distinct requests
(``dims --symbolic``, ``sp --list``).  The pool is sized from
``--seconds`` with the seconds-per-round of the seed commit, so a faster
program still answers the same sizes in the same proportions, and no
request repeats within a run.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

BUILTINS = list(oracle.BUILTIN_DIMS)
PATTERNS = ("bullet-composite-child", "circ-composite-child")

# Basis cells name a tree count; the operand pair is drawn among those
# within BAND of it, so a cell's cost stays steady from seed to seed.
BAND = 0.08

# sp -n takes low + offset, one offset per round, in each of these bins.
SP_LOWS = (40, 63, 86, 109, 132, 155)
SP_SPREAD = 5

EXPLICIT_OPERADS = 64

# Cells are (kind, *parameters).  Latencies form a ladder of sizes; each
# mix puts a group of near-equal cells where its median and its 90th
# percentile fall (marked), so neither sits on a step between sizes.
COUNT_ROUND = (
    [("basis", 5, 2_000), ("basis", 5, 4_000), ("basis", 5, 6_000), ("basis", 6, 30_000)]
    + [("quotient", 5, 2_000), ("quotient", 5, 6_000)]
    + [("count-normal", "lie", n) for n in (5, 6)]
    + [("count-normal", "lie-adm", n) for n in (4, 5)]
    + [("sp", SP_LOWS[0]), ("sp", SP_LOWS[1]), ("dims", 20), ("dims", 22)]
    + [("dims", 24)] * 5  # median
    + [("quotient", 6, 20_000), ("basis", 7, 200_000), ("dims", 26), ("dims", 28), ("dims", 30)]
    + [("sp", SP_LOWS[2]), ("sp", SP_LOWS[3])]
    + [("count-normal", "lie", 7), ("count-normal", "lie-adm", 6)]
    + [("dims", 32), ("dims", 32), ("sp", SP_LOWS[4])]  # 90th percentile
    + [("dims", 34), ("sp", SP_LOWS[5])]
)
COUNT_PER_RUN = [("symbolic", n) for n in (5, 6, 7, 8)]

LIST_ROUND = (
    [("basis-list", 4, 100)] * 4
    + [("basis-list", 4, 250)] * 3
    + [("basis-list", 5, 1_000)] * 4
    + [("basis-list", 5, 3_000)] * 5  # median
    + [("basis-list", 5, 8_000)] * 3
    + [("basis-list", 6, 20_000)] * 2
    + [("basis-list", 6, 60_000)] * 3  # 90th percentile
)
LIST_PER_RUN = (
    [("basis-list", 6, 260_000)] * 2
    + [("basis-list", 7, 200_000)] * 2
    + [("sp-list", n) for n in range(8, 13)]
)

REWRITE_ROUND = 3 * [
    ("normal-form", system, arity, terms)
    for system in ("lie", "lie-adm")
    for arity in (5, 6, 7)
    for terms in range(1, 7)
] + [
    ("confluence", system, max_arity)
    for system in ("lie", "lie-adm", "bad-jacobi", "cubic")
    for max_arity in (5, 6, 7)
]

# (per-round cells, per-run cells, seconds per round at the seed commit with
# the per-run cells' share included).
MIXES = {
    "count": (COUNT_ROUND, COUNT_PER_RUN, 5.5),
    "list": (LIST_ROUND, LIST_PER_RUN, 5.0),
    "rewrite": (REWRITE_ROUND, [], 1.1),
}

# Rewriting systems as lhs = rhs; "bad-jacobi" doubles one Jacobi term and
# "cubic" is the arity-4 rule whose overlaps sit at arities 5-7.
SYSTEMS = {
    "lie": "x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)",
    "lie-adm": (
        "x(x(1 2) 3) = x(y(1 2) 3) + y(x(1 2) 3) - y(y(1 2) 3) - y(1 x(2 3))"
        " + y(1 y(2 3)) + x(1 x(2 3)) - x(1 y(2 3)) - x(y(1 3) 2)"
        " + x(x(1 3) 2) + y(y(1 3) 2) - y(x(1 3) 2)"
    ),
    "bad-jacobi": "x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)",
    "cubic": "x(x(x(1 2) 3) 4) = x(1 x(2 x(3 4)))",
}
ALPHABETS = {"lie": ["x"], "lie-adm": ["x", "y"]}
MAX_LEFT_NESTED = 1
CONFLUENCE_EXIT = {"lie": 0, "lie-adm": 0, "bad-jacobi": 1, "cubic": 1}
SCALES = sorted({Fraction(p, q) for p in range(-9, 10) for q in range(1, 8) if p})
NF_COEFFS = [Fraction(c) for c in (1, 2, 3, -1, -2, -5)] + [
    Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)
]


@dataclass
class Operand:
    spec: str
    head: list[int]
    tail: str

    def dims(self, n_max: int) -> list[int]:
        return oracle.dims_sequence(self.head, self.tail, n_max)


@dataclass
class Request:
    kind: str
    cell: str
    argv: list[str] | None = None
    text: str | None = None
    expect: dict = field(default_factory=dict)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / MIXES[workload][2]))


def build(workload: str, seed: int, seconds: float, tmp: Path) -> list[Request]:
    """The run's requests in seeded order; files go into tmp."""
    rng = random.Random(f"{workload}/{seed}")
    gen = _Generator(rng, tmp)
    per_round, per_run, _ = MIXES[workload]
    rounds = rounds_for(workload, seconds)
    requests = []
    for offset in rng.sample(range(max(SP_SPREAD, rounds)), rounds):
        gen.sp_offset = offset
        requests += [gen.make(cell) for cell in per_round]
    requests += [gen.make(cell) for cell in per_run]
    rng.shuffle(requests)
    return requests


def format_terms(terms: list[tuple[Fraction, str]]) -> str:
    """Coefficient-monomial pairs as rule-file text: 2*x(1 2) - 1/2*x(2 1)."""
    pieces = [("-" if c < 0 else "+", mono if abs(c) == 1 else f"{abs(c)}*{mono}")
              for c, mono in terms]
    first_sign, first = pieces[0]
    text = ("-" if first_sign == "-" else "") + first
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def _signed_terms(side: str) -> list[tuple[Fraction, str]]:
    terms = []
    for chunk in side.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        coeff, _, mono = chunk.lstrip("-").rpartition("*")
        terms.append((sign * Fraction(coeff or 1), mono))
    return terms


def random_shuffle_monomial(rng: random.Random, labels: list[int], symbols: list[str]) -> str:
    """A binary shuffle tree (the minimal label always goes left) with at
    most MAX_LEFT_NESTED x vertices whose first argument is an x vertex.

    That is where both systems' rule applies: with two or more per
    monomial about one element in fifty takes 1-30 s to normalise, and a
    run's time would be set by which seeds draw one.
    """
    budget = [MAX_LEFT_NESTED]

    def build(labels: list[int], choices: list[str], under_x: bool) -> str:
        if len(labels) == 1:
            return str(labels[0])
        sym = rng.choice(choices)
        if under_x and sym == "x":
            budget[0] -= 1
        rest = labels[1:]
        right = [x for x in rest if rng.random() < 0.5] or [rng.choice(rest)]
        left_choices = symbols
        if sym == "x" and budget[0] == 0:
            left_choices = [c for c in symbols if c != "x"]
            if not left_choices:
                right = rest
        left = [labels[0]] + [x for x in rest if x not in right]
        return f"{sym}({build(left, left_choices, sym == 'x')} {build(right, symbols, False)})"

    return build(labels, symbols, False)


class _Generator:
    def __init__(self, rng: random.Random, tmp: Path):
        self.rng = rng
        self.tmp = tmp
        self.seen: set = set()
        self.rule_files: dict[str, list[str]] = {}
        self.rule_uses: Counter = Counter()
        self.sp_offset = 0
        self.operands = self._operands()
        inverses = {p.spec: oracle.reverse(p.dims(7), 7) for p in self.operands}
        self.totals = {
            (p, q): oracle.total_from_inverses(inverses[p], inverses[q], 7)
            for p in inverses
            for q in inverses
        }

    def _operands(self) -> list[Operand]:
        rng = self.rng
        out = [Operand(rng.choice((b, f"builtin:{b}")), [], b) for b in BUILTINS]
        lines = []
        cfg = self.tmp / "operads.cfg"
        for i in range(EXPLICIT_OPERADS):
            tail = rng.choice(BUILTINS)
            head = [
                rng.randint(1, max(2, oracle.BUILTIN_DIMS[tail](m)))
                for m in range(2, 2 + rng.randint(1, 4))
            ]
            name = f"op{i:02d}"
            lines.append(f"{name} = [{', '.join(map(str, head))}] builtin:{tail}")
            out.append(Operand(f"{cfg}:{name}", head, tail))
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out

    def _fresh(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def _pair(self, kind: str, n: int, trees: int | None = None) -> tuple[Operand, Operand]:
        pairs = [
            (p, q)
            for p in self.operands
            for q in self.operands
            if trees is None or abs(self.totals[p.spec, q.spec][n] - trees) <= BAND * trees
        ]
        self.rng.shuffle(pairs)
        for p, q in pairs:
            if self._fresh((kind, p.spec, q.spec, n)):
                return p, q
        raise RuntimeError(f"no unused operand pair for {kind} n={n} near {trees} trees")

    def _rule_file(self, system: str, use) -> str:
        """A rules argument for the system that no earlier request with the
        same other arguments (use) has had.  Variant 0 is the bundled name;
        the others are files holding an equivalent form: the equation
        scaled, its terms split across the two sides and reordered."""
        variants = self.rule_files.setdefault(system, [])
        k = self.rule_uses[system, use]
        self.rule_uses[system, use] += 1
        if k < len(variants):
            return variants[k]
        if not variants and system in ALPHABETS:
            variants.append(system)
            return system
        lhs, rhs = SYSTEMS[system].split(" = ")
        terms = _signed_terms(lhs) + [(-c, m) for c, m in _signed_terms(rhs)]
        for _ in range(1000):
            scale = self.rng.choice(SCALES)
            left = [t for t in terms if self.rng.random() < 0.5]
            right = [(-c, m) for c, m in terms if (c, m) not in left]
            if not left or not right:
                continue
            self.rng.shuffle(left)
            self.rng.shuffle(right)
            text = (
                format_terms([(scale * c, m) for c, m in left])
                + " = "
                + format_terms([(scale * c, m) for c, m in right])
            )
            if self._fresh(("rules", text)):
                break
        else:
            raise RuntimeError(f"ran out of distinct forms of {system}")
        path = self.tmp / f"{system}-{len(variants):03d}.rules"
        path.write_text(f"# {system}\n{text}\n", encoding="utf-8")
        variants.append(str(path))
        return str(path)

    def make(self, cell: tuple) -> Request:
        """The request for a cell: (kind, *parameters)."""
        label = " ".join(map(str, cell))
        return getattr(self, "_" + cell[0].replace("-", "_"))(label, *cell[1:])

    def _dims(self, label, n):
        p, q = self._pair("dims", n)
        argv = ["dims", "--left", p.spec, "--right", q.spec, "-n", str(n)]
        return Request("dims", label, argv + ["--format", "json"], expect={
            "x": p.dims(n), "y": q.dims(n), "n": n})

    def _symbolic(self, label, n):
        pairs = [self.rng.sample(BUILTINS, 2) for _ in range(2)]
        return Request("symbolic", label,
                       ["dims", "--symbolic", "-n", str(n), "--format", "json"],
                       expect={"n": n, "pairs": pairs})

    def _sp(self, label, low):
        n = low + self.sp_offset
        return Request("sp", label, ["sp", "-n", str(n), "--format", "json"],
                       expect={"n": n})

    def _basis(self, label, n, trees):
        p, q = self._pair("basis", n, trees)
        argv = ["basis", "--left", p.spec, "--right", q.spec, "-n", str(n)]
        return Request("basis", label, argv + ["--format", "json"], expect={
            "total": self.totals[p.spec, q.spec][n]})

    def _basis_list(self, label, n, trees):
        p, q = self._pair("basis", n, trees)
        argv = ["basis", "--left", p.spec, "--right", q.spec, "-n", str(n), "--list"]
        return Request("basis-list", label, argv + ["--format", "json"], expect={
            "total": self.totals[p.spec, q.spec][n], "n": n,
            "sample_seed": self.rng.getrandbits(32)})

    def _sp_list(self, label, n):
        return Request("sp-list", label, ["sp", "-n", str(n), "--list", "--format", "json"],
                       expect={"n": n, "sample_seed": self.rng.getrandbits(32)})

    def _quotient(self, label, n, trees):
        p, q = self._pair("quotient", n, trees)
        pattern = self.rng.choice(PATTERNS)
        argv = ["quotient", "--left", p.spec, "--right", q.spec, "--pattern", pattern]
        return Request("quotient", label, argv + ["-n", str(n), "--format", "json"], expect={
            "x": p.dims(n), "y": q.dims(n), "n": n, "pattern": pattern,
            "total": self.totals[p.spec, q.spec][n]})

    def _count_normal(self, label, system, n):
        argv = ["count-normal", "--rules", self._rule_file(system, n), "-n", str(n)]
        return Request("count-normal", label, argv + ["--format", "json"],
                       expect={"system": system, "n": n})

    def _confluence(self, label, system, max_arity):
        argv = ["confluence", "--rules", self._rule_file(system, max_arity),
                "--max-arity", str(max_arity), "--format", "json"]
        return Request("confluence", label, argv,
                       expect={"exit": CONFLUENCE_EXIT[system]})

    def _normal_form(self, label, system, arity, terms):
        labels = list(range(1, arity + 1))
        while True:
            monos = set()
            while len(monos) < terms:
                monos.add(random_shuffle_monomial(self.rng, labels, ALPHABETS[system]))
            text = format_terms([(self.rng.choice(NF_COEFFS), m) for m in sorted(monos)])
            if self._fresh((system, text)):
                break
        return Request("normal-form", label, text=text, expect={
            "system": system, "rng_seed": self.rng.getrandbits(32)})

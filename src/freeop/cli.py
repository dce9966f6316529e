"""Command-line frontend with stable, scriptable output.

Exit codes: 0 success, 1 mathematical failure (confluence FAIL),
2 usage or parse errors, or a reader that closed stdout early.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable

from . import dims as dims_mod
from . import shuffle as sh
from . import spnet
from . import trees

# The one listing bound, checked by check_listing against each listing's
# size.  A listing is written piece by piece as it is built, and holds only
# the text of its subtrees and of its root's compositions: measured with
# CPython 3.11.7 on a shared 2-CPU Xeon, a fresh process writing to
# /dev/null, with the peak freeop itself allocates (tracemalloc), the 665k
# trees of com*com at n=7 (JSON) take 0.15-0.17 s and 14 MiB, `sp -n 14
# --list` (437,502 networks) 0.24-0.27 s and 34 MiB, and the costliest
# admitted listing measured, 926,695 trees at n=10 (README, JSON),
# 0.72-0.78 s and 60 MiB.  `basis --list` also takes n <=
# trees.LIST_ARITY_MAX, which bounds the set partitions its walk visits.
LIST_MAX = 1_000_000
# Counts take up to O(n^3) big-integer operations.  Measured with CPython
# 3.11.7 on a shared 2-CPU Xeon, in-process cli.main to /dev/null, at
# n=200, best of 5 runs in each of five processes (the ranges are the
# machine's load): the dims recurrence costs O(K n^2) for an operand with a
# builtin tail after K arities, nov's included, so as*as takes 0.023-0.040
# s, lie*com 0.023-0.038 s and nov*nov 0.072-0.128 s, a one-root basis
# count as much (as*as 0.022-0.038 s; the kernel continues the other
# operand's prefix with its family), and the quotient, one of its two
# kernels, 0.031-0.054 s for as*as; explicit sequences
# with no builtin tail on both sides (d(k) = k! + 1) still build the whole
# O(n^3) triangle, 1.6-2.0 s (the quotient 1.9-2.7 s), and set the bound
# with the count-normal DP for lie-adm, 1.0 s at n=150 and 2.6 s at n=200
# (rules it cannot count test each shuffle tree against each rule, refused
# past shuffle._ENUMERATION_MAX tests).
COUNT_MAX = 200
# The count-normal DP takes O(n^3 |S|^2) operations for an alphabet S, and
# COUNT_MAX was measured with two generators: larger alphabets get the
# n at which n^3 |S|^2 stays within that cost (4 generators: n <= 125).
COUNT_NORMAL_BUDGET = COUNT_MAX**3 * 2**2
# macmahon(n) takes O(n^2) operations on integers of O(n) digits, measured
# the same way: 0.5 s at n=1000, 1.5 s at 1500 and 4.9 s at 2000, two and
# a half times dims at COUNT_MAX, against which the bound was once set.
SP_MAX = 2000
# The largest -n of each command that takes one, checked by main before
# the command reads an operand or rule file.
N_BOUNDS = {"dims": COUNT_MAX, "count-normal": COUNT_MAX, "basis": COUNT_MAX,
            "sp": SP_MAX, "quotient": COUNT_MAX}


# The separator between a listing's items, by format: emit writes a JSON
# listing's items between the `["` and `"]` of its array.
LISTING_SEP = {"table": "\n", "json": '", "'}


class CliError(Exception):
    """Bad user input; reported on stderr with exit code 2."""


def resolve_operad(
    spec: str, tables: dict | None = None, names=None
) -> dims_mod.OperadDims:
    """Resolve a builtin id, `builtin:<id>`, or `<config-file>:<name>`.

    `tables` maps each config file already parsed in this request to its
    table, so that operands named from one file read and parse it once.
    A file's table holds only the entries in `names`, by default the one
    that spec names; every line of it is checked all the same.
    """
    if spec.startswith("builtin:"):
        return dims_mod.builtin_operad(spec.split(":", 1)[1])
    if ":" in spec:
        path, name = spec.rsplit(":", 1)
        tables = {} if tables is None else tables
        if path not in tables:
            if not os.path.exists(path):
                raise CliError(f"operad config file not found: {path}")
            text = _read_text(path, "operad config file")
            tables[path] = dims_mod.parse_operad_config(text, names or {name})
        table = tables[path]
        if name not in table:
            raise CliError(f"operad {name!r} not defined in {path}")
        return table[name]
    return dims_mod.builtin_operad(spec)


def resolve_operands(args) -> tuple[dims_mod.OperadDims, dims_mod.OperadDims]:
    """`--left` and `--right`, in that order; a shared config file is read once."""
    tables: dict = {}
    names = {args.left.rsplit(":", 1)[-1], args.right.rsplit(":", 1)[-1]}
    return resolve_operad(args.left, tables, names), resolve_operad(args.right, tables, names)


def load_rules(path: str) -> list[sh.RewriteRule]:
    """Load a rule file; bare names fall back to the bundled fixtures."""
    if os.path.exists(path):
        return sh.parse_rules(_read_text(path, "rule file"))
    name = path if path.endswith(".rules") else path + ".rules"
    bundle = os.path.join(os.path.dirname(__file__), "rules", name)
    if os.path.isfile(bundle):
        return sh.parse_rules(_read_text(bundle, "rule file"))
    raise CliError(f"rule file not found: {path}")


def _read_text(path: str, what: str) -> str:
    """The text of an existing file; one that cannot be read is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def emit(payload: dict, text_lines: Iterable[str], fmt: str) -> None:
    """Print the payload as JSON, or text_lines one per line.

    A listing is a payload whose last key holds text_lines itself (`trees`,
    `networks`): an iterable of pieces, each one or more items already
    joined by the format's LISTING_SEP (`trees.basis_pieces`), written as
    they come, so the listing is never held whole.  Its items are tree or
    network text, which JSON does not escape, so the array is spliced in
    as text, not encoded item by item.  The first piece is built before
    anything is written.
    """
    write = sys.stdout.write
    pieces = iter(text_lines)
    first = next(pieces, None)
    end = "\n"
    if fmt == "json":
        import json  # here, not at the top: no table-format command loads it

        last = max(payload)
        if payload[last] is not text_lines:
            print(json.dumps(payload, sort_keys=True))
            return
        rest = json.dumps({k: v for k, v in payload.items() if k != last}, sort_keys=True)
        if first is None:
            write(f"{rest[:-1]}, {json.dumps(last)}: []}}\n")
            return
        write(f'{rest[:-1]}, {json.dumps(last)}: ["')
        end = '"]}\n'
    elif first is None:
        return
    write(first)
    sep = LISTING_SEP[fmt]
    for piece in pieces:
        write(sep)
        write(piece)
    write(end)


# Each cmd_* computes its answer, a JSON payload and its table lines for
# emit, and writes nothing: main checks -n before a handler runs and writes
# the answer after it returns, so no refusal can follow output.  A listing's
# pieces are built as emit writes them, after its count, which reads every
# operand dimension the listing reads: they cannot be refused either.
def cmd_dims(args) -> tuple[dict, list[str]]:
    if args.symbolic:
        if args.left or args.right:
            raise CliError("--symbolic takes no --left/--right")
        table = dims_mod.symbolic_dims(args.n)
        polys = {f"d{n}_{color}": str(poly) for n in range(2, args.n + 1)
                 for color, poly in zip(("bullet", "circ"), table[n])}
        lines = [f"{name} = {text}" for name, text in polys.items()]
        return {"command": "dims-symbolic", "n_max": args.n, "polynomials": polys}, lines
    if not args.left or not args.right:
        raise CliError("--left and --right are required (or use --symbolic)")
    x, y = resolve_operands(args)
    table = dims_mod.free_product_dims(x, y, args.n)
    rows = [{"n": 1, "bullet": None, "circ": None, "total": 1}]
    lines = ["n\tbullet\tcirc\ttotal", "1\t-\t-\t1"]
    for n in range(2, args.n + 1):
        b, c = table.bullet[n], table.circ[n]
        rows.append({"n": n, "bullet": b, "circ": c, "total": b + c})
        lines.append(f"{n}\t{b}\t{c}\t{b + c}")
    payload = {"command": "dims", "left": x.name, "right": y.name, "n_max": args.n, "rows": rows}
    return payload, lines


def cmd_confluence(args) -> tuple[dict, list[str]]:
    rules = load_rules(args.rules)
    report = sh.check_confluence(rules, args.max_arity)
    payload = {
        "command": "confluence",
        "max_arity": args.max_arity,
        "passed": report.passed,
        "overlap_count": report.overlap_count,
        "failures": [
            {"overlap": sh.print_monomial(m), "normal_form": str(nf)}
            for m, nf in report.failures
        ],
    }
    return payload, [str(report)]


def cmd_count_normal(args) -> tuple[dict, list[str]]:
    rules = load_rules(args.rules)
    if args.alphabet is None:
        alphabet = sh.rules_alphabet(rules)
    else:
        alphabet = [(s.strip(), 2) for s in args.alphabet.split(",")]
    generators = len(sh._symbols(alphabet))
    limit = COUNT_MAX
    while limit**3 * generators**2 > COUNT_NORMAL_BUDGET:
        limit -= 1
    if args.n > limit:
        raise CliError(f"-n must be <= {limit} with {generators} generators")
    count = sh.count_normal_monomials(alphabet, rules, args.n)
    payload = {"command": "count-normal", "n": args.n,
               "alphabet": [s for s, _ in alphabet], "count": count}
    return payload, [str(count)]


def check_listing(size: int, excess: str) -> None:
    """Refuse a --list of more than LIST_MAX trees or networks; `excess`
    names what is listed and how many there are."""
    if size > LIST_MAX:
        raise CliError(f"--list prints at most {LIST_MAX} {excess}")


def cmd_basis(args) -> tuple[dict, list[str]]:
    if args.list and args.n > trees.LIST_ARITY_MAX:
        raise CliError(f"--list prints at most {LIST_MAX} trees, of arity at most"
                       f" {trees.LIST_ARITY_MAX}, got n={args.n}")
    x, y = resolve_operands(args)
    count = dims_mod.basis_count(x, y, args.n, args.root)
    payload = {
        "command": "basis",
        "left": x.name,
        "right": y.name,
        "n": args.n,
        "root": args.root,
        "count": count,
    }
    if args.list:
        check_listing(count, f"trees, this basis has {count}")
        lines = payload["trees"] = trees.basis_pieces(
            x, y, args.n, args.root, LISTING_SEP[args.format])
    else:
        lines = [str(count)]
    return payload, lines


def cmd_sp(args) -> tuple[dict, list[str]]:
    count = spnet.macmahon(args.n)
    payload = {"command": "sp", "n": args.n, "count": count}
    lines = [str(count)]
    if args.list:
        check_listing(count, f"networks, n={args.n} has {count}")
        lines = payload["networks"] = spnet.network_pieces(args.n, LISTING_SEP[args.format])
    return payload, lines


def cmd_quotient(args) -> tuple[dict, list[str]]:
    if args.pattern not in trees.PATTERNS_BY_NAME:
        raise CliError(
            f"unknown pattern {args.pattern!r}; choose from {sorted(trees.PATTERNS_BY_NAME)}"
        )
    x, y = resolve_operands(args)
    color = trees.PATTERNS_BY_NAME[args.pattern]
    total = dims_mod.basis_count(x, y, args.n)
    avoiding = dims_mod.avoiding_count(x, y, args.n, color)
    payload = {
        "command": "quotient",
        "left": x.name,
        "right": y.name,
        "pattern": args.pattern,
        "n": args.n,
        "total": total,
        "reduced": total - avoiding,
        "quotient": avoiding,
    }
    return payload, [str(avoiding)]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls in
    the process: parse_args puts its results in a fresh namespace and
    leaves the parser as it was."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and its subcommands' parsers, by command name."""
    parser = argparse.ArgumentParser(
        prog="freeop",
        description="Dimensions, bases, and rewriting for free products of binary operads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension tables of a free product")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("-n", "--n-max", dest="n", metavar="N_MAX", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")

    p = sub.add_parser("confluence", help="overlap check for a rewriting system")
    p.add_argument("--rules", required=True)
    p.add_argument("--max-arity", type=int, default=5)

    p = sub.add_parser("count-normal", help="count normal shuffle monomials")
    p.add_argument("--rules", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--alphabet", help="comma-separated binary generators")

    p = sub.add_parser("basis", help="enumerate the colored-tree basis")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--root", choices=(trees.BULLET, trees.CIRC, "any"), default="any")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("sp", help="series-parallel networks")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("quotient", help="pattern-avoidance quotient counts")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("-n", type=int, required=True)

    commands = sub.choices
    for p in commands.values():
        p.add_argument("--format", choices=("table", "json"), default="table")
    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), each argument parsed once.

    parse_args would read argv with the top-level parser, which hands all
    that follows a command name to that command's parser.  An argv that
    starts with a command name goes to that parser at once, which sets
    what the top level would, and whatever it leaves over is refused by
    the top level, in its words; any other argv goes the whole way.
    """
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    # A request parses its argv once, with its command's parser (`_parse`):
    # going through the top-level parser first costs as much again.
    args = _parse(sys.argv[1:] if argv is None else argv)
    # The handler is looked up by name at each call, not bound into the
    # parser, which outlives the call: a cmd_* function replaced after the
    # first call (wrapped by a tracer, say) is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.command in N_BOUNDS and args.n > N_BOUNDS[args.command]:
            raise CliError(f"-n must be <= {N_BOUNDS[args.command]}")
        payload, lines = handler(args)
        # Inside the try: an answer emit cannot write (an integer too long
        # for json.dumps) is refused before the first byte of output.
        emit(payload, lines, args.format)
    except (CliError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`| head`): the walk stops here, and what
        # is still buffered goes to os.devnull, so that the interpreter's
        # final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return 0 if payload.get("passed", True) else 1  # a confluence FAIL exits 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

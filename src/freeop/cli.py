"""Command-line frontend with stable, scriptable output.

Exit codes: 0 success, 1 mathematical failure (confluence FAIL),
2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import dims as dims_mod
from . import shuffle as sh
from . import spnet
from . import trees

# The one listing bound, checked by check_listing against each listing's
# work.  A listing holds every tree's or network's text at once: measured
# with CPython 3.11 on a 2-CPU Xeon, building and writing it (JSON, to
# /dev/null) takes 0.2-0.25 s and 81 MiB peak for the 665k trees of
# com*com at n=7, and `sp -n 14 --list` (437,502 networks) 0.6-0.75 s and
# 96 MiB.
# Before that, the basis walk visits up to trees.basis_walk(n) set
# partitions however few trees come out, 2 Bell(k) for each size k <= n:
# with d_n alone (2 trees), walking 2 Bell(10) = 231,950 at n=10 takes
# 0.5-0.6 s and 2 Bell(11) = 1,357,140 at n=11 4.2 s.  W(10) = 284,832
# passes the bound and W(11) = 1,641,972 does not, so n >= 11 is refused
# from n alone.
LIST_MAX = 1_000_000
# Counts take O(n^3) big-integer operations.  Measured with CPython 3.11
# on a 2-CPU Xeon: the dims recurrence for as*as takes about 0.4 s at
# n=150, 1.5 s at n=200 and 11 s at n=300; the quotient adds half of that
# again; the count-normal DP for lie-adm takes 0.9 s at n=150 and 3 s at
# n=200 (rules it cannot count enumerate, n <= 7).
COUNT_MAX = 200
# The count-normal DP takes O(n^3 |S|^2) operations for an alphabet S, and
# COUNT_MAX was measured with two generators: larger alphabets get the
# n at which n^3 |S|^2 stays within that cost (4 generators: n <= 125).
COUNT_NORMAL_BUDGET = COUNT_MAX**3 * 2**2
# macmahon(n) takes O(n^2) operations on integers of O(n) digits, about
# n^3.9 measured on the same machine: 0.3 s at n=1000, 1.6 s at 1500 and
# 4.9 s at 2000, three times the 1.5 s of dims at COUNT_MAX, against which
# the bound was once set.
SP_MAX = 2000


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


def emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    """Print the payload as JSON, or text_lines one per line.

    A listing is a payload whose last key holds text_lines itself (`trees`,
    `networks`).  Its items are tree or network text, which JSON does not
    escape, so the array is spliced in as text, not encoded item by item.
    A line of a listing may hold many items, already joined by the
    format's LISTING_SEP (`trees.basis_pieces`): text_lines joined by it
    is the listing either way.
    """
    write = sys.stdout.write
    if fmt != "json":
        if text_lines:
            _write_joined(LISTING_SEP[fmt], text_lines)
            write("\n")
        return
    import json  # here, not at the top: no table-format command loads it

    last = max(payload)
    if payload[last] is not text_lines or not text_lines:
        print(json.dumps(payload, sort_keys=True))
        return
    rest = json.dumps({k: v for k, v in payload.items() if k != last}, sort_keys=True)
    write(f'{rest[:-1]}, {json.dumps(last)}: ["')
    _write_joined(LISTING_SEP[fmt], text_lines)
    write('"]}\n')


def _write_joined(sep: str, items: list[str]) -> None:
    """Write sep.join(items) in chunks of at most 4096 items and, unless one
    item is longer, about 16 KiB: short items (lines) take few writes, and
    the text is never copied whole into one string, nor a long item (a
    basis piece) copied at all."""
    write = sys.stdout.write
    step = max(1, min(4096, len(items) * 2**14 // max(1, sum(map(len, items)))))
    for start in range(0, len(items), step):
        if start:
            write(sep)
        write(sep.join(items[start:start + step]))


def cmd_dims(args) -> int:
    if args.symbolic:
        if args.left or args.right:
            raise CliError("--symbolic takes no --left/--right")
        table = dims_mod.symbolic_dims(args.n_max)
        polys = {}
        lines = []
        for n in range(2, args.n_max + 1):
            b, c = table[n]
            polys[f"d{n}_bullet"] = str(b)
            polys[f"d{n}_circ"] = str(c)
            lines.append(f"d{n}_bullet = {b}")
            lines.append(f"d{n}_circ = {c}")
        emit(
            {"command": "dims-symbolic", "n_max": args.n_max, "polynomials": polys},
            lines,
            args.format,
        )
        return 0
    if not args.left or not args.right:
        raise CliError("--left and --right are required (or use --symbolic)")
    if args.n_max > COUNT_MAX:
        raise CliError(f"-n must be <= {COUNT_MAX}")
    x, y = resolve_operands(args)
    table = dims_mod.free_product_dims(x, y, args.n_max)
    rows = [{"n": 1, "bullet": None, "circ": None, "total": 1}]
    lines = ["n\tbullet\tcirc\ttotal", "1\t-\t-\t1"]
    for n in range(2, args.n_max + 1):
        b, c = table.bullet[n], table.circ[n]
        rows.append({"n": n, "bullet": b, "circ": c, "total": b + c})
        lines.append(f"{n}\t{b}\t{c}\t{b + c}")
    emit(
        {
            "command": "dims",
            "left": x.name,
            "right": y.name,
            "n_max": args.n_max,
            "rows": rows,
        },
        lines,
        args.format,
    )
    return 0


def cmd_confluence(args) -> int:
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
    emit(payload, [str(report)], args.format)
    return 0 if report.passed else 1


def cmd_count_normal(args) -> int:
    rules = load_rules(args.rules)
    if args.alphabet:
        alphabet = [(s.strip(), 2) for s in args.alphabet.split(",") if s.strip()]
    else:
        alphabet = sh.rules_alphabet(rules)
    limit = COUNT_MAX
    while limit**3 * len(alphabet) ** 2 > COUNT_NORMAL_BUDGET:
        limit -= 1
    if args.n > limit:
        suffix = "" if limit == COUNT_MAX else f" with {len(alphabet)} generators"
        raise CliError(f"-n must be <= {limit}{suffix}")
    count = sh.count_normal_monomials(alphabet, rules, args.n)
    emit(
        {
            "command": "count-normal",
            "n": args.n,
            "alphabet": [s for s, _ in alphabet],
            "count": count,
        },
        [str(count)],
        args.format,
    )
    return 0


def check_listing(size: int, excess: str) -> None:
    """Refuse a --list whose work, `size` trees or networks printed or set
    partitions walked, exceeds LIST_MAX; `excess` names what is listed and
    how far it goes over."""
    if size > LIST_MAX:
        raise CliError(f"--list prints at most {LIST_MAX} {excess}")


def cmd_basis(args) -> int:
    if args.n > COUNT_MAX:
        raise CliError(f"-n must be <= {COUNT_MAX}")
    if args.list:
        check_listing(
            trees.basis_walk(args.n),
            f"trees and walks as many set partitions, n={args.n} walks more",
        )
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
    emit(payload, lines, args.format)
    return 0


def cmd_sp(args) -> int:
    if args.n > SP_MAX:
        raise CliError(f"-n must be <= {SP_MAX}")
    count = spnet.macmahon(args.n)
    payload = {"command": "sp", "n": args.n, "count": count}
    lines = [str(count)]
    if args.list:
        check_listing(count, f"networks, n={args.n} has {count}")
        lines = payload["networks"] = spnet.network_lines(args.n)
    emit(payload, lines, args.format)
    return 0


def cmd_quotient(args) -> int:
    if args.n > COUNT_MAX:
        raise CliError(f"-n must be <= {COUNT_MAX}")
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
    emit(payload, [str(avoiding)], args.format)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls in
    the process: parse_args puts its results in a fresh namespace and
    leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="freeop",
        description="Dimensions, bases, and rewriting for free products of binary operads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension tables of a free product")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("-n", "--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("confluence", help="overlap check for a rewriting system")
    p.add_argument("--rules", required=True)
    p.add_argument("--max-arity", type=int, default=5)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("count-normal", help="count normal shuffle monomials")
    p.add_argument("--rules", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--alphabet", help="comma-separated binary generators")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("basis", help="enumerate the colored-tree basis")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--root", choices=(trees.BULLET, trees.CIRC, "any"), default="any")
    p.add_argument("--list", action="store_true")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("sp", help="series-parallel networks")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("quotient", help="pattern-avoidance quotient counts")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The handler is looked up by name at each call, not bound into the
    # parser, which outlives the call: a cmd_* function replaced after the
    # first call (wrapped by a tracer, say) is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (CliError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

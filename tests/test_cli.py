import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import freeop
from freeop import cli
from freeop import dims as dims_mod
from freeop import trees as trees_mod
from freeop.cli import build_parser, load_rules, main, resolve_operad

SCHEMA = json.loads(
    resources.files("freeop").joinpath("schemas", "output.schema.json").read_text()
)
# The schema is checked, and its validator built, once: jsonschema.validate
# would do both again on every call.
VALIDATOR = None
if jsonschema is not None:
    _validator_cls = jsonschema.validators.validator_for(SCHEMA)
    _validator_cls.check_schema(SCHEMA)
    VALIDATOR = _validator_cls(SCHEMA)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *args):
    code, out = run(capsys, *args, "--format", "json")
    payload = json.loads(out)
    if VALIDATOR:
        VALIDATOR.validate(payload)
    return code, payload


# --- dims --------------------------------------------------------------


def test_dims_table(capsys):
    code, out = run(capsys, "dims", "--left", "as", "--right", "as", "-n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tbullet\tcirc\ttotal"
    assert lines[-1] == "5\t5400\t5400\t10800"


def test_dims_json(capsys):
    code, payload = run_json(
        capsys, "dims", "--left", "lie", "--right", "com", "-n", "7"
    )
    assert code == 0
    totals = {row["n"]: row["total"] for row in payload["rows"]}
    assert totals[4] == 101
    assert totals[7] == 434314
    assert payload["rows"][0] == {"n": 1, "bullet": None, "circ": None, "total": 1}


def test_dims_symbolic(capsys):
    code, out = run(capsys, "dims", "-n", "3", "--symbolic")
    assert code == 0
    assert "d3_bullet = x3 + 3*x2*y2" in out.splitlines()


def test_dims_symbolic_rejects_operands(capsys):
    code, out = run(
        capsys, "dims", "--left", "as", "--right", "as", "-n", "3", "--symbolic"
    )
    assert (code, out) == (2, "")


def test_dims_defaults_to_symmetric_pair(capsys):
    a = run(capsys, "dims", "--left", "com", "--right", "lie", "-n", "5")
    b = run(capsys, "dims", "--left", "lie", "--right", "com", "-n", "5")
    a_totals = [line.split("\t")[-1] for line in a[1].splitlines()[1:]]
    b_totals = [line.split("\t")[-1] for line in b[1].splitlines()[1:]]
    assert a_totals == b_totals


def test_dims_config_file(tmp_path, capsys):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("nilp = [1, 0, 0]  # magma truncated above arity 2\n")
    code, out = run(
        capsys, "dims", "--left", f"{cfg}:nilp", "--right", f"{cfg}:nilp", "-n", "4"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("1\t")


@pytest.mark.parametrize("command", ["dims", "basis"])
def test_a_missing_config_file_is_input_error(tmp_path, capsys, command):
    missing = tmp_path / "absent.cfg"
    assert main([command, "--left", f"{missing}:a", "--right", "as", "-n", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: operad config file not found: {missing}\n")


@pytest.mark.parametrize("operands", [(), ("--left", "as"), ("--right", "lie")])
def test_dims_needs_both_operands(capsys, operands):
    assert main(["dims", *operands, "-n", "4"]) == 2
    assert capsys.readouterr() == (
        "", "error: --left and --right are required (or use --symbolic)\n")


# --- confluence --------------------------------------------------------


def test_confluence_pass(capsys):
    code, out = run(capsys, "confluence", "--rules", "lie-adm", "--max-arity", "5")
    assert code == 0
    assert out.startswith("PASS: 1 overlap(s)")


def test_confluence_fail_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rules"
    bad.write_text("x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)\n")
    code, out = run(capsys, "confluence", "--rules", str(bad))
    assert code == 1
    assert out.startswith("FAIL")


CUBIC = "x(x(x(1 2) 3) 4) = x(1 x(2 x(3 4)))\n"


@pytest.mark.parametrize(
    "max_arity, code, first_line",
    [
        ("4", 2, ""),
        ("5", 1, "FAIL: 1 of 1 overlap(s) do not resolve"),
        ("6", 1, "FAIL: 2 of 2 overlap(s) do not resolve"),
        ("7", 1, "FAIL: 2 of 2 overlap(s) do not resolve"),
        ("8", 1, "FAIL: 2 of 2 overlap(s) do not resolve"),
    ],
)
def test_confluence_never_passes_unchecked_overlaps(
    tmp_path, capsys, max_arity, code, first_line
):
    # The cubic rule's overlaps sit at arities 5 and 6.
    cubic = tmp_path / "cubic.rules"
    cubic.write_text(CUBIC)
    got, out = run(capsys, "confluence", "--rules", str(cubic), "--max-arity", max_arity)
    assert (got, out.split("\n")[0]) == (code, first_line)


def test_confluence_counts_the_comb_6_overlaps_above_the_bound_in_time(tmp_path, capsys):
    # The arity-6 comb rule's four self-overlaps sit at arities 7-10; they
    # are built from the glued shapes, not found among every labeling.
    comb = tmp_path / "comb6.rules"
    comb.write_text("x(x(x(x(x(1 2) 3) 4) 5) 6) = x(1 x(2 x(3 x(4 x(5 6)))))\n")
    started = time.monotonic()
    code = main(["confluence", "--rules", str(comb), "--max-arity", "5"])
    elapsed = time.monotonic() - started
    assert (code, *capsys.readouterr()) == (
        2, "", "error: 4 overlap(s) lie above max_arity 5\n")
    assert elapsed < 2.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("max_arity", ["4", "7"])
def test_confluence_refuses_a_rule_that_does_not_decrease(tmp_path, capsys, max_arity):
    # The order is not monotone under substitution: one overlap of this
    # pair rewrites upwards.
    pair = tmp_path / "pair.rules"
    pair.write_text("x(y(1 3) 2) = x(1 y(2 3))\ny(x(1 2) 3) = y(1 x(2 3))\n")
    code = main(["confluence", "--rules", str(pair), "--max-arity", max_arity])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: rewrite does not decrease: x(y(x(1 2) 4) 3) -> x(x(1 2) y(3 4))\n")


@pytest.mark.parametrize(
    "command",
    [["confluence"], ["count-normal", "-n", "5"]],
    ids=["confluence", "count-normal"],
)
def test_non_binary_rule_is_input_error(tmp_path, capsys, command):
    # (rule file, where it is refused): ternary on both sides, refused at
    # the first third child; a unary node, refused at its ')'; and a binary
    # lhs with a ternary rhs after a valid rule.
    cases = [
        ("z(z(1 2 3) 4 5) = z(1 z(2 3 4) 5)\n", "line 1, left side", 8),
        ("# unary\n\ny(x(1) 2) = y(1 2)\n", "line 3, left side", 5),
        ("x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)\nx(x(1 2) 3) = x(1 2 3)\n",
         "line 2, right side", 7),
    ]
    for text, where, position in cases:
        rules = tmp_path / "wide.rules"
        rules.write_text(text)
        code = main([command[0], "--rules", str(rules), *command[1:]])
        assert (code, *capsys.readouterr()) == (2, "", (
            f"error: rule {where}: a generator takes two arguments (at position {position})\n"))


@pytest.mark.parametrize(
    "command",
    [["confluence"], ["count-normal", "-n", "4"]],
    ids=["confluence", "count-normal"],
)
def test_a_rule_whose_labels_are_not_one_to_k_is_input_error(tmp_path, capsys, command):
    # Such a rule never divides anything, its own lhs included.
    rules = tmp_path / "shifted.rules"
    rules.write_text("x(x(2 3) 4) = x(2 x(3 4))\n")
    code = main([command[0], "--rules", str(rules), *command[1:]])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: rule line 1: a rule's leaf labels must be 1..k, got [2, 3, 4]\n")


def test_deeply_nested_rule_is_input_error(tmp_path, capsys):
    left, right = "x(1 2)", "x(1200 1201)"
    for i in range(3, 1202):
        left = f"x({left} {i})"
    for i in range(1199, 0, -1):
        right = f"x({i} {right})"
    deep = tmp_path / "deep.rules"
    deep.write_text(f"{left} = {right}\n")
    code = main(["confluence", "--rules", str(deep)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: rule line 1, left side: nesting deeper than 200 levels (at position 400)\n"
    )


def test_rule_parse_error_names_line_and_side(tmp_path, capsys):
    rules = tmp_path / "bad.rules"
    rules.write_text("x(x(1 2) 3) = x(1 x(2 3))\n# a comment\nx(1 2) = 1/0 x(1 2)\n")
    code = main(["confluence", "--rules", str(rules)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: rule line 3, right side: zero denominator (at position 3)\n"


@pytest.mark.parametrize("zero", ["٠", "0" * 5000], ids=["arabic-indic", "5000-ascii"])
@pytest.mark.parametrize(
    "command", [["confluence"], ["count-normal", "-n", "4"]], ids=["confluence", "count-normal"]
)
def test_every_zero_denominator_is_input_error(tmp_path, capsys, zero, command):
    rules = tmp_path / "zero.rules"
    rules.write_text(f"x(x(1 2) 3) = 1/{zero} x(1 x(2 3))\n", encoding="utf-8")
    code = main([command[0], "--rules", str(rules), *command[1:]])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: rule line 1, right side: zero denominator (at position 3)\n")


@pytest.mark.parametrize(
    "command, out",
    [(["confluence"], "PASS: 0 overlap(s), all S-elements reduce to zero\n"),
     (["count-normal", "--alphabet", "x,y", "-n", "4"], "15\n")],
    ids=["confluence", "count-normal"],
)
def test_a_rule_may_equal_zero(tmp_path, capsys, command, out):
    for rhs in ("0", "y(1 2) - y(1 2)"):
        rules = tmp_path / "zero.rules"
        rules.write_text(f"x(1 2) = {rhs}\n")
        assert run(capsys, command[0], "--rules", str(rules), *command[1:]) == (0, out)
    rules.write_text("0 = 0\n")
    code = main([command[0], "--rules", str(rules), *command[1:]])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: rule line 1: equation is trivially zero\n")


def test_rule_with_mixed_leaf_labels_is_input_error(tmp_path, capsys):
    mixed = tmp_path / "mixed.rules"
    mixed.write_text("x(1 2) = x(1 3)\n")
    code = main(["confluence", "--rules", str(mixed)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: rule line 1: terms with different leaf labels: [[1, 2], [1, 3]]\n"
    )


def test_rule_with_an_overlong_coefficient_is_input_error(tmp_path, capsys):
    rules = tmp_path / "long.rules"
    rules.write_text(f"x(x(1 2) 3) = {'7' * 5000} * x(1 x(2 3))\n")
    code = main(["confluence", "--rules", str(rules)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: rule line 1, right side: number too long (5000 digits) (at position 1)\n"
    )


def test_confluence_json(capsys):
    code, payload = run_json(capsys, "confluence", "--rules", "lie")
    assert code == 0
    assert payload["passed"] is True
    assert payload["overlap_count"] == 1
    assert payload["failures"] == []


# --- count-normal ------------------------------------------------------


def test_count_normal_lie_adm(capsys):
    code, out = run(capsys, "count-normal", "--rules", "lie-adm", "-n", "5")
    assert code == 0
    assert out == "1299\n"


def test_count_normal_explicit_alphabet(capsys):
    code, out = run(
        capsys, "count-normal", "--rules", "lie", "-n", "5", "--alphabet", "x"
    )
    assert code == 0
    assert out == f"{math.factorial(4)}\n"


def test_count_normal_json(capsys):
    code, payload = run_json(capsys, "count-normal", "--rules", "lie-adm", "-n", "4")
    assert code == 0
    assert payload["count"] == 101
    assert payload["alphabet"] == ["x", "y"]


def test_count_normal_refuses_large_n(capsys):
    for n in ("0", "201"):
        code, out = run(capsys, "count-normal", "--rules", "lie", "-n", n)
        assert (code, out) == (2, "")


def test_count_normal_bound_reads_the_alphabet(tmp_path, capsys):
    # n^3 |S|^2 may not exceed 200^3 * 2^2: four generators stop at n=125.
    assert main(["count-normal", "--rules", "lie-adm", "-n", "126",
                 "--alphabet", "x,y,z,w"]) == 2
    assert capsys.readouterr() == ("", "error: -n must be <= 125 with 4 generators\n")
    # Two generators reach COUNT_MAX; x(1 2) bans the root x, so the normal
    # monomials are the y-only shuffle trees, (2n-3)!! of them.
    rules = tmp_path / "xy.rules"
    rules.write_text("x(1 2) = y(1 2)\n")
    code, out = run(capsys, "count-normal", "--rules", str(rules), "-n", "200")
    assert (code, out) == (0, f"{math.prod(range(1, 398, 2))}\n")


def test_count_normal_counts_quadratic_rules_past_enumeration(capsys):
    code, out = run(capsys, "count-normal", "--rules", "lie-adm", "-n", "8")
    assert (code, out) == (0, "10376729\n")  # = dims --left lie --right com
    code, out = run(capsys, "count-normal", "--rules", "lie", "-n", "30")
    assert (code, out) == (0, f"{math.factorial(29)}\n")


@pytest.mark.parametrize("n, code, out", [("7", 0, "7657\n"), ("8", 2, "")])
def test_count_normal_enumerates_larger_lhs_up_to_7(tmp_path, capsys, n, code, out):
    cubic = tmp_path / "cubic.rules"
    cubic.write_text(CUBIC)
    assert run(capsys, "count-normal", "--rules", str(cubic), "-n", n) == (code, out)


def test_count_normal_refuses_a_long_enumeration_before_building_a_tree(tmp_path, capsys):
    # 3^5 * 9!! = 229,635 shuffle trees to test against one rule, past the
    # 80,000 tests the enumeration fallback accepts; they took 1.8 s.
    cubic = tmp_path / "cubic.rules"
    cubic.write_text(CUBIC)
    started = time.monotonic()
    code = main(["count-normal", "--rules", str(cubic), "--alphabet", "x,y,z", "-n", "6"])
    assert time.monotonic() - started < 0.5
    assert (code, *capsys.readouterr()) == (2, "", (
        "error: counting rules with a left-hand side of three or more vertices tests every"
        " shuffle tree against every rule, at most 80000 tests; 229635 trees of arity 6"
        " times 1 rule(s) make 229635\n"))


@pytest.mark.parametrize("rules, code", [(2, 0), (3, 2), (16, 2)])
def test_count_normal_bounds_the_enumeration_by_trees_times_rules(tmp_path, capsys, rules, code):
    # 2 * 9!! = 30,240 shuffle trees over x,y at n=6, each tested against
    # every rule: two cubic rules make 60,480 tests, three 90,720, sixteen
    # 483,840 (3.6 s), refused before a tree is built.
    shapes = ("{}({}({}(1 2) 3) 4) = 0", "{}({}({}(1 3) 2) 4) = 0")
    lines = [shape.format(*g) for shape in shapes for g in itertools.product("xy", repeat=3)]
    path = tmp_path / "cubic.rules"
    path.write_text("\n".join(lines[:rules]) + "\n")
    started = time.monotonic()
    got = main(["count-normal", "--rules", str(path), "--alphabet", "x,y", "-n", "6"])
    captured = capsys.readouterr()
    assert got == code
    if code:
        assert time.monotonic() - started < 0.5
        assert captured.out == ""
        assert captured.err.endswith(f" times {rules} rule(s) make {30240 * rules}\n")


@pytest.mark.parametrize(
    "alphabet, err",
    [
        ("x,x(", "generator symbol 'x(' is not of the form [A-Za-z_]\\w*"),
        ("1", "generator symbol '1' is not of the form [A-Za-z_]\\w*"),
        (",", "generator symbol '' is not of the form [A-Za-z_]\\w*"),
        ("", "generator symbol '' is not of the form [A-Za-z_]\\w*"),
        (" ", "generator symbol '' is not of the form [A-Za-z_]\\w*"),
        ("x,", "generator symbol '' is not of the form [A-Za-z_]\\w*"),
        ("x,,y", "generator symbol '' is not of the form [A-Za-z_]\\w*"),
    ],
)
def test_count_normal_alphabet_is_written_in_the_rule_grammar(capsys, alphabet, err):
    # refused before its size sets the -n limit
    for n in ("3", "200"):
        code = main(["count-normal", "--rules", "lie", "-n", n, "--alphabet", alphabet])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {err}\n")


def test_count_normal_repeated_alphabet_is_input_error(capsys):
    code = main(["count-normal", "--rules", "lie", "-n", "4", "--alphabet", "x,x"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: generator 'x' appears twice in the alphabet\n"


# --- basis -------------------------------------------------------------


def test_basis_count(capsys):
    code, out = run(capsys, "basis", "--left", "lie", "--right", "com-as", "-n", "4")
    assert code == 0
    assert out == "67\n"


def test_basis_count_is_not_bound_by_listing(capsys):
    code, out = run(capsys, "basis", "--left", "lie", "--right", "com", "-n", "8")
    assert code == 0
    assert out == "10376729\n"
    code, out = run(capsys, "basis", "--left", "lie", "--right", "com", "-n", "8", "--list")
    assert (code, out) == (2, "")


def test_basis_list(capsys):
    code, out = run(
        capsys, "basis", "--left", "lie", "--right", "com-as", "-n", "3", "--list"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert "bullet[dec=0](circ[dec=0](1, 2), 3)" in lines


def test_basis_list_refuses_past_its_tree_bound(capsys):
    code = main(["basis", "--left", "as", "--right", "as", "-n", "7", "--list"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: --list prints at most 1000000 trees, this basis has 9102240\n"
    )


@pytest.mark.parametrize("n, message", [
    ("11", "--list prints at most 1000000 trees, of arity at most 10, got n=11"),
    ("200", "--list prints at most 1000000 trees, of arity at most 10, got n=200"),
    ("201", "-n must be <= 200"),
])
def test_basis_list_refuses_a_long_walk_from_n_alone(capsys, monkeypatch, n, message):
    # Refused before the operands are resolved, counted or walked.
    def no_work(*args):
        raise AssertionError("work done before the arity bound")

    monkeypatch.setattr(trees_mod, "_set_partitions", no_work)
    monkeypatch.setattr(dims_mod, "basis_count", no_work)
    assert main(["basis", "--left", "nosuch", "--right", "as", "-n", n, "--list"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_basis_root_filter(capsys):
    _, bullet = run(
        capsys,
        "basis", "--left", "lie", "--right", "com-as", "-n", "3", "--root", "bullet",
    )
    _, circ = run(
        capsys,
        "basis", "--left", "lie", "--right", "com-as", "-n", "3", "--root", "circ",
    )
    assert int(bullet) == 5
    assert int(circ) == 4


def test_basis_root_count_skips_other_operad_at_top_arity(tmp_path, capsys):
    # A bullet-rooted tree of arity 3 never uses the right operad in arity 3.
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("full = [1, 1]\nshort = [1]\n")
    left, right = f"{cfg}:full", f"{cfg}:short"
    code, out = run(
        capsys, "basis", "--left", left, "--right", right, "--root", "bullet", "-n", "3"
    )
    assert (code, out) == (0, "4\n")
    code, _ = run(capsys, "basis", "--left", left, "--right", right, "-n", "3")
    assert code == 2
    # The count reads every dimension the listing would: nothing is printed.
    for fmt in ("table", "json"):
        argv = ["basis", "--left", left, "--right", right, "-n", "3", "--list"]
        assert run(capsys, *argv, "--format", fmt) == (2, "")


def test_arity_one_counts(capsys):
    assert run(
        capsys, "basis", "--left", "lie", "--right", "com", "-n", "1", "--root", "circ"
    ) == (0, "1\n")
    code, payload = run_json(
        capsys,
        "quotient", "--left", "lie", "--right", "com-as",
        "--pattern", "bullet-composite-child", "-n", "1",
    )
    assert code == 0
    assert (payload["total"], payload["quotient"], payload["reduced"]) == (1, 1, 0)


def test_basis_json_round_trip(capsys):
    from freeop.trees import parse_tree

    code, payload = run_json(
        capsys, "basis", "--left", "as", "--right", "as", "-n", "3", "--list"
    )
    assert code == 0
    assert payload["count"] == 36
    assert len(payload["trees"]) == 36
    for text in payload["trees"]:
        parse_tree(text)


# --- sp ----------------------------------------------------------------


def test_sp_counts(capsys):
    code, out = run(capsys, "sp", "-n", "5")
    assert code == 0
    assert out == "24\n"


def test_sp_list(capsys):
    code, out = run(capsys, "sp", "-n", "3", "--list")
    assert code == 0
    assert sorted(out.splitlines()) == ["P(e S(e e))", "P(e e e)", "S(e P(e e))", "S(e e e)"]


def test_sp_refuses_past_its_bounds_before_counting(capsys):
    # macmahon(15) = 1399068 networks exceed LIST_MAX.
    assert main(["sp", "-n", "15", "--list"]) == 2
    assert capsys.readouterr() == (
        "", "error: --list prints at most 1000000 networks, n=15 has 1399068\n")


def test_sp_lists_every_network_under_the_bound(capsys):
    code, out = run(capsys, "sp", "-n", "13", "--list")
    assert (code, out.count("\n")) == (0, 137908)


def test_sp_json(capsys):
    code, payload = run_json(capsys, "sp", "-n", "6")
    assert code == 0
    assert payload["count"] == 66


# --- listings ----------------------------------------------------------


def _check_listing(capsys, argv, payload, items):
    """`argv` prints payload, `items` last, as json.dumps would, and one
    item per line as a table."""
    code, out = run(capsys, *argv, "--format", "json")
    assert (code, out) == (0, json.dumps(payload, sort_keys=True) + "\n")
    if VALIDATOR:
        VALIDATOR.validate(payload)
    assert run(capsys, *argv) == (0, "".join(item + "\n" for item in items))


def test_basis_listing_is_written_as_json_dumps(tmp_path, capsys):
    from freeop.trees import enumerate_basis, format_tree

    rng = random.Random(12)
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("".join(
        f"z{i} = [{', '.join(str(rng.choice((0, 0, 1, 2))) for _ in range(4))}]\n"
        for i in range(6)
    ))
    pairs = [("lie", "com-as"), ("as", "as")]
    pairs += [(f"{cfg}:z{i}", f"{cfg}:z{i + 1}") for i in range(0, 6, 2)]
    empty = 0
    for left, right in pairs:
        x, y = resolve_operad(left), resolve_operad(right)
        for n in range(1, 6):
            for root in ("bullet", "circ", "any"):
                trees = [format_tree(t) for t in enumerate_basis(x, y, n, root)]
                payload = {"command": "basis", "left": x.name, "right": y.name, "n": n,
                           "root": root, "count": len(trees), "trees": trees}
                argv = ["basis", "--left", left, "--right", right, "-n", str(n),
                        "--root", root, "--list"]
                _check_listing(capsys, argv, payload, trees)
                empty += not trees
    assert empty


def test_sp_listing_is_written_as_json_dumps(capsys):
    from freeop.spnet import enumerate_networks, format_network

    for n in range(1, 10):
        nets = [format_network(t) for t in enumerate_networks(n)]
        payload = {"command": "sp", "n": n, "count": len(nets), "networks": nets}
        _check_listing(capsys, ["sp", "-n", str(n), "--list"], payload, nets)


def test_basis_list_answers_past_n7_when_walk_and_count_fit(tmp_path, capsys):
    # d8 alone: two corollas, from a walk of 2 * Bell(8) set partitions.
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("s = [0, 0, 0, 0, 0, 0, 1]\n")
    x = resolve_operad(f"{cfg}:s")
    trees = [f"{color}[dec=0](1, 2, 3, 4, 5, 6, 7, 8)" for color in ("bullet", "circ")]
    payload = {"command": "basis", "left": x.name, "right": x.name, "n": 8,
               "root": "any", "count": 2, "trees": trees}
    argv = ["basis", "--left", f"{cfg}:s", "--right", f"{cfg}:s", "-n", "8", "--list"]
    _check_listing(capsys, argv, payload, trees)


def test_basis_list_answers_at_n10_with_two_digit_labels(tmp_path, capsys):
    # d4 and d10 alone: n=10 is the largest arity a listing takes, and
    # its 11552 trees pass the tree bound.
    from freeop.trees import leaf_labels, parse_tree

    cfg = tmp_path / "ops.cfg"
    cfg.write_text("s = [0, 0, 1, 0, 0, 0, 0, 0, 1]\n")
    spec = f"{cfg}:s"
    code, payload = run_json(capsys, "basis", "--left", spec, "--right", spec,
                             "-n", "10", "--list")
    x = resolve_operad(spec)
    assert code == 0
    assert payload["count"] == dims_mod.basis_count(x, x, 10) == 11552
    trees = payload["trees"]
    assert len(trees) == len(set(trees)) == 11552
    for text in trees:
        t = parse_tree(text)
        assert trees_mod.format_tree(t) == text
        assert sorted(leaf_labels(t)) == list(range(1, 11))
    assert "circ[dec=0](1, 2, 3, 4, 5, 6, 7, 8, 9, 10)" in trees


def test_listing_escapes_a_non_ascii_operand_name(tmp_path, capsys):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("é = [1, 1] builtin:lie\n", encoding="utf-8")
    x, y = resolve_operad(f"{cfg}:é"), resolve_operad("com-as")
    trees = [trees_mod.format_tree(t) for t in trees_mod.enumerate_basis(x, y, 3)]
    payload = {"command": "basis", "left": x.name, "right": y.name, "n": 3,
               "root": "any", "count": len(trees), "trees": trees}
    argv = ["basis", "--left", f"{cfg}:é", "--right", "com-as", "-n", "3", "--list"]
    _check_listing(capsys, argv, payload, trees)


# --- quotient ----------------------------------------------------------


def test_quotient_poisson_split(capsys):
    code, payload = run_json(
        capsys,
        "quotient", "--left", "lie", "--right", "com-as",
        "--pattern", "bullet-composite-child", "-n", "4",
    )
    assert code == 0
    assert payload["total"] == 67
    assert payload["quotient"] == 24
    assert payload["reduced"] == 43


def test_quotient_text_output(capsys):
    code, out = run(
        capsys,
        "quotient", "--left", "lie", "--right", "com-as",
        "--pattern", "bullet-composite-child", "-n", "4",
    )
    assert code == 0
    assert out == "24\n"


# --- errors and determinism --------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["nope"]) == 2
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1)
    assert err.startswith("error: argument command: invalid choice: 'nope' (choose from ")


def test_bad_operad_name(capsys):
    code, _ = run(capsys, "dims", "--left", "mystery", "--right", "as", "-n", "4")
    assert code == 2


def test_bad_rule_file(capsys):
    code, _ = run(capsys, "confluence", "--rules", "no-such-file")
    assert code == 2


def test_a_rule_file_on_disk_wins_over_the_bundled_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lie").write_text("x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)\n")
    assert run(capsys, "confluence", "--rules", "lie")[0] == 1
    assert run(capsys, "confluence", "--rules", "lie.rules")[0] == 0
    code = main(["confluence", "--rules", "lie-typo"])
    assert (code, *capsys.readouterr()) == (2, "", "error: rule file not found: lie-typo\n")


def test_bad_n_max(capsys):
    code, _ = run(capsys, "dims", "--left", "as", "--right", "as", "-n", "0")
    assert code == 2


def test_no_refusal_after_output_has_started(tmp_path, capsys):
    # Operands whose sequences stop at arity 3 to 5, with no builtin tail:
    # a request past them must fail before it prints anything.
    cfg = tmp_path / "short.cfg"
    cfg.write_text("s3 = [1, 2]\nz4 = [0, 1, 3]\ns5 = [1, 0, 2, 1]\n")
    operands = [f"{cfg}:{name}" for name in ("s3", "z4", "s5")]
    requests = [["sp", "-n", n, "--list"] for n in ("8", "15")]
    for left, right in itertools.product(operands, repeat=2):
        for n in map(str, range(2, 8)):
            pair = ["--left", left, "--right", right, "-n", n]
            requests += [["dims", *pair], ["basis", *pair], ["basis", *pair, "--list"],
                         ["quotient", *pair, "--pattern", "bullet-composite-child"]]
    outcomes = set()
    for argv in requests:
        for fmt in ("table", "json"):
            code, out = run(capsys, *argv, "--format", fmt)
            assert code == 0 or (code, out) == (2, ""), argv
            outcomes.add(code)
    assert outcomes == {0, 2}


def test_an_answer_too_long_to_print_is_refused_before_output(tmp_path, capsys):
    # The quotient's total at n=20 has more digits than Python writes as a
    # string (4300), so json.dumps fails inside emit: still one line on
    # stderr, exit 2, and nothing on stdout.
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"big = [{'9' * 600}] builtin:as\n")
    code = main(["quotient", "--left", f"{cfg}:big", "--right", "as",
                 "--pattern", "circ-composite-child", "-n", "20", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ")


# Each command with an -n: its arguments but -n, and its last line at n=8.
BOUNDED = {
    "dims": (["--left", "as", "--right", "as"], "8\t172529280\t172529280\t345058560"),
    "basis": (["--left", "as", "--right", "as"], "345058560"),
    "quotient": (["--left", "lie", "--right", "com-as", "--pattern", "bullet-composite-child"],
                 str(math.factorial(8))),
    "count-normal": (["--rules", "lie-adm"], "10376729"),
    "sp": ([], "522"),
}


@pytest.mark.parametrize("command", sorted(cli.N_BOUNDS))
def test_each_bound_refuses_before_any_input_is_read(capsys, monkeypatch, command):
    limit = cli.N_BOUNDS[command]
    args, answer = BOUNDED[command]
    code, out = run(capsys, command, *args, "-n", "8")
    assert (code, out.splitlines()[-1]) == (0, answer)
    refusal = (2, "", f"error: -n must be <= {limit}\n")
    for fmt in ("table", "json"):
        argv = [command, *args, "-n", str(limit + 1), "--format", fmt]
        assert (main(argv), *capsys.readouterr()) == refusal, argv

    def no_input(*_):
        raise AssertionError("an operand or rule file was read past the -n bound")

    monkeypatch.setattr(cli, "resolve_operad", no_input)
    monkeypatch.setattr(cli, "load_rules", no_input)
    # argparse checks --pattern at parse, as it checks --root and --format
    nosuch = [a if a.startswith("--") or a in trees_mod.PATTERNS_BY_NAME else "nosuch"
              for a in args]
    assert (main([command, *nosuch, "-n", str(limit + 1)]), *capsys.readouterr()) == refusal


@pytest.mark.parametrize("argv", [
    ["dims", "-n", "201"],
    ["dims", "--symbolic", "-n", "201"],
    ["count-normal", "--rules", "lie-adm", "-n", "201", "--alphabet", "x,y,z,w"],
])
def test_the_n_bound_comes_before_each_command_s_own_checks(capsys, argv):
    assert (main(argv), *capsys.readouterr()) == (2, "", "error: -n must be <= 200\n")


def test_every_command_with_an_n_has_a_bound():
    # main checks -n against cli.N_BOUNDS: a command missing from it would
    # take any n.
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    with_n = {name for name, p in sub.choices.items()
              if any("-n" in a.option_strings for a in p._actions)}
    assert with_n == set(cli.N_BOUNDS)
    assert set(sub.choices) - with_n == {"confluence"}


def test_bad_pattern_name(capsys):
    code, _ = run(
        capsys,
        "quotient", "--left", "as", "--right", "as", "--pattern", "nope", "-n", "3",
    )
    assert code == 2


def test_output_is_deterministic(capsys):
    args = ["basis", "--left", "lie", "--right", "com", "-n", "4", "--list",
            "--format", "json"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_resolve_operad_builtin_prefix():
    assert resolve_operad("builtin:lie").dim(4) == 6
    assert resolve_operad("lie").dim(4) == 6


def test_load_bundled_rules():
    assert len(load_rules("lie")) == 1
    assert len(load_rules("lie-adm.rules")) == 1


def test_unreadable_input_file_is_input_error(tmp_path, capsys):
    code = main(["dims", "--left", f"{tmp_path}:foo", "--right", "com", "-n", "3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read operad config file {tmp_path}: ")
    assert err.count("\n") == 1
    code = main(["confluence", "--rules", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read rule file {tmp_path}: ")
    assert err.count("\n") == 1


def test_rule_on_a_bare_leaf_is_input_error(tmp_path, capsys):
    rules = tmp_path / "leaf.rules"
    rules.write_text("2*1 = 3*1\n")
    assert main(["confluence", "--rules", str(rules)]) == 2
    assert capsys.readouterr() == (
        "", "error: rule line 1: every term must apply a generator, not be a bare leaf\n"
    )


# --- repeated calls in one process -----------------------------------------


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _count_config_parses(monkeypatch):
    calls = []
    parse = dims_mod.parse_operad_config

    def counted(text, *names):
        calls.append(text)
        return parse(text, *names)

    monkeypatch.setattr(dims_mod, "parse_operad_config", counted)
    return calls


@pytest.mark.parametrize(
    "command",
    [
        ["dims", "-n", "4"],
        ["basis", "-n", "4"],
        ["quotient", "-n", "4", "--pattern", "bullet-composite-child"],
    ],
)
def test_operands_from_one_config_file_parse_it_once(tmp_path, capsys, monkeypatch, command):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("a = builtin:lie\nb = [1, 1, 1] builtin:com-as\n")
    calls = _count_config_parses(monkeypatch)
    code = main([*command, "--left", f"{cfg}:a", "--right", f"{cfg}:b"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert len(calls) == 1
    other = tmp_path / "other.cfg"
    other.write_text("c = builtin:com\n")
    assert main([*command, "--left", f"{cfg}:a", "--right", f"{other}:c"]) == 0
    assert len(calls) == 3  # one parse per file and request
    capsys.readouterr()


_CHOICES = "['anti-com', 'as', 'com', 'com-as', 'lie', 'nov']"


@pytest.mark.parametrize("named", [True, False], ids=["named", "unnamed"])
@pytest.mark.parametrize("entry, refusal", [
    ("x = [1] builtin:nope", f"unknown operad 'nope'; choose from {_CHOICES}"),
    ("x = [1, -1]", "x: dimensions must be nonnegative"),
], ids=["unknown-builtin", "negative"])
def test_config_refusals_name_their_line(tmp_path, capsys, entry, refusal, named):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text(f"a = builtin:lie\n{entry}\n")
    left = f"{cfg}:x" if named else f"{cfg}:a"
    assert main(["dims", "--left", left, "--right", "lie", "-n", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: config line 2: {refusal}\n")


def test_config_number_too_long_has_its_own_message(tmp_path, capsys):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("a = builtin:lie\nbig = [2, " + "9" * 5000 + "]\n")
    assert main(["dims", "--left", f"{cfg}:a", "--right", f"{cfg}:big", "-n", "4"]) == 2
    assert capsys.readouterr() == ("", "error: config line 2: number too long (5000 digits)\n")
    cfg.write_text("z = [1, two]\n")
    assert main(["dims", "--left", f"{cfg}:z", "--right", "lie", "-n", "4"]) == 2
    assert capsys.readouterr() == (
        "", "error: config line 1: sequence entries must be integers\n")


def test_config_error_is_reported_as_before(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("a = builtin:lie\nnot an entry\n")
    calls = _count_config_parses(monkeypatch)
    assert main(["dims", "--left", f"{cfg}:a", "--right", f"{cfg}:a", "-n", "4"]) == 2
    assert capsys.readouterr() == ("", "error: config line 2: cannot parse 'not an entry'\n")
    assert len(calls) == 1
    cfg.write_text("a = builtin:lie\n")
    assert main(["basis", "--left", f"{cfg}:a", "--right", f"{cfg}:z", "-n", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: operad 'z' not defined in {cfg}\n")


def test_a_leading_byte_order_mark_is_not_text(tmp_path, capsys):
    # Some editors start a UTF-8 file with U+FEFF: a config or rule file
    # answers as it does without it, and a mark at the start of a later
    # line is refused as any other stray character.
    cfg, rules = tmp_path / "ops.cfg", tmp_path / "jacobi.rules"
    jacobi = "x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)\n"
    for path, text, argv, later in [
        (cfg, "a = [1, 2]\n", ["dims", "--left", f"{cfg}:a", "--right", "as", "-n", "3"],
         "error: config line 2: cannot parse '\\ufeffa = [1, 2]'\n"),
        (rules, jacobi, ["confluence", "--rules", str(rules)],
         "error: rule line 2, left side: expected a leaf number or generator symbol"
         " (at position 0)\n"),
    ]:
        path.write_text(text, encoding="utf-8")
        plain = (main(argv), *capsys.readouterr())
        assert plain[0] == 0
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert (main(argv), *capsys.readouterr()) == plain
        path.write_text(text + "\ufeff" + text, encoding="utf-8")
        assert (main(argv), *capsys.readouterr()) == (2, "", later)


def _requests(tmp_path):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text("nilp = [1, 0, 0]\n")
    bad = tmp_path / "bad.rules"
    bad.write_text("x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)\n")
    return [
        ["dims", "--left", "lie", "--right", "com", "-n", "6"],
        ["dims", "-n", "3", "--symbolic", "--format", "json"],
        ["dims", "--left", f"{cfg}:nilp", "--right", "as", "-n", "4"],
        ["confluence", "--rules", "lie-adm", "--max-arity", "5"],
        ["confluence", "--rules", str(bad), "--format", "json"],
        ["count-normal", "--rules", "lie-adm", "-n", "5"],
        ["basis", "--left", "lie", "--right", "com", "-n", "3", "--list"],
        ["sp", "-n", "5", "--list", "--format", "json"],
        ["quotient", "--left", "lie", "--right", "com-as", "--pattern",
         "bullet-composite-child", "-n", "5"],
        ["dims", "--left", "lie", "--right", "com"],  # argparse: missing -n
        ["nope"],  # argparse: unknown subcommand
        ["sp", "-n", "4", "--format", "xml"],  # argparse: bad choice
        ["quotient", "--left", "as", "--right", "as", "--pattern", "nope", "-n", "3"],
        ["dims", "--left", f"{cfg}:missing", "--right", "as", "-n", "4"],
        ["dims", "--left", "lie", "--right", "com", "-n", "6"],
    ]


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _cli_process(argv):
    """The arguments of a subprocess call that runs freeop alone on argv."""
    src = str(Path(freeop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return [sys.executable, "-m", "freeop.cli", *argv], {**os.environ, "PYTHONPATH": path}


def _alone(argv):
    args, env = _cli_process(argv)
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    return (proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_reader_closing_the_pipe_ends_a_listing_with_exit_2(fmt):
    # sp -n 12 writes 2.2 MB, more than a pipe holds: the reader takes the
    # first line (table) or 100 bytes of the one JSON line and closes, and
    # the listing stops there, with no traceback and no status 1.
    args, env = _cli_process(["sp", "-n", "12", "--list", "--format", fmt])
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline() if fmt == "table" else proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        code = proc.wait(timeout=60)
    expected = b"S(e P(e S(e " if fmt == "table" else b'{"command": "sp", "count": 43930'
    assert first.startswith(expected)
    assert (code, err) == (2, b"")


def test_repeated_calls_answer_as_each_request_alone(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    requests = _requests(tmp_path)
    answers = [_in_process(capsys, argv) for argv in requests]
    assert {a[0] for a in answers} == {0, 1, 2}
    for argv, answer in zip(requests, answers):
        assert answer == _alone(argv), argv


# Modules that no request loads: a table-format command imports none of
# them, and a JSON one only json.
NOT_ON_THE_IMPORT_PATH = ("dataclasses", "inspect", "typing", "json", "importlib.resources")


def test_a_table_command_imports_no_unused_module():
    # -S: the site module, and .pth files it runs, may load typing themselves.
    src = str(Path(freeop.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import freeop.cli as cli\n"
        "[cli.load_rules(r) for r in ('lie', 'lie-adm')]\n"
        "cli.main(['dims', '--left', 'lie', '--right', 'com', '-n', '7'])\n"
        f"print([m for m in {NOT_ON_THE_IMPORT_PATH!r} if m in sys.modules], file=sys.stderr)\n"
        "cli.main(['dims', '--left', 'lie', '--right', 'com', '-n', '7', '--format', 'json'])\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    *table, payload = proc.stdout.splitlines()
    assert table[-1] == "7\t190483\t243831\t434314"
    payload = json.loads(payload)
    if VALIDATOR:
        VALIDATOR.validate(payload)
    assert payload["rows"][-1]["total"] == 434314


# --- the README's examples ----------------------------------------------


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, comment) per line of the README's block of freeop commands."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    (block,) = [b for b in blocks if b.startswith("freeop ")]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


def test_readme_examples_print_what_their_comments_state(capsys):
    # A comment that is a number or starts "WORD: " states the output;
    # "..." ends a stated prefix.  Any other comment describes the command.
    stated = 0
    for argv, comment in _readme_examples():
        code, out = run(capsys, *argv)
        assert code == 0 and out, argv
        if re.fullmatch(r"\d+|[A-Z]+: .*", comment):
            stated += 1
            if comment.endswith("..."):
                assert out.startswith(comment[:-3]), argv
            else:
                assert out == comment + "\n", argv
    assert stated >= 4


def test_readme_quotes_each_bound_at_its_value():
    # The paragraph on bounds states each bound in a phrase of its own.
    from freeop import cli, shuffle

    text = README.read_text()
    start = text.index("Bounds on `-n` follow each command's cost.")
    paragraph = " ".join(text[start:text.index("\n\n", start)].split())
    phrases = [
        f"The O(n^3) counts go up to {cli.COUNT_MAX}:",
        f"`sp -n` goes up to {cli.SP_MAX}:",
        f"`dims --symbolic` goes up to {dims_mod.SYMBOLIC_MAX}.",
        f"at most {shuffle._ENUMERATION_MAX:,} tests",
        f"share one bound, {cli.LIST_MAX:,} trees or networks",
        f"`basis --list` also takes n <= {trees_mod.LIST_ARITY_MAX},",
        f"input nested more than {shuffle.MAX_NESTING} levels deep",
    ]
    assert [p for p in phrases if p not in paragraph] == []


# --- main's argv dispatch --------------------------------------------------


class _Parsed(Exception):
    """Raised by a stand-in handler to hand the test the Namespace main parsed."""


_DISPATCH_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "dims"],
    ["dims", "-h"],
    ["dims", "--help"],
    ["nope"],
    ["nope", "-n", "3"],
    ["dims"],
    ["dims", "--bogus", "--left", "as", "--right", "as", "-n", "3"],
    ["dims", "--left", "as", "--right", "as", "-n", "3", "extra", "--bogus"],
    ["dims", "--left", "as"],
    ["dims", "-n", "three"],
    ["dims", "-n", "3", "--", "--left"],
    ["--", "dims", "--left", "as", "--right", "as", "-n", "3"],
    ["dims", "--le", "as", "--ri", "com", "-n", "3"],
    ["dims", "--le", "as", "--ri", "com", "--n-m", "3", "--form", "json"],
    ["dims", "--left=as", "--right=com", "-n3", "--sym"],
    ["dims", "--left", "as", "--right", "com", "-n", "3", "--format", "yaml"],
    ["basis", "--left", "as", "--right", "com", "-n", "3", "--root", "circ", "--li"],
    ["basis", "--left", "as", "--right", "com", "-n", "3", "--r", "circ"],
    ["confluence", "--rules", "lie", "--max-arity"],
    ["count-normal", "--rules", "lie", "-n", "-3"],
    ["sp", "-n", "4", "--list", "--list"],
    ["quotient", "--left", "as", "--right", "as", "--pattern", "p"],
]


def test_main_parses_each_argv_as_the_whole_parser_does(capsys, monkeypatch):
    # main hands an argv that starts with a command to that command's
    # parser alone: the Namespace, the help -h prints and its exit code, or
    # the refusal's one error line with exit code 2, must be those of
    # build_parser().parse_args.
    def stand_in(args):
        raise _Parsed(args)

    for command in cli._parsers()[1]:
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), stand_in)
    argvs = [argv for argv, _ in _readme_examples()] + _DISPATCH_ARGVS
    for argv in argvs:
        try:
            expected = build_parser().parse_args(argv)
        except SystemExit as exc:
            expected = exc.code
        except cli.CliError as exc:
            expected = 2
            print(f"error: {exc}", file=sys.stderr)
        expected_output = capsys.readouterr()
        try:
            got = main(list(argv))
        except _Parsed as parsed:
            (got,) = parsed.args
        except SystemExit as exc:
            got = exc.code
        assert (got, capsys.readouterr()) == (expected, expected_output), argv


# --- the exit-code contract ------------------------------------------------

# One valid request per command, as (flag, value) pairs, None for a switch.
# Each stays cheap under any mutation: n <= 5 where it lists or may read a
# written operand, and every other -n a mutation sets is at most 2 or past
# the bound.
_VALID_REQUESTS = {
    "dims": [("--left", "lie"), ("--right", "com"), ("-n", "5")],
    "confluence": [("--rules", "lie-adm"), ("--max-arity", "5")],
    "count-normal": [("--rules", "lie-adm"), ("-n", "5"), ("--alphabet", "x,y")],
    "basis": [("--left", "as"), ("--right", "com"), ("-n", "4"), ("--root", "circ"),
              ("--list", None)],
    "sp": [("-n", "5"), ("--list", None), ("--format", "json")],
    "quotient": [("--left", "lie"), ("--right", "com-as"),
                 ("--pattern", "bullet-composite-child"), ("-n", "5"), ("--format", "json")],
}
# A value in braces names the file a request writes before it runs.
_WRITTEN = {"--left": "{cfg}:a", "--right": "{cfg}:a", "--rules": "{rules}"}
_CONFIG_TEXT = "a = [1, 2, 5, 14] builtin:as  # a head and a tail\nb = builtin:lie\n"
_RULES_TEXT = (Path(cli.__file__).parent / "rules" / "lie-adm.rules").read_text()
_TEXT_CHARS = st.one_of(st.sampled_from("()[]=,:+-*/#xy 1239\n\t\ufeff"),
                        st.characters(codec="utf-8"))


@st.composite
def _mutated_text(draw, text):
    """text with characters inserted, deleted or replaced, a digit run near
    640 or 4300 digits put in, or a byte-order mark put in front."""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "digits", "mark"]))
        i = draw(st.integers(0, len(text)))
        if kind == "mark":
            text = "\ufeff" + text
        elif kind == "digits":
            run = draw(st.sampled_from([639, 640, 641, 4299, 4300, 4301]))
            text = text[:i] + "9" * run + text[i:]
        else:
            new = "" if kind == "delete" else draw(_TEXT_CHARS)
            text = text[:i] + new + text[i + (kind != "insert"):]
    return text


@st.composite
def _mutated_request(draw):
    """(argv, config text, rule text): a valid request, its operands or rules
    perhaps read from the written files, with up to three flags or values
    dropped, repeated, added or changed."""
    command = draw(st.sampled_from(sorted(_VALID_REQUESTS)))
    pairs = list(_VALID_REQUESTS[command])
    if draw(st.booleans()):
        pairs = [(flag, _WRITTEN.get(flag, value)) for flag, value in pairs]
    kinds = st.sampled_from(["drop", "repeat", "unknown", "value", "value", "command"])
    for kind in draw(st.lists(kinds, max_size=3)):
        if kind == "unknown":
            flag = ("--bogus", draw(st.sampled_from([None, "3"])))
            pairs.insert(draw(st.integers(0, len(pairs))), flag)
        elif kind == "command":
            command = draw(st.sampled_from(["nope", "dim", "--format"]))
        elif pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            flag, value = pairs[i]
            if kind == "drop":
                del pairs[i]
            elif kind == "repeat":
                pairs.append(pairs[i])
            elif flag in ("-n", "--max-arity"):
                bound = cli.N_BOUNDS.get(command, 0)  # --max-arity has none
                pairs[i] = flag, draw(st.sampled_from(
                    ["0", "1", "2", str(bound + 1), str(10**30), "-3", "x", ""]))
            elif flag in _WRITTEN:
                pairs[i] = flag, draw(st.sampled_from(
                    ["nosuch", ":", "builtin:", "a:b:c", _WRITTEN[flag]]))
            elif value is not None:
                pairs[i] = flag, draw(st.sampled_from(["nope", "", "JSON", "bullet"]))
    argv = [command] + [a for pair in pairs for a in pair if a is not None]
    return argv, draw(_mutated_text(_CONFIG_TEXT)), draw(_mutated_text(_RULES_TEXT))


@given(_mutated_request())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_every_request_exits_0_1_or_2_as_the_contract_says(tmp_path_factory, request):
    # The north star: a malformed request exits 2 with one error line and
    # nothing on stdout, never a traceback; 1 is a confluence FAIL only.
    argv, config_text, rules_text = request
    directory = tmp_path_factory.getbasetemp()
    files = {"cfg": directory / "ops.cfg", "rules": directory / "mutated.rules"}
    files["cfg"].write_text(config_text, encoding="utf-8")
    files["rules"].write_text(rules_text, encoding="utf-8")
    argv = [a.format(**files) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert (out, err.count("\n"), err[:7], err[-1:]) == ("", 1, "error: ", "\n"), argv
    else:
        assert err == "", argv
        assert code == 0 or (code == 1 and argv[0] == "confluence" and (
            out.startswith("FAIL") or json.loads(out)["passed"] is False)), argv

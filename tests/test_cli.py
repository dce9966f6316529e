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

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import freeop
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
    # (rule file, the line refused): ternary on both sides, a unary node,
    # and a binary lhs with a ternary rhs after a valid rule.
    cases = [
        ("z(z(1 2 3) 4 5) = z(1 z(2 3 4) 5)\n", 1),
        ("# unary\n\ny(x(1) 2) = y(1 2)\n", 3),
        ("x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)\nx(x(1 2) 3) = x(1 2 3)\n", 2),
    ]
    for text, lineno in cases:
        rules = tmp_path / "wide.rules"
        rules.write_text(text)
        code = main([command[0], "--rules", str(rules), *command[1:]])
        assert (code, *capsys.readouterr()) == (
            2, "", f"error: rule line {lineno}: every generator must take two arguments\n")


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


@pytest.mark.parametrize(
    "alphabet, err",
    [
        ("x,x(", "generator symbol 'x(' is not of the form [A-Za-z_]\\w*"),
        ("1", "generator symbol '1' is not of the form [A-Za-z_]\\w*"),
        (",", "the alphabet needs at least one generator"),
    ],
)
def test_count_normal_alphabet_is_written_in_the_rule_grammar(capsys, alphabet, err):
    code = main(["count-normal", "--rules", "lie", "-n", "3", "--alphabet", alphabet])
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
    ("11", "--list prints at most 1000000 trees and walks as many set partitions, n=11 walks more"),
    ("200", "--list prints at most 1000000 trees and walks as many set partitions, n=200 walks more"),
    ("201", "-n must be <= 200"),
])
def test_basis_list_refuses_a_long_walk_from_n_alone(capsys, monkeypatch, n, message):
    # Refused before the operands are resolved, counted or walked.
    def no_work(*args):
        raise AssertionError("work done before the walk bound")

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
    assert main(["sp", "-n", "2001"]) == 2
    assert capsys.readouterr() == ("", "error: -n must be <= 2000\n")
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
    # d4 and d10 alone: the walk, W(10) = 284832 set partitions, passes
    # the bound, and the 11552 trees decide.
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
    from freeop.trees import basis_lines

    cfg = tmp_path / "ops.cfg"
    cfg.write_text("é = [1, 1] builtin:lie\n", encoding="utf-8")
    x, y = resolve_operad(f"{cfg}:é"), resolve_operad("com-as")
    trees = basis_lines(x, y, 3)
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
    with pytest.raises(SystemExit) as info:
        main(["nope"])
    assert info.value.code == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("command", ["dims", "basis"])
def test_counts_share_one_bound(capsys, command):
    assert main([command, "--left", "as", "--right", "as", "-n", "201"]) == 2
    assert capsys.readouterr() == ("", "error: -n must be <= 200\n")


def test_quotient_shares_the_count_bound(capsys):
    args = ["quotient", "--left", "lie", "--right", "com-as",
            "--pattern", "bullet-composite-child", "-n"]
    assert run(capsys, *args, "8") == (0, f"{math.factorial(8)}\n")
    assert main(args + ["201"]) == 2
    assert capsys.readouterr() == ("", "error: -n must be <= 200\n")


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


def _alone(argv):
    src = str(Path(freeop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "freeop.cli", *argv], capture_output=True, text=True, env=env
    )
    return (proc.returncode, proc.stdout, proc.stderr)


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

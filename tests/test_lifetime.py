"""A call frees what it builds when it returns.

The recursive builders pass their memos as arguments, so nothing a call
makes refers to itself: reference counting frees it all on return, with
no wait for the cycle collector.  A function nested in another that calls
itself, directly or through a sibling, would be such a cycle.
"""
import ast
import gc
import random
from pathlib import Path

import pytest

from freeop import shuffle, spnet, trees
from freeop.cli import load_rules, main
from freeop.dims import (
    avoiding_count, builtin_operad, explicit_operad, free_product_dims, symbolic_dims)
from test_cli import _readme_examples

SRC = Path(__file__).resolve().parents[1] / "src" / "freeop"
LIE, COM, AS = (builtin_operad(name) for name in ("lie", "com", "as"))
SPARSE = explicit_operad("s", [0, 0, 1, 0, 0, 0, 0, 0, 1])  # d3 and d10 only
HEADED = explicit_operad("h", [4, 0], COM)  # split into head and com family from n = 12
LIE_ADM = load_rules("lie-adm")
ELEMENT = shuffle.parse_element("x(x(1 2) x(3 4)) - y(x(1 3) y(2 4))")
CUBIC = shuffle.parse_rules("x(x(x(1 2) 3) 4) = x(1 x(2 x(3 4)))")
XY = [("x", 2), ("y", 2)]
TREE = trees.parse_tree("bullet[dec=0](circ[dec=0](1, 2), 3)")
CALLS = {
    "free_product_dims": lambda: free_product_dims(HEADED, AS, 40),
    "avoiding_count": lambda: avoiding_count(HEADED, AS, 40, "circ"),
    "symbolic_dims": lambda: symbolic_dims(8),
    "normal_form": lambda: shuffle.normal_form(ELEMENT, LIE_ADM),
    "normal_form rng": lambda: shuffle.normal_form(ELEMENT, LIE_ADM, rng=random.Random(5)),
    "check_confluence": lambda: shuffle.check_confluence(LIE_ADM, 5),
    "parse_rules": lambda: shuffle.parse_rules("x(x(1 2) 3) = x(1 x(2 3)) + y(x(1 3) 2)"),
    "ShuffleElement": lambda: shuffle.ShuffleElement({("x", ("y", 1, 3), 2): 1}),
    "count_normal_monomials dp": lambda: shuffle.count_normal_monomials(XY, LIE_ADM, 6),
    "count_normal_monomials enumeration": lambda: shuffle.count_normal_monomials(XY, CUBIC, 5),
    "basis_pieces": lambda: list(trees.basis_pieces(SPARSE, SPARSE, 10)),
    "basis_pieces dropped": lambda: next(trees.basis_pieces(SPARSE, SPARSE, 10)),
    "enumerate_basis": lambda: list(trees.enumerate_basis(LIE, COM, 5)),
    "enumerate_unlabeled": lambda: list(trees.enumerate_unlabeled(LIE, AS, 6)),
    "graft": lambda: trees.graft(TREE, [TREE, 1, TREE]),
    "count_avoiding_recursive": lambda: trees.count_avoiding_recursive(
        LIE, COM, 7, [trees.BULLET]),
    "network_lines": lambda: "\n".join(spnet.network_pieces(10)),
    "network_pieces": lambda: list(spnet.network_pieces(10, '", "')),
    "network_pieces dropped": lambda: next(spnet.network_pieces(10)),
    "enumerate_networks": lambda: list(spnet.enumerate_networks(8)),
}


def _cyclic_garbage(call) -> int:
    """The objects that only the cycle collector frees after call(), warmed
    up once so that lazily built module state is not counted."""
    call()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cyclic_garbage(name):
    assert _cyclic_garbage(CALLS[name]) == 0


@pytest.mark.parametrize("argv", [argv for argv, _ in _readme_examples()], ids=" ".join)
def test_readme_command_leaves_no_cyclic_garbage(capsys, argv):
    assert _cyclic_garbage(lambda: main(argv)) == 0
    capsys.readouterr()


def _self_calling_closures(tree: ast.Module) -> list[str]:
    """outer.inner for each function defined inside another that refers to
    its own name, directly or through functions defined beside it."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, defs):
            continue
        refs = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                for node in ast.walk(outer) if node is not outer and isinstance(node, defs)}
        for name in refs:
            reached, todo = set(), [name]
            while todo:
                for ref in refs[todo.pop()] & refs.keys() - reached:
                    reached.add(ref)
                    todo.append(ref)
            if name in reached:
                found.append(f"{outer.name}.{name}")
    return found


def test_no_function_nested_in_another_calls_itself():
    found = {path.name: _self_calling_closures(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert found and {k: v for k, v in found.items() if v} == {}


def test_self_calling_closures_are_found():
    source = """
def f():
    def walk(n):
        return walk(n - 1)
    def even(n):
        return odd(n)
    def odd(n):
        return even(n)
    def leaf(n):
        return helper(n)
    return walk, even, leaf
"""
    assert _self_calling_closures(ast.parse(source)) == ["f.walk", "f.even", "f.odd"]

"""Count the code lines of Python modules: lines that are neither blank,
comment nor docstring.

Usage: python3 tools/code_lines.py [PATH ...]    (default: src/freeop)

A PATH is a module or a directory, searched for *.py.  Prints one line per
module, its count and its path, then the total.  A line counts if any token
other than a comment, a line break or indentation starts or runs on it,
a docstring's (module, class or function) excepted.  Only the standard
library's tokenize and ast are used.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """Where each docstring of tree starts, as tokenize reports (row, col)."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    source = path.read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    """Each path that is a file, and the *.py files under each directory."""
    found = []
    for p in map(Path, paths):
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src/freeop"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

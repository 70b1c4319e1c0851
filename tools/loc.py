#!/usr/bin/env python3
"""Count the code lines of each src/padlander module and their total, then of each tests/ file and theirs.

    python3 tools/loc.py

A code line is a line that is not blank, not only a comment and not part of
a module, class or function docstring. Docstrings are found with ast.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padlander"
TESTS = ROOT / "tests"


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def main() -> None:
    for tree, label in ((SRC, "total"), (TESTS, "tests total")):
        total = 0
        for path in sorted(tree.glob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path.name}")
        print(f"{total:6d}  {label}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Count the code lines of each src/padlander module and their total, then of each tests/ and tools/ file and theirs.

    python3 tools/loc.py          # counts in the working tree
    python3 tools/loc.py REV      # counts at git revision REV, in the working tree, and the difference

A code line is a line that is not blank, not only a comment and not part of
a module, class or function docstring. Docstrings are found with ast. With
REV, files are read at REV with `git show`, and a file that exists on one
side only counts 0 on the other.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padlander"
TESTS = ROOT / "tests"
TOOLS = ROOT / "tools"


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


def code_lines(text: str) -> int:
    skip = docstring_lines(ast.parse(text))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"loc.py: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def counts_at(rev: str, tree: Path) -> dict:
    """{file name: code lines} for the *.py files directly in tree, at git revision rev."""
    paths = git("ls-tree", "--name-only", rev, tree.relative_to(ROOT).as_posix() + "/").splitlines()
    return {Path(p).name: code_lines(git("show", f"{rev}:{p}")) for p in paths if p.endswith(".py")}


def row(counts: tuple, name: str) -> str:
    """One output line: the count, or the count at REV, in the working tree and their difference."""
    cells = "".join(f"{n:6d}" for n in counts)
    if len(counts) == 2:
        cells += f"{counts[1] - counts[0]:+7d}"
    return f"{cells}  {name}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    rev = parser.parse_args().rev
    for tree, label in ((SRC, "total"), (TESTS, "tests total"), (TOOLS, "tools total")):
        now = {path.name: code_lines(path.read_text()) for path in tree.glob("*.py")}
        then = counts_at(rev, tree) if rev else {}
        rows = {name: (then.get(name, 0), now.get(name, 0)) if rev else (now[name],)
                for name in sorted(then.keys() | now.keys())}
        for name, counts in rows.items():
            print(row(counts, name))
        print(row(tuple(map(sum, zip(*rows.values()))), label))


if __name__ == "__main__":
    main()

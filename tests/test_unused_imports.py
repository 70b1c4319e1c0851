"""Every name a module imports is used in that module.

The scan covers src/padlander, tools/, demos/ and tests/. The package's
`__init__.py` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "padlander" / "__init__.py"
MODULES = sorted(p for d in ("src/padlander", "tools", "demos", "tests") for p in (ROOT / d).glob("*.py")
                 if p != PACKAGE_INIT)


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import List, Optional\nx: Optional[int] = np.pi\n"
    assert unused_imports(source) == ["line 1: os", "line 3: List"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []

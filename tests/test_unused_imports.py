"""Every imported name in src/ and tests/ is used, unless its line is marked
`# noqa`.  A name counts as used when the module reads it anywhere, in code
or in an annotation; `__future__` imports bind nothing to read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(path):
    """(line, name) of each import in the module at `path` that nothing reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and "# noqa" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys\nimport json  # noqa: F401\n"
                      "from fractions import Fraction as F\n\n"
                      "def f(x: F) -> int:\n    return sys.maxsize\n")
    assert unused_imports(module) == [(2, "os")]

"""Every function, class and method defined in src/crystorb is referenced
somewhere else in src/crystorb, so library code that only the tests call
does not grow back; such code belongs in the test module that uses it.

A definition counts as referenced when some module of the package reads its
name, as a name or as an attribute, outside the definition's own body.  The
scan matches names, not objects: two methods of one name share their
references.  Dunder methods are called by the language and are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crystorb"

# (module, name): why it stays without a caller in the package
ALLOWED = {
    ("corpus", "corpus_names"): "lists the bundled inputs for the tests and the benchmark",
    ("corpus", "load_corpus"): "reads a bundled input for the tests and the benchmark",
    ("exactla", "rank_rat"): "perfbench/tracing.py traces it by name (ROADMAP item 1)",
}


def _names_read(node):
    """Every name read under `node`, once per occurrence."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced(package):
    """(module, name, line) of each definition in the modules of `package`
    whose name is read nowhere outside its own body."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    reads = {}
    for tree in trees.values():
        for name in _names_read(tree):
            reads[name] = reads.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for n in _names_read(node) if n == name)
            if reads.get(name, 0) == own:
                found.append((module, name, node.lineno))
    return found


def test_every_definition_is_referenced():
    found = {(module, name) for module, name, _ in unreferenced(PACKAGE)}
    assert found - set(ALLOWED) == set()
    # an allowed name that gained a caller leaves the list
    assert set(ALLOWED) - found == set()


def test_scan_finds_an_unreferenced_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Used:\n    def method(self):\n        return self.method\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else Used()\n")
    (tmp_path / "b.py").write_text("from a import Used\n\nUsed().method()\n\n"
                                   "def only_here():\n    pass\n")
    assert unreferenced(tmp_path) == [("a", "lonely", 8), ("b", "only_here", 5)]

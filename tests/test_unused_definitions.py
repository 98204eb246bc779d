"""Every function, class and method defined in src/crystorb is referenced
somewhere else in src/crystorb, so library code that only the tests call
does not grow back; such code belongs in the test module that uses it.
Likewise every field of a class in src/crystorb, each attribute its
`__init__` assigns on `self` from its parameters, is read somewhere in
src/crystorb, so a result carries no value that nothing consumes.  And
every parameter of a function or method in src/crystorb is read in that
function's body, so no caller passes a value that nothing uses.

A definition counts as referenced when some module of the package reads its
name outside the definition's own body: a function defined directly in a
class body (a method or a property) only as an attribute, `x.name`, and
any other definition as a name or as an attribute.  A field counts as read
when some module loads an attribute of its name.  The scans match names,
not objects: two methods or fields of one name share their reads.  Dunder
methods are called by the language and are exempt, and so are the `self`
and `cls` parameters.  A parameter counts as read when its name is loaded
anywhere in the function's body, nested functions included."""

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

# (module, class, field): why it stays with no reader in the package
ALLOWED_FIELDS = {}


def _names_read(node, attributes_only=False):
    """Every name read under `node`, once per occurrence; with
    `attributes_only`, only the names read as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _modules(package):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def unreferenced(package):
    """(module, name, line) of each definition in the modules of `package`
    whose name is read nowhere outside its own body."""
    trees = _modules(package)
    reads = {False: {}, True: {}}      # attributes_only -> name -> count
    for tree in trees.values():
        for attributes_only, counts in reads.items():
            for name in _names_read(tree, attributes_only):
                counts[name] = counts.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        methods = {id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for stmt in node.body
                   if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            attributes_only = id(node) in methods
            own = sum(1 for n in _names_read(node, attributes_only) if n == name)
            if reads[attributes_only].get(name, 0) == own:
                found.append((module, name, node.lineno))
    return found


def _fields(init):
    """(attribute, line) of each `self.attribute = value` statement in the
    body of `init`, an `__init__`, whose value reads one of its parameters."""
    a = init.args
    this, *params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    for stmt in init.body:
        if isinstance(stmt, ast.Assign) and set(params) & set(_names_read(stmt.value)):
            yield from ((t.attr, stmt.lineno) for t in stmt.targets
                        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == this)


def unread_fields(package):
    """(module, class, field, line) of each field of a class in the modules
    of `package`, as `_fields` finds them in its `__init__`, that no module
    loads as an attribute."""
    trees = _modules(package)
    loaded = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            found.extend((module, node.name, name, line)
                         for init in node.body
                         if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                         for name, line in _fields(init) if name not in loaded)
    return found


def unread_parameters(package):
    """(module, function, parameter, line) of each parameter of a function
    or method in the modules of `package` whose name the body never loads."""
    found = []
    for module, tree in _modules(package).items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            loaded = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found.extend((module, node.name, p.arg, p.lineno) for p in params
                         if p.arg not in ("self", "cls") and p.arg not in loaded)
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


def test_a_method_needs_an_attribute_read(tmp_path):
    # the local `value` and the call `helper()` read the bare names only
    (tmp_path / "a.py").write_text(
        "class Box:\n    def value(self):\n        return 1\n\n"
        "    def helper(self):\n        return 2\n\n"
        "    @property\n    def size(self):\n        return 3\n\n\n"
        "def helper():\n    value = Box().size\n    return value\n\n\n"
        "def main():\n    def inner():\n        return helper()\n    return inner\n\n\n"
        "main()\n")
    assert unreferenced(tmp_path) == [("a", "value", 2), ("a", "helper", 5)]


def test_every_field_is_read():
    found = {(module, cls, name) for module, cls, name, _ in unread_fields(PACKAGE)}
    assert found == set(ALLOWED_FIELDS)


def test_scan_finds_an_unread_field(tmp_path):
    # only `spare` is a field nothing loads: `cached` is not set from a
    # parameter, `later` is set outside __init__, and `r.spare = 0` stores
    (tmp_path / "a.py").write_text(
        "class Report:\n    def __init__(self, kind, spare):\n"
        "        self.kind = kind\n        self.spare = spare\n"
        "        self.cached = {}\n\n"
        "    def extend(self, later):\n        self.later = later\n\n\n"
        "class Plain:\n    unread: int\n\n\n"
        "def show(r):\n    r.spare = 0\n    return Report(r.kind, spare=1)\n")
    assert unread_fields(tmp_path) == [("a", "Report", "spare", 4)]


def test_every_parameter_is_read():
    assert unread_parameters(PACKAGE) == []


def test_scan_finds_an_unread_parameter(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n    def put(self, item, spare):\n        self.item = item\n\n"
        "    @classmethod\n    def make(cls, *args, **kwargs):\n        return cls()\n\n\n"
        "def outer(x, y, z):\n    def inner():\n        return x\n    y = 0\n"
        "    return inner\n")
    assert sorted(unread_parameters(tmp_path), key=lambda f: f[3]) == [
        ("a", "put", "spare", 2), ("a", "make", "args", 6), ("a", "make", "kwargs", 6),
        ("a", "outer", "y", 10), ("a", "outer", "z", 10)]

"""Every name a module of ``capeskit`` imports is used in that module,
and every function and class it defines at top level, and every method,
property and annotated field of such a class, is used in ``src/``. Every
parameter of a function is read by its body.

Re-exports carry ``# noqa: F401`` on their import line and are exempt
from the first rule; they are no use under the second. Only the acceptance
tests and the benchmark's tracer keep a name that ``src/`` does not use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "capeskit"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # "import a.b" binds "a"
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "import struct\nimport os\nfrom typing import Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["line 1: struct"]


ROOT = SRC.parent.parent
#: the files whose uses of a ``capeskit`` name keep it although ``src/``
#: does not use it: the acceptance tests and the benchmark's tracer
KEEPERS = (ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "tracer.py")


def _docstring(node) -> bool:
    """``node`` is the docstring statement of a module, class or function."""
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def used_names(tree) -> Counter:
    """Every use of a name in ``tree``: names, attributes, and the words of
    string constants other than docstrings (such as the names a tracer's
    tables look up). Importing a name is not a use of it, so a re-export
    is not one either."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and _docstring(node.body[0])}
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(re.findall(r"\w+", node.value))
    return used


def definitions(tree):
    """(qualified name, name, node) of each top-level function and class
    of ``tree``, and of each member of a top-level class: its methods and
    properties other than dunders, and its annotated fields (such as a
    dataclass's)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{node.name}.{name}", name, member


def dead_definitions(sources: dict, kept=frozenset()) -> list[str]:
    """The definitions of the modules ``sources`` (file name -> text) that
    no module among them uses outside their own definition, other than the
    names in ``kept``: top-level functions and classes, and the members of
    classes."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((used_names(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree):
            if name not in kept and used[name] == used_names(node)[name]:
                dead.append(f"{module}:{node.lineno}: {qualified}")
    return dead


def kept_names() -> set:
    """Every name the ``KEEPERS`` files use."""
    return set().union(*(used_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in KEEPERS))


def test_every_top_level_definition_is_used_in_src():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_definitions(sources, kept_names()) == []


def test_finds_a_dead_definition():
    sources = {
        "__init__.py": "from .lib import _left, api  # noqa: F401\n",
        "lib.py": 'def _runs(n):\n    """_runs and _left."""\n    return _runs(n - 1) if n else 0\n\n'
                  "def _left():\n    pass\n\ndef _called():\n    pass\n\nclass Named:\n    pass\n\n"
                  "def api():\n    pass\n\n"
                  "class Box:\n    read: int\n    unread: int = 0\n    SIZE = 1\n\n"
                  "    def __len__(self):\n        return self.read\n\n"
                  "    @property\n    def unused_property(self):\n        return 1\n\n"
                  "    def called(self):\n        pass\n\n"
                  "    def _recursive(self):\n        return self._recursive()\n",
        "use.py": "from .lib import Box, _called\n_called()\nTABLE = ('Named',)\n# _runs\n"
                  "Box(1, unread=2).called()\n",
    }
    members = ["lib.py:19: Box.unread", "lib.py:26: Box.unused_property",
               "lib.py:32: Box._recursive"]
    assert dead_definitions(sources, {"api"}) == ["lib.py:1: _runs", "lib.py:5: _left", *members]
    assert dead_definitions(sources, {"api", "unread", "unused_property", "_recursive"}) == [
        "lib.py:1: _runs", "lib.py:5: _left"]
    assert dead_definitions(sources) == [
        "lib.py:1: _runs", "lib.py:5: _left", "lib.py:14: api", *members]


def dead_parameters(source: str, kept=frozenset()) -> list[str]:
    """``line N: function(parameter)`` for each parameter of a function or
    lambda in ``source`` that its body never reads, other than the names in
    ``kept`` and the parameters of dunder methods, whose protocol fixes
    them (such as ``__exit__``'s)."""
    dead = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "lambda")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {use.id for statement in body for use in ast.walk(statement)
                if isinstance(use, ast.Name) and isinstance(use.ctx, ast.Load)}
        dead += [(arg.lineno, f"{name}({arg.arg})") for arg in params
                 if arg.arg not in read and arg.arg not in kept]
    return [f"line {line}: {param}" for line, param in sorted(dead, key=lambda d: d[0])]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert dead_parameters(path.read_text(encoding="utf-8"), kept_names()) == []


def test_finds_a_dead_parameter():
    source = ("def f(a, b, /, c, *rest, d=0, e, **extra):\n"
              "    del b\n"
              "    e = c\n"
              "    return a + (lambda x, y: x)(c, d)\n\n"
              "class C:\n"
              "    def __exit__(self, *exc):\n"
              "        return False\n\n"
              "    def g(self, used, unused):\n"
              "        def inner():\n"
              "            return used\n"
              "        return inner\n")
    assert dead_parameters(source) == [
        "line 1: f(b)", "line 1: f(rest)", "line 1: f(e)", "line 1: f(extra)",
        "line 4: lambda(y)", "line 10: g(self)", "line 10: g(unused)"]
    assert dead_parameters(source, {"b", "self"}) == [
        "line 1: f(rest)", "line 1: f(e)", "line 1: f(extra)", "line 4: lambda(y)",
        "line 10: g(unused)"]

"""``errors.CapeskitError`` is the toolkit's one exception class.

The command line maps it to exit code 2 and anything else to 1, so a second
exception class would either be caught as CapeskitError and tell nothing
apart, or escape as an internal error. No module defines one.
"""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "capeskit"

EXCEPTION_SUFFIXES = ("Error", "Exception", "Warning")


def _is_exception_name(name: str) -> bool:
    """A builtin exception, or a name spelled like one (``np.linalg.LinAlgError``)."""
    obj = getattr(builtins, name, None)
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return True
    return name.endswith(EXCEPTION_SUFFIXES)


def exception_classes(source: str) -> list[str]:
    """``Class(Base, ...)`` for every class in ``source`` with an exception
    among its bases."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [ast.unparse(b) for b in node.bases]
        if any(_is_exception_name(b.rpartition(".")[2]) for b in bases):
            found.append(f"{node.name}({', '.join(bases)})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_exception_class(path):
    want = ["CapeskitError(ValueError)"] if path.name == "errors.py" else []
    assert exception_classes(path.read_text(encoding="utf-8")) == want


def test_finds_an_exception_subclass():
    source = ("import numpy as np\n"
              "class A(CapeskitError):\n    pass\n"
              "class B(np.linalg.LinAlgError):\n    pass\n"
              "class C(KeyboardInterrupt):\n    pass\n"
              "class D:\n    pass\n")
    assert exception_classes(source) == [
        "A(CapeskitError)", "B(np.linalg.LinAlgError)", "C(KeyboardInterrupt)"]

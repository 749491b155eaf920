"""Every name a module of ``capeskit`` imports is used in that module.

Re-exports carry ``# noqa: F401`` on their import line and are exempt.
"""

import ast
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

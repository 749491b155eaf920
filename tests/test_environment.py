"""No module of ``capeskit`` reads or sets the process environment.

Configuration comes only from command-line flags and config files, so a
run is fully described by its command line and its config: an environment
variable would be a setting that no sidecar records and no test varies.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "capeskit"

#: the names of ``os`` that read or set the process environment
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses(source: str) -> list[str]:
    """``line N: os.<name>`` for every use in ``source`` of an ``os`` name
    that reads or sets the environment: as an attribute of ``os`` (or of
    a name ``os`` is imported as), or imported from ``os``."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}") for alias in node.names
                      if alias.name in ENV_NAMES]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_access(path):
    assert environment_uses(path.read_text(encoding="utf-8")) == []


def test_finds_environment_access():
    source = ("import os\n"
              "import os as o\n"
              "from os import getenv, path\n"
              "x = os.environ.get('X')\n"
              "o.putenv('Y', '1')\n"
              "os.path.join(os.sep, 'environ')\n"
              "self.environ = {}\n"
              "os.unsetenv('Z')\n")
    assert environment_uses(source) == [
        "line 3: os.getenv", "line 4: os.environ", "line 5: os.putenv", "line 8: os.unsetenv"]

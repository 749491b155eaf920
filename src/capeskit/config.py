"""Flat ``key = value`` config text, bound to dataclass fields.

Config files are ``key = value`` lines with ``#`` comments. Each command
declares one schema: a tuple of :class:`Binding`, each binding some config
keys to the fields of one dataclass, or to the keyword parameters of one
function. The schema contract:

- A key's name is its field's name unless the binding renames it
  (``Binding(TrackSkill, bias_sigma_ai="bias_sigma")``).
- The field's default is the key's default.
- The field's type hint picks the parser: ``int``; ``float`` (finite
  only); ``str``; ``tuple[int, ...]`` and ``tuple[str, ...]`` as comma
  lists; ``tuple[int, int]`` as two integers joined by the separator in
  the field's ``sep`` metadata (``7x7``, ``1:10``).
- A command accepts exactly its schema's keys; an unknown key, a bad
  value or a value its dataclass rejects is a :class:`CapeskitError`.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import typing
from typing import Any, Callable, Optional

from .errors import CapeskitError


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CapeskitError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise CapeskitError(f"{source}: line {lineno}: empty key")
        if key in out:
            raise CapeskitError(f"{source}: line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load(schema, path=None) -> dict[str, Any]:
    """Every key of the schema, from the config file at ``path`` or its default."""
    if path is None:
        return read(schema, {})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CapeskitError(f"cannot read config {path}: {exc}") from None
    return read(schema, parse_config_text(text, str(path)), str(path))


def _finite(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(s)
    return v


#: Field type hint -> (text parser, what it expects).
_PARSERS = {
    int: (int, "an integer"),
    str: (str, "a string"),
    float: (_finite, "a finite number"),
    tuple[int, ...]: (lambda s: tuple(int(t) for t in s.split(",") if t.strip()),
                      "a comma-separated integer list"),
    tuple[str, ...]: (lambda s: tuple(t.strip() for t in s.split(",") if t.strip()),
                      "a comma-separated list"),
}


def _parser(hint, sep: Optional[str]) -> tuple[Callable[[str], Any], str]:
    if hint == tuple[int, int] and sep:
        def pair(s):
            a, _, b = s.partition(sep)
            return int(a), int(b)
        return pair, f"two integers separated by {sep!r}"
    return _PARSERS[hint]


@dataclasses.dataclass(frozen=True)
class Key:
    field: str
    default: Any
    parse: Callable[[str], Any]
    kind: str


class Binding:
    """Config keys bound to fields of ``target``: a dataclass, or a
    function whose keyword parameters take the values."""

    def __init__(self, target, *names: str, **renamed: str):
        hints = typing.get_type_hints(target)
        params = inspect.signature(target).parameters
        seps = ({f.name: f.metadata.get("sep") for f in dataclasses.fields(target)}
                if dataclasses.is_dataclass(target) else {})
        self.target = target
        self.keys: dict[str, Key] = {}
        for key, name in [*zip(names, names), *renamed.items()]:
            parse, kind = _parser(hints[name], seps.get(name))
            self.keys[key] = Key(name, params[name].default, parse, kind)

    def build(self, values: dict[str, Any], *args, **kwargs):
        """Call the target with its bound ``values`` plus ``args``/``kwargs``."""
        bound = {k.field: values[key] for key, k in self.keys.items()}
        return self.target(*args, **bound, **kwargs)


def keys(schema) -> dict[str, Key]:
    return {name: k for binding in schema for name, k in binding.keys.items()}


def read(schema, raw: dict[str, str], source: str = "config") -> dict[str, Any]:
    """Every key of the schema: its value parsed from ``raw``, or its default."""
    known = keys(schema)
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise CapeskitError(f"{source}: unknown keys {unknown}")
    values = {}
    for name, k in known.items():
        if name not in raw:
            values[name] = k.default
            continue
        try:
            values[name] = k.parse(raw[name])
        except ValueError:
            raise CapeskitError(
                f"{source}: config key {name!r}: expected {k.kind}, got {raw[name]!r}"
            ) from None
    return values

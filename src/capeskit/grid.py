"""Gridded field types, anomaly computation, and the GRD1 text format.

All values are float64 internally. Fields are immutable after
construction (arrays are copied and marked read-only) so every operation
in the package is a pure function that is safe to call concurrently.

GRD1 format
-----------
Line 1:  ``GRD1 <nlat> <nlon> <lat0> <dlat> <lon0> <dlon> <units>``
Then exactly nlat*nlon finite decimal values, whitespace-separated,
row-major with latitude as the slow index. ASCII only; any amount of
whitespace (including newlines) may separate values. Values written by
this module use shortest round-trip decimal representation, so a
write/read cycle reproduces the field bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapeskitError, GridFormatError, SpecMismatchError, UnitError

UNITS = ("mm", "percent", "unitless")

#: Default guard (mm) against division by near-zero climatology over arid cells.
DEFAULT_CLIM_FLOOR = 0.1


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lat/lon grid geometry.

    Two specs are compatible iff all six fields are exactly equal; every
    binary field operation requires compatibility.
    """

    nlat: int
    nlon: int
    lat0: float = 0.0
    dlat: float = 1.0
    lon0: float = 0.0
    dlon: float = 1.0

    def __post_init__(self):
        if self.nlat < 1 or self.nlon < 1:
            raise CapeskitError(f"grid must be at least 1x1, got {self.nlat}x{self.nlon}")
        if self.dlat == 0 or self.dlon == 0:
            raise CapeskitError("dlat and dlon must be nonzero")

    @property
    def ncells(self) -> int:
        return self.nlat * self.nlon


def _freeze(values, spec: GridSpec) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (spec.nlat, spec.nlon):
        if arr.size == spec.ncells:
            arr = arr.reshape(spec.nlat, spec.nlon)
        else:
            raise ValueError(
                f"values shape {arr.shape} does not match grid {spec.nlat}x{spec.nlon}"
            )
    if not np.isfinite(arr).all():
        raise ValueError("field values must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridField:
    """A lat/lon field of values with a units tag (mm, percent, unitless)."""

    spec: GridSpec
    values: np.ndarray
    units: str = "mm"

    def __post_init__(self):
        if self.units not in UNITS:
            raise UnitError(f"unknown units {self.units!r}, expected one of {UNITS}")
        object.__setattr__(self, "values", _freeze(self.values, self.spec))

    def require_compatible(self, other) -> None:
        if self.spec != other.spec:
            raise SpecMismatchError(f"grid specs differ: {self.spec} vs {other.spec}")


@dataclass(frozen=True)
class AnomalyField:
    """Per-cell anomaly percentage a = (x - c)/c * 100 relative to climatology."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, self.spec))

    def require_compatible(self, other) -> None:
        if self.spec != other.spec:
            raise SpecMismatchError(f"grid specs differ: {self.spec} vs {other.spec}")

    def as_grid(self) -> GridField:
        return GridField(self.spec, self.values, units="percent")

    @classmethod
    def from_grid(cls, f: GridField) -> "AnomalyField":
        if f.units != "percent":
            raise UnitError(f"anomaly fields carry percent units, got {f.units!r}")
        return cls(f.spec, f.values)


@dataclass(frozen=True)
class Climatology:
    """Climatological reference (mm) with a positive floor guarding division.

    Values are floored at construction, so every stored value is >= floor > 0.
    """

    field: GridField
    floor: float = DEFAULT_CLIM_FLOOR

    def __post_init__(self):
        if not self.floor > 0:
            raise CapeskitError(f"climatology floor must be positive, got {self.floor}")
        if self.field.units != "mm":
            raise UnitError(f"climatology must be in mm, got {self.field.units!r}")
        floored = GridField(
            self.field.spec, np.maximum(self.field.values, self.floor), units="mm"
        )
        object.__setattr__(self, "field", floored)

    @property
    def spec(self) -> GridSpec:
        return self.field.spec

    @property
    def values(self) -> np.ndarray:
        return self.field.values


def anomaly_percent(field: GridField, clim: Climatology) -> AnomalyField:
    """Anomaly percentage of a precipitation field relative to climatology.

    Per cell: a = (x - c) / c * 100 with c already floored by Climatology.
    Cells where x equals c are exactly 0.
    """
    if field.units != "mm":
        raise UnitError(f"anomaly_percent expects mm input, got {field.units!r}")
    field.require_compatible(clim.field)
    c = clim.values
    a = (field.values - c) / c * 100.0
    return AnomalyField(field.spec, a)


def _format_value(v: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(v))


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` newlines, atomically: into a temp
    file beside ``path`` named for this process, created exclusively with
    the mode the process umask gives, then renamed over ``path``. On any
    failure the temp file is removed and ``path`` is left as it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_grid(field: GridField, path) -> None:
    """Write a field as GRD1 text, atomically (write temp, then rename)."""
    s = field.spec
    header = (
        f"GRD1 {s.nlat} {s.nlon} {_format_value(s.lat0)} {_format_value(s.dlat)} "
        f"{_format_value(s.lon0)} {_format_value(s.dlon)} {field.units}\n"
    )
    # repr of a Python float is the shortest round-trip decimal, as in
    # _format_value; tolist() converts the whole field in one call
    rows = "".join(" ".join(map(repr, row)) + "\n" for row in field.values.tolist())
    write_text_atomic(path, header + rows)


def read_grid(path) -> GridField:
    """Read a GRD1 file, rejecting malformed headers, count mismatches and
    non-finite values (error messages carry the offending line number)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if not lines or not lines[0].strip():
        raise GridFormatError("empty file, expected GRD1 header", line=1)
    head = lines[0].split()
    if len(head) != 8 or head[0] != "GRD1":
        raise GridFormatError(
            "header must be 'GRD1 <nlat> <nlon> <lat0> <dlat> <lon0> <dlon> <units>'",
            line=1,
        )
    try:
        nlat, nlon = int(head[1]), int(head[2])
        lat0, dlat, lon0, dlon = (float(x) for x in head[3:7])
    except ValueError as exc:
        raise GridFormatError(f"bad header number: {exc}", line=1) from None
    units = head[7]
    if units not in UNITS:
        raise GridFormatError(f"unknown units {units!r}", line=1)
    try:
        spec = GridSpec(nlat, nlon, lat0, dlat, lon0, dlon)
    except ValueError as exc:
        raise GridFormatError(str(exc), line=1) from None

    expected = spec.ncells
    values = np.empty(expected, dtype=np.float64)
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                v = float(tok)
            except ValueError:
                raise GridFormatError(f"unparseable value {tok!r}", line=lineno) from None
            if not np.isfinite(v):
                raise GridFormatError(f"non-finite value {tok!r}", line=lineno)
            if count >= expected:
                raise GridFormatError(
                    f"more than the declared {expected} values", line=lineno
                )
            values[count] = v
            count += 1
    if count != expected:
        raise GridFormatError(
            f"value count mismatch: header declares {expected}, found {count}",
            line=len(lines),
        )
    return GridField(spec, values.reshape(nlat, nlon), units=units)


def read_anomaly(path) -> AnomalyField:
    return AnomalyField.from_grid(read_grid(path))


def write_anomaly(a: AnomalyField, path) -> None:
    write_grid(a.as_grid(), path)


def read_mask(path) -> np.ndarray:
    """Read a unitless GRD1 field as a boolean mask (nonzero = included)."""
    f = read_grid(path)
    if f.units != "unitless":
        raise UnitError(f"mask fields must be unitless, got {f.units!r}")
    return f.values != 0.0

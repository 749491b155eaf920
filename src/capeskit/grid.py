"""Gridded field types, anomaly computation, and the GRD1 text format.

All values are float64 internally. Fields are immutable after
construction (arrays are copied and marked read-only) so every operation
in the package is a pure function that is safe to call concurrently.

GRD1 format
-----------
Line 1:  ``GRD1 <nlat> <nlon> <lat0> <dlat> <lon0> <dlon> <units>``
Then exactly nlat*nlon finite decimal values, whitespace-separated,
row-major with latitude as the slow index. The file must be ASCII; any
amount of whitespace (including newlines; ``\\n``, ``\\r\\n`` and ``\\r``
each end a line) may separate values. Values written by this module use
shortest round-trip decimal representation, so a write/read cycle
reproduces the field bit for bit. A malformed file (non-ASCII byte, bad
header, unparseable or non-finite value, wrong value count) raises
:class:`GridFormatError` naming the offending line, which the command
line reports with exit code 2.

The writer
----------
A body is written as ``repr`` would write it: each value's shortest
round-trip decimal, the closest one when several are shortest, a space
between values and ``\\n`` after each row. Writing a ``repr`` per value
made this the most expensive step of ``generate``, so the digits are
computed for up to 4,096 values at a time with uint64 numpy arithmetic:
Schubfach (Giulietti 2020) gives each value's shortest decimal f 10^e,
and the characters are laid out in a byte matrix with the decimal point
at a fixed column, then compressed into the file's bytes. Values that
``repr`` writes in scientific notation (|x| < 1e-4 or >= 1e16) and
subnormals are rare in fields; they fall back to ``repr`` one by one.
Tests compare the writer with the ``repr`` join on random bit patterns.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
        raise CapeskitError("field values must be finite (no NaN/Inf)")
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
        """The anomaly field of a percent GridField, sharing its values:
        they are already frozen, so they are not checked or copied again."""
        if f.units != "percent":
            raise UnitError(f"anomaly fields carry percent units, got {f.units!r}")
        a = object.__new__(cls)
        object.__setattr__(a, "spec", f.spec)
        object.__setattr__(a, "values", f.values)
        return a


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


# ---------------------------------------------------------------------------
# GRD1 body text: shortest round-trip decimals, computed for many values at once

#: values formatted per call of _format_rows: bounds its working set (about
#: 200 B per value), so writing an ensemble barely moves its peak memory
_CHUNK = 4096

_U = np.uint64
_FRAC, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_M32, _M63 = _U((1 << 32) - 1), _U((1 << 63) - 1)
_P10 = np.array([10 ** i for i in range(20)], dtype=_U)
_RECIP7, _M56 = _U(-(-(1 << 56) // 10 ** 7)), _U((1 << 56) - 1)
_TOP = 7 if sys.byteorder == "little" else 0  # the byte of a uint64 holding bits 56-63
_WIDTH = 40  # bytes per value in the layout matrix
_POINT = 17  # the column of its decimal point
_COLS = np.arange(_WIDTH, dtype=np.uint8)


@functools.lru_cache(maxsize=None)
def _schubfach_tables() -> tuple[np.ndarray, ...]:
    """Per-exponent constants of Schubfach (R. Giulietti, "The Schubfach
    way to render doubles", 2020), indexed by the biased exponent plus
    2048 when the significand is a power of two (its lower neighbour is
    then twice as close): the decimal exponent k, the shift h, and the
    halves g1, g0 of g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1, where
    2^125 <= g < 2^126. g is computed exactly with Python ints for
    k in [-324, 292]. Built on first use."""
    g1, g0 = [], []
    for k in range(-324, 293):
        r = (-k * 913_124_641_741 >> 38) - 125  # floor(log2(10^-k)) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    q = np.clip(np.arange(2048) - 1075, -1074, 971)  # binary exponent of the lsb
    k = np.concatenate([q * 661_971_961_083 >> 41,  # floor(log10(2^q))
                        (q * 661_971_961_083 - 274_743_187_321) >> 41])  # of 3/4 2^q
    h = np.tile(q, 2) + (-k * 913_124_641_741 >> 38) + 2  # q + floor(log2(10^-k)) + 2
    tables = (k, h.astype(_U), np.array(g1, _U)[k + 324], np.array(g0, _U)[k + 324])
    for t in tables:
        t.flags.writeable = False
    return tables


def _mulhi(al, ah, bl, bh):
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    lh = al * bh
    hl = ah * bl
    mid = al * bl
    mid >>= 32
    mid += lh & _M32
    mid += hl & _M32
    mid >>= 32
    lh >>= 32
    hl >>= 32
    mid += lh
    mid += hl
    mid += ah * bh
    return mid


def _rop(g, cp):
    """Schubfach's rop: g cp 2^-127 rounded to odd, where g = g1 2^63 + g0
    is given as (g1, then the 32-bit limbs of g1 and of g0) and multiplied
    in 64-bit pieces (Giulietti, figure 8)."""
    g1, g1l, g1h, g0l, g0h = g
    cl, ch = cp & _M32, cp >> 32
    z = _mulhi(g0l, g0h, cl, ch)
    z += g1 * cp >> 1
    vbp = _mulhi(g1l, g1h, cl, ch)
    vbp += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    vbp |= z
    return vbp


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip decimals of normal doubles given as uint64 bits:
    (f, e) with |v| = f 10^e and f free of trailing zeros. Among the
    shortest decimals that read back as v it picks the closest, ties to
    an even digit, which is the rule of Python's ``repr``."""
    frac = bits & _FRAC
    irr = frac == 0
    idx = (bits >> 52 & 0x7FF).astype(np.intp) + 2048 * irr
    k, h, g1, g0 = (t[idx] for t in _schubfach_tables())
    g = (g1, g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32)
    del idx, g1, g0  # the arrays alive at once set the writer's peak memory
    cb = (frac | _HIDDEN) << 2
    vb = _rop(g, cb << h)
    # the rounding interval is closed for even significands
    vbl = _rop(g, cb - 2 + irr << h) + (frac & 1)
    vbr = _rop(g, cb + 2 << h) - (frac & 1)
    del frac, irr, cb, h, g
    s = vb >> 2
    # one digit shorter: at most one of sp10 and sp10 + 10 lies in the interval
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    short = upin != (sp10 + 10 << 2 <= vbr)
    # otherwise s or s + 1: the one inside, else the closer, ties to even
    uin = vbl <= s << 2
    win = s + 1 << 2 <= vbr
    rem = vb & 3
    closer = (rem < 2) | ((rem == 2) & (s & 1 == 0))
    f = np.where(short, np.where(upin, sp10, sp10 + 10), s + np.where(uin != win, win, ~closer))
    e = k.copy()
    for d in (16, 8, 4, 2, 1):
        q = f // _P10[d]
        z = q * _P10[d] == f
        f = np.where(z, q, f)
        e += d * z
    return f, e


def _format_rows(values: np.ndarray, ncol: int) -> tuple[np.ndarray, np.ndarray]:
    """GRD1 body text, as uint8 characters, of whole rows of ``ncol``
    float64 values, each written exactly as ``repr`` writes it, separated
    by a space, with ``\\n`` after each row. Also returns the number of
    bytes of each value, separator included.

    Each value gets a row of a (n, 40) byte matrix whose decimal point
    sits at a fixed column: the integer digits right-aligned to its left,
    the fraction digits (with up to 3 leading zeros) left-aligned to its
    right, then the separator, and the sign left of the first digit. One
    mask then keeps each row's span. Values that ``repr`` writes in
    scientific notation (|v| < 1e-4 or >= 1e16) and subnormals are written
    by ``repr`` into their rows."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(_U)
    n = bits.size
    f, e = _shortest(bits)
    decpt = np.searchsorted(_P10, f, side="right") + e  # digits before the point
    bq = bits >> 52 & 0x7FF
    blank = (bq == 0) | (bq == 0x7FF) | (decpt < -3) | (decpt > 16)
    # the rows repr writes: scientific notation, subnormals, inf and nan
    fallback = np.flatnonzero(blank & (bits << 1 != 0))
    np.putmask(f, blank, 0)  # a zero is "0.0"
    np.putmask(e, blank, 0)
    np.putmask(decpt, blank, 1)
    del bq, blank
    fl = np.maximum(-e, 1)  # fraction digits: at least the 0 of "d.0"
    m = _positional(f, e, fl)
    del f, e
    sign = (bits >> 63).astype(bool)
    start = (_POINT - np.maximum(decpt, 1) - sign).astype(np.uint8)
    end = (_POINT + 2 + fl).astype(np.uint8)
    del decpt, fl
    flat = m.reshape(-1)
    rows = np.arange(0, n * _WIDTH, _WIDTH)
    flat[rows + end - 1] = ord(" ")
    flat[rows[ncol - 1::ncol] + end[ncol - 1::ncol] - 1] = ord("\n")
    neg = np.flatnonzero(sign)
    flat[rows[neg] + start[neg]] = ord("-")
    if fallback.size:
        texts = [repr(v).encode() for v in bits[fallback].view(np.float64).tolist()]
        sep = m[fallback, end[fallback] - 1]
        m[fallback] = np.frombuffer(b"".join(t.ljust(_WIDTH) for t in texts),
                                    np.uint8).reshape(-1, _WIDTH)
        start[fallback] = 0
        end[fallback] = [len(t) + 1 for t in texts]
        m[fallback, end[fallback] - 1] = sep
    size = end - start
    keep = _COLS - start[:, None]
    np.less(keep, size[:, None], out=keep)
    return m[keep.view(bool)], size


def _positional(f: np.ndarray, e: np.ndarray, fl: np.ndarray) -> np.ndarray:
    """The digits of f 10^e as (n, 40) characters: the integer part
    right-aligned to the left of the point at column _POINT, zero-padded,
    and the first fl fraction digits left-aligned to its right, then zeros.
    f < 10^17 and -20 <= e <= 15; fl >= the fraction digits of f 10^e."""
    n = f.size
    scale = _P10[np.minimum(np.maximum(-e, 0), 19)]
    ip = f // scale
    frac = f - ip * scale
    ip *= _P10[np.maximum(e, 0)]
    # five 8-digit groups: the integer part but its last digit (16 digits);
    # that digit, a 0 where the point goes and 6 fraction digits; the next
    # 16 fraction digits. They fill the 40 columns.
    cut = _P10[np.maximum(fl - 6, 0)]
    hi6 = frac // cut
    lo16 = (frac - hi6 * cut) * _P10[22 - np.maximum(fl, 6)]
    hi6 *= _P10[np.maximum(6 - fl, 0)]
    tens = ip // 10
    y = np.empty((n, 5), _U)
    y[:, 0] = tens // 10 ** 8
    y[:, 1] = tens - y[:, 0] * 10 ** 8
    y[:, 2] = (ip - tens * 10) * 10 ** 7 + hi6
    y[:, 3] = lo16 // 10 ** 8
    y[:, 4] = lo16 - y[:, 3] * 10 ** 8
    del scale, ip, frac, cut, hi6, lo16, tens
    # the digits by fixed-point arithmetic: y / 2^56 = group / 10^7 plus an
    # error below 2e-9 that never reaches a digit boundary; each digit is
    # then the top byte of y
    y *= _RECIP7
    top = y.view(np.uint8).reshape(n, 5, 8)[:, :, _TOP]
    digits = np.empty((n, 5, 8), np.uint8)
    for j in range(8):
        digits[:, :, j] = top
        y &= _M56
        y *= 10
    digits += ord("0")
    m = digits.reshape(n, _WIDTH)
    m[:, _POINT] = ord(".")
    return m


def _bodies(fields: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The GRD1 body of each of ``fields`` (2-D arrays of one shape), in
    order. Small fields are formatted several at a time and a large one
    in blocks of rows, at most _CHUNK values per call where a row fits."""
    nrow, ncol = fields[0].shape
    ncells = nrow * ncol
    if ncells <= _CHUNK:
        per = _CHUNK // ncells
        for a in range(0, len(fields), per):
            text, size = _format_rows(np.stack(fields[a:a + per]), ncol)
            ends = np.cumsum(size)[ncells - 1::ncells].tolist()
            yield from (text[i:j].tobytes() for i, j in zip([0] + ends, ends))
    else:
        rows = max(1, _CHUNK // ncol)
        for fld in fields:
            yield b"".join(_format_rows(fld[r:r + rows], ncol)[0]
                           for r in range(0, nrow, rows))


def write_text_atomic(path, text: str | bytes) -> None:
    """Write ``text`` atomically: a str as UTF-8 with ``\\n`` newlines, bytes
    as they are. It goes into a temp file beside ``path`` named for this
    process, created exclusively with the mode the process umask gives,
    then renamed over ``path``. On any failure the temp file is removed
    and ``path`` is left as it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if isinstance(text, bytes):
            fh = os.fdopen(fd, "wb")
        else:
            fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_grids(paths: Sequence, spec: GridSpec, units: str,
                 arrays: Sequence[np.ndarray]) -> None:
    """Write each array, a field on ``spec``, as a GRD1 file at its path."""
    header = (f"GRD1 {spec.nlat} {spec.nlon} {_format_value(spec.lat0)} "
              f"{_format_value(spec.dlat)} {_format_value(spec.lon0)} "
              f"{_format_value(spec.dlon)} {units}\n").encode()
    for path, body in zip(paths, _bodies(arrays)):
        write_text_atomic(path, header + body)


def write_grid(field: GridField, path) -> None:
    """Write a field as GRD1 text, atomically (write temp, then rename)."""
    _write_grids([path], field.spec, field.units, [field.values])


def _read_ascii(path) -> str:
    """The file as ASCII text with universal newlines (``\\r\\n`` and ``\\r``
    read as ``\\n``); a non-ASCII byte raises GridFormatError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise GridFormatError(f"non-ASCII byte {data[exc.start]:#04x}", line=line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _body_error(lines: list[str], expected: int) -> GridFormatError:
    """The error for a body that does not hold exactly ``expected`` finite
    values: a per-line scan for the first unparseable or non-finite token,
    the first token past the declared count, or else the count. It counts
    tokens and keeps none, so a huge declared grid allocates nothing."""
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                v = float(tok)
            except ValueError:
                return GridFormatError(f"unparseable value {tok!r}", line=lineno)
            if not np.isfinite(v):
                return GridFormatError(f"non-finite value {tok!r}", line=lineno)
            if count >= expected:
                return GridFormatError(f"more than the declared {expected} values", line=lineno)
            count += 1
    return GridFormatError(
        f"value count mismatch: header declares {expected}, found {count}",
        line=len(lines),
    )


def read_grid(path) -> GridField:
    """Read a GRD1 file, rejecting non-ASCII bytes, malformed headers, count
    mismatches and non-finite values (error messages carry the offending
    line number).

    A well-formed body is parsed in one pass over its tokens, with the
    same ``float`` per token as the per-line scan that reports errors."""
    text = _read_ascii(path)
    header, _, body = text.partition("\n")
    if not header.strip():
        raise GridFormatError("empty file, expected GRD1 header", line=1)
    head = header.split()
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
    tokens = body.split()
    if len(tokens) == expected:
        try:
            values = np.fromiter(map(float, tokens), np.float64, count=expected)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                # free the text first, so the field's long-lived frozen copy
                # can reuse its memory: this keeps the peak RSS of reading
                # an ensemble directory where the per-token reader had it
                del text, body, tokens
                return GridField(spec, values.reshape(nlat, nlon), units=units)
    raise _body_error(text.split("\n"), expected)


def read_anomaly(path) -> AnomalyField:
    return AnomalyField.from_grid(read_grid(path))


def write_anomaly(a: AnomalyField, path) -> None:
    write_grid(a.as_grid(), path)


def write_anomalies(fields: Sequence[AnomalyField], paths: Sequence) -> None:
    """Write anomaly fields of one grid as GRD1 files, one per path, with
    the bytes ``write_anomaly`` writes; small fields are formatted several
    at a time."""
    spec = fields[0].spec
    for a in fields:
        a.require_compatible(fields[0])
    _write_grids(paths, spec, "percent", [a.values for a in fields])


def read_mask(path) -> np.ndarray:
    """Read a unitless GRD1 field as a boolean mask (nonzero = included)."""
    f = read_grid(path)
    if f.units != "unitless":
        raise UnitError(f"mask fields must be unitless, got {f.units!r}")
    return f.values != 0.0

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
:class:`CapeskitError` naming the offending line, which the command
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
Creating a file costs about as much as formatting it, so several files
are written on one I/O thread while the next ones are formatted.

The reader
----------
Reading one ``float`` per token made this the largest step of ``fuse``,
so bodies are parsed with uint64 numpy arithmetic, about 64 KiB of text
(several files of an ensemble) per call. Tokens are the runs of bytes
between separators, which are exactly the ASCII whitespace ``str.split``
splits on. A plain token, an optional ``-``, digits, ``.`` and digits
(19 digits at most), is read as m 10^-f, eight digits per word (SWAR),
from words that end at its point and at its end, and converted exactly:
m / 10^f when m < 2^53 (Clinger 1990), Eisel-Lemire's 128-bit product
with a power of five otherwise (Lemire 2021). Every other spelling (an
exponent, ``+``, ``_``, no digit on a side of the point, more digits,
``inf``, ``nan``) goes to ``float``. A file the parser rejects is scanned
line by line, token by token, for the error to report. Tests compare the
reader with ``float`` on random bit patterns and decimals.
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
import queue
import re
import sys
import threading
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import CapeskitError

UNITS = ("mm", "percent", "unitless")


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
        if self.nlat * self.nlon > sys.maxsize // 8:  # no float64 array that large exists
            raise CapeskitError(f"grid {self.nlat}x{self.nlon} has too many cells")
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


class _OnGrid:
    """A field on a GridSpec, ``spec``."""

    def require_compatible(self, other) -> None:
        if self.spec != other.spec:
            raise CapeskitError(f"grid specs differ: {self.spec} vs {other.spec}")


@dataclass(frozen=True)
class GridField(_OnGrid):
    """A lat/lon field of values with a units tag (mm, percent, unitless)."""

    spec: GridSpec
    values: np.ndarray
    units: str = "mm"

    def __post_init__(self):
        if self.units not in UNITS:
            raise CapeskitError(f"unknown units {self.units!r}, expected one of {UNITS}")
        object.__setattr__(self, "values", _freeze(self.values, self.spec))


@dataclass(frozen=True)
class AnomalyField(_OnGrid):
    """Per-cell anomaly percentage a = (x - c)/c * 100 relative to climatology."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, self.spec))

    def as_grid(self) -> GridField:
        return GridField(self.spec, self.values, units="percent")

    @classmethod
    def from_grid(cls, f: GridField) -> "AnomalyField":
        """The anomaly field of a percent GridField, sharing its values:
        they are already frozen, so they are not checked or copied again."""
        if f.units != "percent":
            raise CapeskitError(f"anomaly fields carry percent units, got {f.units!r}")
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
    floor: float = 0.1  # mm; guards division over arid cells

    def __post_init__(self):
        if not self.floor > 0:
            raise CapeskitError(f"climatology floor must be positive, got {self.floor}")
        if self.field.units != "mm":
            raise CapeskitError(f"climatology must be in mm, got {self.field.units!r}")
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
        raise CapeskitError(f"anomaly_percent expects mm input, got {field.units!r}")
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


def _bodies(fields: np.ndarray) -> Iterator[bytes]:
    """The GRD1 body of each field of ``fields`` (n, nrow, ncol), in order.
    Small fields are formatted several at a time and a large one in
    blocks of rows, at most _CHUNK values per call where a row fits."""
    n, nrow, ncol = fields.shape
    ncells = nrow * ncol
    if ncells <= _CHUNK:
        per = _CHUNK // ncells
        for a in range(0, n, per):
            text, size = _format_rows(fields[a:a + per], ncol)
            ends = np.cumsum(size)[ncells - 1::ncells].tolist()
            yield from (text[i:j].tobytes() for i, j in zip([0] + ends, ends))
    else:
        rows = max(1, _CHUNK // ncol)
        for fld in fields:
            yield b"".join(_format_rows(fld[r:r + rows], ncol)[0]
                           for r in range(0, nrow, rows))


def _temp_path(path: str) -> str:
    """The temp file beside ``path`` that this process writes it through."""
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.{os.getpid()}.tmp")


def write_text_atomic(path, text: str | bytes) -> None:
    """Write ``text`` atomically: a str as UTF-8 with ``\\n`` newlines, bytes
    as they are. It goes into a temp file beside ``path`` named for this
    process, created exclusively with the mode the process umask gives,
    then renamed over ``path``. On any failure the temp file, if made, is
    removed and ``path`` is left as it was; an OSError (a missing
    directory, a directory at ``path``) is reported as an input error
    naming ``path``."""
    path = os.fspath(path)
    tmp = _temp_path(path)
    data = text.encode("utf-8") if isinstance(text, str) else text
    fd = None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        if fd is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CapeskitError(f"cannot write {path}: {exc.strerror}") from None
        raise


def check_writable(path) -> None:
    """Raise the error :func:`write_text_atomic` would raise at ``path``
    when its directory is missing or not writable, or a directory is at
    ``path``, so that a command fails before its work. The temp file is
    created and removed; ``path`` itself is not touched."""
    path = os.fspath(path)
    tmp = _temp_path(path)
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        os.unlink(tmp)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise CapeskitError(f"cannot write {path}: {exc.strerror}") from None


#: member-file bytes handed to the writer thread at a time (a larger file
#: goes alone), and the most handoffs waiting for it
_HANDOFF = 1 << 17
_QUEUED = 2


def _handoffs(files: Iterator[tuple[str, bytes]]) -> Iterator[list[tuple[str, bytes]]]:
    """``files`` in consecutive groups of about _HANDOFF bytes."""
    group, size = [], 0
    for path, text in files:
        if group and size + len(text) > _HANDOFF:
            yield group
            group, size = [], 0
        group.append((path, text))
        size += len(text)
    if group:
        yield group


def _write_behind(files: Iterator[tuple[str, bytes]]) -> None:
    """:func:`write_text_atomic` of each (path, text) of ``files``, in
    order, on one I/O thread, while this thread makes the next ones. The
    writer's first failure stops it, so no later file is written, and is
    raised here; an exception here stops and joins the writer before it
    propagates, so no temp file and no thread outlive the call."""
    queued = queue.Queue(_QUEUED)
    stop = threading.Event()
    failed = []

    def writer():
        for group in iter(queued.get, None):
            for path, text in group:
                if stop.is_set():
                    break
                try:
                    write_text_atomic(path, text)
                except BaseException as exc:
                    failed.append(exc)
                    stop.set()

    thread = threading.Thread(target=writer, name="capeskit-writer")
    thread.start()
    try:
        for group in _handoffs(files):
            if stop.is_set():
                break
            queued.put(group)
    except BaseException:
        stop.set()
        raise
    finally:
        queued.put(None)
        thread.join()
    if failed:
        raise failed[0]


def _write_grids(paths: Sequence, spec: GridSpec, units: str, values: np.ndarray) -> None:
    """Write each field of ``values`` (n, nlat, nlon), on ``spec``, as a
    GRD1 file at its path. Several files are written behind the formatter
    by :func:`_write_behind`; a single file is written here."""
    header = (f"GRD1 {spec.nlat} {spec.nlon} {_format_value(spec.lat0)} "
              f"{_format_value(spec.dlat)} {_format_value(spec.lon0)} "
              f"{_format_value(spec.dlon)} {units}\n").encode()
    files = ((path, header + body) for path, body in zip(paths, _bodies(values)))
    if len(paths) > 1:
        _write_behind(files)
    else:
        for path, text in files:
            write_text_atomic(path, text)


def write_grid(field: GridField, path) -> None:
    """Write a field as GRD1 text, atomically (write temp, then rename)."""
    _write_grids([path], field.spec, field.units, field.values[None])


# ---------------------------------------------------------------------------
# GRD1 body values: plain decimals converted for many tokens at once

#: body bytes parsed per call of _parse (about 3,300 values): bounds its
#: working set, about 10 B per byte of text, so reading an ensemble barely
#: moves its peak memory
READ_BYTES = 1 << 16

#: the ASCII whitespace that str.split splits on: separators of values
_SEPARATORS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_SEPARATOR = re.compile(b"[" + re.escape(_SEPARATORS) + b"]")
#: the classes of non-digit bytes: separators, '.', and any other byte
_SEP, _DOT, _OTHER = 0, 1, 2
_KIND = np.full(256, _OTHER, np.uint8)
_KIND[list(_SEPARATORS)] = _SEP
_KIND[ord(".")] = _DOT
_EOL = re.compile(rb"[\r\n]")
_LEAD = b" " * 24  # so that the 24 bytes before any token lie in the text
#: _KEEP[k][n]: for the k + 1 words that end where a run of n digits ends,
#: the shifts that clear the bytes before the run (words are 8 bytes, in
#: address order; the last holds the last 8 digits)
_KEEP = [np.array([[64 - 8 * min(max(n - 8 * j, 0), 8) for j in range(k, -1, -1)]
                   for n in range(20)], _U) for k in range(3)]
_ZEROS, _LANES = _U(0x3030303030303030), _U(0x000000FF000000FF)
_F10 = np.array([float(10 ** i) for i in range(20)])


@functools.lru_cache(maxsize=None)
def _pow5_tables() -> tuple[np.ndarray, ...]:
    """For f in [0, 19]: Eisel-Lemire's 128-bit truncated 5^-f,
    c = floor(2^(b + 127) / 5^f) + 1 with 2^(b - 1) < 5^f < 2^b, as its
    halves hi and lo; and 1085 + floor(-f log2(10)), one less than the
    biased binary exponent that goes with it. Built on first use."""
    hi, lo, exp = [], [], []
    for f in range(20):
        c = (1 << (5 ** f).bit_length() + 127) // 5 ** f + 1 if f else 1 << 127
        hi.append(c >> 64)
        lo.append(c & (1 << 64) - 1)
        exp.append(1085 + (-f * 217_706 >> 16))
    tables = (np.array(hi, _U), np.array(lo, _U), np.array(exp, _U))
    for t in tables:
        t.flags.writeable = False
    return tables


def _eisel_lemire(m: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The bits of the doubles nearest m 10^-f, ties to even, for
    2^53 <= m < 2^64 and 1 <= f <= 19, by Eisel-Lemire (D. Lemire, "Number
    parsing at a gigabyte per second", Software: Practice and Experience,
    2021): m, shifted to fill 64 bits, times the 128-bit truncated 5^-f.
    For decimal exponents in [-27, 55] that product decides every
    rounding (ibid.), so no value needs a slower path."""
    hi5, lo5, exp = (t[f] for t in _pow5_tables())
    # the leading zeros of m, from the exponent of float(m), which may
    # have rounded up to the next power of two
    lz = 1086 - (m.astype(np.float64).view(_U) >> 52)
    lz += (m << lz) < 1 << 63
    w = m << lz
    wl, wh = w & _M32, w >> 32
    hi = _mulhi(wl, wh, hi5 & _M32, hi5 >> 32)
    lo = w * hi5
    # the low 9 bits of hi all ones: the lower half of 5^-f may carry into them
    fix = np.flatnonzero((hi & 0x1FF) == 0x1FF)
    if fix.size:
        lo2 = lo[fix] + _mulhi(wl[fix], wh[fix], lo5[fix] & _M32, lo5[fix] >> 32)
        hi[fix] += lo2 < lo[fix]
        lo[fix] = lo2
    up = hi >> 63
    shift = up + 9
    mant = hi >> shift  # the significand and one rounding bit
    # an exact halfway product rounds to even; only f <= 4 can give one
    tie = np.flatnonzero(lo <= 1)
    if tie.size:
        t = mant[tie]
        mant[tie] -= (f[tie] <= 4) & ((t & 3) == 1) & (t << shift[tie] == hi[tie])
    mant += mant & 1
    mant >>= 1
    # mant, 2^52 to 2^53, carries its leading bit (and a rounding carry) into the exponent
    return mant + (exp + up - lz << 52)


def _digits(w: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """In place, the numbers that the ASCII digits in the last bytes of
    the little-endian words w write, after clearing the first keep/8 bytes:
    SWAR, summing digit pairs, then pairs of pairs, then the two halves
    (Lemire 2021)."""
    w ^= _ZEROS
    w >>= keep
    w <<= keep
    t = w >> 8
    w *= 10
    w += t
    np.right_shift(w, 16, out=t)
    t &= _LANES
    t *= 1 + (10_000 << 32)
    w &= _LANES
    w *= 100 + (1_000_000 << 32)
    w += t
    w >>= 32
    return w


def _run(buf: bytes, ends: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The numbers that the runs of n <= 19 digits ending before ``ends``
    in ``buf`` write, from the fewest 8-byte words that hold every run."""
    width = (int(n.max()) + 7) // 8
    rows = np.ndarray((len(buf) - 8 * width + 1,), np.dtype((np.void, 8 * width)), buf, 0, (1,))
    w = _digits(rows[ends - 8 * width].view("<u8").reshape(-1, width),
                _KEEP[width - 1].take(n, axis=0))
    m = w[:, 0]
    for k in range(1, width):
        m = m * 10 ** 8 + w[:, k]
    return m


def _parse(pieces: Sequence) -> tuple[np.ndarray, list[int]] | None:
    """The values of the tokens of ``pieces``, bytes-like parts of GRD1
    bodies that end at separators, and the number of tokens in each piece;
    None if a token is not a finite float.

    The tokens are those ``str.split`` gives on ASCII text. A plain token,
    an optional '-', digits, '.' and digits (19 digits at most, one on
    each side of the point at least), is read as m 10^-f from uint64 words
    that end at its point and at its end. The double is m / 10^f, which
    is exact and rounded once (W. Clinger, "How to read floating point
    numbers accurately", PLDI 1990) when m < 2^53, and Eisel-Lemire's
    otherwise. Any other token goes to ``float``."""
    buf = b"\n".join([_LEAD, *pieces, b""])
    b = np.frombuffer(buf, np.uint8)
    nd = b - 48
    nd = np.flatnonzero(np.greater(nd, 9, out=nd.view(bool)))  # the non-digits
    kind = _KIND.take(b[nd])
    sep = np.flatnonzero(kind == _SEP)
    gap = np.flatnonzero(np.diff(nd[sep]) > 1)  # a token lies between sep[gap] and sep[gap + 1]
    first, last = sep[gap], sep[gap + 1]
    del sep, gap
    starts, ends = nd[first] + 1, nd[last]
    # the tokens before the "\n" after each piece
    ends_at = itertools.accumulate((len(p) + 1 for p in pieces), initial=len(_LEAD))
    before = np.searchsorted(starts, list(ends_at)[1:]).tolist()
    counts = [y - x for x, y in zip([0] + before, before)]
    if not starts.size:
        return np.empty(0), counts
    last -= 1  # the token's last non-digit: its point, if it is plain
    point = nd[last]
    neg = b[starts] == ord("-")
    i = point - starts - neg  # digits before the point
    f = ends - point - 1  # and after it
    plain = kind[last] == _DOT
    plain &= last - first == 1 + neg  # and no other non-digit but the sign
    plain &= np.minimum(i, f) >= 1
    plain &= i + f <= 19
    del nd, kind, first, last
    odd = np.flatnonzero(~plain)
    i[odd] = f[odd] = 1
    m = _run(buf, point, i) * _P10[f] + _run(buf, ends, f)
    del point, i
    v = m.astype(np.float64)
    v /= _F10[f]
    big = np.flatnonzero(m >= 1 << 53)
    if big.size:
        v[big] = _eisel_lemire(m[big], f[big]).view(np.float64)
    np.negative(v, out=v, where=neg)
    for j, s, e in zip(odd.tolist(), starts[odd].tolist(), ends[odd].tolist()):
        try:
            v[j] = float(buf[s:e].decode("ascii"))
        except ValueError:
            return None
    if not np.isfinite(v[odd]).all():
        return None
    return v, counts


def _pieces(body) -> Iterator:
    """``body`` cut before separators into pieces of about READ_BYTES."""
    start = 0
    while len(body) - start > READ_BYTES:
        cut = _SEPARATOR.search(body, start + READ_BYTES)
        if cut is None:
            break
        yield body[start:cut.start()]
        start = cut.start()
    yield body[start:]


def _groups(bodies: Sequence) -> Iterator[tuple[list, list]]:
    """The pieces of ``bodies`` in groups of at most READ_BYTES (or one
    larger piece), each with the index of each piece's body."""
    group, owner, size = [], [], 0
    for k, body in enumerate(bodies):
        for piece in _pieces(body):
            if group and size + len(piece) > READ_BYTES:
                yield group, owner
                group, owner, size = [], [], 0
            group.append(piece)
            owner.append(k)
            size += len(piece)
    if group:
        yield group, owner


def read_bodies(bodies: Sequence, ncells: int, out: np.ndarray) -> bool:
    """Parse GRD1 bodies (bytes-like), each of which must hold exactly
    ``ncells`` finite values, into the C-contiguous ``out``, one body after
    the other. Returns False if one does not; :func:`grid_error` then names
    the error. Bodies are cut into pieces of about READ_BYTES at
    separators, and as many pieces as fit in READ_BYTES are parsed by one
    call of the batched parser."""
    flat = out.reshape(-1)
    found = np.zeros(len(bodies), np.intp)
    pos = 0
    for group, owner in _groups(bodies):
        parsed = _parse(group)
        if parsed is None or pos + parsed[0].size > flat.size:
            return False
        values, counts = parsed
        flat[pos:pos + values.size] = values
        pos += values.size
        np.add.at(found, owner, counts)
    return bool((found == ncells).all())


def _ascii_text(data: bytes) -> str:
    """``data`` as ASCII text with universal newlines (``\\r\\n`` and ``\\r``
    read as ``\\n``); a non-ASCII byte raises CapeskitError naming its line."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise CapeskitError(f"line {line}: non-ASCII byte {data[exc.start]:#04x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_header(header: str) -> tuple[GridSpec, str]:
    """The spec and units of a GRD1 header line; CapeskitError if it is malformed."""
    if not header.strip():
        raise CapeskitError("line 1: empty file, expected GRD1 header")
    head = header.split()
    if len(head) != 8 or head[0] != "GRD1":
        raise CapeskitError(
            "line 1: header must be 'GRD1 <nlat> <nlon> <lat0> <dlat> <lon0> <dlon> <units>'")
    try:
        nlat, nlon = int(head[1]), int(head[2])
        lat0, dlat, lon0, dlon = (float(x) for x in head[3:7])
    except ValueError as exc:
        raise CapeskitError(f"line 1: bad header number: {exc}") from None
    units = head[7]
    if units not in UNITS:
        raise CapeskitError(f"line 1: unknown units {units!r}")
    try:
        spec = GridSpec(nlat, nlon, lat0, dlat, lon0, dlon)
    except ValueError as exc:
        raise CapeskitError(f"line 1: {exc}") from None
    return spec, units


def _body_error(lines: list[str], expected: int) -> CapeskitError:
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
                return CapeskitError(f"line {lineno}: unparseable value {tok!r}")
            if not np.isfinite(v):
                return CapeskitError(f"line {lineno}: non-finite value {tok!r}")
            if count >= expected:
                return CapeskitError(f"line {lineno}: more than the declared {expected} values")
            count += 1
    return CapeskitError(
        f"line {len(lines)}: value count mismatch: header declares {expected}, found {count}")


def grid_error(data: bytes) -> CapeskitError:
    """The error of a GRD1 file that the reader rejects, found as the
    per-token reader found it: the first non-ASCII byte, else a bad
    header, else the body's first bad token or its value count."""
    try:
        text = _ascii_text(data)
        spec, _ = _parse_header(text.partition("\n")[0])
    except CapeskitError as exc:
        return exc
    return _body_error(text.split("\n"), spec.ncells)


def split_grid(data: bytes) -> tuple[GridSpec, str, memoryview] | None:
    """The spec, units and body of a GRD1 file's bytes whose first line is
    a valid ASCII header; None otherwise."""
    eol = _EOL.search(data)
    end = eol.start() if eol else len(data)
    try:
        spec, units = _parse_header(data[:end].decode("ascii"))
    except ValueError:
        return None
    return spec, units, memoryview(data)[end + 1:]


def parse_grid(data: bytes) -> GridField:
    """The field of a GRD1 file's bytes; a malformed file raises the
    CapeskitError that :func:`read_grid` describes."""
    head = split_grid(data)
    if head is not None:
        spec, units, body = head
        # a body of b bytes holds at most (b + 1) // 2 values, so a huge
        # declared grid allocates nothing
        if spec.ncells <= (len(body) + 1) // 2:
            values = np.empty((spec.nlat, spec.nlon))
            if read_bodies([body], spec.ncells, values):
                return GridField(spec, values, units=units)
    raise grid_error(data)


def read_grid(path) -> GridField:
    """Read a GRD1 file, rejecting non-ASCII bytes, malformed headers, count
    mismatches and non-finite values (error messages carry the offending
    line number).

    The body is parsed by the batched parser; a file it rejects is scanned
    token by token for the error to report."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_grid(data)


def read_anomaly(path) -> AnomalyField:
    return AnomalyField.from_grid(read_grid(path))


def write_anomaly(a: AnomalyField, path) -> None:
    write_grid(a.as_grid(), path)


def write_anomalies(spec: GridSpec, values: np.ndarray, paths: Sequence) -> None:
    """Write the anomaly fields of ``values`` (n, nlat, nlon), on ``spec``,
    as GRD1 files, one per path, with the bytes ``write_anomaly`` writes;
    small fields are formatted several at a time."""
    _write_grids(paths, spec, "percent", values)


def read_mask(path) -> np.ndarray:
    """Read a unitless GRD1 field as a boolean mask (nonzero = included)."""
    f = read_grid(path)
    if f.units != "unitless":
        raise CapeskitError(f"mask fields must be unitless, got {f.units!r}")
    return f.values != 0.0

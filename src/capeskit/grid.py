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
computed for up to 4,096 values at a time with uint64 numpy arithmetic.
Schubfach (Giulietti 2020) gives each value's shortest decimal as 16 or
17 digits and a power of ten, its three 128-bit products in one stacked
call. The digits, padded to 17, become three 8-digit groups and then
ASCII by SWAR, eight digits to a word, in a 24-byte row per value. The
point goes in by shifting the bytes after it one byte on; masks chosen by
the point's position, the count of significant digits (read off the
float exponent of the digits) and the sign keep the value's text and
clear the rest, and dropping the zero bytes leaves the body. Values that
``repr`` writes in scientific notation (|x| < 1e-4 or >= 1e16) and
subnormals are rare in fields; ``repr`` writes them one by one. Tests
compare the writer with the ``repr`` join on random bit patterns and on
every layout. Creating a file costs about as much as formatting it, so
files are written on one I/O thread while the next ones are formatted
(and, when fields come in batches, while the next batch is made); a
file's header and body are joined once, when the body is copied out of
the formatted text, and written with one ``os.write``.

The reader
----------
Reading one ``float`` per token made this the largest step of ``fuse``,
so bodies are parsed with uint64 numpy arithmetic, about 64 KiB of text
(several files of an ensemble) per call, by :func:`read_bodies`, the one
layer that batches them; it takes bodies, such as an ensemble's member
files, from an iterable as it needs them. Tokens are the runs of bytes
between separators, which are exactly the ASCII whitespace ``str.split``
splits on. A plain token, an optional ``-``, digits, ``.`` and digits
(19 digits at most), is read as m 10^-f from the three words that end at
its end: the bytes before the point move one byte on, over it, masks keep
the digits, and they are summed eight to a word (SWAR). m is converted
exactly: m / 10^f when m < 2^53 (Clinger 1990), Eisel-Lemire's 128-bit
product with a power of five otherwise (Lemire 2021). Every other
spelling (an exponent, ``+``, ``_``, no digit on a side of the point,
more digits, ``inf``, ``nan``) goes to ``float``. A file the parser
rejects is scanned line by line, token by token, for the error to report.
Tests compare the reader with ``float`` on random bit patterns and
decimals.
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
from typing import Iterable, Iterator, Sequence

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
        for name in ("lat0", "dlat", "lon0", "dlon"):
            if not np.isfinite(getattr(self, name)):
                raise CapeskitError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not (self.floor > 0 and np.isfinite(self.floor)):
            raise CapeskitError(f"climatology floor must be finite and positive, got {self.floor}")
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

#: values formatted per call of _format_rows: bounds its working set (at
#: most 200 B per value), so writing an ensemble barely moves its peak memory
_CHUNK = 4096

_U = np.uint64
_FRAC, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_M32, _M63 = _U((1 << 32) - 1), _U((1 << 63) - 1)
_P10 = np.array([10 ** i for i in range(20)], dtype=_U)
_ZEROS = _U(0x3030303030303030)  # eight ASCII '0' bytes in a word
_1, _2, _3, _4, _7, _8, _9, _10, _11, _16, _20, _32, _40, _52, _56, _63, _511, _1075 = (
    _U(c) for c in (1, 2, 3, 4, 7, 8, 9, 10, 11, 16, 20, 32, 40, 52, 56, 63, 511, 1075))
#: the factors of the two last steps of the reader's SWAR sum
_PAIRS = (_U(1 + (10_000 << 32)), _U(100 + (1_000_000 << 32)))
#: the constants of _digits8
_SWAR = tuple(_U(c % (1 << 64)) for c in (10_000, 1 - (10_000 << 32), 10_486, 0x0000007F0000007F,
                                           1 - (100 << 16), 103, 0x000F000F000F000F, 1 - (10 << 8)))
_TO17 = np.array([10, 1], _U)  # the factor that makes 16 or 17 digits 17
#: by vb mod 8: s rounds up, when both s and s + 1 lie in the interval
#: (vb mod 4 = 3, or 2 and s odd)
_ROUND_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], bool)
_LE = np.dtype("<u8")  # words whose bytes are laid out in address order
_ROW = 24  # bytes per value in the layout matrix: three words


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
    tables = (k.astype(np.int16), h.astype(np.uint8),
              np.array(g1, _U)[k + 324], np.array(g0, _U)[k + 324])
    for t in tables:
        t.flags.writeable = False
    return tables


def _mulhi(al, ah, bl, bh):
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    lh = al * bh
    hl = ah * bl
    mid = al * bl
    mid >>= _32
    mid += lh & _M32
    mid += hl & _M32
    mid >>= _32
    lh >>= _32
    hl >>= _32
    mid += lh
    mid += hl
    mid += ah * bh
    return mid


def _mulhi63(al, ah, bl, bh):
    """:func:`_mulhi` for a, b < 2^63: the middle sum
    ah bl + al bh + (al bl >> 32) is then below 2^64, so it needs no
    carry, and two arrays of the products' shape are alive at most."""
    mid = al * bl
    mid >>= _32
    t = ah * bl
    mid += t
    np.multiply(al, bh, out=t)
    mid += t
    mid >>= _32
    np.multiply(ah, bh, out=t)
    mid += t
    return mid


def _rop(g1, g0, cp):
    """Schubfach's rop: g cp 2^-127 rounded to odd, for g = g1 2^63 + g0,
    multiplied in 64-bit pieces (Giulietti, figure 8); g0, g1 < 2^63 and
    cp < 2^60. ``cp``, ``g1`` and ``g0`` are consumed, so that few arrays
    are alive at once."""
    z = g1 * cp
    z >>= _1
    ch = cp >> _32
    cl = np.bitwise_and(cp, _M32, out=cp)
    g0l = g0 & _M32
    z += _mulhi63(g0l, np.right_shift(g0, _32, out=g0), cl, ch)
    del g0l
    np.bitwise_and(g1, _M32, out=g0)
    vbp = _mulhi63(g0, np.right_shift(g1, _32, out=g1), cl, ch)
    del cl, ch
    vbp += z >> _63
    z &= _M63
    z += _M63
    z >>= _63
    vbp |= z
    return vbp


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip decimals of normal doubles given as uint64 bits,
    as (f, k) with |v| = f 10^k and 10^15 <= f < 10^17; f may end in
    zeros. Among the shortest decimals that read back as v it picks the
    closest, ties to an even digit, which is the rule of Python's
    ``repr``."""
    frac = bits & _FRAC
    irr = frac == 0
    idx = (bits >> _52).astype(np.intp)
    idx &= 0x7FF
    idx += 2048 * irr
    k, h, g1, g0 = (t.take(idx) for t in _schubfach_tables())
    del idx  # the arrays alive at once set the writer's peak memory
    # the three products share g, so they are made by one call
    cp = np.empty((3, bits.size), _U)
    cb = np.bitwise_or(frac, _HIDDEN, out=cp[0])
    cb <<= _2
    np.add(cb, _2, out=cp[2])
    np.subtract(cb, _2, out=cp[1])
    cp[1] += irr
    cp <<= h
    del frac, irr, h, cb
    vb, vbl, vbr = _rop(g1, g0, cp)
    del cp, g1, g0
    # the rounding interval is closed for even significands
    odd = bits & _1
    vbl += odd
    vbr -= odd
    del odd
    # s = vb >> 2, or one digit shorter: sp10 or sp10 + 10, if just one
    # of them lies in the interval (4 s and 4 sp10 are compared)
    s4 = vb & ~_3
    uin = vbl <= s4
    win = s4 + _4 <= vbr
    sp40 = s4 // _40
    sp40 *= _40
    upin = vbl <= sp40
    wpin = sp40 + _40 <= vbr
    # otherwise s or s + 1: the one inside if just one is, else the
    # closer, ties to even: up ^= (up ^ win) & (uin ^ win)
    up = _ROUND_UP.take(vb & _7)
    del vb, vbl, vbr
    uin ^= win
    np.bitwise_xor(up, win, out=win)
    win &= uin
    up ^= win
    del uin, win
    s4 >>= _2
    s4 += up
    sp40 >>= _2
    sp40 += wpin * _10
    upin ^= wpin  # just one of sp10 and sp10 + 10 lies in the interval
    return np.where(upin, sp40, s4), k


def _digits8(g: np.ndarray) -> np.ndarray:
    """In place, the eight decimal digits of each g < 10^8 as a word whose
    bytes are the digits' values in address order: SWAR, splitting into
    halves, then pairs, then digits. Each step moves the remainder r of
    x = q d + r up a lane, as x 2^w + q (1 - d 2^w) modulo 2^64, with
    exact multiply-shift quotients (v * 10486 >> 20 = v // 100 for
    v < 10^4, v * 103 >> 10 = v // 10 for v < 100), each lane too narrow
    to carry into the next."""
    q = g // _SWAR[0]
    g <<= _32
    g += q * _SWAR[1]
    np.multiply(g, _SWAR[2], out=q)
    q >>= _20
    q &= _SWAR[3]
    g <<= _16
    g += q * _SWAR[4]
    np.multiply(g, _SWAR[5], out=q)
    q >>= _10
    q &= _SWAR[6]
    g <<= _8
    g += q * _SWAR[7]
    return g


@functools.lru_cache(maxsize=None)
def _layout_tables() -> tuple[np.ndarray, ...]:
    """The row of a value by its key, 2 (17 (decpt + 3) + nd - 1) + sign,
    for decpt digits before the point (-3 to 16), nd significant digits
    (1 to 17) and a sign bit. The row's digit words hold five '0's, the
    17 digits and two spare bytes; its text is the integer part (a single
    0 when decpt <= 0, left of the -decpt zeros that start the fraction),
    the point, the fraction (one digit at least) and a space. As three
    rows of three words: the bytes kept of the digit words, those kept
    of the digit words shifted one byte on, and the sign, point and
    space; then the text's bytes and the column of its space.

    Also 2 nd by the biased exponent of the float of the row's digit
    values read as a 192-bit number: its highest nonzero byte is
    (exponent - 1023) // 8, the last significant digit, and 17 zeros
    (exponent 0) are a zero, one digit. Built on first use."""
    rows = np.zeros((20, 17, 2, 3, _ROW), np.uint8)
    sizes = np.zeros((20, 17, 2), np.intp)
    gaps = np.zeros((20, 17, 2), np.intp)
    for decpt in range(-3, 17):
        point = 5 + decpt
        first = point - max(decpt, 1)
        for nd in range(1, 18):
            last = 5 + max(nd, decpt + 1)  # the point not yet in
            for sign in (0, 1):
                row = rows[decpt + 3, nd - 1, sign]
                row[0, first:point] = 0xFF
                row[1, point + 1:last + 1] = 0xFF
                row[2, point] = ord(".")
                row[2, last + 1] = ord(" ")
                row[2, first - 1] = ord("-") * sign
                sizes[decpt + 3, nd - 1, sign] = last + 2 - first + sign
                gaps[decpt + 3, nd - 1, sign] = last + 1
    masks = rows.reshape(680, 3, _ROW).view(_LE).astype(_U).transpose(1, 0, 2).copy()
    nd2 = np.full(1023 + 192, 2, np.intp)
    nd2[1023:] = 2 * (np.arange(192) // 8 - 4)  # the first digit is in byte 5
    tables = masks, sizes.reshape(680), gaps.reshape(680), nd2
    for t in tables:
        t.flags.writeable = False
    return tables


def _format_rows(values: np.ndarray, ncol: int) -> tuple[np.ndarray, np.ndarray]:
    """GRD1 body text, as uint8 characters, of whole rows of ``ncol``
    float64 values, each written exactly as ``repr`` writes it, separated
    by a space, with ``\\n`` after each row. Also returns the number of
    bytes of each value, separator included.

    Each value gets a 24-byte row, three words: five '0's, its 17
    significant digits and two spare bytes, as three 8-digit groups. The
    point goes in by shifting the bytes after it one on, and masks chosen
    by the point's position, the count of significant digits and the
    sign keep the text, which starts with the sign and ends with the
    separator; every other byte is 0, and dropping the zero bytes leaves
    the body. Values that ``repr`` writes in scientific notation
    (|v| < 1e-4 or >= 1e16) and subnormals are written by ``repr`` and
    put in between."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(_U)
    n = bits.size
    f, k = _schubfach(bits)
    long = f >= _P10[16]
    f *= _TO17.take(long.view(np.uint8))  # now 17 digits
    # the layout key, 34 (decpt + 3) + 2 (nd - 1) + sign, where decpt =
    # k + 16 + long is the number of digits before the point; the
    # significant ones, nd, are added below
    key = k.astype(np.intp)
    del k
    key += long
    del long
    key *= 34
    key += 644
    # the rows repr writes: scientific notation, subnormals (no zero or
    # subnormal decimal exponent is in range), inf and nan
    blank = (key + 2).view(_U) >= 680
    fallback = blank[:0]
    if blank.any():
        fallback = np.flatnonzero(blank & (bits << _1 != 0))
        np.putmask(f, blank, 0)  # a zero is "0.0": one digit, one before the point
        np.putmask(key, blank, 134)
    del blank
    key += (bits >> _63).view(np.intp)
    words = np.empty((n, 3), _LE)
    np.floor_divide(f, _P10[14], out=words[:, 0])
    f -= words[:, 0] * _P10[14]
    np.floor_divide(f, _P10[6], out=words[:, 1])
    f -= words[:, 1] * _P10[6]
    np.multiply(f, _P10[2], out=words[:, 2])
    del f
    _digits8(words)
    masks, sizes, gaps, nd2 = _layout_tables()
    # the last significant digit: the highest nonzero byte of the row's
    # digit values read as one number, from the exponent of its float
    # (each byte is at most 9, so no rounding carries into the next byte)
    digits = words.astype(np.float64)
    top = digits[:, 2] * 2.0 ** 128
    top += digits[:, 1] * 2.0 ** 64
    top += digits[:, 0]
    del digits
    key += nd2.take(top.view(_U) >> _52)
    del top
    words |= _ZEROS
    shifted = words << _8
    # a word's top byte moves into the next one's first byte; it moves
    # from one row into the next, where no mask keeps it
    shifted.reshape(-1)[1:] |= words.reshape(-1)[:-1] >> _56
    shifted &= masks[1].take(key, axis=0)
    words &= masks[0].take(key, axis=0)
    words |= shifted
    words |= masks[2].take(key, axis=0)
    del shifted
    size = sizes.take(key)
    m = words.view(np.uint8).reshape(n, _ROW)
    ends = np.arange(ncol - 1, n, ncol)
    m[ends, gaps.take(key[ends])] = ord("\n")
    del key
    if not fallback.size:
        return m[m != 0], size
    # the texts repr writes go in where their rows would be
    m[fallback] = 0
    size[fallback] = 0
    at = (np.cumsum(size) - size)[fallback]
    texts = [repr(v).encode() + (b"\n" if j % ncol == ncol - 1 else b" ")
             for j, v in zip(fallback.tolist(), bits[fallback].view(np.float64).tolist())]
    size[fallback] = [len(t) for t in texts]
    text = np.frombuffer(b"".join(texts), np.uint8)
    return np.insert(m[m != 0], at.repeat(size[fallback]), text), size


def _bodies(fields: np.ndarray, header: bytes = b"") -> Iterator[bytes]:
    """The GRD1 text of each field of ``fields`` (n, nrow, ncol), in
    order: ``header``, then the field's body, as one bytes object. Small
    fields are formatted several at a time and a large one in blocks of
    rows, at most _CHUNK values per call where a row fits; each text is
    copied once, when its parts are joined. No text refers to ``fields``,
    so its memory may be reused once its last text is yielded."""
    n, nrow, ncol = fields.shape
    ncells = nrow * ncol
    if ncells <= _CHUNK:
        per = _CHUNK // ncells
        for a in range(0, n, per):
            text, size = _format_rows(fields[a:a + per], ncol)
            ends = np.cumsum(size)[ncells - 1::ncells].tolist()
            yield from (b"".join((header, text.data[i:j])) for i, j in zip([0] + ends, ends))
    else:
        rows = max(1, _CHUNK // ncol)
        for fld in fields:
            yield b"".join([header] + [_format_rows(fld[r:r + rows], ncol)[0]
                                       for r in range(0, nrow, rows)])


#: four random bytes drawn once per process, and the serial number of each
#: temp name: a name costs no system call of its own
_TEMP_TOKEN = os.urandom(4).hex()
_temp_serial = itertools.count()


def _temp_path(path: str) -> str:
    """A new temp file beside ``path``, named by the process id, this
    process's four random bytes and a serial number: no killed process with
    the same id left one of that name."""
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.{os.getpid()}.{_TEMP_TOKEN}.{next(_temp_serial)}.tmp")


def write_text_atomic(path, text: str | bytes) -> None:
    """Write ``text`` atomically: a str as UTF-8 with ``\\n`` newlines, and
    bytes as they are. It goes into a new temp file beside ``path``,
    created exclusively with the mode the process umask gives, then
    renamed over ``path``. On any failure the temp file, if made, is
    removed and ``path`` is left as it was; an OSError (a missing
    directory, a directory at ``path``) is reported as an input error
    naming ``path``."""
    path = os.fspath(path)
    tmp = _temp_path(path)
    view = memoryview(text.encode("utf-8") if isinstance(text, str) else text)
    fd = None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
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


def _runs(items: Iterable[tuple[int, object]], limit: int) -> Iterator[list]:
    """The items of ``items``, (size, item) pairs, in consecutive runs of at
    most ``limit`` in total size (a larger item runs alone), each yielded
    as soon as the next item, taken one at a time, does not fit in it."""
    run, total = [], 0
    for size, item in items:
        if run and total + size > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += size
    if run:
        yield run


def _write_behind(files: Iterator[tuple[str, bytes]]) -> None:
    """:func:`write_text_atomic` of each (path, data) of ``files``, in
    order, on one I/O thread, while this thread makes the next ones. The
    writer's first failure stops it, so no later file is written, and is
    raised here; an exception here stops and joins the writer before it
    propagates, so no temp file and no thread outlive the call."""
    queued = queue.Queue(_QUEUED)
    stop = threading.Event()
    failed = []

    def writer():
        for group in iter(queued.get, None):
            for path, data in group:
                if stop.is_set():
                    break
                try:
                    write_text_atomic(path, data)
                except BaseException as exc:
                    failed.append(exc)
                    stop.set()

    thread = threading.Thread(target=writer, name="capeskit-writer")
    thread.start()
    try:
        for group in _runs(((len(data), (path, data)) for path, data in files), _HANDOFF):
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


def write_grids(units: str, batches: Iterable[tuple[GridSpec, Sequence, np.ndarray]]) -> None:
    """Write each field of each batch (spec, paths, values) of ``batches``,
    the fields of ``values`` (n, nlat, nlon) on ``spec`` in ``units``, as
    a GRD1 file at its path, with the bytes :func:`write_grid` writes,
    behind the formatter by :func:`_write_behind`. A batch is taken when
    the one before it is formatted, so it may be made then, and its array
    may reuse the memory of the one before. Each file, header and body,
    is one bytes object, which the writer writes with one ``os.write``."""
    def files():
        for spec, paths, values in batches:
            header = (f"GRD1 {spec.nlat} {spec.nlon} {_format_value(spec.lat0)} "
                      f"{_format_value(spec.dlat)} {_format_value(spec.lon0)} "
                      f"{_format_value(spec.dlon)} {units}\n").encode()
            yield from zip(paths, _bodies(values, header), strict=True)

    _write_behind(files())


def write_grid(field: GridField, path) -> None:
    """Write a field as GRD1 text, atomically (write temp, then rename)."""
    write_grids(field.units, [(field.spec, [path], field.values[None])])


# ---------------------------------------------------------------------------
# GRD1 body values: plain decimals converted for many tokens at once

#: body bytes parsed per call of _parse (about 3,300 values): bounds its
#: working set, at most 10 B per byte of text, so reading an ensemble barely
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
_LANES = _U(0x000000FF000000FF)
_WORDS3 = np.dtype((np.void, 24))  # three words as one item
_F10 = np.array([float(10 ** i) for i in range(20)])


@functools.lru_cache(maxsize=None)
def _point_masks() -> np.ndarray:
    """For the three words (24 bytes in address order) that end where a
    plain token of i digits, a point and f digits ends, indexed by
    20 f + i: the bytes of its f digits, and those of its i digits once
    moved one byte on, over the point. Built on first use."""
    rows = np.zeros((2, 20, 20, 24), np.uint8)
    for f in range(20):
        for i in range(20 - f):
            rows[0, f, i, 24 - f:] = 0xFF
            rows[1, f, i, 24 - f - i:24 - f] = 0xFF
    masks = rows.reshape(2, 400, 24).view(_LE).astype(_U)
    masks.flags.writeable = False
    return masks


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
    hi5, lo5, exp = (t.take(f) for t in _pow5_tables())
    # the leading zeros of m, from the exponent of float(m >> 11), which
    # is exact: 1023 + floor(log2(m)) - 11
    lz = (m >> _11).astype(np.float64).view(_U)
    lz >>= _52
    np.subtract(_1075, lz, out=lz)
    w = m << lz
    wl, wh = w & _M32, w >> _32
    hi = _mulhi(wl, wh, hi5 & _M32, hi5 >> _32)
    lo = w * hi5
    # the low 9 bits of hi all ones: the lower half of 5^-f may carry into them
    fix = np.flatnonzero((hi & _511) == _511)
    if fix.size:
        lo2 = lo[fix] + _mulhi(wl[fix], wh[fix], lo5[fix] & _M32, lo5[fix] >> _32)
        hi[fix] += lo2 < lo[fix]
        lo[fix] = lo2
    up = hi >> _63
    shift = up + _9
    mant = hi >> shift  # the significand and one rounding bit
    # an exact halfway product rounds to even; only f <= 4 can give one
    tie = np.flatnonzero(lo <= _1)
    if tie.size:
        t = mant[tie]
        mant[tie] -= (f[tie] <= 4) & ((t & _3) == _1) & (t << shift[tie] == hi[tie])
    mant += mant & _1
    mant >>= _1
    # mant, 2^52 to 2^53, carries its leading bit (and a rounding carry) into the exponent
    exp += up
    exp -= lz
    exp <<= _52
    mant += exp
    return mant


def _mantissas(buf: bytes, ends: np.ndarray, i: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The numbers m that the i digits, point and f digits ending before
    ``ends`` in ``buf`` write, i + f <= 19, from the three words that end
    there: the bytes before the point move one byte on, over it, masks
    keep the digits, and the digits are summed as SWAR, in pairs, pairs
    of pairs, then halves (Lemire 2021)."""
    w = np.ndarray((len(buf) - 23,), _WORDS3, buf, 0, (1,))[ends - 24]
    w = w.view(_LE).reshape(-1, 3)
    w ^= _ZEROS
    key = f * 20
    key += i
    masks = _point_masks()
    moved = w << _8
    moved.reshape(-1)[1:] |= w.reshape(-1)[:-1] >> _56
    moved &= masks[1].take(key, axis=0)
    w &= masks[0].take(key, axis=0)
    del key
    w |= moved
    np.right_shift(w, _8, out=moved)
    w *= _10
    w += moved
    np.right_shift(w, _16, out=moved)
    moved &= _LANES
    moved *= _PAIRS[0]
    w &= _LANES
    w *= _PAIRS[1]
    w += moved
    w >>= _32
    m = w[:, 0] * _P10[16]
    m += w[:, 1] * _P10[8]
    m += w[:, 2]
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
    sign = neg.astype(np.intp)
    i = point - starts  # digits before the point
    i -= sign
    f = ends - point  # and after it
    f -= 1
    plain = kind[last] == _DOT
    last -= first
    last -= sign
    plain &= last == 1  # and no other non-digit but the sign
    plain &= np.minimum(i, f) >= 1
    plain &= i + f <= 19
    del nd, kind, first, last, sign
    odd = np.flatnonzero(~plain)
    i[odd] = f[odd] = 1
    del point
    m = _mantissas(buf, ends, i, f)
    del i
    v = m.astype(np.float64)
    v /= _F10.take(f)
    big = np.flatnonzero(m >= _U(1 << 53))
    if big.size:
        v[big] = _eisel_lemire(m[big], f[big]).view(np.float64)
    bits = v.view(_U)
    bits |= neg.astype(_U) << _63  # v >= 0: the sign bit negates it
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


def _groups(bodies: Iterable) -> Iterator[tuple[list, list]]:
    """The pieces of ``bodies`` in groups of at most READ_BYTES (or one
    larger piece), each with the index of each piece's body. A body is
    taken from ``bodies`` when its first piece is needed."""
    pieces = ((len(piece), (piece, k)) for k, body in enumerate(bodies)
              for piece in _pieces(body))
    for run in _runs(pieces, READ_BYTES):
        group, owner = zip(*run)
        yield list(group), list(owner)


def read_bodies(bodies: Iterable, ncells: int, out: np.ndarray) -> bool:
    """Parse GRD1 bodies (bytes-like), one per ``ncells`` values of the
    C-contiguous ``out``, each of which must hold exactly ``ncells`` finite
    values, into ``out``, one after the other. Returns False if one does
    not or ``bodies`` yields too few or too many; :func:`grid_error` then
    names the error. The one batching layer of GRD1 text: bodies are cut
    into pieces of about READ_BYTES at separators, and as many pieces as
    fit in READ_BYTES are parsed by one call of the batched parser. A body
    is taken from ``bodies``, any iterable, only when its group needs it."""
    flat = out.reshape(-1)
    found = np.zeros(flat.size // ncells, np.intp)
    pos = 0
    for group, owner in _groups(bodies):
        parsed = _parse(group)
        if parsed is None or pos + parsed[0].size > flat.size or owner[-1] >= found.size:
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


def read_grid(path) -> GridField:
    """Read a GRD1 file, rejecting non-ASCII bytes, malformed headers, count
    mismatches and non-finite values (error messages carry the offending
    line number).

    The body is parsed by the batched parser; a file it rejects is scanned
    token by token for the error to report."""
    with open(path, "rb") as fh:
        data = fh.read()
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


def read_anomaly(path) -> AnomalyField:
    return AnomalyField.from_grid(read_grid(path))


def write_anomaly(a: AnomalyField, path) -> None:
    write_grid(a.as_grid(), path)


def read_mask(path) -> np.ndarray:
    """Read a unitless GRD1 field as a boolean mask (nonzero = included)."""
    f = read_grid(path)
    if f.units != "unitless":
        raise CapeskitError(f"mask fields must be unitless, got {f.units!r}")
    return f.values != 0.0

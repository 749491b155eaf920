"""Forecast skill metrics: the graded PS score, anomaly correlation, RMSE.

Anomaly percentages are classified into sign (positive / negative / zero)
and level bands:

    normal   |a| < 20
    first    20 <= |a| <= 50
    second   |a| > 50
    extreme  |a| > 100   (implies second)

The PS score rewards correct anomaly sign (N0), correct first-level band
(N1) and correct second-level band (N2), and penalizes misses of extreme
observations (M: observed |a| > 100 while the forecast stays below 50):

    PS = 100 * (2*N0 + 2*N1 + 4*N2) / ((N - N0) + 2*N0 + 2*N1 + 4*N2 + M)

A level hit requires a sign hit: the first/second bands are sign-specific
ranges, so N1/N2 count cells where forecast and observation fall in the
same signed band. A forecast of exactly 0 scores a sign hit only against
an observation of exactly 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapeskitError
from .grid import AnomalyField, GridField


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"


class Level(enum.Enum):
    NORMAL = "normal"
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class AnomalyCategory:
    sign: Sign
    level: Level
    extreme: bool


@dataclass(frozen=True)
class PsBreakdown:
    """Counts feeding the PS score: N samples, N0 sign hits, N1/N2 level
    hits, M missed-extreme penalties."""

    N: int
    N0: int
    N1: int
    N2: int
    M: int

    def __post_init__(self):
        if not 0 <= self.N0 <= self.N:
            raise ValueError(f"need 0 <= N0 <= N, got N0={self.N0}, N={self.N}")
        if not 0 <= self.N1 + self.N2 <= self.N0:
            raise ValueError(
                f"need 0 <= N1+N2 <= N0, got N1={self.N1}, N2={self.N2}, N0={self.N0}"
            )
        if not 0 <= self.M <= self.N:
            raise ValueError(f"need 0 <= M <= N, got M={self.M}, N={self.N}")


def classify(a: float) -> AnomalyCategory:
    """Categorize one anomaly percentage.

    Boundary ties: |a| = 20 and |a| = 50 belong to the first level (second
    is strictly > 50); |a| = 100 is not extreme (extreme is strictly > 100).
    """
    if not math.isfinite(a):
        raise ValueError(f"anomaly must be finite, got {a!r}")
    if a > 0:
        sign = Sign.POSITIVE
    elif a < 0:
        sign = Sign.NEGATIVE
    else:
        sign = Sign.ZERO
    mag = abs(a)
    if mag < 20:
        level = Level.NORMAL
    elif mag <= 50:
        level = Level.FIRST
    else:
        level = Level.SECOND
    return AnomalyCategory(sign, level, extreme=mag > 100)


def _resolve_mask(spec, mask) -> np.ndarray:
    if mask is None:
        return np.ones((spec.nlat, spec.nlon), dtype=bool)
    m = np.asarray(mask, dtype=bool)
    if m.shape != (spec.nlat, spec.nlon):
        raise CapeskitError(f"mask shape {m.shape} does not match grid {spec.nlat}x{spec.nlon}")
    return m


def ps_breakdown(forecast: AnomalyField, obs: AnomalyField, mask=None) -> PsBreakdown:
    """Count sign/level hits and missed extremes over unmasked cells.

    Sign hit: a_f * a_o > 0, or both exactly 0. N1/N2: sign hit and both
    anomalies in the same (first/second) band. M: |a_o| > 100 while
    |a_f| < 50, regardless of sign.
    """
    forecast.require_compatible(obs)
    m = _resolve_mask(forecast.spec, mask)
    f = forecast.values[m]
    o = obs.values[m]
    n = int(f.size)
    if n == 0:
        raise CapeskitError("no unmasked cells (N = 0)")

    fa = np.abs(f)
    oa = np.abs(o)
    sign_hit = (f * o > 0) | ((f == 0) & (o == 0))
    f_first, o_first = (fa >= 20) & (fa <= 50), (oa >= 20) & (oa <= 50)
    f_second, o_second = fa > 50, oa > 50
    n0 = int(np.count_nonzero(sign_hit))
    n1 = int(np.count_nonzero(sign_hit & f_first & o_first))
    n2 = int(np.count_nonzero(sign_hit & f_second & o_second))
    miss = int(np.count_nonzero((oa > 100) & (fa < 50)))
    return PsBreakdown(N=n, N0=n0, N1=n1, N2=n2, M=miss)


def ps_score(b: PsBreakdown) -> float:
    """PS score in [0, 100] from a breakdown; undefined for N = 0."""
    if b.N < 1:
        raise CapeskitError("PS score undefined for N = 0")
    num = 2.0 * b.N0 + 2.0 * b.N1 + 4.0 * b.N2
    den = (b.N - b.N0) + 2.0 * b.N0 + 2.0 * b.N1 + 4.0 * b.N2 + b.M
    return 100.0 * num / den


def acc(forecast: AnomalyField, obs: AnomalyField, mask=None) -> float:
    """Anomaly correlation coefficient: Pearson correlation of the two
    anomaly fields over unmasked cells."""
    forecast.require_compatible(obs)
    m = _resolve_mask(forecast.spec, mask)
    f = forecast.values[m].astype(np.float64)
    o = obs.values[m].astype(np.float64)
    if f.size < 2:
        raise CapeskitError("ACC needs at least 2 unmasked cells")
    fd = f - f.mean()
    od = o - o.mean()
    fvar = float(fd @ fd)
    ovar = float(od @ od)
    if fvar == 0.0 or ovar == 0.0:
        raise CapeskitError("ACC undefined for a zero-variance field")
    return float(fd @ od) / math.sqrt(fvar * ovar)


def rmse(forecast: GridField, obs: GridField, mask=None) -> float:
    """Root mean square of cell differences over unmasked cells."""
    forecast.require_compatible(obs)
    m = _resolve_mask(forecast.spec, mask)
    d = forecast.values[m] - obs.values[m]
    if d.size == 0:
        raise CapeskitError("no unmasked cells (N = 0)")
    return math.sqrt(float(np.mean(d * d)))

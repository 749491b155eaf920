"""Adaptive ensemble fusion.

Each member gets a contribution score built from two complementary
metrics: sign consistency against the ensemble-median anomaly field
(robustness) and mean anomaly magnitude (sensitivity to anomalous
conditions). Both are min-max normalized across the ensemble, blended
with weight alpha, and renormalized into fusion weights. The fused
forecast is the per-cell weighted sum of member anomalies.

An :class:`EnsembleSet` keeps its members' fields in one (n, nlat, nlon)
array, so every step is a reduction over it with no per-member loop: the
sign of the median and the weighted sum run over axis 0, the two metrics
over axes (1, 2). Sign consistency needs only the median's sign, and that
comes from per-cell counts of positive and negative values; for even n,
only the cells whose middle pair can straddle zero are sorted.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapeskitError
from .grid import AnomalyField, GridSpec

TRACKS = ("numerical", "ai")


@dataclass(frozen=True)
class MemberMeta:
    """Provenance of one ensemble member.

    Numerical members carry a scheme index or a (param_i, param_j) lattice
    point; AI members carry both the init and latent seeds.
    """

    id: str
    track: str
    start_date_index: Optional[int] = None
    scheme_index: Optional[int] = None
    param_i: Optional[int] = None
    param_j: Optional[int] = None
    init_seed: Optional[int] = None
    latent_seed: Optional[int] = None

    def __post_init__(self):
        # the id names the member's file inside its ensemble directory;
        # "/" is os.sep or os.altsep on every platform
        if (self.id in ("", ".", "..") or "/" in self.id or os.sep in self.id
                or "\0" in self.id):
            raise CapeskitError(f"member id {self.id!r} is not a plain file name")
        if self.track not in TRACKS:
            raise CapeskitError(f"track must be one of {TRACKS}, got {self.track!r}")
        if self.track == "numerical":
            has_scheme = self.scheme_index is not None
            has_params = self.param_i is not None and self.param_j is not None
            if not (has_scheme or has_params):
                raise CapeskitError(
                    f"numerical member {self.id!r} needs a scheme or param indices"
                )
        else:
            if self.init_seed is None or self.latent_seed is None:
                raise CapeskitError(f"ai member {self.id!r} needs both seeds")


def physical_memory() -> int:
    """The machine's physical memory in bytes; the address space where the
    OS does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


class EnsembleSet:
    """Members on one shared grid: their metas, in order, and their anomaly
    fields as one read-only, C-contiguous (n, nlat, nlon) float64 array,
    ``values``, whose row i is member i.

    An array that already has that layout is taken as it is, not copied,
    and marked read-only: an ensemble is filled row by row once, then
    shared and never written again.
    """

    def __init__(self, spec: GridSpec, metas: Sequence[MemberMeta], values):
        metas = tuple(metas)
        if not metas:
            raise CapeskitError("ensemble must contain at least one member")
        ids = set()
        for meta in metas:
            if meta.id in ids:
                raise CapeskitError(f"duplicate member id {meta.id!r}")
            ids.add(meta.id)
        values = np.ascontiguousarray(values, dtype=np.float64)
        shape = (len(metas), spec.nlat, spec.nlon)
        if values.shape != shape:
            raise CapeskitError(f"expected values of shape {shape}, got {values.shape}")
        # min and max are NaN or infinite when any value is: no temporary array
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise CapeskitError("field values must be finite (no NaN/Inf)")
        values.flags.writeable = False
        self.spec = spec
        self.values = values
        self._metas = metas

    @classmethod
    def from_members(cls, members: Sequence[tuple[MemberMeta, AnomalyField]]) -> "EnsembleSet":
        """The ensemble of (meta, field) pairs on one grid, in order."""
        members = list(members)
        if not members:
            raise CapeskitError("ensemble must contain at least one member")
        spec = members[0][1].spec
        for meta, fld in members:
            if fld.spec != spec:
                raise CapeskitError(
                    f"member {meta.id!r} grid differs from the ensemble grid"
                )
        return cls(spec, [m for m, _ in members], np.stack([f.values for _, f in members]))

    @staticmethod
    def check_size(spec: GridSpec, n: int) -> None:
        """Refuse n fields on ``spec`` that physical memory could not hold
        as one array, as :meth:`allocate` does, without allocating them."""
        if 8 * n * spec.ncells > physical_memory():
            raise CapeskitError(f"{n} fields of {spec.nlat}x{spec.nlon} do not fit in memory")

    @staticmethod
    def allocate(spec: GridSpec, n: int) -> np.ndarray:
        """An uninitialized (n, nlat, nlon) array to fill with n members,
        if :meth:`check_size` does not refuse them."""
        EnsembleSet.check_size(spec, n)
        return np.empty((n, spec.nlat, spec.nlon))

    def __len__(self) -> int:
        return len(self._metas)

    def metas(self) -> list[MemberMeta]:
        return list(self._metas)

    def take(self, idx) -> "EnsembleSet":
        """The members at indices ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return EnsembleSet(self.spec, [self._metas[i] for i in idx.tolist()], self.values[idx])

    @functools.cached_property
    def track_index(self) -> dict[str, np.ndarray]:
        """The indices of each track's members, in id order."""
        order = sorted(range(len(self)), key=lambda i: self._metas[i].id)
        index = {}
        for track in TRACKS:
            index[track] = np.array([i for i in order if self._metas[i].track == track],
                                    dtype=np.intp)
            index[track].flags.writeable = False
        return index


@dataclass(frozen=True)
class FusionConfig:
    """alpha blends robustness (sign consistency) against anomaly
    sensitivity."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise CapeskitError(f"alpha must be in [0,1], got {self.alpha}")


def ensemble_median(e: EnsembleSet) -> AnomalyField:
    """Per-cell median across members; even counts take the midpoint of
    the two central values."""
    return AnomalyField(e.spec, np.median(e.values, axis=0))


def _sign_agreement(values: np.ndarray, median: np.ndarray) -> np.ndarray:
    """s1 of each field of ``values`` (m, nlat, nlon) against ``median``."""
    agree = np.sign(values) == np.sign(median)
    return np.count_nonzero(agree, axis=(1, 2)) / (values.shape[1] * values.shape[2])


def _magnitude(values: np.ndarray) -> np.ndarray:
    """s2 of each field of ``values`` (m, nlat, nlon)."""
    return np.mean(np.abs(values), axis=(1, 2))


def sign_consistency(member: AnomalyField, median: AnomalyField) -> float:
    """Fraction of cells where the member's anomaly sign matches the
    ensemble median's (zero matches only zero)."""
    member.require_compatible(median)
    return float(_sign_agreement(member.values[None], median.values)[0])


def anomaly_magnitude(member: AnomalyField) -> float:
    """Mean absolute anomaly percentage over all cells."""
    return float(_magnitude(member.values[None])[0])


def _minmax(values: np.ndarray) -> np.ndarray:
    """Min-max normalized ``values``; all 0.5 when they cannot
    discriminate (max = min across members)."""
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def blend_scores(s1, s2, cfg: FusionConfig = FusionConfig()) -> np.ndarray:
    """Weights from raw metric vectors: min-max normalize each across
    members, blend raw = alpha*s1n + (1-alpha)*s2n, renormalize to sum
    to 1 (uniform when everything is zero)."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    s1n = _minmax(s1)
    s2n = _minmax(s2)
    raw = cfg.alpha * s1n + (1.0 - cfg.alpha) * s2n
    total = raw.sum()
    if total == 0.0:
        return np.full(s1.size, 1.0 / s1.size)
    return raw / total


def _median_sign(values: np.ndarray) -> np.ndarray:
    """np.sign(np.median(values, axis=0)) of an (n, nlat, nlon) array, bit
    for bit, without sorting every cell.

    More than n // 2 values of one sign fix the median's sign; fewer of
    both leave it 0. For even n, a cell with exactly n // 2 of one sign
    has a middle pair that can straddle zero, or whose midpoint underflows
    to 0, so those cells alone are sorted and their midpoint taken as
    np.median takes it."""
    n = values.shape[0]
    half = n // 2
    pos = np.count_nonzero(values > 0, axis=0)
    neg = np.count_nonzero(values < 0, axis=0)
    sign = (pos > half) - (neg > half).astype(np.float64)
    if n % 2 == 0:
        tie = (pos == half) | (neg == half)
        if tie.any():
            mid = np.sort(values[:, tie], axis=0)[half - 1:half + 1]
            sign[tie] = np.sign((mid[0] + mid[1]) / 2)
    return sign


def member_metrics(e: EnsembleSet) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) s1, s2 metric vectors in member order.

    s1 compares signs only, so it takes the median's sign from per-cell
    counts (:func:`_median_sign`) instead of a full median; even n sorts
    only the cells where exactly half the members share a sign."""
    return _sign_agreement(e.values, _median_sign(e.values)), _magnitude(e.values)


def contribution_scores(e: EnsembleSet, cfg: FusionConfig = FusionConfig()) -> np.ndarray:
    """Fusion weights: blend of normalized sign consistency and anomaly
    magnitude, renormalized to sum to 1 (uniform if everything is zero)."""
    s1, s2 = member_metrics(e)
    return blend_scores(s1, s2, cfg)


def fuse(e: EnsembleSet, weights) -> AnomalyField:
    """Per-cell weighted sum of member anomalies.

    Weights must match the member count, be nonnegative, and sum to
    1 within 1e-9.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(e),):
        raise CapeskitError(
            f"got {w.size} weights for {len(e)} members"
        )
    if (w < 0).any():
        raise CapeskitError("fusion weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise CapeskitError(f"fusion weights must sum to 1, got {w.sum()!r}")
    fused = np.tensordot(w, e.values, axes=(0, 0))
    return AnomalyField(e.spec, fused)

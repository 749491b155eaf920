"""Adaptive ensemble fusion.

Each member gets a contribution score built from two complementary
metrics: sign consistency against the ensemble-median anomaly field
(robustness) and mean anomaly magnitude (sensitivity to anomalous
conditions). Both are min-max normalized across the ensemble, blended
with weight alpha, and renormalized into fusion weights. The fused
forecast is the per-cell weighted sum of member anomalies.

An :class:`EnsembleSet` keeps its members' fields in one (n, nlat, nlon)
array. :func:`member_metrics` reads it in blocks of whole members, about
_BLOCK values each, so its temporaries stay the size of one block and
``fuse`` holds the ensemble once. No median field is built: sign
consistency needs only the median's sign, and that comes from per-cell
counts of positive and negative values. The first pass over the blocks
adds up those counts and each member's mean absolute value (s2); for even
n, only the cells whose middle pair can straddle zero are then sorted, a
block of cells at a time. The second pass counts each member's cells that
agree with the median's sign (s1). The weighted sum of :func:`fuse` is one
product over the whole array, which makes no copy of it.
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


#: the file naming this process's cgroups, and the root of the cgroup tree
_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cgroup_limit() -> int:
    """The smallest memory limit in bytes of this process's cgroup and the
    cgroups above it: ``memory.max`` (cgroup v2) or
    ``memory.limit_in_bytes`` (v1). A file that cannot be read, or holds
    ``max``, sets no limit; with none, the address space."""
    limit = sys.maxsize
    try:
        with open(_CGROUP, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError):
        return limit
    for fields in (line.split(":", 2) for line in lines):  # id:controllers:path
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if controllers == "":
            root, name = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = os.path.join(_CGROUP_ROOT, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(root, *parts[:depth], name), encoding="ascii") as fh:
                    limit = min(limit, int(fh.read()))
            except (OSError, ValueError):  # no file, or "max"
                pass
    return limit


def physical_memory() -> int:
    """The memory this process may hold in bytes: the machine's physical
    memory (the address space where the OS does not report it), or its
    cgroup's limit if that is smaller."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        physical = sys.maxsize
    return min(physical, _cgroup_limit())


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


#: values of an ensemble's array that the fusion metrics read per step, a
#: whole number of members (one member when a field is larger): bounds
#: their temporaries, so ``fuse`` holds the array and one block
_BLOCK = 1 << 16


def _blocks(values: np.ndarray) -> list[slice]:
    """The rows of ``values`` (n, nlat, nlon) in consecutive slices of
    about _BLOCK values, or of one member when a field is larger."""
    per = max(1, _BLOCK // values[0].size)
    return [slice(a, a + per) for a in range(0, len(values), per)]


def _tally(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-cell counts of positive and of negative values of
    ``values`` (n, nlat, nlon), and each member's mean absolute value, in
    one pass over its blocks."""
    pos = np.zeros(values.shape[1:], np.intp)
    neg = np.zeros(values.shape[1:], np.intp)
    mean_abs = np.empty(values.shape[0])
    for rows in _blocks(values):
        block = values[rows]
        pos += np.count_nonzero(block > 0, axis=0)
        neg += np.count_nonzero(block < 0, axis=0)
        mean_abs[rows] = np.mean(np.abs(block), axis=(1, 2))
    return pos, neg, mean_abs


def _median_sign(values: np.ndarray, counts=None) -> np.ndarray:
    """np.sign(np.median(values, axis=0)) of an (n, nlat, nlon) array, bit
    for bit, without sorting every cell; ``counts`` are the per-cell
    counts of positive and negative values, if :func:`_tally` made them.

    More than n // 2 values of one sign fix the median's sign; fewer of
    both leave it 0. For even n, a cell with exactly n // 2 of one sign
    has a middle pair that can straddle zero, or whose midpoint underflows
    to 0, so those cells alone are sorted, about _BLOCK values at a time,
    and their midpoint taken as np.median takes it."""
    n = values.shape[0]
    half = n // 2
    pos, neg = _tally(values)[:2] if counts is None else counts
    sign = (pos > half) - (neg > half).astype(np.float64)
    if n % 2 == 0:
        tie = np.flatnonzero((pos == half) | (neg == half))
        cols = values.reshape(n, -1)
        flat = sign.reshape(-1)
        per = max(1, _BLOCK // n)
        for a in range(0, tie.size, per):
            cells = tie[a:a + per]
            mid = cols[:, cells]
            mid.sort(axis=0)
            flat[cells] = np.sign((mid[half - 1] + mid[half]) / 2)
    return sign


def member_metrics(e: EnsembleSet) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) metric vectors in member order: s1, the fraction
    of cells where a member's anomaly sign matches the ensemble median's
    (zero matches only zero), and s2, its mean absolute anomaly.

    s1 compares signs only, so it takes the median's sign from per-cell
    counts (:func:`_median_sign`) instead of a full median; even n sorts
    only the cells where exactly half the members share a sign. Both read
    ``e.values`` a block of members at a time."""
    values = e.values
    pos, neg, s2 = _tally(values)
    sign = _median_sign(values, (pos, neg))
    agree = np.empty(len(e), np.intp)
    for rows in _blocks(values):
        agree[rows] = np.count_nonzero(np.sign(values[rows]) == sign, axis=(1, 2))
    return agree / e.spec.ncells, s2


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

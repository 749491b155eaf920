"""Adaptive ensemble fusion.

Each member gets a contribution score built from two complementary
metrics: sign consistency against the ensemble-median anomaly field
(robustness) and mean anomaly magnitude (sensitivity to anomalous
conditions). Both are min-max normalized across the ensemble, blended
with weight alpha, and renormalized into fusion weights. The fused
forecast is the per-cell weighted sum of member anomalies.
"""

from __future__ import annotations

import os
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


class EnsembleSet:
    """Ordered members (meta, anomaly field) on one shared grid."""

    def __init__(self, members: Sequence[tuple[MemberMeta, AnomalyField]]):
        members = list(members)
        if not members:
            raise CapeskitError("ensemble must contain at least one member")
        spec = members[0][1].spec
        ids = set()
        for meta, fld in members:
            if fld.spec != spec:
                raise CapeskitError(
                    f"member {meta.id!r} grid differs from the ensemble grid"
                )
            if meta.id in ids:
                raise CapeskitError(f"duplicate member id {meta.id!r}")
            ids.add(meta.id)
        self.members = members
        self.spec: GridSpec = spec

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def metas(self) -> list[MemberMeta]:
        return [m for m, _ in self.members]

    def stacked(self) -> np.ndarray:
        """Member anomaly values as one (n, nlat, nlon) array."""
        return np.stack([f.values for _, f in self.members])


@dataclass(frozen=True)
class FusionConfig:
    """alpha blends robustness (sign consistency) against anomaly
    sensitivity; degenerate_fill replaces a metric that cannot
    discriminate (max = min across members)."""

    alpha: float = 0.5
    degenerate_fill: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise CapeskitError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 <= self.degenerate_fill <= 1.0:
            raise CapeskitError(f"degenerate_fill must be in [0,1], got {self.degenerate_fill}")


def ensemble_median(e: EnsembleSet) -> AnomalyField:
    """Per-cell median across members; even counts take the midpoint of
    the two central values."""
    med = np.median(e.stacked(), axis=0)
    return AnomalyField(e.spec, med)


def sign_consistency(member: AnomalyField, median: AnomalyField) -> float:
    """Fraction of cells where the member's anomaly sign matches the
    ensemble median's (zero matches only zero)."""
    member.require_compatible(median)
    agree = np.sign(member.values) == np.sign(median.values)
    return float(np.count_nonzero(agree)) / member.spec.ncells


def anomaly_magnitude(member: AnomalyField) -> float:
    """Mean absolute anomaly percentage over all cells."""
    return float(np.mean(np.abs(member.values)))


def _minmax(values: np.ndarray, fill: float) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full_like(values, fill)
    return (values - lo) / (hi - lo)


def blend_scores(s1, s2, cfg: FusionConfig = FusionConfig()) -> np.ndarray:
    """Weights from raw metric vectors: min-max normalize each across
    members, blend raw = alpha*s1n + (1-alpha)*s2n, renormalize to sum
    to 1 (uniform when everything is zero)."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    s1n = _minmax(s1, cfg.degenerate_fill)
    s2n = _minmax(s2, cfg.degenerate_fill)
    raw = cfg.alpha * s1n + (1.0 - cfg.alpha) * s2n
    total = raw.sum()
    if total == 0.0:
        return np.full(s1.size, 1.0 / s1.size)
    return raw / total


def member_metrics(e: EnsembleSet) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) s1, s2 metric vectors in member order."""
    med = ensemble_median(e)
    s1 = np.array([sign_consistency(f, med) for _, f in e.members])
    s2 = np.array([anomaly_magnitude(f) for _, f in e.members])
    return s1, s2


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
    fused = np.tensordot(w, e.stacked(), axes=(0, 0))
    return AnomalyField(e.spec, fused)

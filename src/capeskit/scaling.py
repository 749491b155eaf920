"""Skill-vs-ensemble-size studies on synthetic benchmarks.

A benchmark is one synthetic truth anomaly pattern (smooth, spanning all
category bands including at least one extreme cell), a flat climatology,
and a pool of surrogate members on both tracks. The skill curve
subsamples the pool at a fixed numerical:AI ratio, fuses each subset,
and scores it against the truth; the qualitative target is the scaling
law (mean PS rising with ensemble size), not any absolute score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import (
    NumericalManifest,
    SkillConfig,
    build_numerical_manifest,
    correlated_field,
    gather,
    surrogate_members,
)
from .errors import CapeskitError
from .fusion import EnsembleSet, FusionConfig, MemberMeta, contribution_scores, fuse
from .grid import AnomalyField, Climatology, GridField, GridSpec
from .parallel import map_ordered
from .seeds import mix
from .verify import acc, classify, Level, ps_breakdown, ps_score


@dataclass(frozen=True)
class BenchmarkConfig:
    """Synthetic-truth and member-pool parameters.

    amplitude is the peak |anomaly| percent of the truth pattern; it must
    be large enough to populate every category band.
    """

    nlat: int = 32
    nlon: int = 32
    clim_mm: float = 300.0
    amplitude: float = 130.0
    slope: float = 3.0
    n_numerical: int = 174
    n_ai: int = 1600
    skill: SkillConfig = SkillConfig()

    def __post_init__(self):
        if min(self.n_numerical, self.n_ai) < 0:
            raise CapeskitError(f"member counts must be >= 0, got {self.n_numerical}, {self.n_ai}")


@dataclass(frozen=True)
class ScalingConfig:
    sizes: tuple[int, ...] = (11, 22, 44, 88, 176)
    ratio: tuple[int, int] = field(default=(1, 10), metadata={"sep": ":"})   # numerical : AI
    trials: int = 50
    benchmark: BenchmarkConfig = BenchmarkConfig()
    fusion: FusionConfig = FusionConfig()

    def __post_init__(self):
        if self.trials < 1:
            raise CapeskitError("trials must be >= 1")
        if not self.sizes:
            raise CapeskitError("sizes must list at least one ensemble size")
        if min(self.ratio) < 0 or max(self.ratio) < 1:
            raise CapeskitError(f"bad ratio {self.ratio}")
        for size in self.sizes:
            self.split(size)

    def split(self, size: int) -> tuple[int, int]:
        """Decompose a total size into (n_num, n_ai) at the exact ratio."""
        rn, ra = self.ratio
        whole = rn + ra
        if size < 1 or size % whole != 0:
            raise CapeskitError(
                f"size {size} not decomposable at ratio {rn}:{ra} "
                f"(must be a positive multiple of {whole})"
            )
        unit = size // whole
        return rn * unit, ra * unit


def truth_pattern(spec: GridSpec, seed: int, amplitude: float, slope: float) -> AnomalyField:
    """Smooth anomaly pattern rescaled so its peak |a| equals amplitude."""
    raw = correlated_field(spec, seed, 1.0, slope)
    peak = np.abs(raw.values).max()
    if amplitude <= 0 or peak == 0.0:
        raise CapeskitError("truth pattern is identically zero; amplitude must be positive")
    return AnomalyField(spec, raw.values * (amplitude / peak))


def synthetic_benchmark(cfg: BenchmarkConfig, seed: int
                        ) -> tuple[AnomalyField, Climatology, EnsembleSet]:
    """Seeded truth + climatology + surrogate member pool.

    The truth is a correlated field rescaled so its peak |anomaly| equals
    cfg.amplitude; generation fails if any category band (normal, first,
    second) or the extreme range ends up unpopulated. The pool is one
    (n_numerical + n_ai, nlat, nlon) array filled batch by batch from
    :func:`capeskit.ensemble.surrogate_members`; trials subsample it by
    index arrays and share it read-only.
    """
    spec = GridSpec(cfg.nlat, cfg.nlon)
    truth = truth_pattern(spec, mix(seed, "benchmark-truth"), cfg.amplitude, cfg.slope)

    cats = [classify(a) for a in truth.values.ravel()]
    for level in (Level.NORMAL, Level.FIRST, Level.SECOND):
        if not any(c.level == level for c in cats):
            raise CapeskitError(f"no cell in the {level.value} band")
    if not any(c.extreme for c in cats):
        raise CapeskitError("no extreme cell (|a| > 100)")

    clim = Climatology(GridField(spec, np.full((cfg.nlat, cfg.nlon), cfg.clim_mm), "mm"))

    metas = build_numerical_manifest(NumericalManifest())
    if cfg.n_numerical > len(metas):
        raise CapeskitError(
            f"n_numerical {cfg.n_numerical} exceeds the {len(metas)}-member manifest"
        )
    metas = metas[:cfg.n_numerical]
    # allocated first, so a pool that cannot fit fails before any meta is made
    values = EnsembleSet.allocate(spec, cfg.n_numerical + cfg.n_ai)
    for idx in range(cfg.n_ai):
        metas.append(MemberMeta(
            id=f"ai-{idx:04d}", track="ai",
            init_seed=mix(seed, "ai-init", idx),
            latent_seed=mix(seed, "ai-latent", idx),
        ))
    gather(surrogate_members(metas, truth, cfg.skill, mix(seed, "benchmark-members")), values)
    return truth, clim, EnsembleSet(spec, metas, values)


def subsample(e: EnsembleSet, n_num: int, n_ai: int, seed: int) -> EnsembleSet:
    """Seeded uniform draw without replacement within each track; output
    order is normalized by id (numerical block first)."""
    rng = np.random.default_rng(seed)
    picked = []
    for track, want in (("numerical", n_num), ("ai", n_ai)):
        pool = e.track_index[track]
        if want > len(pool):
            raise CapeskitError(
                f"requested {want} {track} members, only {len(pool)} available"
            )
        picked.append(pool[np.sort(rng.choice(len(pool), size=want, replace=False))])
    return e.take(np.concatenate(picked))


@dataclass(frozen=True)
class SkillRow:
    size: int
    n_num: int
    n_ai: int
    trials: int
    ps_mean: float
    ps_std: float
    acc_mean: float
    acc_std: float
    fused_cell_std_mean: float   # mean over trials of std(fused cell values)


def skill_curve(e: EnsembleSet, truth: AnomalyField, clim: Climatology,
                cfg: ScalingConfig, seed: int) -> list[SkillRow]:
    """Mean/std of fused-forecast PS and ACC per ensemble size.

    Each (size, trial) draws its own seeded subset, fuses it with
    contribution-score weights, and scores against the truth. Rows come
    out in ascending size order; the whole curve is a pure function of
    (cfg, seed).
    """
    del clim  # scoring is anomaly-native; kept for interface symmetry

    def run_trial(args) -> tuple[float, float, float]:
        size, trial = args
        n_num, n_ai = cfg.split(size)
        sub = subsample(e, n_num, n_ai, mix(seed, "trial", size, trial))
        weights = contribution_scores(sub, cfg.fusion)
        fused = fuse(sub, weights)
        ps = ps_score(ps_breakdown(fused, truth))
        a = acc(fused, truth)
        return ps, a, float(fused.values.std())

    rows = []
    for size in sorted(cfg.sizes):
        n_num, n_ai = cfg.split(size)
        results = map_ordered(run_trial, [(size, t) for t in range(cfg.trials)])
        ps = np.array([r[0] for r in results])
        ac = np.array([r[1] for r in results])
        fs = np.array([r[2] for r in results])
        rows.append(SkillRow(
            size=size, n_num=n_num, n_ai=n_ai, trials=cfg.trials,
            ps_mean=float(ps.mean()), ps_std=float(ps.std()),
            acc_mean=float(ac.mean()), acc_std=float(ac.std()),
            fused_cell_std_mean=float(fs.mean()),
        ))
    return rows


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for u in np.unique(v):
            mask = v == u
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rxc, ryc = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((rxc @ rxc) * (ryc @ ryc))
    if denom == 0:
        raise CapeskitError("spearman undefined for constant ranks")
    return float((rxc @ ryc) / denom)

"""Hybrid ensemble construction.

The numerical track is a 174-member manifest: 27 members from 3 start
dates x 9 physics schemes, plus 147 from the same 3 dates x a 7 x 7
lattice over two perturbed physical parameters. The AI track applies
n_latent latent-noise perturbations to each of n_init initial-condition
perturbations (40 x 40 = 1,600 members by default). Latent noise enters
after the backbone's noise layer, so the layers up to it run once per
initial-condition field and are shared by its n_latent members.

Initial perturbations are spatially correlated Gaussian fields from
spectral synthesis (power-law shaped Fourier coefficients); they stand in
for a generative perturbation model while preserving its role of
producing diverse, spatially coherent initial states. Every random
stream is keyed through :func:`capeskit.seeds.mix`, so any member is
reproducible in isolation and generation order never matters.

Numerical integrations are replaced by seeded surrogates (truth +
member-specific bias field + correlated noise) so fusion and scaling
behavior can be studied without the coupled model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .attention import AttentionConfig, ModelParams, tail, trunk
from .errors import CapeskitError
from .fusion import EnsembleSet, MemberMeta
from .grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_anomaly,
    write_anomalies,
    write_text_atomic,
)
from .seeds import mix


def correlated_field(spec: GridSpec, seed: int, sigma: float, slope: float) -> GridField:
    """Zero-mean random field with power-law spatial correlation.

    Spectral synthesis: seeded complex Gaussian coefficients are shaped
    by (1+|k|)^(-slope/2), inverse-DFT'd, and the real part is rescaled
    to sample standard deviation ``sigma``. Higher slope means smoother,
    longer-range correlation; slope 0 is white noise. Units: percent.
    """
    if sigma < 0:
        raise CapeskitError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return GridField(spec, np.zeros((spec.nlat, spec.nlon)), units="percent")
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((spec.nlat, spec.nlon)) + 1j * rng.standard_normal(
        (spec.nlat, spec.nlon)
    )
    ky = np.fft.fftfreq(spec.nlat) * spec.nlat
    kx = np.fft.fftfreq(spec.nlon) * spec.nlon
    kmag = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
    coeff *= np.power(1.0 + kmag, -slope / 2.0)
    coeff[0, 0] = 0.0
    fld = np.fft.ifft2(coeff).real
    sd = fld.std()
    if sd == 0.0:
        return GridField(spec, np.zeros((spec.nlat, spec.nlon)), units="percent")
    return GridField(spec, fld * (sigma / sd), units="percent")


# ---------------------------------------------------------------------------
# numerical manifest


@dataclass(frozen=True)
class NumericalManifest:
    """Start dates, physics schemes, and the parameter-sweep lattice.

    The two swept physical parameters are opaque here: axes carry labels
    and members carry normalized lattice coordinates in [0, 1]^2.
    """

    start_dates: tuple[str, ...] = ("0301", "0311", "0321")
    schemes: tuple[str, ...] = tuple(f"s{i}" for i in range(9))
    param_axes: tuple[str, str] = ("param-a", "param-b")
    param_shape: tuple[int, int] = field(default=(7, 7), metadata={"sep": "x"})

    def __post_init__(self):
        if not self.start_dates or not self.schemes:
            raise CapeskitError("manifest needs at least one start date and one scheme")
        if min(self.param_shape) < 1:
            raise CapeskitError(f"bad parameter lattice {self.param_shape}")
        if len(set(self.start_dates)) != len(self.start_dates):
            raise CapeskitError("duplicate start dates")
        if len(set(self.schemes)) != len(self.schemes):
            raise CapeskitError("duplicate schemes")

    @property
    def member_count(self) -> int:
        gi, gj = self.param_shape
        return len(self.start_dates) * (len(self.schemes) + gi * gj)

    def param_coords(self, i: int, j: int) -> tuple[float, float]:
        """Normalized lattice coordinates in [0, 1]^2."""
        gi, gj = self.param_shape
        u = 0.5 if gi == 1 else i / (gi - 1)
        v = 0.5 if gj == 1 else j / (gj - 1)
        return u, v


def build_numerical_manifest(cfg: NumericalManifest = NumericalManifest()) -> list[MemberMeta]:
    """Scheme members first (dates-major over schemes), then parameter
    members (dates-major over the lattice). Ids are unique and stable."""
    metas = []
    for di in range(len(cfg.start_dates)):
        for si in range(len(cfg.schemes)):
            metas.append(MemberMeta(
                id=f"num-d{di}-s{si}", track="numerical",
                start_date_index=di, scheme_index=si,
            ))
    gi, gj = cfg.param_shape
    for di in range(len(cfg.start_dates)):
        for i in range(gi):
            for j in range(gj):
                metas.append(MemberMeta(
                    id=f"num-d{di}-p{i}-{j}", track="numerical",
                    start_date_index=di, param_i=i, param_j=j,
                ))
    return metas


# ---------------------------------------------------------------------------
# surrogate members


@dataclass(frozen=True)
class TrackSkill:
    """Surrogate error amplitudes (percent anomaly units) for one track."""

    bias_sigma: float = 15.0
    noise_sigma: float = 40.0
    bias_slope: float = 3.0
    noise_slope: float = 2.0


@dataclass(frozen=True)
class SkillConfig:
    numerical: TrackSkill = TrackSkill()
    ai: TrackSkill = TrackSkill()

    def for_track(self, track: str) -> TrackSkill:
        return self.numerical if track == "numerical" else self.ai


def surrogate_numerical_member(meta: MemberMeta, truth: AnomalyField,
                               skill_cfg: SkillConfig, seed: int) -> AnomalyField:
    """Stand-in forecast: truth + member-specific bias field + correlated
    noise, deterministic per (meta, seed). Used for both tracks when the
    real forecasting paths are not wanted."""
    skill = skill_cfg.for_track(meta.track)
    try:
        bias = correlated_field(truth.spec, mix(seed, "surrogate-bias", meta.id),
                                skill.bias_sigma, skill.bias_slope)
        noise = correlated_field(truth.spec, mix(seed, "surrogate-noise", meta.id),
                                 skill.noise_sigma, skill.noise_slope)
        return AnomalyField(truth.spec, truth.values + bias.values + noise.values)
    except CapeskitError as exc:
        raise CapeskitError(f"{meta.id}: {exc}") from None


# ---------------------------------------------------------------------------
# AI track


@dataclass(frozen=True)
class PerturbationSpec:
    """Dual-perturbation layout: n_init initial-condition fields, each
    forecast under n_latent latent-noise seeds."""

    n_init: int = 40
    n_latent: int = 40
    base_seed: int = 0
    field_sigma: float = 5.0
    spectral_slope: float = 3.0
    latent_sigma: float = 0.1
    noise_layer: Optional[int] = None

    def __post_init__(self):
        if self.n_init < 1 or self.n_latent < 1:
            raise CapeskitError("n_init and n_latent must be >= 1")
        if self.field_sigma < 0 or self.latent_sigma < 0:
            raise CapeskitError("perturbation sigmas must be >= 0")

    @property
    def member_count(self) -> int:
        return self.n_init * self.n_latent


def _ai_cfg(cfg: AttentionConfig, pspec: PerturbationSpec) -> AttentionConfig:
    return replace(cfg, latent_noise_sigma=pspec.latent_sigma, noise_layer=pspec.noise_layer)


def _init_trunk(base_fields: np.ndarray, params: ModelParams, run_cfg: AttentionConfig,
                pspec: PerturbationSpec, clim: Climatology, i: int) -> tuple[int, np.ndarray]:
    """Initial-condition perturbation i and the backbone trunk on it,
    which the n_latent members of init i share."""
    init_seed = mix(pspec.base_seed, "init", i)
    pert = correlated_field(clim.spec, init_seed, pspec.field_sigma, pspec.spectral_slope)
    perturbed = np.asarray(base_fields, dtype=np.float64) + pert.values[None, :, :, None]
    return init_seed, trunk(params, perturbed, run_cfg)


def _latent_member(tokens: np.ndarray, init_seed: int, params: ModelParams,
                   run_cfg: AttentionConfig, pspec: PerturbationSpec, clim: Climatology,
                   i: int, j: int) -> tuple[MemberMeta, AnomalyField]:
    """Member (i, j) from the trunk of init i: latent noise, the layers
    after the noise layer, decode and anomaly."""
    latent_seed = mix(pspec.base_seed, "latent", i, j)
    meta = MemberMeta(id=f"ai-{i:04d}-{j:04d}", track="ai",
                      init_seed=init_seed, latent_seed=latent_seed)
    try:
        out = tail(params, tokens, run_cfg, latent_seed=latent_seed, spec=clim.spec)
        return meta, anomaly_percent(out, clim)
    except CapeskitError as exc:
        raise CapeskitError(f"{meta.id}: {exc}") from None


def ai_member(base_fields: np.ndarray, params: ModelParams, cfg: AttentionConfig,
              pspec: PerturbationSpec, clim: Climatology, i: int, j: int
              ) -> tuple[MemberMeta, AnomalyField]:
    """Member (i, j) alone: reproduces exactly what the full run produces
    for that slot (the seed-mixing contract), through the same
    trunk-then-tail steps."""
    if not (0 <= i < pspec.n_init and 0 <= j < pspec.n_latent):
        raise CapeskitError(f"member index ({i}, {j}) outside the perturbation grid")
    run_cfg = _ai_cfg(cfg, pspec)
    init_seed, tokens = _init_trunk(base_fields, params, run_cfg, pspec, clim, i)
    return _latent_member(tokens, init_seed, params, run_cfg, pspec, clim, i, j)


def build_ai_ensemble(base_fields: np.ndarray, params: ModelParams, cfg: AttentionConfig,
                      pspec: PerturbationSpec, clim: Climatology) -> EnsembleSet:
    """All n_init x n_latent members, ids enumerating (i, j) lexicographically.

    The perturbed input and the backbone trunk are computed once per init
    and shared by its n_latent members; only the tail runs per member."""
    run_cfg = _ai_cfg(cfg, pspec)
    members = []
    for i in range(pspec.n_init):
        init_seed, tokens = _init_trunk(base_fields, params, run_cfg, pspec, clim, i)
        members.extend(
            _latent_member(tokens, init_seed, params, run_cfg, pspec, clim, i, j)
            for j in range(pspec.n_latent)
        )
    return EnsembleSet(members)


# ---------------------------------------------------------------------------
# manifest + member files


#: MemberMeta's integer fields, in manifest order
_INT_KEYS = ("start_date_index", "scheme_index", "param_i", "param_j",
             "init_seed", "latent_seed")


def _meta_pairs(meta: MemberMeta, manifest: Optional[NumericalManifest]) -> list[tuple[str, str]]:
    pairs = []
    for key in _INT_KEYS:
        v = getattr(meta, key)
        if v is not None:
            pairs.append((key, str(v)))
    if manifest is not None and meta.track == "numerical":
        if meta.start_date_index is not None:
            pairs.append(("start_date", manifest.start_dates[meta.start_date_index]))
        if meta.scheme_index is not None:
            pairs.append(("scheme", manifest.schemes[meta.scheme_index]))
        if meta.param_i is not None and meta.param_j is not None:
            u, v = manifest.param_coords(meta.param_i, meta.param_j)
            pairs.append((manifest.param_axes[0], repr(u)))
            pairs.append((manifest.param_axes[1], repr(v)))
    return pairs


def write_manifest(path, metas: Sequence[MemberMeta],
                   manifest: Optional[NumericalManifest] = None) -> None:
    """Line-oriented manifest: ``id<TAB>track<TAB>key=value,...``."""
    lines = []
    for meta in metas:
        kv = ",".join(f"{k}={v}" for k, v in _meta_pairs(meta, manifest))
        lines.append(f"{meta.id}\t{meta.track}\t{kv}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_manifest(path) -> list[MemberMeta]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CapeskitError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise CapeskitError(f"{path}: cannot read: {exc.strerror}") from None
    metas = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CapeskitError(f"{path}: line {lineno}: expected 3 tab-separated fields")
        member_id, track, kv = parts
        try:
            kwargs = {}
            for item in kv.split(","):
                if not item:
                    continue
                key, _, value = item.partition("=")
                if key in _INT_KEYS:
                    kwargs[key] = int(value)
            metas.append(MemberMeta(id=member_id, track=track, **kwargs))
        except ValueError as exc:
            raise CapeskitError(f"{path}: line {lineno}: {exc}") from None
    return metas


def write_ensemble_dir(dirpath, ensemble: EnsembleSet,
                       manifest: Optional[NumericalManifest] = None) -> None:
    """Manifest plus one ``<id>.grd`` anomaly file per member."""
    os.makedirs(dirpath, exist_ok=True)
    write_manifest(os.path.join(dirpath, "manifest.tsv"), ensemble.metas(), manifest)
    write_anomalies([fld for _, fld in ensemble],
                    [os.path.join(dirpath, f"{meta.id}.grd") for meta in ensemble.metas()])


def read_ensemble_dir(dirpath) -> EnsembleSet:
    manifest_path = os.path.join(dirpath, "manifest.tsv")
    if not os.path.exists(manifest_path):
        raise CapeskitError(f"{dirpath}: no manifest.tsv (not an ensemble directory?)")
    metas = read_manifest(manifest_path)
    if not metas:
        raise CapeskitError(f"{dirpath}: manifest lists no members")
    members = []
    for meta in metas:
        grd = os.path.join(dirpath, f"{meta.id}.grd")
        try:
            members.append((meta, read_anomaly(grd)))
        except FileNotFoundError:
            raise CapeskitError(f"{dirpath}: member file missing for {meta.id!r}") from None
        except OSError as exc:
            raise CapeskitError(f"{grd}: cannot read: {exc.strerror}") from None
        except CapeskitError as exc:
            raise CapeskitError(f"{grd}: {exc}") from None
    return EnsembleSet(members)

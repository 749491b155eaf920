"""Hybrid ensemble construction.

The numerical track is a 174-member manifest: 27 members from 3 start
dates x 9 physics schemes, plus 147 from the same 3 dates x a 7 x 7
lattice over two perturbed physical parameters. The AI track applies
n_latent latent-noise perturbations to each of n_init initial-condition
perturbations (40 x 40 = 1,600 members by default). Both perturbations
live here: the backbone trunk runs once per initial-condition field, and
each member adds its own seeded noise to the shared trunk tokens.

Initial perturbations are spatially correlated Gaussian fields from
spectral synthesis (power-law shaped Fourier coefficients); they stand in
for a generative perturbation model while preserving its role of
producing diverse, spatially coherent initial states. Every random
stream is keyed through :func:`capeskit.seeds.mix`, so any member is
reproducible in isolation and generation order never matters.

Numerical integrations are replaced by seeded surrogates (truth +
member-specific bias field + correlated noise) so fusion and scaling
behavior can be studied without the coupled model. Surrogates are built
in batches: each member draws its own coefficients, and one inverse DFT
serves the batch.

Members are made in batches of about _BATCH values, each batch into one
buffer that the next batch reuses: a stream of (spec, metas, values)
batches, which :func:`write_ensemble_dir` writes as it comes, so
``generate`` never holds a whole ensemble. An ensemble held in memory,
one (n, nlat, nlon) array (see :class:`capeskit.fusion.EnsembleSet`), is
one batch; :func:`read_ensemble_dir` and :func:`gather`, which builds the
pool of ``scaling``, write each member into its row of that array, so
its fields are held once.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .attention import AttentionConfig, ModelParams, decode, trunk
from .errors import CapeskitError
from .fusion import EnsembleSet, MemberMeta
from .grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    read_anomaly,
    read_bodies,
    split_grid,
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
    return GridField(spec, _correlated_values(spec, [seed], [sigma], slope)[0], units="percent")


def _correlated_values(spec: GridSpec, seeds: Sequence[int], sigmas: Sequence[float],
                       slope: float) -> np.ndarray:
    """The values of correlated_field(spec, seed, sigma, slope) for each
    (seed, sigma), as one (m, nlat, nlon) array.

    Each field draws its coefficients from its own seed; the inverse DFT
    and the standard deviations then run once over all m fields, which
    gives each field the bits it gets alone."""
    shape = (spec.nlat, spec.nlon)
    coeff = np.empty((len(seeds),) + shape, np.complex128)
    for c, seed in zip(coeff, seeds):
        rng = np.random.default_rng(seed)
        np.add(rng.standard_normal(shape), 1j * rng.standard_normal(shape), out=c)
    ky = np.fft.fftfreq(spec.nlat) * spec.nlat
    kx = np.fft.fftfreq(spec.nlon) * spec.nlon
    kmag = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
    coeff *= np.power(1.0 + kmag, -slope / 2.0)
    del kmag
    coeff[:, 0, 0] = 0.0
    fld = np.fft.ifft2(coeff).real
    del coeff
    sd = fld.std(axis=(1, 2))
    sigmas = np.asarray(sigmas, dtype=np.float64)
    # a zero sigma, or a field with no spread, gives zeros
    live = (sigmas != 0) & (sd != 0)
    fld = fld * np.divide(sigmas, sd, out=np.zeros_like(sd), where=live)[:, None, None]
    fld[~live] = 0.0
    return fld


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


#: spectral slopes of the surrogate bias and noise fields (see correlated_field)
BIAS_SLOPE = 3.0
NOISE_SLOPE = 2.0


@dataclass(frozen=True)
class TrackSkill:
    """Surrogate error amplitudes (percent anomaly units) for one track."""

    bias_sigma: float = 15.0
    noise_sigma: float = 40.0


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
                                skill.bias_sigma, BIAS_SLOPE)
        noise = correlated_field(truth.spec, mix(seed, "surrogate-noise", meta.id),
                                 skill.noise_sigma, NOISE_SLOPE)
        return AnomalyField(truth.spec, truth.values + bias.values + noise.values)
    except CapeskitError as exc:
        raise CapeskitError(f"{meta.id}: {exc}") from None


#: values per batch of surrogate fields (64 fields of 32 x 32), and of AI
#: tail tokens (42 members at L = 48, d = 32): bounds the working set of a
#: batch, about 50 B per surrogate value and 18 B per token value
_BATCH = 1 << 16


#: a batch of members: their grid, their metas, and their fields as one
#: (len(metas), nlat, nlon) array
Batch = tuple[GridSpec, Sequence[MemberMeta], np.ndarray]


def surrogate_members(metas: Sequence[MemberMeta], truth: AnomalyField,
                      skill_cfg: SkillConfig, seed: int) -> Iterator[Batch]:
    """surrogate_numerical_member(meta, truth, skill_cfg, seed) of each of
    ``metas``, bit for bit, in batches of about _BATCH values, whose bias
    and noise fields are built together. Each batch's values are rows of
    one buffer, which the next batch overwrites. A member the
    single-member path rejects raises its error here, and the first such
    member in order is the one reported."""
    spec = truth.spec
    per = max(1, _BATCH // spec.ncells)
    buf = np.empty((min(per, len(metas)), spec.nlat, spec.nlon))
    for a in range(0, len(metas), per):
        batch = metas[a:a + per]
        skills = [skill_cfg.for_track(m.track) for m in batch]
        bias, noise = (
            _correlated_values(spec, [mix(seed, role, m.id) for m in batch],
                               [getattr(s, sigma) for s in skills], slope)
            for role, sigma, slope in (("surrogate-bias", "bias_sigma", BIAS_SLOPE),
                                       ("surrogate-noise", "noise_sigma", NOISE_SLOPE)))
        rows = buf[:len(batch)]
        np.add(truth.values, bias, out=rows)
        rows += noise
        del bias, noise
        ok = np.isfinite(rows).all(axis=(1, 2))
        ok &= [s.bias_sigma >= 0 and s.noise_sigma >= 0 for s in skills]
        if not ok.all():
            surrogate_numerical_member(batch[int(ok.argmin())], truth, skill_cfg, seed)
            raise AssertionError("a surrogate the batch rejects was accepted alone")
        yield spec, batch, rows


def gather(batches: Iterable[Batch], out: np.ndarray) -> list[MemberMeta]:
    """Copy the values of each batch of ``batches`` into the next rows of
    ``out`` (n, nlat, nlon), which they fill; returns the metas, in order."""
    metas = []
    for _, batch, values in batches:
        out[len(metas):len(metas) + len(batch)] = values
        metas += batch
    if len(metas) != len(out):
        raise AssertionError(f"{len(metas)} members gathered into {len(out)} rows")
    return metas


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

    def __post_init__(self):
        if self.n_init < 1 or self.n_latent < 1:
            raise CapeskitError("n_init and n_latent must be >= 1")
        if self.field_sigma < 0 or self.latent_sigma < 0:
            raise CapeskitError("perturbation sigmas must be >= 0")

    @property
    def member_count(self) -> int:
        return self.n_init * self.n_latent


def _init_trunk(base_fields: np.ndarray, params: ModelParams, cfg: AttentionConfig,
                pspec: PerturbationSpec, clim: Climatology, i: int) -> tuple[int, np.ndarray]:
    """Initial-condition perturbation i and the backbone trunk on it,
    which the n_latent members of init i share."""
    init_seed = mix(pspec.base_seed, "init", i)
    pert = correlated_field(clim.spec, init_seed, pspec.field_sigma, pspec.spectral_slope)
    perturbed = np.asarray(base_fields, dtype=np.float64) + pert.values[None, :, :, None]
    return init_seed, trunk(params, perturbed, cfg)


def _latent_members(tokens: np.ndarray, init_seed: int, params: ModelParams,
                    cfg: AttentionConfig, pspec: PerturbationSpec, clim: Climatology,
                    i: int, js: Sequence[int], out: np.ndarray) -> list[MemberMeta]:
    """Members (i, j), j in ``js``, from the trunk tokens of init i,
    written into the rows of ``out`` (len(js), nlat, nlon), and their
    metas. Each member adds its seeded latent noise to the tokens the
    decoder reads, the stack is decoded with one matmul, and the anomaly
    is computed in place. The first member whose field is not finite is
    reported."""
    n = cfg.patch_rows * cfg.patch_cols  # the atmosphere tokens, all that is decoded
    stack = np.empty((len(js), n, cfg.embed_dim))
    metas = []
    for member, j in zip(stack, js):
        latent_seed = mix(pspec.base_seed, "latent", i, j)
        metas.append(MemberMeta(id=f"ai-{i:04d}-{j:04d}", track="ai",
                                init_seed=init_seed, latent_seed=latent_seed))
        member[...] = tokens[:n]
        if pspec.latent_sigma > 0:
            # the first n rows of the member's (seq_len, embed_dim) noise
            rng = np.random.default_rng(latent_seed)
            member += rng.normal(0.0, pspec.latent_sigma, size=member.shape)
    c = clim.values
    np.subtract(decode(params, stack, cfg, spec=clim.spec), c, out=out)
    out /= c
    out *= 100.0
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        bad = metas[int(finite.argmin())]
        raise CapeskitError(f"{bad.id}: field values must be finite (no NaN/Inf)")
    return metas


def ai_member(base_fields: np.ndarray, params: ModelParams, cfg: AttentionConfig,
              pspec: PerturbationSpec, clim: Climatology, i: int, j: int
              ) -> tuple[MemberMeta, AnomalyField]:
    """Member (i, j) alone: reproduces exactly what the full run produces
    for that slot (the seed-mixing contract), through the same trunk and
    the same batched tail, with a batch of one."""
    if not (0 <= i < pspec.n_init and 0 <= j < pspec.n_latent):
        raise CapeskitError(f"member index ({i}, {j}) outside the perturbation grid")
    init_seed, tokens = _init_trunk(base_fields, params, cfg, pspec, clim, i)
    values = np.empty((1, clim.spec.nlat, clim.spec.nlon))
    (meta,) = _latent_members(tokens, init_seed, params, cfg, pspec, clim, i, [j], values)
    return meta, AnomalyField(clim.spec, values[0])


def ai_members(base_fields: np.ndarray, params: ModelParams, cfg: AttentionConfig,
               pspec: PerturbationSpec, clim: Climatology) -> Iterator[Batch]:
    """All n_init x n_latent members, in batches; ids enumerate (i, j)
    lexicographically.

    The perturbed input and the backbone trunk are computed once per init
    and shared by its n_latent members, whose tails run in batches of
    about _BATCH token values. Each batch's values are rows of one buffer,
    sized by the tail batch, which the next batch overwrites."""
    per = max(1, _BATCH // (cfg.seq_len * cfg.embed_dim))
    spec = clim.spec
    buf = np.empty((min(per, pspec.n_latent), spec.nlat, spec.nlon))
    for i in range(pspec.n_init):
        init_seed, tokens = _init_trunk(base_fields, params, cfg, pspec, clim, i)
        for a in range(0, pspec.n_latent, per):
            js = range(a, min(a + per, pspec.n_latent))
            rows = buf[:len(js)]
            metas = _latent_members(tokens, init_seed, params, cfg, pspec, clim, i, js, rows)
            yield spec, metas, rows


def build_ai_ensemble(base_fields: np.ndarray, params: ModelParams, cfg: AttentionConfig,
                      pspec: PerturbationSpec, clim: Climatology) -> EnsembleSet:
    """The ensemble of all members :func:`ai_members` makes."""
    values = EnsembleSet.allocate(clim.spec, pspec.member_count)
    metas = gather(ai_members(base_fields, params, cfg, pspec, clim), values)
    return EnsembleSet(clim.spec, metas, values)


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


def make_ensemble_dir(dirpath) -> Optional[str]:
    """Create the directory ``dirpath``, with its parents, unless it exists;
    a failure is an input error naming ``dirpath``. Returns the outermost
    directory it created, None if ``dirpath`` existed."""
    top, head = None, os.path.abspath(dirpath)
    while not os.path.lexists(head):
        top, head = head, os.path.dirname(head)
    try:
        os.makedirs(dirpath, exist_ok=True)
    except OSError as exc:
        raise CapeskitError(f"cannot write {dirpath}: {exc.strerror}") from None
    return top


def _unlink(path) -> None:
    """Remove the file ``path`` if it exists; a failure is an input error."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise CapeskitError(f"cannot write {path}: {exc.strerror}") from None


def uncommit_ensemble_dir(dirpath) -> None:
    """Remove the manifest of ``dirpath``, if any, so that
    :func:`read_ensemble_dir` refuses the directory."""
    _unlink(os.path.join(dirpath, "manifest.tsv"))


def write_ensemble_dir(dirpath, ensemble: EnsembleSet | Iterable[Batch],
                       manifest: Optional[NumericalManifest] = None) -> None:
    """One ``<id>.grd`` anomaly file per member, then the manifest, which
    marks the commit. ``ensemble`` is an ensemble, written as one batch,
    or an iterable of batches, such as :func:`ai_members` makes, each
    written as it comes: the next batch is made only when this one is
    formatted, so no more than a batch is held.

    The first batch is made before the directory is touched. Then an
    existing manifest is removed, before the first member is written, so
    a write or a batch that fails later leaves a directory that
    :func:`read_ensemble_dir` refuses, never a mix of two ensembles.
    After the last member, or after such a failure, the member files the
    old manifest lists are removed, except those with the id of a member
    taken so far; no other file is, and an old manifest that cannot be
    read removes none."""
    batches = iter([(ensemble.spec, ensemble.metas(), ensemble.values)]
                   if isinstance(ensemble, EnsembleSet) else ensemble)
    first = list(itertools.islice(batches, 1))
    make_ensemble_dir(dirpath)
    try:
        old_ids = {meta.id for meta in read_manifest(os.path.join(dirpath, "manifest.tsv"))}
    except CapeskitError:  # none, or unreadable
        old_ids = set()
    uncommit_ensemble_dir(dirpath)
    metas = []

    def files():
        for spec, batch, values in itertools.chain(first, batches):
            metas.extend(batch)
            yield spec, [os.path.join(dirpath, f"{meta.id}.grd") for meta in batch], values

    try:
        write_anomalies(files())
    finally:  # no file of the old ensemble outlives its manifest unlisted
        for member_id in sorted(old_ids - {meta.id for meta in metas}):
            _unlink(os.path.join(dirpath, f"{member_id}.grd"))
    write_manifest(os.path.join(dirpath, "manifest.tsv"), metas, manifest)


def _read_member(dirpath, meta: MemberMeta) -> AnomalyField:
    """The field of member ``meta`` of ``dirpath``, read alone; a fault
    raises the error that names the member."""
    grd = os.path.join(dirpath, f"{meta.id}.grd")
    try:
        return read_anomaly(grd)
    except FileNotFoundError:
        raise CapeskitError(f"{dirpath}: member file missing for {meta.id!r}") from None
    except OSError as exc:
        raise CapeskitError(f"{grd}: cannot read: {exc.strerror}") from None
    except CapeskitError as exc:
        raise CapeskitError(f"{grd}: {exc}") from None


def _member_bodies(dirpath, metas: Sequence[MemberMeta], spec: GridSpec) -> Iterator[memoryview]:
    """The GRD1 bodies of the member files of ``metas``, in order, up to
    the first member that is missing or unreadable or whose header is not
    ``spec`` in percent."""
    for meta in metas:
        try:
            with open(os.path.join(dirpath, f"{meta.id}.grd"), "rb") as fh:
                head = split_grid(fh.read())
        except OSError:
            return
        if head is None or head[:2] != (spec, "percent"):
            return
        yield head[2]


def read_ensemble_dir(dirpath) -> EnsembleSet:
    """The ensemble of a directory ``write_ensemble_dir`` wrote. The first
    member is read alone and sets the grid; the others stream in manifest
    order from one generator into :func:`capeskit.grid.read_bodies`, the
    one batching layer, which parses them into their rows of the ensemble
    array. If it refuses them, one pass reads them one at a time, so the
    first bad member in manifest order is the one reported."""
    manifest_path = os.path.join(dirpath, "manifest.tsv")
    if not os.path.exists(manifest_path):
        raise CapeskitError(f"{dirpath}: no manifest.tsv (not an ensemble directory?)")
    metas = read_manifest(manifest_path)
    if not metas:
        raise CapeskitError(f"{dirpath}: manifest lists no members")
    first = _read_member(dirpath, metas[0])
    spec = first.spec
    values = EnsembleSet.allocate(spec, len(metas))
    values[0] = first.values
    if not read_bodies(_member_bodies(dirpath, metas[1:], spec), spec.ncells, values[1:]):
        for meta, row in zip(metas[1:], values[1:]):
            fld = _read_member(dirpath, meta)
            if fld.spec != spec:
                raise CapeskitError(f"member {meta.id!r} grid differs from the ensemble grid")
            row[...] = fld.values
    return EnsembleSet(spec, metas, values)

"""Command-line entry point.

Subcommands: score, fuse, generate, attn-bench, grad-check, scaling,
render. Every command is deterministic given its flags and seed; each
run with file outputs writes one RunManifest sidecar
(``<primary-output>.manifest.json``) echoing the effective config so the
run can be reproduced exactly.

Exit codes: 0 success, 1 internal invariant violation, 2 user/input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import attention as attn
from . import config as cfgmod
from .ensemble import (
    NumericalManifest,
    PerturbationSpec,
    SkillConfig,
    TrackSkill,
    ai_members,
    build_numerical_manifest,
    read_ensemble_dir,
    surrogate_members,
    write_ensemble_dir,
)
from .errors import CapeskitError
from .fusion import EnsembleSet, FusionConfig, blend_scores, fuse, member_metrics
from .grid import (
    DEFAULT_CLIM_FLOOR,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_anomaly,
    read_grid,
    read_mask,
    write_anomaly,
    write_text_atomic,
)
from .render import svg_heatmap, svg_line_chart
from .scaling import BenchmarkConfig, ScalingConfig, skill_curve, synthetic_benchmark, truth_pattern
from .seeds import mix
from .verify import acc, ps_breakdown, ps_score, rmse


def _read_at(read, path):
    """``read(path)`` with every read or format error naming ``path``."""
    try:
        return read(path)
    except OSError as exc:
        raise CapeskitError(f"cannot read {path}: {exc.strerror}") from None
    except CapeskitError as exc:
        raise CapeskitError(f"{path}: {exc}") from None


def _write_run_manifest(primary_output, command: str, config: dict,
                        seed, outputs: list, t0: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "base_seed": seed,
        "artifact_version": __version__,
        "outputs": [os.fspath(p) for p in outputs],
        "wall_time_s": time.perf_counter() - t0,
    }
    path = f"{os.fspath(primary_output).rstrip('/')}.manifest.json"
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# score


def cmd_score(args) -> int:
    t0 = time.perf_counter()
    forecast = _read_at(read_grid, args.forecast)
    obs = _read_at(read_grid, args.obs)
    clim = Climatology(_read_at(read_grid, args.clim), floor=args.clim_floor)
    mask = _read_at(read_mask, args.mask) if args.mask else None
    fa = anomaly_percent(forecast, clim)
    oa = anomaly_percent(obs, clim)
    b = ps_breakdown(fa, oa, mask)
    ps = ps_score(b)
    a = acc(fa, oa, mask)
    r = rmse(forecast, obs, mask)
    csv = (
        "N,N0,N1,N2,M,PS,ACC,RMSE\n"
        f"{b.N},{b.N0},{b.N1},{b.N2},{b.M},{ps:.3f},{a:.3f},{r:.3f}\n"
    )
    write_text_atomic(args.out, csv)
    _write_run_manifest(args.out, "score", {
        "forecast": args.forecast, "obs": args.obs, "clim": args.clim,
        "mask": args.mask, "clim_floor": clim.floor,
    }, None, [args.out], t0)
    print(f"PS={ps:.3f} ACC={a:.3f} RMSE={r:.3f} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# fuse


def cmd_fuse(args) -> int:
    t0 = time.perf_counter()
    ensemble = read_ensemble_dir(args.ensemble_dir)
    fcfg = FusionConfig(alpha=args.alpha)
    s1, s2 = member_metrics(ensemble)
    weights = blend_scores(s1, s2, fcfg)
    fused = fuse(ensemble, weights)
    rows = ["member_id,track,s1,s2,weight"]
    for meta, a, b, w in zip(ensemble.metas(), s1, s2, weights):
        # weights at full round-trip precision so they stay usable as
        # fuse() inputs; s1/s2 are diagnostics
        rows.append(f"{meta.id},{meta.track},{a:.6f},{b:.6f},{float(w)!r}")
    write_text_atomic(args.out_weights, "\n".join(rows) + "\n")
    write_anomaly(fused, args.out_field)
    _write_run_manifest(args.out_field, "fuse", {
        "ensemble_dir": args.ensemble_dir, "alpha": args.alpha,
        "members": len(ensemble),
    }, None, [args.out_field, args.out_weights], t0)
    print(f"fused {len(ensemble)} members -> {args.out_field}")
    return 0


# ---------------------------------------------------------------------------
# generate


# Config keys of each command, bound to the fields that hold their defaults.
_GRID = cfgmod.Binding(BenchmarkConfig, "nlat", "nlon", "clim_mm",
                       truth_amplitude="amplitude", truth_slope="slope")
_PERTURBATION = cfgmod.Binding(PerturbationSpec, "n_init", "n_latent", "field_sigma",
                               "spectral_slope", "latent_sigma")
_MANIFEST = cfgmod.Binding(NumericalManifest, "start_dates", "schemes",
                           param_grid="param_shape")
_NUM_SKILL = cfgmod.Binding(TrackSkill, "bias_sigma", "noise_sigma")
_BACKBONE = cfgmod.Binding(attn.AttentionConfig, "embed_dim", "num_heads", "patch_size",
                           "window_size", "num_anchors", "num_domains", "channels", "layout")
_LAYERS = cfgmod.Binding(attn.AttentionConfig, "num_layers")
GENERATE = (_GRID, _PERTURBATION, _MANIFEST, _NUM_SKILL, _BACKBONE, _LAYERS)


def _backbone_cfg(g: dict) -> attn.AttentionConfig:
    return _BACKBONE.build(g, num_layers=g["num_layers"], nlat=g["nlat"], nlon=g["nlon"])


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    g = cfgmod.load(GENERATE, args.config)
    spec = GridSpec(g["nlat"], g["nlon"])
    clim = Climatology(GridField(spec, np.full((g["nlat"], g["nlon"]), g["clim_mm"]), "mm"))
    manifest_cfg = pspec = None
    if args.mode in ("numerical", "hybrid"):
        manifest_cfg = _MANIFEST.build(g)
    if args.mode in ("ai", "hybrid"):
        pspec = _PERTURBATION.build(g, base_seed=mix(args.seed, "ai"))
    n_num = manifest_cfg.member_count if manifest_cfg else 0
    # every member is written into its row of one array as it is produced;
    # allocated first, so a count that cannot fit fails before any member
    values = EnsembleSet.allocate(spec, n_num + (pspec.member_count if pspec else 0))

    metas = []
    if manifest_cfg is not None:
        metas = build_numerical_manifest(manifest_cfg)
        truth = truth_pattern(spec, mix(args.seed, "truth"), g["truth_amplitude"], g["truth_slope"])
        skill = SkillConfig(numerical=_NUM_SKILL.build(g))
        surrogate_members(metas, truth, skill, mix(args.seed, "numerical"), values[:n_num])

    if pspec is not None:
        acfg = _backbone_cfg(g)
        params = attn.init_params(acfg, mix(args.seed, "model"))
        base_rng = np.random.default_rng(mix(args.seed, "base-fields"))
        base = base_rng.standard_normal((g["num_domains"], g["nlat"], g["nlon"], g["channels"]))
        metas += ai_members(base, params, acfg, pspec, clim, values[n_num:])

    ensemble = EnsembleSet(spec, metas, values)
    write_ensemble_dir(args.out_dir, ensemble, manifest_cfg)
    _write_run_manifest(args.out_dir, "generate",
                        {"mode": args.mode, **g}, args.seed,
                        [args.out_dir], t0)
    print(f"wrote {len(ensemble)} members -> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# attn-bench / grad-check


ATTN_BENCH = (_BACKBONE,)


def _cfg_for_length(length: int, base: dict) -> attn.AttentionConfig:
    """One-layer config whose (nlat, nlon) realize a sequence length: the
    most square patch grid whose sides are multiples of the window size w.
    Such a grid is (a*w) x (b*w) with a*b = patches / w**2 and a <= b, so
    the search runs down from isqrt(a*b), in O(sqrt(L)) steps."""
    v = base["num_domains"] if base["layout"] == "sequence_concat" else 1
    w, p = base["window_size"], base["patch_size"]
    if length % v:
        raise CapeskitError(f"length {length} not divisible by num_domains {v}")
    if length * base["embed_dim"] > sys.maxsize // 8:  # no float64 token array that large
        raise CapeskitError(f"{length} tokens of width {base['embed_dim']} do not fit in memory")
    patches = length // v
    if patches < 1 or patches % (w * w):
        raise CapeskitError(f"length {length} cannot be tiled into {w}-divisible patch grids")
    ab = patches // (w * w)
    a = next(a for a in range(math.isqrt(ab), 0, -1) if ab % a == 0)
    return attn.AttentionConfig(nlat=a * w * p, nlon=ab // a * w * p, num_layers=1, **base)


def cmd_attn_bench(args) -> int:
    t0 = time.perf_counter()
    base = cfgmod.load(ATTN_BENCH, args.config)
    lengths = [int(tok) for tok in args.lengths.split(",") if tok.strip()]
    if not lengths:
        raise CapeskitError("--lengths must list at least one sequence length")
    probe = attn.AttentionConfig(
        nlat=base["window_size"] * base["patch_size"],
        nlon=base["window_size"] * base["patch_size"],
        num_layers=1, **base,
    )
    timing_cfgs = [(length, _cfg_for_length(length, base)) for length in lengths]
    rows = ["level,L,flops"]
    for length in lengths:
        f = attn.flop_count(probe, length)
        rows.append(f"window,{length},{f['window_flops']}")
        rows.append(f"crossvar,{length},{f['crossvar_flops']}")
        rows.append(f"anchor,{length},{f['anchor_flops']}")
        rows.append(f"tri_level,{length},{attn.tri_level_flops(probe, length)}")
        rows.append(f"dense,{length},{f['dense_flops']}")
    for length, cfg in timing_cfgs:
        dt = attn.measure_block_time(cfg, seed=args.seed)
        print(f"L={length} tri-level block time {dt * 1e3:.3f} ms")
    write_text_atomic(args.out, "\n".join(rows) + "\n")
    _write_run_manifest(args.out, "attn-bench",
                        {**base, "lengths": lengths}, args.seed, [args.out], t0)
    print(f"flop table -> {args.out}")
    return 0


_BACKBONE_GRID = cfgmod.Binding(attn.AttentionConfig, "nlat", "nlon")
_PROBES = cfgmod.Binding(attn.grad_check, "step", probes="probe_count")
GRAD_CHECK = (_BACKBONE, _LAYERS, _BACKBONE_GRID, _PROBES)


def cmd_grad_check(args) -> int:
    g = cfgmod.load(GRAD_CHECK, args.config)
    cfg = _backbone_cfg(g)
    params = attn.init_params(cfg, args.seed)
    rng = np.random.default_rng(mix(args.seed, "grad-check-inputs"))
    inputs = rng.standard_normal((cfg.num_domains, cfg.nlat, cfg.nlon, cfg.channels))
    err = _PROBES.build(g, params, inputs, cfg, seed=args.seed)
    print(f"L={cfg.seq_len} probes={g['probes']} max relative error {err:.3e}")
    if err >= 1e-6:
        print("gradient check FAILED (>= 1e-6)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# scaling


_CURVE = cfgmod.Binding(ScalingConfig, "sizes", "ratio", "trials")
_BENCHMARK = cfgmod.Binding(BenchmarkConfig, "nlat", "nlon", "clim_mm", "amplitude", "slope",
                            "n_numerical", "n_ai")
_FUSION = cfgmod.Binding(FusionConfig, "alpha")
_SKILL_NUMERICAL = cfgmod.Binding(TrackSkill, bias_sigma_numerical="bias_sigma",
                                  noise_sigma_numerical="noise_sigma")
_SKILL_AI = cfgmod.Binding(TrackSkill, bias_sigma_ai="bias_sigma", noise_sigma_ai="noise_sigma")
SCALING = (_CURVE, _BENCHMARK, _FUSION, _SKILL_NUMERICAL, _SKILL_AI)


def _scaling_config(v: dict) -> ScalingConfig:
    skill = SkillConfig(numerical=_SKILL_NUMERICAL.build(v), ai=_SKILL_AI.build(v))
    return _CURVE.build(v, benchmark=_BENCHMARK.build(v, skill=skill), fusion=_FUSION.build(v))


def cmd_scaling(args) -> int:
    t0 = time.perf_counter()
    cfg = _scaling_config(cfgmod.load(SCALING, args.config))
    truth, clim, pool = synthetic_benchmark(cfg.benchmark, args.seed)
    rows = skill_curve(pool, truth, clim, cfg, args.seed)
    lines = ["size,n_num,n_ai,trials,ps_mean,ps_std,acc_mean,acc_std"]
    for r in rows:
        lines.append(
            f"{r.size},{r.n_num},{r.n_ai},{r.trials},"
            f"{r.ps_mean:.4f},{r.ps_std:.4f},{r.acc_mean:.4f},{r.acc_std:.4f}"
        )
    write_text_atomic(args.out, "\n".join(lines) + "\n")
    outputs = [args.out]
    if args.svg:
        chart = svg_line_chart(
            [r.size for r in rows], [r.ps_mean for r in rows],
            x_label="ensemble size", y_label="mean PS",
        )
        write_text_atomic(args.svg, chart)
        outputs.append(args.svg)
    _write_run_manifest(args.out, "scaling",
                        {"snapshot": dataclasses.asdict(cfg)}, args.seed, outputs, t0)
    for r in rows:
        print(f"size={r.size} ps_mean={r.ps_mean:.3f} acc_mean={r.acc_mean:.3f}")
    return 0


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    t0 = time.perf_counter()
    anom = _read_at(read_anomaly, args.field)
    write_text_atomic(args.svg, svg_heatmap(anom))
    _write_run_manifest(args.svg, "render", {"field": args.field}, None, [args.svg], t0)
    print(f"heatmap -> {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# parser / main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capeskit",
        description="Hybrid ensemble seasonal-forecasting toolkit",
    )
    parser.add_argument("--version", action="version", version=f"capeskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="PS/ACC/RMSE of a forecast against observations")
    p.add_argument("--forecast", required=True, help="forecast GRD1 (mm)")
    p.add_argument("--obs", required=True, help="observed GRD1 (mm)")
    p.add_argument("--clim", required=True, help="climatology GRD1 (mm)")
    p.add_argument("--mask", help="optional unitless GRD1 cell mask (nonzero = scored)")
    p.add_argument("--clim-floor", type=float, default=DEFAULT_CLIM_FLOOR,
                   help="climatology floor in mm guarding division (default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fuse", help="contribution-weighted fusion of an ensemble directory")
    p.add_argument("--ensemble-dir", required=True)
    p.add_argument("--alpha", type=float, default=FusionConfig.alpha,
                   help="blend of sign consistency vs anomaly magnitude (default %(default)s)")
    p.add_argument("--out-field", required=True, help="fused anomaly GRD1")
    p.add_argument("--out-weights", required=True, help="weights CSV")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("generate", help="generate a hybrid/numerical/ai ensemble directory")
    p.add_argument("--mode", choices=("ai", "numerical", "hybrid"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("attn-bench", help="FLOP accounting and block timings")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--lengths", required=True, help="comma-separated sequence lengths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV (level,L,flops)")
    p.set_defaults(func=cmd_attn_bench)

    p = sub.add_parser("grad-check", help="verify backbone gradients against finite differences")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("scaling", help="skill-vs-ensemble-size curve on a synthetic benchmark")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--svg", help="optional line chart")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("render", help="SVG heatmap of an anomaly field")
    p.add_argument("--field", required=True, help="anomaly GRD1 (percent)")
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow is reported once, by the check that rejects the
        # non-finite field, not first as a numpy warning on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except CapeskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a config size no allocation can hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
    build_ai_ensemble,
    build_numerical_manifest,
    read_ensemble_dir,
    surrogate_numerical_member,
    write_ensemble_dir,
)
from .errors import CapeskitError
from .fusion import EnsembleSet, FusionConfig, blend_scores, fuse, member_metrics
from .grid import (
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_grid,
    read_mask,
    write_anomaly,
)
from .render import svg_heatmap, svg_line_chart
from .scaling import BenchmarkConfig, ScalingConfig, skill_curve, synthetic_benchmark
from .seeds import mix
from .verify import acc, ps_breakdown, ps_score, rmse


def _read_grid_at(path) -> GridField:
    if not os.path.exists(path):
        raise CapeskitError(f"cannot read {path}: no such file")
    try:
        return read_grid(path)
    except CapeskitError as exc:
        raise CapeskitError(f"{path}: {exc}") from None


def _write_text(path, text: str) -> None:
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_cmd_config(path, allowed) -> dict[str, str]:
    if path is None:
        return {}
    raw = cfgmod.load_config(path)
    cfgmod.ensure_known(raw, allowed, source=str(path))
    return raw


# ---------------------------------------------------------------------------
# score


def cmd_score(args) -> int:
    t0 = time.perf_counter()
    if args.clim_floor <= 0:
        raise CapeskitError(f"--clim-floor must be positive, got {args.clim_floor}")
    forecast = _read_grid_at(args.forecast)
    obs = _read_grid_at(args.obs)
    clim = Climatology(_read_grid_at(args.clim), floor=args.clim_floor)
    mask = None
    if args.mask:
        if not os.path.exists(args.mask):
            raise CapeskitError(f"cannot read {args.mask}: no such file")
        mask = read_mask(args.mask)
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
    _write_text(args.out, csv)
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
    if not os.path.isdir(args.ensemble_dir):
        raise CapeskitError(f"ensemble directory {args.ensemble_dir} does not exist")
    ensemble = read_ensemble_dir(args.ensemble_dir)
    fcfg = FusionConfig(alpha=args.alpha)
    s1, s2 = member_metrics(ensemble)
    weights = blend_scores(s1, s2, fcfg)
    fused = fuse(ensemble, weights)
    rows = ["member_id,track,s1,s2,weight"]
    for (meta, _), a, b, w in zip(ensemble, s1, s2, weights):
        # weights at full round-trip precision so they stay usable as
        # fuse() inputs; s1/s2 are diagnostics
        rows.append(f"{meta.id},{meta.track},{a:.6f},{b:.6f},{float(w)!r}")
    _write_text(args.out_weights, "\n".join(rows) + "\n")
    write_anomaly(fused, args.out_field)
    _write_run_manifest(args.out_field, "fuse", {
        "ensemble_dir": args.ensemble_dir, "alpha": args.alpha,
        "members": len(ensemble),
    }, None, [args.out_field, args.out_weights], t0)
    print(f"fused {len(ensemble)} members -> {args.out_field}")
    return 0


# ---------------------------------------------------------------------------
# generate


_GENERATE_KEYS = (
    "nlat", "nlon", "clim_mm", "n_init", "n_latent", "field_sigma",
    "spectral_slope", "latent_sigma", "start_dates", "schemes", "param_grid",
    "truth_amplitude", "truth_slope", "bias_sigma", "noise_sigma",
    "embed_dim", "num_heads", "num_layers", "patch_size", "window_size",
    "num_anchors", "num_domains", "channels", "layout",
)


def _generate_settings(raw: dict[str, str]) -> dict:
    g = {
        "nlat": cfgmod.cfg_int(raw, "nlat", 32),
        "nlon": cfgmod.cfg_int(raw, "nlon", 32),
        "clim_mm": cfgmod.cfg_float(raw, "clim_mm", 300.0),
        "n_init": cfgmod.cfg_int(raw, "n_init", 40),
        "n_latent": cfgmod.cfg_int(raw, "n_latent", 40),
        "field_sigma": cfgmod.cfg_float(raw, "field_sigma", 5.0),
        "spectral_slope": cfgmod.cfg_float(raw, "spectral_slope", 3.0),
        "latent_sigma": cfgmod.cfg_float(raw, "latent_sigma", 0.1),
        "start_dates": cfgmod.cfg_str_list(raw, "start_dates", ("0301", "0311", "0321")),
        "schemes": cfgmod.cfg_str_list(raw, "schemes", tuple(f"s{i}" for i in range(9))),
        "param_grid": cfgmod.cfg_pair(raw, "param_grid", (7, 7), "x"),
        "truth_amplitude": cfgmod.cfg_float(raw, "truth_amplitude", 130.0),
        "truth_slope": cfgmod.cfg_float(raw, "truth_slope", 3.0),
        "bias_sigma": cfgmod.cfg_float(raw, "bias_sigma", 15.0),
        "noise_sigma": cfgmod.cfg_float(raw, "noise_sigma", 40.0),
        "embed_dim": cfgmod.cfg_int(raw, "embed_dim", 32),
        "num_heads": cfgmod.cfg_int(raw, "num_heads", 4),
        "num_layers": cfgmod.cfg_int(raw, "num_layers", 2),
        "patch_size": cfgmod.cfg_int(raw, "patch_size", 8),
        "window_size": cfgmod.cfg_int(raw, "window_size", 2),
        "num_anchors": cfgmod.cfg_int(raw, "num_anchors", 8),
        "num_domains": cfgmod.cfg_int(raw, "num_domains", 3),
        "channels": cfgmod.cfg_int(raw, "channels", 4),
        "layout": cfgmod.cfg_str(raw, "layout", "sequence_concat"),
    }
    return g


def _benchmark_truth(spec: GridSpec, seed: int, amplitude: float, slope: float) -> AnomalyField:
    from .scaling import truth_pattern

    return truth_pattern(spec, mix(seed, "truth"), amplitude, slope)


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    g = _generate_settings(_load_cmd_config(args.config, _GENERATE_KEYS))
    spec = GridSpec(g["nlat"], g["nlon"])
    clim = Climatology(GridField(spec, np.full((g["nlat"], g["nlon"]), g["clim_mm"]), "mm"))
    members = []
    manifest_cfg = None

    if args.mode in ("numerical", "hybrid"):
        manifest_cfg = NumericalManifest(
            start_dates=g["start_dates"], schemes=g["schemes"], param_shape=g["param_grid"]
        )
        truth = _benchmark_truth(spec, args.seed, g["truth_amplitude"], g["truth_slope"])
        skill = SkillConfig(numerical=TrackSkill(
            bias_sigma=g["bias_sigma"], noise_sigma=g["noise_sigma"]
        ))
        num_seed = mix(args.seed, "numerical")
        for meta in build_numerical_manifest(manifest_cfg):
            members.append((meta, surrogate_numerical_member(meta, truth, skill, num_seed)))

    if args.mode in ("ai", "hybrid"):
        acfg = attn.AttentionConfig(
            embed_dim=g["embed_dim"], num_heads=g["num_heads"],
            num_layers=g["num_layers"], patch_size=g["patch_size"],
            window_size=g["window_size"], num_anchors=g["num_anchors"],
            num_domains=g["num_domains"], nlat=g["nlat"], nlon=g["nlon"],
            channels=g["channels"], layout=g["layout"],
        )
        params = attn.init_params(acfg, mix(args.seed, "model"))
        base_rng = np.random.default_rng(mix(args.seed, "base-fields"))
        base = base_rng.standard_normal((g["num_domains"], g["nlat"], g["nlon"], g["channels"]))
        pspec = PerturbationSpec(
            n_init=g["n_init"], n_latent=g["n_latent"], base_seed=mix(args.seed, "ai"),
            field_sigma=g["field_sigma"], spectral_slope=g["spectral_slope"],
            latent_sigma=g["latent_sigma"],
        )
        ai = build_ai_ensemble(base, params, acfg, pspec, clim)
        members.extend(ai.members)

    ensemble = EnsembleSet(members)
    write_ensemble_dir(args.out_dir, ensemble, manifest_cfg)
    _write_run_manifest(args.out_dir, "generate",
                        {"mode": args.mode, **g}, args.seed,
                        [args.out_dir], t0)
    print(f"wrote {len(ensemble)} members -> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# attn-bench / grad-check


_BENCH_KEYS = ("embed_dim", "num_heads", "patch_size", "window_size",
               "num_anchors", "num_domains", "channels", "layout")


def _bench_base(raw: dict[str, str]) -> dict:
    return {
        "embed_dim": cfgmod.cfg_int(raw, "embed_dim", 32),
        "num_heads": cfgmod.cfg_int(raw, "num_heads", 4),
        "patch_size": cfgmod.cfg_int(raw, "patch_size", 8),
        "window_size": cfgmod.cfg_int(raw, "window_size", 2),
        "num_anchors": cfgmod.cfg_int(raw, "num_anchors", 8),
        "num_domains": cfgmod.cfg_int(raw, "num_domains", 3),
        "channels": cfgmod.cfg_int(raw, "channels", 4),
        "layout": cfgmod.cfg_str(raw, "layout", "sequence_concat"),
    }


def _grid_for_length(length: int, base: dict) -> tuple[int, int]:
    """Find (nlat, nlon) realizing a sequence length with the base cfg."""
    v = base["num_domains"] if base["layout"] == "sequence_concat" else 1
    w, p = base["window_size"], base["patch_size"]
    if length % v:
        raise CapeskitError(f"length {length} not divisible by num_domains {v}")
    patches = length // v
    best = None
    for a in range(w, patches + 1, w):
        if patches % a:
            continue
        b = patches // a
        if b % w:
            continue
        if best is None or abs(a - b) < abs(best[0] - best[1]):
            best = (a, b)
    if best is None:
        raise CapeskitError(
            f"length {length} cannot be tiled into {w}-divisible patch grids"
        )
    return best[0] * p, best[1] * p


def _cfg_for_length(length: int, base: dict) -> attn.AttentionConfig:
    nlat, nlon = _grid_for_length(length, base)
    return attn.AttentionConfig(nlat=nlat, nlon=nlon, num_layers=1, **base)


def cmd_attn_bench(args) -> int:
    t0 = time.perf_counter()
    base = _bench_base(_load_cmd_config(args.config, _BENCH_KEYS))
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
    _write_text(args.out, "\n".join(rows) + "\n")
    for length, cfg in timing_cfgs:
        dt = attn.measure_block_time(cfg, seed=args.seed)
        print(f"L={length} tri-level block time {dt * 1e3:.3f} ms")
    _write_run_manifest(args.out, "attn-bench",
                        {**base, "lengths": lengths}, args.seed, [args.out], t0)
    print(f"flop table -> {args.out}")
    return 0


_GRADCHECK_KEYS = _BENCH_KEYS + ("nlat", "nlon", "num_layers", "probes", "step")


def cmd_grad_check(args) -> int:
    raw = _load_cmd_config(args.config, _GRADCHECK_KEYS)
    base = _bench_base(raw)
    cfg = attn.AttentionConfig(
        nlat=cfgmod.cfg_int(raw, "nlat", 16),
        nlon=cfgmod.cfg_int(raw, "nlon", 16),
        num_layers=cfgmod.cfg_int(raw, "num_layers", 2),
        **base,
    )
    probes = cfgmod.cfg_int(raw, "probes", 20)
    step = cfgmod.cfg_float(raw, "step", 1e-5)
    params = attn.init_params(cfg, args.seed)
    rng = np.random.default_rng(mix(args.seed, "grad-check-inputs"))
    inputs = rng.standard_normal((cfg.num_domains, cfg.nlat, cfg.nlon, cfg.channels))
    err = attn.grad_check(params, inputs, cfg, probe_count=probes, step=step, seed=args.seed)
    print(f"L={cfg.seq_len} probes={probes} max relative error {err:.3e}")
    if err >= 1e-6:
        print("gradient check FAILED (>= 1e-6)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# scaling


_SCALING_KEYS = (
    "sizes", "ratio", "trials", "nlat", "nlon", "clim_mm", "amplitude",
    "slope", "n_numerical", "n_ai", "alpha",
    "bias_sigma_numerical", "noise_sigma_numerical", "bias_sigma_ai", "noise_sigma_ai",
)


def _scaling_config(raw: dict[str, str]) -> ScalingConfig:
    skill = SkillConfig(
        numerical=TrackSkill(
            bias_sigma=cfgmod.cfg_float(raw, "bias_sigma_numerical", 15.0),
            noise_sigma=cfgmod.cfg_float(raw, "noise_sigma_numerical", 40.0),
        ),
        ai=TrackSkill(
            bias_sigma=cfgmod.cfg_float(raw, "bias_sigma_ai", 15.0),
            noise_sigma=cfgmod.cfg_float(raw, "noise_sigma_ai", 40.0),
        ),
    )
    benchmark = BenchmarkConfig(
        nlat=cfgmod.cfg_int(raw, "nlat", 32),
        nlon=cfgmod.cfg_int(raw, "nlon", 32),
        clim_mm=cfgmod.cfg_float(raw, "clim_mm", 300.0),
        amplitude=cfgmod.cfg_float(raw, "amplitude", 130.0),
        slope=cfgmod.cfg_float(raw, "slope", 3.0),
        n_numerical=cfgmod.cfg_int(raw, "n_numerical", 174),
        n_ai=cfgmod.cfg_int(raw, "n_ai", 1600),
        skill=skill,
    )
    return ScalingConfig(
        sizes=cfgmod.cfg_int_list(raw, "sizes", (11, 22, 44, 88, 176)),
        ratio=cfgmod.cfg_pair(raw, "ratio", (1, 10), ":"),
        trials=cfgmod.cfg_int(raw, "trials", 50),
        benchmark=benchmark,
        fusion=FusionConfig(alpha=cfgmod.cfg_float(raw, "alpha", 0.5)),
    )


def cmd_scaling(args) -> int:
    t0 = time.perf_counter()
    cfg = _scaling_config(_load_cmd_config(args.config, _SCALING_KEYS))
    truth, clim, pool = synthetic_benchmark(cfg.benchmark, args.seed)
    rows = skill_curve(pool, truth, clim, cfg, args.seed)
    lines = ["size,n_num,n_ai,trials,ps_mean,ps_std,acc_mean,acc_std"]
    for r in rows:
        lines.append(
            f"{r.size},{r.n_num},{r.n_ai},{r.trials},"
            f"{r.ps_mean:.4f},{r.ps_std:.4f},{r.acc_mean:.4f},{r.acc_std:.4f}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    outputs = [args.out]
    if args.svg:
        chart = svg_line_chart(
            [r.size for r in rows], [r.ps_mean for r in rows],
            x_label="ensemble size", y_label="mean PS",
        )
        _write_text(args.svg, chart)
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
    f = _read_grid_at(args.field)
    anom = AnomalyField.from_grid(f)
    _write_text(args.svg, svg_heatmap(anom))
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
    p.add_argument("--clim-floor", type=float, default=0.1,
                   help="climatology floor in mm guarding division (default 0.1)")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fuse", help="contribution-weighted fusion of an ensemble directory")
    p.add_argument("--ensemble-dir", required=True)
    p.add_argument("--alpha", type=float, default=0.5,
                   help="blend of sign consistency vs anomaly magnitude (default 0.5)")
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
        return args.func(args)
    except CapeskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

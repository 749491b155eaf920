"""Traced invocations of the capeskit command line, for perfbench/run.py.

    python3 perfbench/tracer.py JOB.json

Runs each argv of the job through ``capeskit.cli.main`` in this process,
with a span around every call to the public layer functions listed in
``TRACED``. Capeskit modules import names directly, so each wrapper is
installed on every module binding of the function, not only where it is
defined. Spans stay in memory and are written to the job's result file
at the end, with exact counts (``Tensor`` objects built, GRD1 bytes read
and written), level probes of the backbone and the member-isolation
check. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import sys
import threading
import time

#: Layer functions wrapped in spans, by capeskit module.
TRACED = {
    "attention": ("forward", "init_params"),
    "ensemble": ("ai_member", "build_ai_ensemble", "correlated_field",
                 "surrogate_numerical_member", "build_numerical_manifest",
                 "write_ensemble_dir", "read_ensemble_dir"),
    "grid": ("write_grid", "read_grid", "anomaly_percent"),
    "fusion": ("member_metrics", "contribution_scores", "fuse"),
    "verify": ("ps_breakdown", "acc", "rmse"),
    "scaling": ("synthetic_benchmark", "truth_pattern", "subsample", "skill_curve"),
    "parallel": ("map_ordered",),
}
#: Spans whose file size is counted: span name -> index of the path argument.
SIZED = {"grid.write_grid": 1, "grid.read_grid": 0}
#: Level probes: repeats per level, taking the median.
PROBE_REPEATS = 9
#: AI members regenerated alone and compared with the written files.
ISOLATION_SAMPLES = 4


class Recorder:
    """Spans ``[name, start, end, parent index, invocation id]`` of one run.

    Spans are recorded only while an invocation runs. The parent is the
    innermost open span of the calling thread; a span opened in a worker
    thread with nothing open takes the innermost open span of the main
    thread."""

    def __init__(self):
        self.spans = []
        self.invocation = None
        self.bytes = {name: 0 for name in SIZED}
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs):
        if self.invocation is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.invocation]
        self.spans.append(span)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if name in SIZED:
                path = args[SIZED[name]] if len(args) > SIZED[name] else kwargs["path"]
                if os.path.exists(path):
                    self.bytes[name] += os.path.getsize(path)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced


def install(rec: Recorder) -> dict:
    """Wrap every TRACED function on each capeskit module that binds it."""
    import capeskit.cli  # noqa: F401  (imports every module the commands use)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "capeskit" or n.startswith("capeskit."))]
    originals = {}
    for short, names in TRACED.items():
        home = sys.modules[f"capeskit.{short}"]
        for fname in names:
            fn = getattr(home, fname)
            originals[f"{short}.{fname}"] = fn
            wrapped = rec.wrap(f"{short}.{fname}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
    return originals


def count_tensors():
    """Count every ``capeskit.autodiff.Tensor`` built; returns a reader."""
    from capeskit.autodiff import Tensor

    init = Tensor.__init__
    n = [0]

    def counted(self, *args, **kwargs):
        n[0] += 1
        init(self, *args, **kwargs)

    Tensor.__init__ = counted
    return lambda: n[0]


def _model(model: dict, originals: dict):
    """The backbone, base fields and perturbation spec ``generate`` builds
    for this seed and config, from the public API."""
    import numpy as np
    from capeskit.attention import AttentionConfig
    from capeskit.ensemble import PerturbationSpec
    from capeskit.grid import Climatology, GridField, GridSpec
    from capeskit.seeds import mix

    seed, cfg = model["seed"], dict(model["config"])
    n_init, n_latent = cfg.pop("n_init", 40), cfg.pop("n_latent", 40)
    acfg = AttentionConfig(**cfg)
    params = originals["attention.init_params"](acfg, mix(seed, "model"))
    base = np.random.default_rng(mix(seed, "base-fields")).standard_normal(
        (acfg.num_domains, acfg.nlat, acfg.nlon, acfg.channels))
    pspec = PerturbationSpec(n_init=n_init, n_latent=n_latent, base_seed=mix(seed, "ai"))
    spec = GridSpec(acfg.nlat, acfg.nlon)
    clim = Climatology(GridField(spec, np.full((acfg.nlat, acfg.nlon), 300.0), "mm"))
    return acfg, params, base, pspec, clim


def probe_levels(acfg, params, base) -> dict:
    """Median wall time in ms of each public attention level at the
    workload's sequence length."""
    from capeskit import attention as attn

    def median_ms(fn):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    x = attn.tokenize(base, params, acfg)
    return {
        "attention.tokenize.ms": median_ms(lambda: attn.tokenize(base, params, acfg)),
        "attention.window_attention.ms": median_ms(lambda: attn.window_attention(x, params, acfg)),
        "attention.cross_variable_attention.ms":
            median_ms(lambda: attn.cross_variable_attention(x, params, acfg)),
        "attention.anchor_attention.ms":
            median_ms(lambda: attn.anchor_attention(x, params["anchors"], params, acfg)),
        "attention.flops_per_forward": attn.tri_level_flops(acfg, acfg.seq_len) * acfg.num_layers,
    }


def check_isolation(model: dict, acfg, params, base, pspec, clim, originals) -> dict:
    """Regenerate sampled AI members alone through ``ensemble.ai_member``
    and compare their values with the files the traced run wrote."""
    import numpy as np

    rng = random.Random(model["seed"])
    picks = {(0, 0), (pspec.n_init - 1, pspec.n_latent - 1)}
    while len(picks) < min(ISOLATION_SAMPLES, pspec.member_count):
        picks.add((rng.randrange(pspec.n_init), rng.randrange(pspec.n_latent)))
    mismatched = []
    for i, j in sorted(picks):
        meta, fld = originals["ensemble.ai_member"](base, params, acfg, pspec, clim, i, j)
        path = os.path.join(model["ensemble_dir"], f"{meta.id}.grd")
        try:
            with open(path, encoding="ascii") as fh:
                written = np.array(fh.read().split()[8:], dtype=np.float64)
        except (OSError, ValueError):
            written = None
        if written is None or not np.array_equal(written, fld.values.ravel()):
            mismatched.append(meta.id)
    return {"checked": len(picks), "mismatched": mismatched}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    rec = Recorder()
    originals = install(rec)
    tensors = count_tensors()
    import capeskit.cli
    from capeskit import parallel

    exit_codes = []
    for inv, argv in enumerate(job["invocations"]):
        rec.invocation = inv
        try:
            code = rec.call("cli.main", capeskit.cli.main, (argv,), {})
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        exit_codes.append(code)
    rec.invocation = None
    t_end = time.perf_counter()

    metrics = {
        "grid.write_grid.bytes": rec.bytes["grid.write_grid"],
        "grid.read_grid.bytes": rec.bytes["grid.read_grid"],
        "autodiff.tensors_created": tensors(),
        "parallel.workers": parallel.worker_count(),
        "attention.tokenize.ms": 0.0, "attention.window_attention.ms": 0.0,
        "attention.cross_variable_attention.ms": 0.0, "attention.anchor_attention.ms": 0.0,
        "attention.flops_per_forward": 0,
    }
    isolation = {"checked": 0, "mismatched": []}
    model = job["model"]
    if model is not None:
        acfg, params, base, pspec, clim = _model(model, originals)
        metrics.update(probe_levels(acfg, params, base))
        if all(code == 0 for code in exit_codes):
            isolation = check_isolation(model, acfg, params, base, pspec, clim, originals)

    result = {"spans": rec.spans, "metrics": metrics, "isolation": isolation,
              "exit_codes": exit_codes, "post_s": time.perf_counter() - t_end}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

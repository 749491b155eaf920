"""The traced benchmark (``perfbench/tracer.py``) still finds every name
it looks up or calls, so a deletion in ``capeskit`` fails here and not
only in a ``--trace 1`` run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from capeskit.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: names the tracer calls directly, outside TRACED
CALLED = {
    "attention": ("AttentionConfig", "tokenize", "window_attention", "cross_variable_attention",
                  "anchor_attention", "tri_level_flops"),
    "ensemble": ("PerturbationSpec",),
    "grid": ("Climatology", "GridField", "GridSpec"),
    "seeds": ("mix",),
    "parallel": ("worker_count",),
    "autodiff": ("Tensor",),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_called_name_resolves(tracer):
    wanted = [(m, n) for m, names in tracer.TRACED.items() for n in names]
    wanted += [(m, n) for m, names in CALLED.items() for n in names]
    missing = [f"capeskit.{m}.{n}" for m, n in wanted
               if not callable(getattr(importlib.import_module(f"capeskit.{m}"), n, None))]
    assert missing == []


def test_level_probes_and_isolation_check_run(tracer, tmp_path):
    import capeskit.attention as attn
    import capeskit.ensemble as ens

    config = {"nlat": 16, "nlon": 16, "n_init": 2, "n_latent": 2}
    cfgp = tmp_path / "gen.cfg"
    cfgp.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out = tmp_path / "ens"
    assert main(["generate", "--mode", "ai", "--seed", "3", "--config", str(cfgp),
                 "--out-dir", str(out)]) == 0

    model = {"seed": 3, "config": config, "ensemble_dir": str(out)}
    originals = {"attention.init_params": attn.init_params, "ensemble.ai_member": ens.ai_member}
    acfg, params, base, pspec, clim = tracer._model(model, originals)
    probes = tracer.probe_levels(acfg, params, base)
    assert all(np.isfinite(v) and v > 0 for v in probes.values()), probes
    isolation = tracer.check_isolation(model, acfg, params, base, pspec, clim, originals)
    assert isolation == {"checked": pspec.member_count, "mismatched": []}

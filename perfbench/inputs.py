"""Inputs and machine context for perfbench/run.py, made in a child process.

    python3 perfbench/inputs.py context
    python3 perfbench/inputs.py fuse_score DIR SEED

The benchmark keeps numpy out of its own process: a child's peak RSS as
``wait4`` reports it includes the memory of the process it was forked
from, so a large parent would inflate ``peak_rss_mb``.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
from pathlib import Path
from typing import Optional

import numpy as np


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, when it exports
    ``scipy_openblas_get_num_threads64_``."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def machine_context() -> dict:
    """CPU count, Python, numpy, BLAS build and threads, and the thread
    variables as found. Reads only; sets nothing."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        **{k: os.environ.get(k) for k in ("CAPESKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_grd(path: Path, values: np.ndarray, units: str) -> None:
    nlat, nlon = values.shape
    rows = "".join(" ".join(map(repr, row)) + "\n" for row in values.tolist())
    path.write_text(f"GRD1 {nlat} {nlon} 0.0 1.0 0.0 1.0 {units}\n{rows}", encoding="ascii")


def _smooth_fields(rng: np.random.Generator, n: int, nlat: int = 32, nlon: int = 32,
                   slope: float = 3.0) -> np.ndarray:
    """n zero-mean, unit-sd fields with power-law spatial correlation."""
    ky = np.fft.fftfreq(nlat) * nlat
    kx = np.fft.fftfreq(nlon) * nlon
    shape = (1.0 + np.hypot(ky[:, None], kx[None, :])) ** (-slope / 2.0)
    shape[0, 0] = 0.0
    coeff = rng.standard_normal((n, nlat, nlon)) + 1j * rng.standard_normal((n, nlat, nlon))
    f = np.fft.ifft2(coeff * shape).real
    return f / f.std(axis=(1, 2), keepdims=True)


def write_fuse_score_inputs(inputs: Path, seed: int) -> None:
    """A 1,774-member 32x32 ensemble directory laid out as ``generate``
    writes it (174 numerical + 40 x 40 AI ids), and mm forecast/obs/clim
    fields for ``score``. Written here, not by the program, so no work of
    the program can move into set-up."""
    rng = np.random.default_rng(seed)
    lines = ([f"num-d{d}-s{s}\tnumerical\tstart_date_index={d},scheme_index={s}"
              for d in range(3) for s in range(9)]
             + [f"num-d{d}-p{i}-{j}\tnumerical\tstart_date_index={d},param_i={i},param_j={j}"
                for d in range(3) for i in range(7) for j in range(7)]
             + [f"ai-{i:04d}-{j:04d}\tai\tinit_seed={rng.integers(2**62)},"
                f"latent_seed={rng.integers(2**62)}" for i in range(40) for j in range(40)])
    ens = inputs / "ensemble"
    ens.mkdir()
    (ens / "manifest.tsv").write_text("\n".join(lines) + "\n")
    n = len(lines)
    truth = 80.0 * _smooth_fields(rng, 1)[0]
    members = truth + 15.0 * _smooth_fields(rng, n) + 40.0 * _smooth_fields(rng, n, slope=2.0)
    for line, values in zip(lines, members):
        _write_grd(ens / f"{line.split()[0]}.grd", values, "percent")

    clim = 300.0 + 60.0 * _smooth_fields(rng, 1)[0]
    obs_anom = np.maximum(60.0 * _smooth_fields(rng, 1)[0], -95.0)
    fc_anom = np.maximum(0.7 * obs_anom + 30.0 * _smooth_fields(rng, 1)[0], -95.0)
    _write_grd(inputs / "clim.grd", clim, "mm")
    _write_grd(inputs / "obs.grd", clim * (1.0 + obs_anom / 100.0), "mm")
    _write_grd(inputs / "forecast.grd", clim * (1.0 + fc_anom / 100.0), "mm")


if __name__ == "__main__":
    if sys.argv[1:] == ["context"]:
        print(json.dumps(machine_context(), sort_keys=True))
    elif len(sys.argv) == 4 and sys.argv[1] == "fuse_score":
        write_fuse_score_inputs(Path(sys.argv[2]), int(sys.argv[3]))
    else:
        sys.exit(f"usage: {sys.argv[0]} context | fuse_score DIR SEED")

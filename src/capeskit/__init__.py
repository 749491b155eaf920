"""capeskit: desk-scale hybrid ensemble seasonal-forecasting toolkit."""

__version__ = "0.1.0"

import os
import sys


def _import_numpy_on_one_cpu() -> None:
    """Import numpy while the calling thread may run on one CPU only.

    numpy's bundled OpenBLAS sizes its thread pool once, when it loads,
    from the affinity mask, and caps even ``OPENBLAS_NUM_THREADS`` at that
    size: loaded on one CPU it starts no worker thread, so none spins
    beside the command. The caller's mask is back before this returns, so
    the threads capeskit starts later (the GRD1 writer) may use every CPU.
    A no-op where numpy is already imported (its pool is sized; see
    :data:`capeskit.parallel.blas_single_thread`) or the platform cannot
    set the affinity of a thread."""
    if "numpy" in sys.modules or not hasattr(os, "sched_setaffinity"):
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        import numpy  # noqa: F401
    finally:
        os.sched_setaffinity(0, mask)


_import_numpy_on_one_cpu()

from .grid import (  # noqa: F401, E402
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_grid,
    write_grid,
)
from .verify import PsBreakdown, acc, classify, ps_breakdown, ps_score, rmse  # noqa: F401, E402
from .fusion import (  # noqa: F401, E402
    EnsembleSet,
    FusionConfig,
    MemberMeta,
    contribution_scores,
    fuse,
)

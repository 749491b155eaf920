"""BLAS-thread control, and the two names the benchmark tracer times.

Compute runs on the calling thread. One I/O thread writes GRD1 files
behind the formatter (``grid._write_behind``); it writes the files the
formatter hands it in order, so bytes and file order do not depend on it.

Backbone work runs under :data:`blas_single_thread`. Its matrix products
are small (L x d by d x d with d = 32), and once L reaches ~1024 they
cross OpenBLAS's threading threshold, where waking worker threads costs
more than the arithmetic. Pinning numpy's bundled OpenBLAS to one thread
for that work keeps block time linear in L.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import ContextDecorator

import numpy as np


def worker_count() -> int:
    """1: compute runs on one thread. Kept only because
    ``perfbench/tracer.py`` reports it as ``parallel.workers``; it goes
    with that tracer's per-binding spans (ROADMAP item 1, step 3)."""
    return 1


def map_ordered(fn, items):
    """``[fn(item) for item in items]``, the trial loop of
    :func:`capeskit.scaling.skill_curve`. Kept as a name only because
    ``perfbench/tracer.py`` times it; it goes with that tracer's
    per-binding spans (ROADMAP item 1, step 3)."""
    return [fn(item) for item in items]


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled in
    numpy's wheel, or None when numpy uses another BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _SingleBlasThread(ContextDecorator):
    """Context manager and decorator: OpenBLAS runs on one thread inside.

    Re-entrant and thread-safe: the first section to enter saves the
    thread count and sets 1, the last to leave restores the saved count.
    A no-op when numpy's bundled OpenBLAS is not found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        blas = _openblas()
        if blas is not None:
            with self._lock:
                if self._depth == 0:
                    self._saved = blas[0]()
                    blas[1](1)
                self._depth += 1
        return self

    def __exit__(self, *exc):
        blas = _openblas()
        if blas is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    blas[1](self._saved)
        return False


#: Pins numpy's OpenBLAS to one thread for the duration of backbone work.
blas_single_thread = _SingleBlasThread()


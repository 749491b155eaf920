"""Worker-count and BLAS-thread control for internally parallel work.

CAPESKIT_THREADS caps the pool; unset means sequential. Parallel loops
in this package only run seeded pure functions and aggregate results in
input order, so outputs are identical at any worker count.

One I/O thread, apart from this pool, writes member files behind the
GRD1 formatter (``grid._write_behind``). It is not a compute worker and
is not capped by CAPESKIT_THREADS; it writes the files the formatter
hands it in order, so bytes and file order do not depend on it.

Backbone work runs under :data:`blas_single_thread`. Its matrix products
are small (L x d by d x d with d = 32), and once L reaches ~1024 they
cross OpenBLAS's threading threshold, where waking worker threads costs
more than the arithmetic. Pinning numpy's bundled OpenBLAS to one thread
for that work keeps block time linear in L.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ContextDecorator

import numpy as np

from .errors import CapeskitError


def worker_count() -> int:
    raw = os.environ.get("CAPESKIT_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise CapeskitError(f"CAPESKIT_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def map_ordered(fn, items):
    """Apply fn to items, preserving order; threaded when allowed.

    Each item runs in a copy of the caller's context, so context-local
    settings such as ``np.errstate`` hold in the workers too."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # one copy per item: a context cannot be entered by two threads at once
    contexts = [contextvars.copy_context() for _ in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda ctx, it: ctx.run(fn, it), contexts, items))


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


import threading

import numpy as np
import pytest

from capeskit import parallel
from capeskit.parallel import blas_single_thread

BLAS = parallel._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy without bundled OpenBLAS")


def blas_threads():
    return BLAS[0]()


@needs_openblas
class TestBlasSingleThread:
    def test_pins_one_thread_and_restores(self):
        before = blas_threads()
        BLAS[1](2)
        try:
            with blas_single_thread:
                assert blas_threads() == 1
            assert blas_threads() == 2
        finally:
            BLAS[1](before)

    def test_nested_sections_restore_once(self):
        before = blas_threads()
        BLAS[1](2)
        try:
            with blas_single_thread:
                with blas_single_thread:
                    assert blas_threads() == 1
                assert blas_threads() == 1
            assert blas_threads() == 2
        finally:
            BLAS[1](before)

    def test_restores_after_exception(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with blas_single_thread:
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_decorated_function_runs_single_threaded(self):
        seen = []

        @blas_single_thread
        def work():
            seen.append(blas_threads())
            return np.ones((4, 4)) @ np.ones((4, 4))

        assert work()[0, 0] == 4.0
        assert seen == [1]

    def test_concurrent_sections_restore_the_first_count(self):
        before = blas_threads()
        BLAS[1](2)
        inside = []
        barrier = threading.Barrier(4, timeout=10)

        def section():
            with blas_single_thread:
                barrier.wait()
                inside.append(blas_threads())

        try:
            threads = [threading.Thread(target=section) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert inside == [1, 1, 1, 1]
            assert blas_threads() == 2
        finally:
            BLAS[1](before)


def test_single_thread_section_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    with blas_single_thread:
        assert (np.eye(3) @ np.eye(3) == np.eye(3)).all()


"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """A function of ``fn`` that returns fn()'s result and the peak traced
    allocation (bytes) while it ran."""
    return _traced_peak

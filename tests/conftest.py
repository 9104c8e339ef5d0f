import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """peak_bytes(fn, *args): fn(*args) and its traced peak in bytes.  A warm
    call fn(), at fn's defaults, first fills the caches and lazy imports that
    the measured call would otherwise count."""
    def measure(fn, *args):
        fn()
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure

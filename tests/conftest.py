import os

# Pin BLAS to one thread before numpy loads anywhere: keeps matmul results
# bitwise reproducible across runs and keeps the small desk-scale matrices
# off the threaded code paths.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def spy(monkeypatch):
    """Record which functions ran, in the order they returned.

    `spy(owner, attr, tag=None)` replaces `owner.attr` for the test with a
    wrapper that appends `tag` (default `attr`) to `spy.calls` each time
    the call returns. Swap the binding the caller looks up: the module a
    function is called from, or the class of a method.
    """
    calls = []

    def watch(owner, attr, tag=None):
        func = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            calls.append(tag or attr)
            return result

        monkeypatch.setattr(owner, attr, wrapper)

    watch.calls = calls
    return watch

import threading
import tracemalloc

import numpy as np
import pytest

from shrinkerlab import build_grid, make_model
from shrinkerlab.operators import FirstOrder, RoughLaplacian, WeightedAdjoint


@pytest.fixture(scope="session")
def gaussian1():
    return make_model("gaussian", 1)


@pytest.fixture(scope="session")
def gaussian2():
    return make_model("gaussian", 2)


@pytest.fixture(scope="session")
def cylinder32():
    return make_model("cylinder", 3, 2)


@pytest.fixture(scope="session")
def grid1_256(gaussian1):
    return build_grid(gaussian1, 256, 10.0)


@pytest.fixture(scope="session")
def grid2_64(gaussian2):
    return build_grid(gaussian2, 64, 8.0)


@pytest.fixture(scope="session")
def grid2_small(gaussian2):
    return build_grid(gaussian2, 48, 6.0)


@pytest.fixture(scope="session")
def cyl_grid(cylinder32):
    return build_grid(cylinder32, 48, 8.0)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with more live threads than it began with: a
    helper thread, such as the probe draws of `Operators.adjoint_gap`, must
    be joined before its caller returns or raises."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def traced_peak(fn, *args):
    """Call `fn(*args)` under tracemalloc (started for the call unless it is
    already tracing). Returns the result, the peak of traced memory above its
    level at the call, and how much the call left live, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - entry, current - entry


def held_arrays(value):
    """Every array reachable from `value` through an operator suite's factors
    and their containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from held_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from held_arrays(item)
    elif isinstance(value, (FirstOrder, WeightedAdjoint, RoughLaplacian)):
        yield from held_arrays(vars(value))

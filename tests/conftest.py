import tracemalloc
import warnings

import numpy as np
import pytest

from grassopt import EnergyModel, StiefelPoint, project_tangent, thin_qr


def random_stiefel(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = thin_qr(rng.standard_normal((n, p)))
    return StiefelPoint(q)


def random_tangent(u, seed):
    """A random tangent at the frame `u`, as an array."""
    rng = np.random.default_rng(seed)
    return project_tangent(u, rng.standard_normal(u.shape))


class Delegate(EnergyModel):
    """Delegates every model call to `model`.  Test variants of a concrete
    model, which is final, subclass this and redefine what they change; with
    no apply_operator they are evaluated exactly."""

    def __init__(self, model):
        self.model = model

    def value(self, u):
        return self.model.value(u)

    def euclidean_gradient(self, u):
        return self.model.euclidean_gradient(u)

    def hessian_apply(self, u, d):
        return self.model.hessian_apply(u, d)


def traced_peak(call, n):
    """The peak of the memory `call()` allocates, numpy's data buffers
    included, in units of an n-by-n float64 matrix.  A first untraced call
    does the one-time work (lazy imports, caches) that later calls skip."""
    call()
    outer = tracemalloc.is_tracing()  # e.g. under python -X tracemalloc
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()
    return peak / (8 * n * n)


@pytest.fixture(params=[False, True], ids=["warnings", "warnings-as-errors"])
def strict(request):
    """Runs a test as it is and with every RuntimeWarning an error."""
    with warnings.catch_warnings():
        if request.param:
            warnings.simplefilter("error", RuntimeWarning)
        yield request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

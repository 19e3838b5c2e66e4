import tracemalloc
import warnings

import numpy as np
import pytest

from grassopt import EnergyModel, project_tangent


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
    """Runs a test with RuntimeWarnings at Python's default action, where the
    test must emit none, and with every RuntimeWarning an error.  Each mode
    sets its action itself, whatever filter the run set."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("error" if request.param else "default", RuntimeWarning)
        yield request.param
    assert not [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

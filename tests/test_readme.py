"""The README's extension example, run as written."""

import pathlib
import re

import pytest

import grassopt
from grassopt import (
    QuadraticTraceModel,
    SolveConfig,
    Status,
    eigen_oracle,
    random_symmetric,
    solve,
)
from grassopt.search import DIRECTIONS, RETRACTIONS, STRATEGIES

from conftest import random_stiefel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_shifted():
    """The `Shifted` wrapper of the README's one python block."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {"grassopt": grassopt}
    exec(blocks[0], namespace)
    return namespace["Shifted"]


def wrapper(kind):
    """`Shifted`, or a variant that also overrides one optional method with
    the signature the README gives it."""
    shifted = readme_shifted()
    if kind == "shifted":
        return shifted

    class ShiftedEvaluate(shifted):
        def evaluate(self, u):
            energy, egrad = self.model.evaluate(u)
            return energy + self.shift, egrad

    class ShiftedQform(shifted):
        def hessian_qform(self, u, d):
            return self.model.hessian_qform(u, d)

    return ShiftedEvaluate if kind == "evaluate" else ShiftedQform


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("retraction", RETRACTIONS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", ["shifted", "evaluate", "hessian_qform"])
def test_wrapper_reaches_shifted_minimum(kind, strategy, retraction, direction):
    model, shift = QuadraticTraceModel(random_symmetric(30, 5)), 2.5
    target = eigen_oracle(model, 3)[0] + shift
    config = SolveConfig(
        epsilon=1e-8, max_iter=5000, strategy=strategy, retraction=retraction,
        direction=direction,
    )
    result = solve(wrapper(kind)(model, shift), random_stiefel(30, 3, 6), config)
    assert result.status is Status.CONVERGED
    assert abs(result.final_energy - target) <= 1e-10 * abs(target)

"""Tests of the benchmark's own code: counting, self time and the output check.

    python -m pytest perfbench/tests
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import grassopt  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from grassopt import QuadraticTraceModel, SolveConfig, random_symmetric, solve  # noqa: E402


def tiny_instance(epsilon=1e-9):
    model = QuadraticTraceModel(random_symmetric(12, 3))
    energy, _ = grassopt.eigen_oracle(model, 2)
    return workloads.Instance("tiny", model, workloads.start_frame(12, 2, 5), epsilon, energy)


def traced_solve(instance, config):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        result = tracer.wrap(f"search.solve/{config.strategy}", solve)(
            tracing.CountingModel(instance.model, tracer), instance.u0, config)
    own = tracing.self_times(tracer.spans)
    (totals,) = tracing.totals_by_root(tracer.spans, own).values()
    return result, tracer, {name: t[0] for name, t in totals.items()}


def test_counting_model_exact_counts_adaptive():
    steps = 6
    config = SolveConfig(epsilon=1e-12, max_iter=steps, strategy="adaptive")
    result, tracer, calls = traced_solve(tiny_instance(), config)
    assert result.iters == steps
    # per step: gradient, value, Hessian action and the gradient again inside
    # the quadratic form; the last loop turn evaluates gradient and value only
    assert calls["objectives.value"] == steps + 1 == result.total_energy_evals
    assert calls["objectives.euclidean_gradient"] == 2 * steps + 1
    assert calls["objectives.hessian_apply"] == steps
    assert calls["manifold.retract_qr"] == steps == result.total_retraction_evals
    assert calls["stepsize.adaptive_step"] == steps == len(tracer.decisions)


def test_counting_model_exact_counts_backtracking():
    steps = 6
    config = SolveConfig(epsilon=1e-12, max_iter=steps, strategy="backtracking")
    result, tracer, calls = traced_solve(tiny_instance(), config)
    backtracks = sum(d.backtracks for _, d in tracer.decisions)
    assert [d.backtracks for _, d in tracer.decisions] == [r.backtracks for r in result.trace]
    assert calls["objectives.value"] == steps + 1 + steps + backtracks == result.total_energy_evals
    assert calls["objectives.euclidean_gradient"] == steps + 1
    assert "objectives.hessian_apply" not in calls
    assert calls["manifold.retract_qr"] == steps + backtracks == result.total_retraction_evals


def test_instrument_restores_package_functions():
    before = (grassopt.search.retract_qr, grassopt.manifold.thin_qr,
              grassopt.StiefelPoint.__post_init__)
    with tracing.instrument(tracing.Tracer()):
        assert grassopt.search.retract_qr is not before[0]
    after = (grassopt.search.retract_qr, grassopt.manifold.thin_qr,
             grassopt.StiefelPoint.__post_init__)
    assert after == before


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent)


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("root2", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    assert tracing.roots(spans) == [0, 0, 0, 0, 4]
    totals = tracing.totals_by_root(spans, tracing.self_times(spans))
    assert totals[0]["a"] == pytest.approx([1, 3.0, 2.0])
    assert set(totals[4]) == {"root2"}


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("x", 1.0, 4.0, 0),
        span("y", 3.0, 6.0, 0),  # overlaps x: covered is [1, 6], not 6 s
        span("z", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.fixture(scope="module")
def converged():
    instance = tiny_instance()
    job = workloads.Job(instance, SolveConfig(epsilon=instance.epsilon, max_iter=5000))
    result = solve(instance.model, instance.u0, job.config)
    assert result.status is grassopt.Status.CONVERGED
    return job, result


def test_check_accepts_a_correct_solve(converged):
    job, result = converged
    assert workloads.check(job, result) == ""


def test_check_rejects_perturbed_energy(converged):
    job, result = converged
    bad = dataclasses.replace(result, final_energy=result.final_energy * (1 + 1e-7))
    assert "reported energy" in workloads.check(job, bad)


def test_check_rejects_wrong_reference(converged):
    job, result = converged
    inst = dataclasses.replace(job.instance, reference=job.instance.reference + 1e-6)
    assert "energy" in workloads.check(dataclasses.replace(job, instance=inst), result)


def test_check_rejects_non_orthonormal_frame(converged):
    job, result = converged
    u = result.final_point.u * (1 + 1e-8)
    point = object.__new__(grassopt.StiefelPoint)  # bypass the constructor's own check
    object.__setattr__(point, "u", u)
    bad = dataclasses.replace(result, final_point=point)
    assert "orthonormality" in workloads.check(job, bad)


def test_check_accepts_a_truthful_unconverged_solve():
    instance = tiny_instance()
    job = workloads.Job(instance, SolveConfig(epsilon=instance.epsilon, max_iter=2))
    result = solve(instance.model, instance.u0, job.config)
    assert result.status is grassopt.Status.MAX_ITERATIONS
    assert workloads.check(job, result) == ""


def test_check_rejects_unconverged_solve_below_epsilon(converged):
    job, result = converged
    bad = dataclasses.replace(result, status=grassopt.Status.FAILED, diagnostic="shrink cap")
    assert "status failed with residual" in workloads.check(job, bad)


def test_check_rejects_misreported_residual(converged):
    job, result = converged
    bad = dataclasses.replace(result, final_residual=result.final_residual * 0.5)
    assert "reported residual" in workloads.check(job, bad)


def test_check_rejects_non_finite_output(converged):
    job, result = converged
    bad = dataclasses.replace(result, status=grassopt.Status.FAILED, final_energy=float("nan"))
    assert "non-finite" in workloads.check(job, bad)


def test_inputs_depend_only_on_the_seed():
    a, b, c = workloads.small_batch(3), workloads.small_batch(3), workloads.small_batch(4)
    frames = [[j.instance.u0.u for j in jobs] for jobs in (a, b, c)]
    assert all(np.array_equal(x, y) for x, y in zip(frames[0], frames[1]))
    assert not all(np.array_equal(x, y) for x, y in zip(frames[0], frames[2]))
    assert [j.strategy for j in a[:2]] == ["adaptive", "backtracking"]

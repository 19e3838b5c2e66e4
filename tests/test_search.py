import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    EnergyModel,
    QuadraticTraceModel,
    SolveConfig,
    Status,
    StiefelPoint,
    cg_direction,
    eigen_oracle,
    grassmann_gradient,
    harmonic_lattice,
    project_tangent,
    random_symmetric,
    solve,
)
from grassopt import search
from grassopt.linalg import LinalgError, RankDeficient
from grassopt.search import CARRY_DRIFT_BOUND, CARRY_REFRESH

from conftest import Delegate, random_stiefel, random_tangent

DIAG123 = QuadraticTraceModel(np.diag([1.0, 2.0, 3.0]))
MIX13 = StiefelPoint(np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2))


def failed_step_shrinks(result):
    """The shrink count the diagnostic of a failed backtracking step states."""
    return int(re.search(r"after (\d+) shrinks", result.diagnostic).group(1))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
            {"first_step": 0.0},
            {"first_step": float("nan")},
            {"first_step": float("inf")},
            {"alpha": -0.1},
            {"alpha": 1.0},
            {"alpha": float("nan")},
            {"max_iter": 0},
            {"max_iter": float("nan")},
            {"max_iter": 2.5},
            {"max_iter": 100.0},
            {"max_iter": True},
            {"max_iter": np.bool_(True)},
            {"strategy": "newton"},
            {"direction": "bfgs"},
            {"retraction": "cayley"},
            {"bb_mode": "bb3"},
            {"cg_restart_period": 0},
            {"cg_restart_period": float("nan")},
            {"cg_restart_period": 2.5},
            {"cg_restart_period": True},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        config = SolveConfig(max_iter=np.int64(3), cg_restart_period=np.int32(2))
        assert solve(DIAG123, MIX13, config).iters == 3


def cg_at(u, g, iter_index):
    """cg_direction with g as both the new and the old gradient and -g as
    the old direction."""
    norm = float(np.linalg.norm(g))
    return cg_direction(g, g, -g, u, iter_index, 50, norm, norm)


class TestDirections:
    def test_cg_forced_restart(self):
        u = random_stiefel(8, 2, 2).u
        g = random_tangent(u, 3)
        d, d_norm, was_reset = cg_at(u, g, 50)
        assert was_reset
        npt.assert_array_equal(d, -g)
        assert d_norm == np.linalg.norm(g)

    def test_cg_repeated_gradient_gives_steepest(self):
        u = random_stiefel(8, 2, 4).u
        g = random_tangent(u, 5)
        d, d_norm, was_reset = cg_at(u, g, 3)
        # beta = 0 for identical gradients (PR+), so D = -G
        npt.assert_allclose(d, -g, atol=1e-14)
        assert d_norm == np.linalg.norm(d)

    def test_cg_non_finite_direction_resets(self):
        u = random_stiefel(8, 2, 6).u
        g = random_tangent(u, 7)
        norm = float(np.linalg.norm(g))
        d_old = np.full(u.shape, np.nan)
        d, d_norm, was_reset = cg_direction(g, 0.5 * g, d_old, u, 3, 50, norm, 0.5 * norm)
        assert was_reset
        npt.assert_array_equal(d, -g)

    def test_cg_beta_needs_no_transported_gradient(self):
        """g_new is tangent at u_new, so <g_new, P g_old> = <g_new, g_old>:
        the direction matches one built from the projected g_old."""
        u = random_stiefel(30, 4, 11).u
        rng = np.random.default_rng(12)
        g_new = random_tangent(u, 13)
        g_old = 0.3 * rng.standard_normal(u.shape)  # not tangent at u
        d_old = 0.3 * rng.standard_normal(u.shape)
        norm_new, norm_old = float(np.linalg.norm(g_new)), float(np.linalg.norm(g_old))
        d, d_norm, was_reset = cg_direction(g_new, g_old, d_old, u, 3, 50, norm_new, norm_old)
        g_old_here = project_tangent(u, g_old)
        beta = float(np.sum(g_new * (g_new - g_old_here))) / norm_old**2
        expect = -g_new + beta * project_tangent(u, d_old)
        assert not was_reset and beta > 0.0
        assert np.linalg.norm(d - expect) <= 1e-12 * np.linalg.norm(expect)
        assert d_norm == np.linalg.norm(d)

    def test_cg_descent_across_solve(self):
        model = QuadraticTraceModel(random_symmetric(20, seed=9))
        u0 = random_stiefel(20, 3, 10)
        config = SolveConfig(
            epsilon=1e-8, max_iter=5000, direction="cg_restart", strategy="backtracking"
        )
        result = solve(model, u0, config)
        assert result.status is Status.CONVERGED
        # implicit: solve asserts slope < 0 at every iteration; spot-check trace
        assert all(rec.step > 0 for rec in result.trace)


class TestSolveBasics:
    def test_stationary_start(self):
        _, minimizer = eigen_oracle(DIAG123, 1)
        result = solve(DIAG123, minimizer, SolveConfig(epsilon=1e-10))
        assert result.status is Status.CONVERGED
        assert result.iters == 0
        assert result.final_residual <= 1e-12

    @pytest.mark.parametrize("strategy", ["adaptive", "backtracking"])
    def test_small_eigenproblem(self, strategy):
        config = SolveConfig(epsilon=1e-10, strategy=strategy)
        result = solve(DIAG123, MIX13, config)
        assert result.status is Status.CONVERGED
        assert result.final_energy == pytest.approx(0.5, abs=1e-8)
        if strategy == "backtracking":
            assert result.total_retraction_evals >= result.iters

    def test_infeasible_start_rejected(self):
        # bypass the constructor check to present solve with a bad frame
        bad = StiefelPoint.__new__(StiefelPoint)
        object.__setattr__(bad, "u", np.array([[1.0], [1.0], [0.0]]))
        with pytest.raises(ValueError):
            solve(DIAG123, bad, SolveConfig())

    def test_nan_start_rejected(self):
        bad = StiefelPoint.__new__(StiefelPoint)
        object.__setattr__(bad, "u", np.array([[np.nan], [0.0], [0.0]]))
        with pytest.raises(ValueError):
            solve(DIAG123, bad, SolveConfig())

    def test_max_iterations_status(self):
        config = SolveConfig(epsilon=1e-14, max_iter=3)
        result = solve(DIAG123, MIX13, config)
        assert result.status is Status.MAX_ITERATIONS
        assert result.iters == 3

    def test_none_strategy_runs(self):
        config = SolveConfig(epsilon=1e-8, strategy="none", max_iter=5000)
        result = solve(DIAG123, MIX13, config)
        assert result.status is Status.CONVERGED
        assert result.final_energy == pytest.approx(0.5, abs=1e-7)

    def test_floored_none_step_reports_floor(self):
        """An unjudged step raised to t_min is named `floor`, as a judged one is."""
        config = SolveConfig(epsilon=1e-8, strategy="none", first_step=1e-30, max_iter=1)
        first = solve(DIAG123, MIX13, config).trace[0]
        assert first.step == config.step_params.t_min
        assert first.clamp_reason == "floor"
        assert first.initial_accepted


class TestTrajectoryInvariants:
    def make_result(self, strategy, retraction="qr"):
        model = QuadraticTraceModel(random_symmetric(30, seed=13))
        u0 = random_stiefel(30, 3, 14)
        config = SolveConfig(
            epsilon=1e-8, max_iter=5000, strategy=strategy, retraction=retraction
        )
        return model, solve(model, u0, config)

    @pytest.mark.parametrize("strategy", ["adaptive", "backtracking"])
    def test_converges_to_oracle(self, strategy):
        model, result = self.make_result(strategy)
        assert result.status is Status.CONVERGED
        oracle, _ = eigen_oracle(model, 3)
        assert result.final_energy == pytest.approx(oracle, rel=1e-8)

    def test_final_point_feasible(self):
        _, result = self.make_result("adaptive")
        u = result.final_point.u
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10

    def test_reference_majorizes_energy(self):
        """C_n >= E(U_n) along the run: reconstruct the recursion from the
        trace energies and compare."""
        _, result = self.make_result("backtracking")
        alpha, c, q = 0.85, result.trace[0].energy, 1.0
        for rec in result.trace[1:]:
            q_new = alpha * q + 1.0
            c = (alpha * q * c + rec.energy) / q_new
            q = q_new
            assert c >= rec.energy - 1e-9 * (1.0 + abs(rec.energy))

    def test_adaptive_zero_probe_counters(self):
        _, result = self.make_result("adaptive")
        assert result.total_energy_evals == result.iters + 1
        assert result.total_retraction_evals == result.iters

    def test_backtracking_counter_accounting(self):
        _, result = self.make_result("backtracking")
        extra = sum(rec.backtracks for rec in result.trace)
        assert result.total_retraction_evals == result.iters + extra
        assert result.total_energy_evals == result.iters + 1 + result.iters + extra

    def test_geodesic_retraction_converges(self):
        model, result = self.make_result("adaptive", retraction="geodesic")
        assert result.status is Status.CONVERGED
        oracle, _ = eigen_oracle(model, 3)
        assert result.final_energy == pytest.approx(oracle, rel=1e-8)

    def test_deterministic_trace(self):
        _, first = self.make_result("adaptive")
        _, second = self.make_result("adaptive")
        assert len(first.trace) == len(second.trace)
        for a, b in zip(first.trace, second.trace):
            assert (a.energy, a.residual, a.step, a.backtracks, a.estimator) == (
                b.energy,
                b.residual,
                b.step,
                b.backtracks,
                b.estimator,
            )


class CallLog(EnergyModel):
    """Delegates to a model and logs the name of every model call."""

    def __init__(self, model):
        self.model = model
        self.log = []

    def value(self, u):
        self.log.append("value")
        return self.model.value(u)

    def euclidean_gradient(self, u):
        self.log.append("euclidean_gradient")
        return self.model.euclidean_gradient(u)

    def hessian_apply(self, u, d):
        self.log.append("hessian_apply")
        return self.model.hessian_apply(u, d)

    def evaluate(self, u):
        self.log.append("evaluate")
        return self.model.evaluate(u)


class TestEvaluationProtocol:
    """Each iterate is evaluated once; only the step logic adds model calls."""

    steps = 8

    def run(self, strategy, make_model):
        model = CallLog(make_model())
        u0 = random_stiefel(model.model.a.shape[0], 3, 14)
        config = SolveConfig(epsilon=1e-14, max_iter=self.steps, strategy=strategy)
        result = solve(model, u0, config)
        assert result.status is Status.MAX_ITERATIONS
        assert result.iters == self.steps
        return model.log, result

    MODELS = [
        lambda: QuadraticTraceModel(random_symmetric(30, seed=13)),
        lambda: harmonic_lattice(30, length=6.0, gamma=1.0),
    ]

    @pytest.mark.parametrize("make_model", MODELS, ids=["quadratic", "lattice"])
    def test_adaptive_call_pattern(self, make_model):
        log, result = self.run("adaptive", make_model)
        assert log == ["evaluate", "hessian_apply"] * self.steps + ["evaluate"]
        assert result.total_energy_evals == self.steps + 1

    @pytest.mark.parametrize("make_model", MODELS, ids=["quadratic", "lattice"])
    def test_backtracking_call_pattern(self, make_model):
        log, result = self.run("backtracking", make_model)
        expect = []
        for rec in result.trace:
            expect += ["evaluate"] + ["value"] * (1 + rec.backtracks)
        assert log == expect + ["evaluate"]
        assert result.total_energy_evals == len(log)


class CarriedLog(Delegate):
    """Keeps apply_operator and logs every (U, supplied A U) it evaluates,
    with `evaluate` in `seen` and with `value` in `valued`."""

    def __init__(self, model):
        super().__init__(model)
        self.seen = []
        self.valued = []

    def apply_operator(self, x):
        return self.model.apply_operator(x)

    def value(self, u, au=None):
        self.valued.append((u, au))
        return self.model.value(u, au)

    def evaluate(self, u, au=None):
        self.seen.append((u, au))
        return self.model.evaluate(u, au)

    def hessian_apply(self, u, d):
        return self.model.hessian_apply(u, d)


def assert_exact_report(model, result):
    """The reported energy and residual are those of a fresh evaluation of
    the reported frame."""
    u = result.final_point.u
    energy, egrad = model.evaluate(u)
    assert result.final_energy == energy
    assert result.final_residual == np.linalg.norm(project_tangent(u, egrad))


class TestCarriedProduct:
    """Adaptive QR solves of the concrete models carry A U across iterations;
    wrappers without apply_operator evaluate exactly."""

    MODELS = [
        lambda: (QuadraticTraceModel(random_symmetric(60, seed=21)), random_stiefel(60, 3, 22)),
        lambda: (harmonic_lattice(48), random_stiefel(48, 3, 23)),
    ]

    @pytest.mark.parametrize("make", MODELS, ids=["quadratic", "lattice"])
    def test_wrapper_takes_exact_path_to_same_result(self, make):
        model, u0 = make()
        config = SolveConfig(epsilon=1e-8, max_iter=10000)
        carried = solve(model, u0, config)
        wrapped = CallLog(model)
        exact = solve(wrapped, u0, config)
        assert wrapped.log[:2] == ["evaluate", "hessian_apply"]
        assert carried.status is exact.status is Status.CONVERGED
        assert abs(carried.final_energy - exact.final_energy) <= 1e-10 * abs(exact.final_energy)
        assert carried.total_energy_evals == carried.iters + 1
        assert carried.total_retraction_evals == carried.iters

    def test_delegate_gets_the_default_qform(self):
        """A delegating model that does not override hessian_qform gets
        <D, hessian_apply>, and its adaptive lattice solve reaches the energy
        of the model's own row-sum form."""
        model, u0 = self.MODELS[1]()
        wrapped = Delegate(model)
        u, d = u0.u, random_tangent(u0.u, 24)
        assert wrapped.hessian_qform(u, d) == float(np.sum(d * model.hessian_apply(u, d)))
        config = SolveConfig(epsilon=1e-8, max_iter=10000)
        direct, delegated = solve(model, u0, config), solve(wrapped, u0, config)
        assert direct.status is delegated.status is Status.CONVERGED
        gap = abs(delegated.final_energy - direct.final_energy)
        assert gap <= 1e-10 * abs(direct.final_energy)

    @pytest.mark.parametrize("max_iter", [10000, CARRY_REFRESH + 7], ids=["converged", "cap"])
    @pytest.mark.parametrize("make", MODELS, ids=["quadratic", "lattice"])
    def test_reported_values_are_exact(self, make, max_iter):
        model, u0 = make()
        result = solve(model, u0, SolveConfig(epsilon=1e-8, max_iter=max_iter))
        expected = Status.CONVERGED if max_iter == 10000 else Status.MAX_ITERATIONS
        assert result.status is expected
        assert_exact_report(model, result)

    def test_drift_before_refresh_within_bound(self):
        model = CarriedLog(harmonic_lattice(512, gamma=1.0))
        config = SolveConfig(epsilon=1e-14, max_iter=8 * CARRY_REFRESH)
        solve(model, random_stiefel(512, 4, 0), config)
        drifts = []
        for n, (u, au) in enumerate(model.seen[:-1]):  # the last is the exact exit
            exact = model.model.a @ u
            if n % CARRY_REFRESH == 0:
                npt.assert_array_equal(au, exact)
            elif n % CARRY_REFRESH == CARRY_REFRESH - 1:
                drifts.append(np.linalg.norm(au - exact) / np.linalg.norm(exact))
        assert len(drifts) == 8
        assert 0.0 < max(drifts) <= CARRY_DRIFT_BOUND

    @pytest.mark.parametrize(
        "kwargs", [{"strategy": "none"}, {"retraction": "geodesic"}], ids=["none", "geodesic"]
    )
    def test_other_paths_evaluate_exactly(self, kwargs):
        model = CarriedLog(harmonic_lattice(48))
        config = SolveConfig(epsilon=1e-14, max_iter=20, **kwargs)
        solve(model, random_stiefel(48, 3, 23), config)
        assert model.seen and all(au is None for _, au in model.seen)


class TestBacktrackingProduct:
    """Backtracking on a model with apply_operator applies A once per trial
    and hands the accepted trial's exact A U+ to the next iterate."""

    def test_supplied_products_are_exact_and_reused(self):
        model = CarriedLog(harmonic_lattice(48))
        config = SolveConfig(epsilon=1e-14, max_iter=20, strategy="backtracking")
        result = solve(model, random_stiefel(48, 3, 23), config)
        assert result.status is Status.MAX_ITERATIONS
        for u, au in model.seen + model.valued:
            if au is not None:
                npt.assert_array_equal(au, model.model.a @ u)
        # iterate 0 is evaluated exactly, every later one with a supplied product
        assert len(model.seen) == result.iters + 1
        assert model.seen[0][1] is None
        assert all(au is not None for _, au in model.seen[1:])
        # ... namely the one its accepted trial was scored with
        accepted = np.cumsum([rec.backtracks + 1 for rec in result.trace]) - 1
        assert len(model.valued) == accepted[-1] + 1
        for (u, au), k in zip(model.seen[1:], accepted):
            assert u is model.valued[k][0] and au is model.valued[k][1]

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"direction": "cg_restart", "retraction": "geodesic"}],
        ids=["steepest-qr", "cg-geodesic"],
    )
    @pytest.mark.parametrize("make", TestCarriedProduct.MODELS, ids=["quadratic", "lattice"])
    def test_reuse_is_bit_identical_to_exact_path(self, make, kwargs):
        model, u0 = make()
        config = SolveConfig(epsilon=1e-8, max_iter=400, strategy="backtracking", **kwargs)
        reused = solve(model, u0, config)
        exact = solve(Delegate(model), u0, config)
        assert reused.iters > 0
        assert (reused.status, reused.iters, reused.diagnostic) == (
            exact.status,
            exact.iters,
            exact.diagnostic,
        )
        assert [replace(r, elapsed=0.0) for r in reused.trace] == [
            replace(r, elapsed=0.0) for r in exact.trace
        ]
        assert reused.final_point.u.tobytes() == exact.final_point.u.tobytes()
        assert (reused.final_energy, reused.final_residual) == (
            exact.final_energy,
            exact.final_residual,
        )
        assert (reused.total_energy_evals, reused.total_retraction_evals) == (
            exact.total_energy_evals,
            exact.total_retraction_evals,
        )


def nudged(u):
    """The frame `u` scaled off the manifold, read-only as the retractions
    return their frames; no constructor sees it."""
    out = (1.0 + 1e-9) * u
    out.setflags(write=False)
    return out


class TestOrthonormalityChecks:
    """The iterate's orthonormality is checked after exact evaluations of a
    carried solve and at exit; a defect ends the solve as FAILED."""

    model = QuadraticTraceModel(random_symmetric(30, seed=13))
    u0 = random_stiefel(30, 3, 14)

    def test_defect_fails_carried_solve_at_refresh(self, monkeypatch):
        retract = search.retract_qr_factors

        def off_manifold(u, d, t):
            new, r_inv = retract(u, d, t)
            return nudged(new), r_inv

        monkeypatch.setattr(search, "retract_qr_factors", off_manifold)
        result = solve(self.model, self.u0, SolveConfig(epsilon=1e-14, max_iter=500))
        assert result.status is Status.FAILED
        assert result.iters == CARRY_REFRESH
        assert result.diagnostic.startswith(f"iteration {CARRY_REFRESH}: orthonormality defect")
        # the defect is found after an exact evaluation of the frame it reports
        assert_exact_report(self.model, result)
        assert result.total_energy_evals == result.iters + 1

    @pytest.mark.parametrize("strategy", ["adaptive", "backtracking", "none"])
    def test_defect_fails_exact_solve_at_exit(self, monkeypatch, strategy):
        retract = search.retract_qr
        monkeypatch.setattr(search, "retract_qr", lambda *args: nudged(retract(*args)))
        config = SolveConfig(epsilon=1e-14, max_iter=5, strategy=strategy)
        result = solve(CallLog(self.model), self.u0, config)
        assert result.status is Status.FAILED
        assert result.iters == 5
        assert "orthonormality defect" in result.diagnostic


class ExactMarked(CarriedLog):
    """A carried-product wrapper that knows which evaluations get an exact
    A U: the one apply_operator has just returned for that frame."""

    exact = None

    def apply_operator(self, x):
        self.exact = super().apply_operator(x)
        return self.exact

    def is_carried(self, au):
        return au is not self.exact


class TestExitRule:
    """Every exit of a carried solve is decided right after an exact
    evaluation of the iterate it reports."""

    model = QuadraticTraceModel(random_symmetric(30, seed=13))
    u0 = random_stiefel(30, 3, 14)

    def test_carried_stop_is_checked_exactly(self):
        class ZeroWhenCarried(ExactMarked):
            def evaluate(self, u, au=None):
                energy, egrad = super().evaluate(u, au)
                return energy, 0.0 * egrad if self.is_carried(au) else egrad

        model = ZeroWhenCarried(self.model)
        eps = 1e-8
        result = solve(model, self.u0, SolveConfig(epsilon=eps, max_iter=5000))
        assert result.status is Status.CONVERGED
        assert any(model.is_carried(au) for _, au in model.seen)
        assert result.final_residual <= eps
        assert_exact_report(self.model, result)
        assert result.total_energy_evals == result.iters + 1
        assert result.total_retraction_evals == result.iters

    def test_failed_step_reports_exact_evaluation(self):
        class FailsEighthHessian(ExactMarked):
            calls = 0

            def hessian_apply(self, u, d):
                self.calls += 1
                if self.calls == 8:
                    raise LinalgError("injected")
                return super().hessian_apply(u, d)

        model = FailsEighthHessian(self.model)
        result = solve(model, self.u0, SolveConfig(epsilon=1e-14, max_iter=500))
        assert result.status is Status.FAILED
        assert result.iters == 7
        assert result.diagnostic == "iteration 7: injected"
        assert model.calls == 8  # the failed step is not retried
        assert not model.is_carried(model.seen[-1][1])
        assert_exact_report(self.model, result)
        assert result.total_energy_evals == result.iters + 1
        assert result.total_retraction_evals == result.iters


class ReadOnlyCheck(CarriedLog):
    """Fails on any frame or direction handed to the model that the model
    could write to."""

    @staticmethod
    def check(*arrays):
        for a in arrays:
            assert not a.flags.writeable

    def apply_operator(self, x):
        self.check(x)
        return super().apply_operator(x)

    def value(self, u, au=None):
        self.check(u)
        return super().value(u, au)

    def euclidean_gradient(self, u):
        self.check(u)
        return super().euclidean_gradient(u)

    def evaluate(self, u, au=None):
        self.check(u)
        return super().evaluate(u, au)

    def hessian_apply(self, u, d):
        self.check(u, d)
        return super().hessian_apply(u, d)


class TestArraySeam:
    """Inside `solve` frames and directions are plain arrays: read-only when
    the model sees them, and retracted through the module's retractions."""

    COMBOS = [
        (strategy, retraction, direction)
        for strategy in ("adaptive", "backtracking", "none")
        for retraction in ("qr", "geodesic")
        for direction in ("steepest", "cg_restart")
    ]

    @pytest.mark.parametrize("strategy, retraction, direction", COMBOS)
    def test_model_sees_read_only_frames_and_directions(self, strategy, retraction, direction):
        model = ReadOnlyCheck(harmonic_lattice(24, length=6.0, gamma=1.0))
        config = SolveConfig(
            epsilon=1e-14, max_iter=CARRY_REFRESH + 5, strategy=strategy,
            retraction=retraction, direction=direction,
        )
        result = solve(model, random_stiefel(24, 3, 5), config)
        assert result.status is Status.MAX_ITERATIONS
        assert not result.final_point.u.flags.writeable

    @pytest.mark.parametrize("strategy, retraction, direction", COMBOS)
    def test_retractions_called_once_per_counted_retraction(
        self, monkeypatch, strategy, retraction, direction
    ):
        calls = []
        for name in ("retract_qr", "retract_geodesic"):
            original = getattr(search, name)

            def counted(u, d, t, original=original, name=name):
                calls.append(name)
                return original(u, d, t)

            monkeypatch.setattr(search, name, counted)
        # without apply_operator no solve carries A U
        model = Delegate(QuadraticTraceModel(random_symmetric(20, seed=3)))
        config = SolveConfig(
            epsilon=1e-14, max_iter=30, strategy=strategy,
            retraction=retraction, direction=direction,
        )
        result = solve(model, random_stiefel(20, 3, 4), config)
        assert result.iters == 30
        assert calls == [f"retract_{retraction}"] * result.total_retraction_evals


class TestLatticeSolve:
    @pytest.mark.parametrize("strategy", ["adaptive", "backtracking"])
    def test_strategies_agree(self, strategy):
        model = harmonic_lattice(48, length=10.0, gamma=1.0)
        u0 = random_stiefel(48, 3, 15)
        config = SolveConfig(epsilon=1e-8, max_iter=10000, strategy=strategy)
        result = solve(model, u0, config)
        assert result.status is Status.CONVERGED
        # stash for cross-strategy comparison via class attribute
        energies = getattr(type(self), "_energies", {})
        energies[strategy] = result.final_energy
        type(self)._energies = energies
        if len(energies) == 2:
            a, b = energies.values()
            assert abs(a - b) <= 1e-7 * (1.0 + abs(a))

    @pytest.mark.parametrize("frame", [1, 2])
    @pytest.mark.parametrize("gamma", [10.0, 100.0])
    def test_fair_backtracking_converges_on_stiff_lattice(self, gamma, frame):
        """The kinetic energy from differences resolves the Armijo test near
        the minimum; an energy taken from A U loses the decrease to roundoff
        there, and backtracking stops at its shrink cap."""
        model = harmonic_lattice(256, gamma=gamma)
        config = SolveConfig(epsilon=1e-8, strategy="backtracking")
        result = solve(model, random_stiefel(256, 8, frame), config)
        assert result.status is Status.CONVERGED, result.diagnostic


class TestFailureHandling:
    def test_nan_energy_fails_cleanly(self):
        class Broken(Delegate):
            def value(self, u):
                return float("nan")

        model = Broken(DIAG123)
        result = solve(model, MIX13, SolveConfig())
        assert result.status is Status.FAILED
        assert "iteration 0" in result.diagnostic

    def test_hostile_backtracking_fails_cleanly(self):
        class Hostile(Delegate):
            calls = 0

            def value(self, u):
                type(self).calls += 1
                # first call seeds C; afterwards no trial ever decreases
                return 0.0 if type(self).calls == 1 else 1e6

        model = Hostile(DIAG123)
        result = solve(model, MIX13, SolveConfig(strategy="backtracking"))
        assert result.status is Status.FAILED
        assert "step" in result.diagnostic or "shrink" in result.diagnostic

    def test_failed_backtracking_counters(self):
        class TurnsHostile(Delegate):
            calls = 0

            def value(self, u):
                type(self).calls += 1
                # honest for a few iterations, then no trial ever decreases
                return super().value(u) if type(self).calls <= 30 else 1e6

        model = TurnsHostile(QuadraticTraceModel(random_symmetric(30, seed=13)))
        u0 = random_stiefel(30, 3, 14)
        result = solve(model, u0, SolveConfig(strategy="backtracking", first_step=1.0))
        assert result.status is Status.FAILED
        assert "shrinks" in result.diagnostic
        iters = result.iters
        shrinks = sum(rec.backtracks for rec in result.trace)
        assert iters > 0 and shrinks > 0
        failed_trials = failed_step_shrinks(result) + 1
        assert result.total_retraction_evals == iters + shrinks + failed_trials
        assert (
            result.total_energy_evals
            == (iters + 1) + (iters + shrinks) + failed_trials
            == TurnsHostile.calls
        )

    @pytest.mark.parametrize("strategy", ["backtracking", "adaptive", "none"])
    def test_backtracking_stops_at_the_floor(self, strategy):
        """An initial guess raised to t_min: backtracking fails after its one
        trial, since the next shrink would drop below the floor, while the
        other strategies take the step and converge."""
        result = solve(DIAG123, MIX13, SolveConfig(strategy=strategy, first_step=1e-30))
        assert result.trace == [] or result.trace[0].clamp_reason == "floor"
        if strategy != "backtracking":
            assert result.status is Status.CONVERGED
            return
        assert result.status is Status.FAILED and result.iters == 0
        assert failed_step_shrinks(result) == 0
        assert result.diagnostic.endswith("down to t = 1.000e-20")
        assert (result.total_energy_evals, result.total_retraction_evals) == (2, 1)

    @pytest.mark.parametrize(
        "strategy, name",
        [
            ("backtracking", "retract_qr"),
            ("none", "retract_qr"),
            ("adaptive", "retract_qr_factors"),  # the carried step
        ],
    )
    def test_raising_retraction_counts_no_trial(self, monkeypatch, strategy, name):
        """A step that raises inside a retraction counts none of its trials:
        the counters are the totals the trace implies."""
        original = getattr(search, name)
        calls = []

        def failing(u, d, t):
            calls.append(t)
            if len(calls) == 12:
                raise RankDeficient("injected")
            return original(u, d, t)

        monkeypatch.setattr(search, name, failing)
        model = QuadraticTraceModel(random_symmetric(30, seed=13))
        config = SolveConfig(epsilon=1e-14, strategy=strategy)
        result = solve(model, random_stiefel(30, 3, 14), config)
        assert result.status is Status.FAILED
        assert "injected" in result.diagnostic
        trials = sum(rec.backtracks + 1 for rec in result.trace)
        assert 0 < trials < len(calls)
        assert result.total_retraction_evals == trials
        extra = trials if strategy == "backtracking" else 0
        assert result.total_energy_evals == result.iters + 1 + extra

    def test_nan_gradient_fails_cleanly(self):
        class NanGradient(Delegate):
            def euclidean_gradient(self, u):
                return np.full(u.shape, np.nan)

        result = solve(NanGradient(DIAG123), MIX13, SolveConfig())
        assert result.status is Status.FAILED
        assert "iteration 0: non-finite" in result.diagnostic


class TestSolveProperties:
    """Over small random instances of both models, every strategy and both
    retractions: the final frame is orthonormal, the counters are the totals
    the trace implies, and the status agrees with the final residual."""

    eps = 1e-8

    @given(
        n=st.integers(4, 24),
        p=st.integers(1, 3),
        problem=st.sampled_from(["quadratic", "lattice"]),
        gamma=st.floats(0.0, 2.0),
        strategy=st.sampled_from(["adaptive", "backtracking", "none"]),
        retraction=st.sampled_from(["qr", "geodesic"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_invariants(self, n, p, problem, gamma, strategy, retraction, seed):
        if problem == "quadratic":
            model = QuadraticTraceModel(random_symmetric(n, seed=seed))
        else:
            model = harmonic_lattice(n, length=6.0, gamma=gamma)
        config = SolveConfig(
            epsilon=self.eps, max_iter=300, strategy=strategy, retraction=retraction
        )
        result = solve(model, random_stiefel(n, p, seed), config)

        u = result.final_point.u
        assert np.linalg.norm(u.T @ u - np.eye(p)) <= 1e-10

        trials = result.iters
        if strategy == "backtracking":
            trials = sum(rec.backtracks + 1 for rec in result.trace)
            if "shrinks" in result.diagnostic:  # the failed step's trials
                trials += failed_step_shrinks(result) + 1
        assert result.total_retraction_evals == trials
        extra = trials if strategy == "backtracking" else 0
        assert result.total_energy_evals == result.iters + 1 + extra

        if result.status is not Status.FAILED:
            converged = result.final_residual <= self.eps
            assert (result.status is Status.CONVERGED) == converged

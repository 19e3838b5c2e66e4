import contextlib
import re
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    DirichletLaplacian,
    EnergyModel,
    QuadraticTraceModel,
    SolveConfig,
    Status,
    StiefelPoint,
    TraceDensityModel,
    eigen_oracle,
    grassmann_gradient,
    harmonic_lattice,
    project_tangent,
    random_symmetric,
    search_direction,
    solve,
)
from grassopt import search, stepsize
from grassopt.linalg import LinalgError, RankDeficient
from grassopt.manifold import frobenius_norm, ortho_defect
from grassopt.search import CARRY_DRIFT_BOUND, CARRY_REFRESH, RETRACTIONS

from conftest import Delegate, random_stiefel, random_tangent

DIAG123 = QuadraticTraceModel(np.diag([1.0, 2.0, 3.0]))
MIX13 = StiefelPoint(np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2))
STEP_INF = "QR retraction: step |t| ||D||_F = inf is not finite"
OVERFLOW = "overflow encountered in dot"


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
    """The cg_restart direction with g as both the new and the old gradient
    (so y = 0) and -g as the old direction."""
    norm = float(np.linalg.norm(g))
    return search_direction("cg_restart", g, g - g, -g, u, iter_index, 50, norm, norm)


def reference_cg(g_new, g_old, d_old, u_new, iter_index, period, norm_new, norm_old):
    """The restarted PR+ direction computed as it was before its gradient
    difference and slope were shared with the loop: its own g_new - g_old
    for beta, and the slope formed again from the direction it returns."""
    if g_old is None or d_old is None or iter_index % period == 0:
        d, d_norm, reset = -g_new, norm_new, True
    else:
        d_old_here = project_tangent(u_new, d_old)
        denom = norm_old**2
        beta = 0.0
        if denom > 0.0:
            beta = float((g_new * (g_new - g_old)).sum()) / denom
        beta = max(0.0, beta)
        d = -g_new + beta * d_old_here
        d_norm = frobenius_norm(d)
        slope = float((g_new * d).sum())
        reset = not (
            slope <= -search._CG_DESCENT_TOL * norm_new**2
            and d_norm <= search._CG_GROWTH * norm_new
        )
        if reset:
            d, d_norm = -g_new, norm_new
    return d, d_norm, float((g_new * d).sum()), reset


# how the previous gradient and direction are built for each cg_restart path
CG_PATHS = (
    "continue", "pr_plus", "zero_old", "period", "no_y", "no_d_old", "nan_d_old", "ascent", "growth"
)
CG_KEPT = ("continue", "pr_plus", "zero_old")  # the paths that keep the CG direction


class TestDirections:
    def test_steepest_is_negated_gradient(self):
        u = random_stiefel(8, 2, 2).u
        g = random_tangent(u, 3)
        norm = frobenius_norm(g)
        y, d_old = g - random_tangent(u, 4), random_tangent(u, 5)
        d, d_norm, slope, was_reset = search_direction(
            "steepest", g, y, d_old, u, 3, 50, norm, 2.0 * norm
        )
        assert d.tobytes() == (-g).tobytes()
        assert d_norm == norm
        assert slope == float((g * -g).sum())
        assert not was_reset

    def test_unknown_kind_rejected(self):
        u = random_stiefel(8, 2, 2).u
        g = random_tangent(u, 3)
        with pytest.raises(ValueError, match="bfgs"):
            search_direction("bfgs", g, None, None, u, 0, 50, 1.0, np.nan)

    @given(
        path=st.sampled_from(CG_PATHS),
        n=st.integers(4, 12),
        p=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        iter_index=st.integers(1, 200),
        period=st.integers(2, 60),
        scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_cg_matches_reference(self, path, n, p, seed, iter_index, period, scale):
        """search_direction's cg_restart, handed y = G - G_old, is bit for
        bit the reference on every path, and its slope is <G, D>."""
        u = random_stiefel(n, p, seed).u
        rng = np.random.default_rng(seed + 1)
        g = scale * random_tangent(u, seed + 2)
        g_old = scale * rng.standard_normal(u.shape)  # not tangent at u
        d_old = scale * rng.standard_normal(u.shape)
        if path == "period":
            iter_index = period * (iter_index % 5 + 1)
        elif iter_index % period == 0:
            iter_index += 1
        if path == "continue":  # beta > 0 and D stays a bounded descent direction
            g_old, d_old = -0.5 * g + 0.1 * g_old, -g + 0.1 * d_old
        elif path == "pr_plus":  # <G, y> < 0, so beta = 0 and D = -G
            g_old = 2.0 * g
        elif path == "zero_old":  # ||G_old|| = 0, so beta = 0
            g_old = np.zeros(u.shape)
        elif path == "no_y":
            g_old = None
        elif path == "no_d_old":
            d_old = None
        elif path == "nan_d_old":
            d_old = np.full(u.shape, np.nan)
        elif path == "ascent":  # beta = 2, so D = G
            g_old, d_old = -g, g
        elif path == "growth":  # beta = 2, so ||D|| = 20001 ||G||
            g_old, d_old = -g, -1e4 * g
        norm = frobenius_norm(g)
        norm_old = np.nan if g_old is None else frobenius_norm(g_old)
        y = None if g_old is None else g - g_old
        expect = reference_cg(g, g_old, d_old, u, iter_index, period, norm, norm_old)
        d, d_norm, slope, was_reset = search_direction(
            "cg_restart", g, y, d_old, u, iter_index, period, norm, norm_old
        )
        assert d.tobytes() == expect[0].tobytes()
        assert (d_norm, slope, was_reset) == expect[1:]
        assert slope == float((g * d).sum())
        assert was_reset == (path not in CG_KEPT)

    def test_cg_forced_restart(self):
        u = random_stiefel(8, 2, 2).u
        g = random_tangent(u, 3)
        d, d_norm, slope, was_reset = cg_at(u, g, 50)
        assert was_reset
        npt.assert_array_equal(d, -g)
        assert d_norm == np.linalg.norm(g)

    def test_cg_repeated_gradient_gives_steepest(self):
        u = random_stiefel(8, 2, 4).u
        g = random_tangent(u, 5)
        d, d_norm, slope, was_reset = cg_at(u, g, 3)
        # beta = 0 for identical gradients (PR+), so D = -G
        npt.assert_allclose(d, -g, atol=1e-14)
        assert d_norm == np.linalg.norm(d)

    def test_cg_non_finite_direction_resets(self):
        u = random_stiefel(8, 2, 6).u
        g = random_tangent(u, 7)
        norm = float(np.linalg.norm(g))
        d_old = np.full(u.shape, np.nan)
        d, d_norm, slope, was_reset = search_direction(
            "cg_restart", g, g - 0.5 * g, d_old, u, 3, 50, norm, 0.5 * norm
        )
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
        d, d_norm, slope, was_reset = search_direction(
            "cg_restart", g_new, g_new - g_old, d_old, u, 3, 50, norm_new, norm_old
        )
        g_old_here = project_tangent(u, g_old)
        beta = float(np.sum(g_new * (g_new - g_old_here))) / norm_old**2
        expect = -g_new + beta * project_tangent(u, d_old)
        assert not was_reset and beta > 0.0
        assert np.linalg.norm(d - expect) <= 1e-12 * np.linalg.norm(expect)
        assert d_norm == np.linalg.norm(d)

    def test_cg_solve_shares_one_y(self, monkeypatch):
        """A cg_restart solve forms y = G - G_prev once per iteration and
        hands that same array to the direction and to the BB guess."""
        seen = []
        direction, bb_initial = search.search_direction, stepsize.bb_initial

        def logged_direction(kind, g, y, *args):
            seen.append(("direction", y))
            return direction(kind, g, y, *args)

        def logged_bb_initial(iter_index, s, y, **kwargs):
            seen.append(("bb", y))
            return bb_initial(iter_index, s, y, **kwargs)

        monkeypatch.setattr(search, "search_direction", logged_direction)
        monkeypatch.setattr(stepsize, "bb_initial", logged_bb_initial)
        config = SolveConfig(
            epsilon=1e-14, max_iter=30, direction="cg_restart", retraction="geodesic"
        )
        result = solve(harmonic_lattice(40, gamma=1.0), random_stiefel(40, 3, 4), config)
        assert result.iters == 30
        assert [who for who, _ in seen] == ["direction", "bb"] * 30
        ys = [y for _, y in seen]
        assert ys[0] is None and ys[1] is None
        assert all(y is not None for y in ys[2:])
        assert all(ys[i] is ys[i + 1] for i in range(0, 60, 2))

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
    """Keeps apply_operator, logs every (U, supplied A U) it evaluates with
    `evaluate` in `seen`, and every U it values with `value` in `valued`."""

    def __init__(self, model):
        super().__init__(model)
        self.seen = []
        self.valued = []

    def apply_operator(self, x):
        return self.model.apply_operator(x)

    def value(self, u):
        self.valued.append(u)
        return self.model.value(u)

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


class CountedMatrix(np.ndarray):
    """A dense matrix, viewed as this type, that logs the operand of each
    product A X in `operands`."""

    def __matmul__(self, x):
        self.operands.append(x)
        return np.asarray(self) @ x


class TestBacktrackingProduct:
    """Backtracking hands the model no product: the model forms each
    frame's A U at most once, and the accepted trial's serves the next
    iterate."""

    CONFIG = SolveConfig(epsilon=1e-14, max_iter=30, strategy="backtracking", first_step=1.0)

    def solve_logged(self, model, u0):
        """(result, logged model) of a backtracking solve that shrinks."""
        logged = CarriedLog(model)
        result = solve(logged, u0, self.CONFIG)
        assert result.status is Status.MAX_ITERATIONS
        assert sum(rec.backtracks for rec in result.trace) > 0
        assert all(au is None for _, au in logged.seen)
        return result, logged

    def test_stencil_is_applied_once_per_iterate(self, monkeypatch):
        """Trials are scored from the differences; only an iterate's gradient
        applies the stencil, once, to its frame: 1 + k products for k steps,
        whatever the shrinks."""
        applied = []
        matmul = DirichletLaplacian.__matmul__

        def logged_matmul(self, x):
            applied.append(x)
            return matmul(self, x)

        monkeypatch.setattr(DirichletLaplacian, "__matmul__", logged_matmul)
        lattice = harmonic_lattice(48, gamma=1.0)
        result, logged = self.solve_logged(lattice, random_stiefel(48, 3, 23))
        assert len(applied) == 1 + result.iters == len(logged.seen)
        assert all(x is u for x, (u, _) in zip(applied, logged.seen))

    def test_dense_product_formed_once_per_trial(self):
        """On a dense A each trial's energy forms its product, and the
        accepted trial's is not formed again for the next iterate: 1 + k + b
        products for k steps and b shrinks."""
        model = QuadraticTraceModel(random_symmetric(60, seed=4))
        counted = model.a.view(CountedMatrix)
        counted.operands = []
        object.__setattr__(model, "a", counted)
        result, logged = self.solve_logged(model, random_stiefel(60, 3, 22))
        trials = sum(rec.backtracks + 1 for rec in result.trace)
        assert len(counted.operands) == 1 + trials
        frames = [logged.seen[0][0]] + logged.valued
        assert all(x is u for x, u in zip(counted.operands, frames))

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


class TestFormedOnce:
    """The frame energy and the density are formed once per frame: the
    accepted backtracking trial's serve the next iterate, and the adaptive
    iterate's density serves the judge."""

    @staticmethod
    def count_formed(monkeypatch):
        """Counters of kinetic energies and densities formed: a density is
        a new array from `density`, or a row sum of a frame with itself that
        the quadratic form forms on its own."""
        counts = {"energy": 0, "density": 0}
        frames, densities = {}, {}  # by id; the values keep the ids unique
        kinetic, density, einsum = (
            DirichletLaplacian.kinetic_energy, TraceDensityModel.density, np.einsum
        )

        def counted_kinetic(self, u):
            counts["energy"] += 1
            return kinetic(self, u)

        def counted_density(self, u):
            rho = density(self, u)
            frames[id(u)] = u
            if id(rho) not in densities:
                densities[id(rho)] = rho
                counts["density"] += 1
            return rho

        def counted_einsum(spec, *operands, **kw):
            if spec == "ij,ij->i" and operands[0] is operands[1] and id(operands[0]) in frames:
                counts["density"] += 1
            return einsum(spec, *operands, **kw)

        monkeypatch.setattr(DirichletLaplacian, "kinetic_energy", counted_kinetic)
        monkeypatch.setattr(TraceDensityModel, "density", counted_density)
        monkeypatch.setattr(np, "einsum", counted_einsum)
        return counts

    def test_backtracking_trial_serves_next_iterate(self, monkeypatch):
        counts = self.count_formed(monkeypatch)
        config = SolveConfig(epsilon=1e-14, max_iter=30, strategy="backtracking", first_step=1.0)
        result = solve(harmonic_lattice(48, gamma=1.0), random_stiefel(48, 3, 23), config)
        assert result.status is Status.MAX_ITERATIONS
        steps = result.iters
        shrinks = sum(rec.backtracks for rec in result.trace)
        assert shrinks > 0
        # iterate 0, then one per trial; each later iterate is its accepted trial
        assert counts == {"energy": 1 + steps + shrinks, "density": 1 + steps + shrinks}

    def test_adaptive_iterate_serves_judge(self, monkeypatch):
        counts = self.count_formed(monkeypatch)
        config = SolveConfig(epsilon=1e-14, max_iter=30)
        result = solve(harmonic_lattice(48, gamma=1.0), random_stiefel(48, 3, 23), config)
        assert result.status is Status.MAX_ITERATIONS
        # the carried exit's exact re-evaluation of the last iterate forms its
        # energy again, with the fresh A U, but not its density
        assert counts == {"energy": result.iters + 2, "density": result.iters + 1}


class TestOperatorApplications:
    """Applications of A per solve, the cost unit of the adaptive step's
    claim, as formulas of the trace on every path."""

    MODELS = [lambda: QuadraticTraceModel(random_symmetric(60, 3)), lambda: harmonic_lattice(64)]
    CAP = 120

    @staticmethod
    def expected(strategy, retraction, dense, result):
        if strategy == "adaptive" and retraction == "qr":
            # A D per step, and A U at each exact evaluation: iterates 0,
            # CARRY_REFRESH, 2 CARRY_REFRESH, ... and the exit
            exact = result.iters // CARRY_REFRESH + 1 + (result.iters % CARRY_REFRESH != 0)
            return result.iters + exact
        if strategy == "adaptive":  # A U and A D per step, A U at the exit
            return 2 * result.iters + 1
        if strategy == "backtracking" and dense:  # A U per trial, and at the start
            return result.total_retraction_evals + 1
        return result.iters + 1  # A U per iterate; stencil trials use differences

    @pytest.mark.parametrize("retraction", RETRACTIONS)
    @pytest.mark.parametrize("strategy", ["adaptive", "backtracking", "none"])
    @pytest.mark.parametrize("make", MODELS, ids=["dense", "stencil"])
    def test_applications_per_solve(self, monkeypatch, make, strategy, retraction):
        applied = []
        apply_operator = TraceDensityModel.apply_operator

        def counted(self, x):
            applied.append(x)
            return apply_operator(self, x)

        monkeypatch.setattr(TraceDensityModel, "apply_operator", counted)
        model = make()
        config = SolveConfig(
            epsilon=1e-14, max_iter=self.CAP, strategy=strategy, retraction=retraction
        )
        result = solve(model, random_stiefel(model.npts, 3, 0), config)
        dense = isinstance(model.a, np.ndarray)
        assert result.iters > CARRY_REFRESH
        assert len(applied) == self.expected(strategy, retraction, dense, result)


def nudged(u):
    """The frame `u` scaled off the manifold, read-only as the retractions
    return their frames; no constructor sees it."""
    out = (1.0 + 1e-9) * u
    out.setflags(write=False)
    return out


class TestOrthonormalityChecks:
    """The iterate's orthonormality is checked twice on every path: at entry
    and at any exit that is not already a failure.  A defect at exit ends the
    solve as FAILED, with that frame's own energy and residual."""

    model = QuadraticTraceModel(random_symmetric(30, seed=13))
    u0 = random_stiefel(30, 3, 14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="adaptive"),
            dict(strategy="adaptive", retraction="geodesic"),
            dict(strategy="backtracking"),
            dict(strategy="none"),
        ],
        ids=["carried-qr", "adaptive-geodesic", "backtracking", "none"],
    )
    def test_checked_at_entry_and_exit_only(self, monkeypatch, kwargs):
        checked = []

        def counted(u):
            checked.append(u)
            return ortho_defect(u)

        monkeypatch.setattr(search, "ortho_defect", counted)
        result = solve(self.model, self.u0, SolveConfig(epsilon=1e-10, **kwargs))
        assert result.status is Status.CONVERGED and result.iters > CARRY_REFRESH
        assert len(checked) == 2
        assert checked[0] is self.u0.u and checked[1] is result.final_point.u

    @pytest.mark.parametrize("path", ["adaptive", "backtracking", "none", "carried"])
    def test_defect_fails_exact_solve_at_exit(self, monkeypatch, path):
        """A frame nudged off the manifold by each retraction is caught at
        exit; the carried path reports it after its exact evaluation."""
        if path == "carried":
            retract = search.retract_qr_factors

            def off_manifold(u, d, t, d_norm):
                new, r_inv = retract(u, d, t, d_norm)
                return nudged(new), r_inv

            monkeypatch.setattr(search, "retract_qr_factors", off_manifold)
            model, strategy = self.model, "adaptive"
        else:
            retract = search.retract_qr
            monkeypatch.setattr(search, "retract_qr", lambda *args: nudged(retract(*args)))
            model, strategy = CallLog(self.model), path
        config = SolveConfig(epsilon=1e-14, max_iter=5, strategy=strategy)
        result = solve(model, self.u0, config)
        assert result.status is Status.FAILED
        assert result.iters == 5
        assert result.diagnostic.startswith(f"iteration {result.iters}: orthonormality defect")
        assert_exact_report(self.model, result)
        assert result.total_energy_evals == result.iters + 1 + (
            result.total_retraction_evals if strategy == "backtracking" else 0
        )


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

    def value(self, u):
        self.check(u)
        return super().value(u)

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


class TestLeanLoop:
    """The per-iteration path calls none of numpy's module-level wrappers
    numpy.sum, numpy.trace and numpy.linalg.norm: a solve capped at 40
    iterations makes as many calls to them as one capped at 20."""

    CAPS = (20, 40)  # both below CARRY_REFRESH: the same exact evaluations

    @pytest.mark.parametrize("problem", ["quadratic", "lattice"])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "adaptive"},  # carries A U
            {"strategy": "backtracking"},
            {"strategy": "adaptive", "direction": "cg_restart", "retraction": "geodesic"},
        ],
        ids=["adaptive", "backtracking", "adaptive-cg-geodesic"],
    )
    def test_wrapper_calls_independent_of_iterations(self, monkeypatch, problem, kwargs):
        assert max(self.CAPS) < CARRY_REFRESH
        calls = dict.fromkeys(("sum", "trace", "norm"), 0)
        for owner, name in ((np, "sum"), (np, "trace"), (np.linalg, "norm")):

            def counted(*args, original=getattr(owner, name), name=name, **kw):
                calls[name] += 1
                return original(*args, **kw)

            monkeypatch.setattr(owner, name, counted)
        if problem == "quadratic":
            model = QuadraticTraceModel(random_symmetric(40, seed=3))
        else:
            model = harmonic_lattice(40, gamma=1.0)
        u0 = random_stiefel(40, 3, 4)
        per_cap = []
        for cap in self.CAPS:
            calls.update(dict.fromkeys(calls, 0))
            result = solve(model, u0, SolveConfig(epsilon=1e-14, max_iter=cap, **kwargs))
            assert (result.status, result.iters) == (Status.MAX_ITERATIONS, cap)
            per_cap.append(dict(calls))
        assert per_cap[0] == per_cap[1]


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

        def failing(u, d, t, *d_norm):
            calls.append(t)
            if len(calls) == 12:
                raise RankDeficient("injected")
            return original(u, d, t, *d_norm)

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

    def test_raising_evaluation_reports_no_earlier_energy(self):
        """An evaluation that raises at iteration 3 ends the solve failed
        there, with NaN energy and residual: the returned frame is iterate
        3, and the last values the solve has are iterate 2's."""

        class FailsFourth(Delegate):
            calls = 0

            def evaluate(self, u, au=None):
                self.calls += 1
                if self.calls == 4:
                    raise LinalgError("injected")
                return super().evaluate(u)

        model = FailsFourth(QuadraticTraceModel(random_symmetric(20, 1)))
        result = solve(model, random_stiefel(20, 3, 0), SolveConfig(strategy="backtracking"))
        assert result.status is Status.FAILED and result.iters == 3
        assert result.diagnostic == "iteration 3: injected"
        assert np.isnan(result.final_energy) and np.isnan(result.final_residual)

    @pytest.mark.parametrize(
        "model, strategy, first_step, message",
        [
            (harmonic_lattice(16, well=1e300), "adaptive", 1e-2, OVERFLOW),
            (harmonic_lattice(16, well=1e300), "backtracking", 1e-2, OVERFLOW),
            (QuadraticTraceModel(10.0 * random_symmetric(20, 1)), "backtracking", 1e308, STEP_INF),
            (QuadraticTraceModel(10.0 * random_symmetric(20, 1)), "none", 1e308, STEP_INF),
        ],
        ids=["evaluation-adaptive", "evaluation-backtracking", "step-backtracking", "step-none"],
    )
    def test_overflow_fails_cleanly(self, strict, model, strategy, first_step, message):
        """An overflow in an evaluation or in U + tD ends the solve failed at
        iteration 0 with one diagnostic, whether RuntimeWarnings are errors
        or not, and emits no warning."""
        config = SolveConfig(strategy=strategy, first_step=first_step)
        result = solve(model, random_stiefel(model.npts, 2, 0), config)
        assert result.status is Status.FAILED and result.iters == 0
        assert result.diagnostic.startswith(f"iteration 0: {message}")

    def test_strict_sets_its_own_action(self, strict):
        """Each `strict` mode holds whatever filter the run set (the suite's
        own makes RuntimeWarnings errors): only the strict one raises."""
        with warnings.catch_warnings(record=True) as seen:
            with pytest.raises(RuntimeWarning) if strict else contextlib.nullcontext():
                warnings.warn("probe", RuntimeWarning)
        assert len(seen) == (not strict)

    @pytest.mark.parametrize("shape", [(9, 3), (3, 3), (10, 2)], ids=["rows", "square", "columns"])
    def test_wrong_gradient_shape_fails_cleanly(self, shape):
        """A model gradient that is not of the frame's shape ends the solve
        failed at iteration 0, whichever dimension is wrong."""

        class WrongShape(Delegate):
            def euclidean_gradient(self, u):
                return np.ones(shape)

        model = WrongShape(QuadraticTraceModel(random_symmetric(10, seed=2)))
        result = solve(model, random_stiefel(10, 3, 1), SolveConfig())
        assert result.status is Status.FAILED and result.iters == 0
        assert result.diagnostic == f"iteration 0: gradient shape {shape} != frame shape (10, 3)"


class TestStepOverflow:
    """A first step whose t D overflows ends the solve failed at iteration 0
    with the retraction's own diagnostic, warning of nothing: no retraction
    is counted, and backtracking does not shrink through NaN energies."""

    @pytest.mark.parametrize("retraction, name", [("qr", "QR"), ("geodesic", "geodesic")])
    @pytest.mark.parametrize("strategy", ["none", "backtracking"])
    def test_named_at_iteration_0(self, strict, strategy, retraction, name):
        model = QuadraticTraceModel(random_symmetric(20, 1))
        config = SolveConfig(strategy=strategy, retraction=retraction, first_step=1e308)
        result = solve(model, random_stiefel(20, 2, 0), config)
        assert result.status is Status.FAILED and result.iters == 0
        assert result.diagnostic.startswith(f"iteration 0: {name} retraction: step |t| ")
        assert result.diagnostic.endswith(" = inf is not finite")
        assert result.total_retraction_evals == 0 and result.total_energy_evals == 1


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

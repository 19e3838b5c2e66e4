import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    MaxBacktracks,
    NonDescentDirection,
    NonMonotoneState,
    QuadraticTraceModel,
    StepDecision,
    StepParams,
    StiefelPoint,
    adaptive_step,
    backtracking_step,
    bb_initial,
    bb_step_1,
    bb_step_2,
    estimator_zeta,
    improve_step,
    initial_nm_state,
    nm_update,
    retract_qr,
    unjudged_step,
)
from grassopt.stepsize import MAX_BACKTRACKS, DegenerateDenominator

from conftest import Delegate


class TestNonMonotoneState:
    def test_armijo_special_case(self):
        state = initial_nm_state(0.0, 7.0)
        state = nm_update(state, 5.0)
        assert state.c == 5.0 and state.q == 1.0

    def test_explicit_update(self):
        state = NonMonotoneState(alpha=0.85, c=2.0, q=1.0)
        new = nm_update(state, 1.0)
        assert new.q == pytest.approx(1.85)
        assert new.c == pytest.approx((1.7 + 1.0) / 1.85)

    def test_constant_energy_fixed_point(self):
        state = initial_nm_state(0.85, 3.0)
        for _ in range(50):
            state = nm_update(state, 3.0)
        assert state.c == pytest.approx(3.0, rel=1e-14)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            NonMonotoneState(alpha=1.0, c=0.0)

    @given(
        st.floats(0.0, 0.99),
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_range_and_reference_bound(self, alpha, decrements):
        """Q stays in [1, 1/(1-alpha)); when each fed energy is at most the
        current reference, C never drops below the fed energy."""
        state = initial_nm_state(alpha, 0.0)
        for dec in decrements:
            e_new = state.c - abs(dec)
            state = nm_update(state, e_new)
            assert 1.0 <= state.q < 1.0 / (1.0 - alpha) + 1e-12
            assert state.c >= e_new - 1e-9 * (1.0 + abs(e_new))

    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_alpha_zero_tracks_last_energy(self, energies):
        state = initial_nm_state(0.0, 99.0)
        for e in energies:
            state = nm_update(state, e)
        assert state.c == energies[-1]


class TestStepParams:
    def test_defaults(self):
        params = StepParams()
        assert (params.eta, params.t_min, params.k, params.theta) == (
            1e-4,
            1e-20,
            0.5,
            0.2,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 1.0},
            {"t_min": 0.0},
            {"t_min": float("nan")},
            {"t_min": float("inf")},
            {"k": 1.0},
            {"k": 0.0},
            {"theta": 0.0},
            {"theta": float("nan")},
            {"theta": float("inf")},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            StepParams(**kwargs)


class TestBBSteps:
    def test_explicit_tau1(self):
        s = np.array([[2.0], [0.0]])  # tr(S^T S) = 4
        y = np.array([[1.0], [0.0]])  # tr(S^T Y) = 2
        assert bb_step_1(s, y) == pytest.approx(2.0)

    def test_equal_matrices(self):
        s = np.random.default_rng(0).standard_normal((6, 2))
        assert bb_step_1(s, s) == pytest.approx(1.0)
        assert bb_step_2(s, s) == pytest.approx(1.0)

    def test_scaling(self):
        s = np.random.default_rng(1).standard_normal((6, 2))
        assert bb_step_1(s, 2.0 * s) == pytest.approx(0.5)
        assert bb_step_2(s, 2.0 * s) == pytest.approx(0.5)

    def test_degenerate_denominators(self):
        s = np.ones((3, 1))
        with pytest.raises(DegenerateDenominator):
            bb_step_1(s, np.zeros((3, 1)))
        with pytest.raises(DegenerateDenominator):
            bb_step_2(s, np.zeros((3, 1)))

    def test_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = rng.standard_normal((5, 2))
            y = rng.standard_normal((5, 2))
            for tau in (bb_step_1(s, y), bb_step_2(s, y)):
                assert tau > 0.0 and math.isfinite(tau)

    def test_initial_iteration_uses_configured_step(self):
        assert bb_initial(0, None, None, first_step=1e-2) == 1e-2
        assert bb_initial(0, np.ones((2, 1)), np.ones((2, 1)), first_step=0.3) == 0.3

    def test_parity_alternation(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        assert bb_initial(3, s, y) == bb_step_1(s, y)
        assert bb_initial(4, s, y) == bb_step_2(s, y)

    def test_exclusive_modes(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        for idx in (1, 2, 3):
            assert bb_initial(idx, s, y, mode="bb1") == bb_step_1(s, y)
            assert bb_initial(idx, s, y, mode="bb2") == bb_step_2(s, y)

    def test_fallback_on_degenerate(self):
        assert bb_initial(5, np.ones((3, 1)), np.zeros((3, 1))) == 1.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bb_initial(1, None, None, mode="golden")


class TestEstimator:
    def test_explicit_value(self):
        # E = C, g = -1, hq = 2, t = 0.5 -> (-0.5 + 0.25)/(-0.5) = 0.5
        assert estimator_zeta(1.0, 1.0, -1.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_linear_model_always_one(self):
        for t in (1e-6, 1.0, 1e3):
            assert estimator_zeta(2.0, 2.0, -0.7, 0.0, t) == pytest.approx(1.0)

    def test_slack_reference(self):
        # E - C = -0.1, g = -1, hq = 0, t = 1 -> 1.1
        assert estimator_zeta(0.9, 1.0, -1.0, 0.0, 1.0) == pytest.approx(1.1)

    def test_rejects_non_descent(self):
        with pytest.raises(NonDescentDirection):
            estimator_zeta(1.0, 1.0, 0.0, 1.0, 0.5)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            estimator_zeta(1.0, 1.0, -1.0, 1.0, 0.0)


class TestImproveStep:
    def test_quadratic_minimizer(self):
        assert improve_step(-1.0, 2.0, 10.0, 1.0) == 0.5

    def test_negative_curvature_trust(self):
        assert improve_step(-1.0, -3.0, 0.2, 1.0) == pytest.approx(0.2)

    def test_trust_radius_binds(self):
        assert improve_step(-1.0, 2.0, 0.1, 1.0) == pytest.approx(0.1)

    @given(
        st.floats(-3.0, 0.0),
        st.floats(-4.0, -1e-3),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 2.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_always_acceptable_at_default_eta(self, gap, g, hq, theta, norm_d):
        eta = 1e-4
        t = improve_step(g, hq, theta, norm_d)
        assert t > 0.0
        assert estimator_zeta(gap, 0.0, g, hq, t) >= eta - 1e-10
        assert t * norm_d <= theta * (1.0 + 1e-12)


class TestAdaptiveStep:
    def test_acceptable_initial_kept(self):
        params = StepParams()
        decision = adaptive_step(1.0, 1.0, -1.0, 2.0, 0.3, params, 0.1)
        assert decision.t == 0.3
        assert decision.initial_accepted
        assert decision.backtracks == 0
        assert decision.clamp_reason == "none"

    def test_rejected_initial_improved(self):
        # zeta(5) = 1 - 5 = -4 < eta; improved to -g/hq = 0.5
        params = StepParams(theta=10.0)
        decision = adaptive_step(1.0, 1.0, -1.0, 2.0, 5.0, params, 1.0)
        assert not decision.initial_accepted
        assert decision.estimator == pytest.approx(-4.0)
        assert decision.t == pytest.approx(0.5)
        assert decision.clamp_reason == "curvature_minimizer"

    def test_floor_applied(self):
        params = StepParams()
        decision = adaptive_step(1.0, 1.0, -1.0, 0.0, 1e-30, params, 1e-6)
        assert decision.t == params.t_min
        assert decision.clamp_reason == "floor"

    def test_trust_radius_clamps_initial(self):
        params = StepParams(theta=0.2)
        decision = adaptive_step(1.0, 1.0, -1.0, 0.0, 5.0, params, 2.0)
        assert decision.t == pytest.approx(0.1)
        assert decision.clamp_reason == "trust_radius"

    def test_rejected_initial_improved_to_trust_radius(self):
        # negative curvature: zeta(0.2) = (1 - 0.2 - 0.02) / -0.2 < eta, and
        # the model has no minimizer, so the improved step is the trust radius
        params = StepParams(theta=0.2)
        decision = adaptive_step(2.0, 1.0, -1.0, -1.0, 5.0, params, 1.0)
        assert not decision.initial_accepted
        assert decision.t == 0.2
        assert decision.clamp_reason == "trust_radius"

    def test_rejects_non_descent(self):
        with pytest.raises(NonDescentDirection):
            adaptive_step(1.0, 1.0, 1.0, 2.0, 0.3, StepParams(), 1.0)


class TestUnjudgedStep:
    def test_initial_taken(self):
        decision = unjudged_step(0.3, StepParams())
        assert decision == StepDecision(
            t=0.3, initial_accepted=True, estimator=None, clamp_reason="none", backtracks=0
        )

    def test_floor_applied(self):
        params = StepParams()
        decision = unjudged_step(1e-30, params)
        assert decision.t == params.t_min
        assert decision.initial_accepted
        assert decision.clamp_reason == "floor"


class TestBacktrackingStep:
    def setup_method(self):
        self.model = QuadraticTraceModel(np.diag([1.0, 100.0]))
        self.u = StiefelPoint(np.array([[np.cos(0.3)], [np.sin(0.3)]])).u
        grad = self.model.euclidean_gradient(self.u)
        d = grad - self.u @ (self.u.T @ grad)
        self.d = -d
        self.g = -float(np.sum(d * d))
        self.c = self.model.value(self.u)

    def test_small_initial_accepted(self):
        params = StepParams()
        decision, candidate = backtracking_step(
            self.model, self.u, self.d, 1e-6, params, self.c, retract_qr, g=self.g
        )
        assert decision.backtracks == 0 and decision.initial_accepted
        assert decision.t == 1e-6
        assert (
            self.model.value(candidate) - self.c
            <= params.eta * decision.t * self.g + 1e-15
        )

    def test_large_initial_shrinks(self):
        params = StepParams()
        decision, candidate = backtracking_step(
            self.model, self.u, self.d, 10.0, params, self.c, retract_qr, g=self.g
        )
        # a model without apply_operator takes the same steps
        wrapped = Delegate(self.model)
        exact = backtracking_step(
            wrapped, self.u, self.d, 10.0, params, self.c, retract_qr, g=self.g
        )
        assert exact[0] == decision
        assert exact[1].tobytes() == candidate.tobytes()
        assert decision.backtracks > 0 and not decision.initial_accepted
        assert decision.t == pytest.approx(10.0 * params.k**decision.backtracks)
        assert (
            self.model.value(candidate) - self.c
            <= params.eta * decision.t * self.g + 1e-15
        )

    def test_geometric_shrink_bookkeeping(self):
        """Force exactly two shrinks with a reference so tight only very small
        steps pass, then check t = t_initial * k^2."""
        params = StepParams(k=0.5)

        def probe(t):
            candidate = retract_qr(self.u, self.d, t)
            return self.model.value(candidate) - self.c <= params.eta * t * self.g

        # halve from a rejected step until the first acceptable one, then
        # start two halvings earlier so the third trial is the acceptor
        t = 10.0
        assert not probe(t)
        shrinks = 0
        while not probe(t):
            t *= params.k
            shrinks += 1
        assert shrinks >= 2
        t0 = t / params.k**2
        assert not probe(t0) and not probe(t0 * params.k) and probe(t0 * params.k**2)
        decision, candidate = backtracking_step(
            self.model, self.u, self.d, t0, params, self.c, retract_qr, g=self.g
        )
        assert decision.backtracks == 2
        assert decision.t == pytest.approx(t0 / 4.0)

    def test_cap_raises(self):
        class Hostile(Delegate):
            def value(self, u):
                return 1e9  # no step ever acceptable

        hostile = Hostile(self.model)
        with pytest.raises(MaxBacktracks):
            backtracking_step(
                hostile, self.u, self.d, 1.0, StepParams(), self.c, retract_qr, g=self.g
            )

    @pytest.mark.parametrize(
        "t_min, trials, last",
        [(1e-300, MAX_BACKTRACKS + 1, 0.5**MAX_BACKTRACKS), (1e-20, 67, 0.5**66)],
        ids=["cap", "floor"],
    )
    def test_failure_counts_its_trials(self, t_min, trials, last):
        """With no acceptable step, backtracking stops at the shrink cap or
        before the first trial below t_min (0.5^66 >= 1e-20 > 0.5^67),
        whichever comes first, and reports the trials it made."""
        values = []

        class Hostile(Delegate):
            def value(self, u):
                values.append(u)
                return 1e9

        params = StepParams(t_min=t_min, k=0.5)
        with pytest.raises(MaxBacktracks) as info:
            backtracking_step(
                Hostile(self.model), self.u, self.d, 1.0, params, self.c, retract_qr, g=self.g
            )
        assert info.value.trials == len(values) == trials
        message = f"no acceptable step after {trials - 1} shrinks, down to t = {last:.3e}"
        assert str(info.value) == message

    def test_rejects_non_descent(self):
        with pytest.raises(NonDescentDirection):
            backtracking_step(
                self.model,
                self.u,
                -self.d,
                1.0,
                StepParams(),
                self.c,
                retract_qr,
                g=-self.g,
            )

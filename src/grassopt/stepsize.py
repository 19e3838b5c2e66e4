"""Step-size machinery: non-monotone reference recursion, BB initial steps
and every strategy's step decision.  Each starts from the initial step
raised to the floor t_min (`floored_step`): `none` takes it unjudged, the
adaptive Estimate -> Judge -> Improve step clamps it to the trust radius and
judges it from the local quadratic model alone, and Armijo-type backtracking
shrinks it, at one retraction plus one energy evaluation per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

BB_DENOM_TOL = 1e-30
BB_FALLBACK = 1.0
MAX_BACKTRACKS = 100

BB_MODES = ("odd_even", "bb1", "bb2")


class DegenerateDenominator(Exception):
    """BB denominator too small to trust."""


class NonDescentDirection(Exception):
    """<grad, D> >= 0; the caller must reset the direction first."""


class MaxBacktracks(Exception):
    """No trial step was accepted before the shrink cap or the floor t_min.
    `trials` is the number of trial steps made, one more than the shrinks;
    the message states the shrinks and the last step tried, `t`."""

    def __init__(self, trials: int, t: float):
        super().__init__(f"no acceptable step after {trials - 1} shrinks, down to t = {t:.3e}")
        self.trials = trials


@dataclass(frozen=True)
class NonMonotoneState:
    """Weighted reference value (C, Q) with mixing parameter alpha.

    alpha = 0 collapses to plain Armijo: C is always the latest energy.
    """

    alpha: float
    c: float
    q: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")


def initial_nm_state(alpha: float, e0: float) -> NonMonotoneState:
    return NonMonotoneState(alpha=alpha, c=e0, q=1.0)


def nm_update(state: NonMonotoneState, e_new: float) -> NonMonotoneState:
    """Advance the (C, Q) recursion with the newest energy."""
    q_new = state.alpha * state.q + 1.0
    c_new = (state.alpha * state.q * state.c + e_new) / q_new
    return NonMonotoneState(state.alpha, c_new, q_new)


@dataclass(frozen=True)
class StepParams:
    """Parameters of the step-size strategies (defaults are the recommended
    set: eta = 1e-4, t_min = 1e-20, k = 0.5, theta = 0.2)."""

    eta: float = 1e-4
    t_min: float = 1e-20
    k: float = 0.5
    theta: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.t_min < math.inf:
            raise ValueError("t_min must be finite and positive")
        if not 0.0 < self.k < 1.0:
            raise ValueError("k must lie in (0, 1)")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be finite and positive")


@dataclass(frozen=True)
class StepDecision:
    """Outcome of one step-size selection."""

    t: float
    initial_accepted: bool
    estimator: Optional[float]
    clamp_reason: str  # none | trust_radius | floor | curvature_minimizer
    backtracks: int


def bb_step_1(s: np.ndarray, y: np.ndarray) -> float:
    """tau_1 = tr(S^T S) / |tr(S^T Y)|."""
    den = abs(float(np.sum(s * y)))
    if den < BB_DENOM_TOL:
        raise DegenerateDenominator(f"|tr(S^T Y)| = {den:.3e}")
    return float(np.sum(s * s)) / den


def bb_step_2(s: np.ndarray, y: np.ndarray) -> float:
    """tau_2 = |tr(S^T Y)| / tr(Y^T Y)."""
    den = float(np.sum(y * y))
    if den < BB_DENOM_TOL:
        raise DegenerateDenominator(f"tr(Y^T Y) = {den:.3e}")
    return abs(float(np.sum(s * y))) / den


def bb_initial(
    iter_index: int,
    s: Optional[np.ndarray],
    y: Optional[np.ndarray],
    mode: str = "odd_even",
    first_step: float = 1e-2,
) -> float:
    """Initial step for iteration `iter_index`: the configured constant at
    iteration 0, afterwards tau_1 for odd / tau_2 for even indices (or one of
    them exclusively).  Degenerate denominators fall back to 1.0."""
    if mode not in BB_MODES:
        raise ValueError(f"unknown bb mode {mode!r}")
    if iter_index == 0 or s is None or y is None:
        return first_step
    try:
        if mode == "bb1":
            return bb_step_1(s, y)
        if mode == "bb2":
            return bb_step_2(s, y)
        return bb_step_1(s, y) if iter_index % 2 == 1 else bb_step_2(s, y)
    except DegenerateDenominator:
        return BB_FALLBACK


def estimator_zeta(e: float, c: float, g: float, hq: float, t: float) -> float:
    """Acceptance estimator zeta(t) = (E - C + t g + t^2 hq / 2) / (t g)."""
    if g >= 0.0:
        raise NonDescentDirection(f"directional derivative {g:.3e} >= 0")
    if t <= 0.0:
        raise ValueError("t must be positive")
    return (e - c + t * g + 0.5 * t * t * hq) / (t * g)


def improve_step(g: float, hq: float, theta: float, norm_d: float) -> float:
    """Minimizer of the local quadratic model, clamped to the trust radius."""
    if g >= 0.0:
        raise NonDescentDirection(f"directional derivative {g:.3e} >= 0")
    if norm_d <= 0.0:
        raise ValueError("||D|| must be positive")
    trust = theta / norm_d
    if hq > 0.0:
        return min(-g / hq, trust)
    return trust


def floored_step(t_initial: float, t_min: float) -> tuple[float, str]:
    """The initial step raised to the floor t_min, with its clamp reason
    (`floor` if raised, else `none`)."""
    t = max(t_initial, t_min)
    return t, ("floor" if t > t_initial else "none")


def unjudged_step(t_initial: float, params: StepParams) -> StepDecision:
    """Strategy `none`: take the floored initial step as it is."""
    t, reason = floored_step(t_initial, params.t_min)
    return StepDecision(
        t=t, initial_accepted=True, estimator=None, clamp_reason=reason, backtracks=0
    )


def adaptive_step(
    e: float,
    c: float,
    g: float,
    hq: float,
    t_initial: float,
    params: StepParams,
    norm_d: float,
) -> StepDecision:
    """Estimate -> Judge -> Improve.  Costs no energy or retraction
    evaluations: the decision is made from the local quadratic model alone.
    Raises NonDescentDirection (from the estimator) if g >= 0."""
    if norm_d <= 0.0:
        raise ValueError("||D|| must be positive")
    trust = params.theta / norm_d
    t, reason = floored_step(t_initial, params.t_min)
    if t > trust:
        t, reason = trust, "trust_radius"
    zeta = estimator_zeta(e, c, g, hq, t)
    if zeta >= params.eta:
        return StepDecision(
            t=t, initial_accepted=True, estimator=zeta, clamp_reason=reason, backtracks=0
        )
    improved = improve_step(g, hq, params.theta, norm_d)
    return StepDecision(
        t=improved,
        initial_accepted=False,
        estimator=zeta,
        clamp_reason="trust_radius" if improved == trust else "curvature_minimizer",
        backtracks=0,
    )


# (frame U, tangent D, step t) -> retracted frame, all n-by-p arrays
Retraction = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


def backtracking_step(
    model,
    u: np.ndarray,
    d: np.ndarray,
    t_initial: float,
    params: StepParams,
    c_ref: float,
    retraction: Retraction,
    g: float,
) -> tuple[StepDecision, np.ndarray, Optional[np.ndarray]]:
    """Shrink t by k until the non-monotone sufficient-decrease condition
    E(ortho(U, D, t)) - C <= eta * t * g holds, where g = <grad, D> is the
    slope along the tangent D at the frame U.  Raises MaxBacktracks after
    MAX_BACKTRACKS shrinks, or as soon as the next shrink would drop t below
    t_min.

    Each trial costs one retraction and one energy evaluation.  With
    `apply_operator`, a trial applies A once, to its frame U+, and is scored
    by `value(U+, A U+)`.  Returns the decision, the accepted trial frame and
    its product A U+ (None for a model without `apply_operator`), so the
    caller need not recompute either.
    """
    if g >= 0.0:
        raise NonDescentDirection(f"directional derivative {g:.3e} >= 0")
    operator = getattr(model, "apply_operator", None)
    t, reason = floored_step(t_initial, params.t_min)
    for count in range(MAX_BACKTRACKS + 1):
        candidate = retraction(u, d, t)
        au = None if operator is None else operator(candidate)
        e_trial = model.value(candidate) if au is None else model.value(candidate, au)
        if e_trial - c_ref <= params.eta * t * g:
            return (
                StepDecision(
                    t=t,
                    initial_accepted=(count == 0),
                    estimator=None,
                    clamp_reason=reason,
                    backtracks=count,
                ),
                candidate,
                au,
            )
        if count == MAX_BACKTRACKS or t * params.k < params.t_min:
            raise MaxBacktracks(count + 1, t)
        t *= params.k

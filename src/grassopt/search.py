"""Generic line-search loop on the Grassmann manifold.

One direction step (steepest descent or restarted PR+ conjugate
gradient) and step strategies (adaptive, backtracking, none), whose steps
are all decided in `stepsize`.  The loop keeps one IterationRecord per
step, which is the CLI's trace row, and derives the result's counters from
the trace at return: a step makes backtracks + 1 trials, each trial is one
retraction and, under backtracking, one energy evaluation, and each of the
k + 1 iterates of a k-step solve is one evaluation.  A backtracking step
that finds no acceptable trial counts the trials it made; a step that
raises otherwise leaves no record and counts none of its trials.

With the adaptive step, the QR retraction and a model that has
`apply_operator`, the loop carries the product A U from one iterate to the
next: U_new R = U + t D gives A U_new = (A U + t A D) R^-1, so an iteration
applies A once, to D.  That is the only path with a product to hand the
model: A U to `evaluate(u, au)` and A D to `hessian_qform(u, d, ad)`.
Every other call passes the frame, and the direction, alone.

One rule decides every exit: each exit follows an exact evaluation.  An
iterate is evaluated exactly at the start, every CARRY_REFRESH iterations,
and whenever its carried evaluation would end the loop, by a stop condition
or a failed step.  In that last case the loop goes round once more on the
same iterate, which still counts as one evaluation, and a failed step is
not retried.  The tail after the loop decides the status: FAILED on a
diagnosed failure, else CONVERGED if the residual is at most epsilon, else
MAX_ITERATIONS.

Typed frames stay at the edge: `solve` takes a StiefelPoint and returns
one, and inside the loop frames, gradients and directions are plain n-by-p
arrays.  The frames and directions handed to the model are read-only.  The
iterate's orthonormality is checked at entry and, by the tail, at any exit
that is not already a failure: a defect above ORTHO_TOL ends the solve as
FAILED, with that frame's own energy and residual.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import stepsize as ss
from .linalg import LinalgError, ShapeMismatch
from .manifold import (
    StiefelPoint,
    ORTHO_TOL,
    frobenius_norm,
    ortho_defect,
    project_tangent,
    retract_geodesic,
    retract_qr,
    retract_qr_factors,
)
from .objectives import EnergyModel, _is_count, grassmann_hessian_qform
# grassmann_gradient is not called here; it stays importable for callers that patch it
from .objectives import grassmann_gradient  # noqa: F401

STRATEGIES = ("adaptive", "backtracking", "none")
DIRECTIONS = ("steepest", "cg_restart")
RETRACTIONS = ("qr", "geodesic")

# CG safeguards: descent slack and direction-growth bound
_CG_DESCENT_TOL = 1e-12
_CG_GROWTH = 1e3

# what ends a solve as FAILED, not in a traceback (RuntimeWarning: warnings as errors)
NUMERICAL_FAILURES = (LinalgError, FloatingPointError, RuntimeWarning)
# a finite gradient past ~1e154 overflows the norm, which then raises whatever the
# warnings filter; as a decorator, errstate costs half what a with-block does
_residual_norm = np.errstate(over="raise")(frobenius_norm)

# Iterations between exact products A U when A U is carried.  The relative
# drift of the carried product, ||A U_carried - A U||_F / ||A U||_F, grows
# about as the square root of the number of carried steps.  With 49 carried
# steps it stays below CARRY_DRIFT_BOUND on every benchmark workload (at most
# 3.9e-12, on the stiffest lattice, where an exact stencil product is itself
# off by 3e-14); a shorter period barely lowers it (1.6e-12 at 10).
CARRY_REFRESH = 50
CARRY_DRIFT_BOUND = 5e-11


class Status(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    FAILED = "failed"


@dataclass(frozen=True)
class SolveConfig:
    epsilon: float = 1e-12
    max_iter: int = 30000
    step_params: ss.StepParams = field(default_factory=ss.StepParams)
    alpha: float = 0.85
    strategy: str = "adaptive"
    bb_mode: str = "odd_even"
    first_step: float = 1e-2
    direction: str = "steepest"
    retraction: str = "qr"
    cg_restart_period: int = 50

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 0.0 < self.first_step < math.inf:
            raise ValueError(f"first_step must be finite and positive, got {self.first_step}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        for name in ("max_iter", "cg_restart_period"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.retraction not in RETRACTIONS:
            raise ValueError(f"unknown retraction {self.retraction!r}")
        if self.bb_mode not in ss.BB_MODES:
            raise ValueError(f"unknown bb mode {self.bb_mode!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One step's record; its fields, in order, are the CLI's trace columns."""

    iter: int
    energy: float
    residual: float
    step: float
    backtracks: int
    estimator: Optional[float]
    direction_reset: bool
    initial_accepted: bool
    clamp_reason: str
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    status: Status
    final_point: StiefelPoint
    final_energy: float
    final_residual: float
    trace: list[IterationRecord]
    total_energy_evals: int
    total_retraction_evals: int
    diagnostic: str = ""

    @property
    def iters(self) -> int:
        return len(self.trace)


def search_direction(
    kind: str,
    g: np.ndarray,
    y: Optional[np.ndarray],
    d_old: Optional[np.ndarray],
    u: np.ndarray,
    iter_index: int,
    period: int,
    norm: float,
    norm_old: float,
) -> tuple[np.ndarray, float, float, bool]:
    """(D, ||D||_F, <G, D>, whether CG reset to -G) for the direction `kind`,
    from the gradient G at `u`, its norm, y = G - G_old, the previous
    direction and ||G_old|| (y and D_old are None at the start).  `steepest`
    is -G; `cg_restart` is PR+, -G + max(0, <G, y>/||G_old||^2) P D_old with P
    the projection at `u` (y needs none: G is tangent), reset to -G every
    `period` iterations, without y or D_old, or when a safeguard fails."""
    if kind == "cg_restart" and y is not None and d_old is not None and iter_index % period:
        denom = norm_old**2
        beta = max(0.0, float((g * y).sum()) / denom) if denom > 0.0 else 0.0
        d = -g + beta * project_tangent(u, d_old)
        d_norm = frobenius_norm(d)
        slope = float((g * d).sum())
        # a NaN slope or norm fails both tests and resets too
        if slope <= -_CG_DESCENT_TOL * norm**2 and d_norm <= _CG_GROWTH * norm:
            return d, d_norm, slope, False
    elif kind not in DIRECTIONS:
        raise ValueError(f"unknown direction {kind!r}")
    d = -g
    return d, norm, float((g * d).sum()), kind == "cg_restart"


def _evaluate(model: EnergyModel, u: np.ndarray, au: Optional[np.ndarray]):
    """(energy, U^T grad E, Grassmann gradient, residual) at the frame `u`,
    from the product au = A U when it is given.  U^T grad E is formed once,
    for the projection and for the judge's correction term.  A gradient not
    of the frame's shape raises ShapeMismatch.  A non-finite gradient has no
    tangent projection: U^T grad E and the Grassmann gradient are then None
    and the residual NaN."""
    energy, egrad = model.evaluate(u) if au is None else model.evaluate(u, au)
    egrad = np.asarray(egrad)
    if egrad.shape != u.shape:
        raise ShapeMismatch(f"gradient shape {egrad.shape} != frame shape {u.shape}")
    if not np.isfinite(egrad).all():
        return energy, None, None, math.nan
    ug = u.T @ egrad
    grad = project_tangent(u, egrad, ug)
    return energy, ug, grad, _residual_norm(grad)


def solve(model: EnergyModel, u0: StiefelPoint, config: SolveConfig) -> SolveResult:
    """Run the line-search loop until the Grassmann gradient norm drops
    below epsilon, the iteration cap is hit, or a numerical failure occurs."""
    defect = ortho_defect(u0.u)
    if not defect <= ORTHO_TOL:
        raise ValueError(f"initial point infeasible: defect {defect:.3e}")

    retraction = retract_qr if config.retraction == "qr" else retract_geodesic
    carry = (
        config.strategy == "adaptive"
        and config.retraction == "qr"
        and getattr(model, "apply_operator", None) is not None
    )
    # A U of `u` from the recurrence; None when `u` is evaluated exactly
    au: Optional[np.ndarray] = None
    diagnostic = ""  # of the failure about to end the solve
    failed_trials = 0  # trials of a backtracking step that found no acceptable one
    params = config.step_params
    u = u0.u  # the iterate
    nm: Optional[ss.NonMonotoneState] = None
    prev_u: Optional[np.ndarray] = None
    g_prev: Optional[np.ndarray] = None
    d_prev: Optional[np.ndarray] = None
    residual_prev = math.nan
    trace: list[IterationRecord] = []

    n = 0
    exact = False  # whether the last evaluation was of `u` exactly
    tic = time.perf_counter()
    while True:
        if not (diagnostic and exact):  # a failed step on an exact path keeps its values
            exact = au is None
            try:
                # a carried solve hands the model A U: the recurrence's, or a fresh one
                product = model.apply_operator(u) if carry and exact else au
                energy, ug, grad, residual = _evaluate(model, u, product)
            except NUMERICAL_FAILURES as exc:
                diagnostic = diagnostic or f"iteration {n}: {exc}"  # a failed step's stays first
                energy = residual = math.nan  # not the previous iterate's
            if not (diagnostic or math.isfinite(energy) and math.isfinite(residual)):
                diagnostic = f"iteration {n}: non-finite energy or residual"
        if diagnostic or residual <= config.epsilon or n >= config.max_iter:
            if exact:
                break
            au, diagnostic = None, ""  # decide it on an exact evaluation
            continue
        nm = ss.initial_nm_state(config.alpha, energy) if nm is None else ss.nm_update(nm, energy)

        s, y = (None, None) if g_prev is None else (u - prev_u, grad - g_prev)
        direction, d_norm, slope, was_reset = search_direction(
            config.direction, grad, y, d_prev, u, n, config.cg_restart_period,
            residual, residual_prev
        )
        direction.setflags(write=False)
        assert slope < 0.0
        t_initial = ss.bb_initial(n, s, y, mode=config.bb_mode, first_step=config.first_step)

        try:
            if config.strategy == "adaptive":
                ad = model.apply_operator(direction) if carry else None
                hq = grassmann_hessian_qform(model, u, direction, ug, ad)
                decision = ss.adaptive_step(energy, nm.c, slope, hq, t_initial, params, d_norm)
                if carry:
                    next_u, r_inv = retract_qr_factors(u, direction, decision.t, d_norm)
                    au = (product + decision.t * ad) @ r_inv if (n + 1) % CARRY_REFRESH else None
                else:
                    next_u = retraction(u, direction, decision.t)
            elif config.strategy == "backtracking":
                decision, next_u = ss.backtracking_step(
                    model,
                    u,
                    direction,
                    t_initial,
                    params,
                    nm.c,
                    retraction,
                    g=slope,
                )
            else:  # strategy == "none": accept the initial guess unjudged
                decision = ss.unjudged_step(t_initial, params)
                next_u = retraction(u, direction, decision.t)
        except (*NUMERICAL_FAILURES, ss.MaxBacktracks) as exc:
            diagnostic = f"iteration {n}: {exc}"
            failed_trials = exc.trials if isinstance(exc, ss.MaxBacktracks) else 0
            au = None  # a carried iterate is reported exactly; the step is not retried
            continue

        trace.append(
            IterationRecord(
                iter=n,
                energy=energy,
                residual=residual,
                step=decision.t,
                backtracks=decision.backtracks,
                estimator=decision.estimator,
                direction_reset=was_reset,
                initial_accepted=decision.initial_accepted,
                clamp_reason=decision.clamp_reason,
                elapsed=time.perf_counter() - tic,
            )
        )
        g_prev, d_prev, prev_u, residual_prev = grad, direction, u, residual
        u, n = next_u, n + 1
        tic = time.perf_counter()

    if not diagnostic:
        defect = ortho_defect(u)
        if not defect <= ORTHO_TOL:  # NaN fails too
            diagnostic = f"iteration {n}: orthonormality defect {defect:.3e}"
    status = Status.FAILED if diagnostic else (
        Status.CONVERGED if residual <= config.epsilon else Status.MAX_ITERATIONS
    )
    # checked above unless the solve failed, when the frame may be what failed
    final_point = object.__new__(StiefelPoint)
    object.__setattr__(final_point, "u", u)
    # one retraction per trial; one energy evaluation per iterate and per backtracking trial
    trials = sum(rec.backtracks + 1 for rec in trace) + failed_trials
    return SolveResult(
        status=status,
        final_point=final_point,
        final_energy=energy,
        final_residual=residual,
        trace=trace,
        total_energy_evals=len(trace) + 1 + (trials if config.strategy == "backtracking" else 0),
        total_retraction_evals=trials,
        diagnostic=diagnostic,
    )

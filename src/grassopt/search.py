"""Generic line-search loop on the Grassmann manifold.

Pluggable direction providers (steepest descent, restarted PR+ conjugate
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
applies A once, to D.  With backtracking and such a model, each trial
applies A once, to its frame, and the accepted trial's exact product is
the next iterate's A U, so an iteration applies A once per trial and no more.

One rule decides every exit: each exit follows an exact evaluation.  An
iterate is evaluated exactly at the start, every CARRY_REFRESH iterations,
and whenever its carried evaluation would end the loop, by a stop condition
or a failed step.  In that last case the loop goes round once more on the
same iterate, which still counts as one evaluation, and a failed step is
not retried.

Typed frames stay at the edge: `solve` takes a StiefelPoint and returns
one, and inside the loop frames, gradients and directions are plain n-by-p
arrays.  The frames and directions handed to the model are read-only.  The
orthonormality of the iterate is checked at entry, after every exact
evaluation of a carried solve, and at any exit that is not already a
failure.  A defect above ORTHO_TOL ends the solve as FAILED, with that
frame's own energy and residual.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import stepsize as ss
from .linalg import LinalgError
from .manifold import (
    StiefelPoint,
    ORTHO_TOL,
    ortho_defect,
    project_tangent,
    retract_geodesic,
    retract_qr,
    retract_qr_factors,
)
# grassmann_gradient is not called here; it stays importable for callers that patch it
from .objectives import EnergyModel, grassmann_gradient, grassmann_hessian_qform  # noqa: F401

STRATEGIES = ("adaptive", "backtracking", "none")
DIRECTIONS = ("steepest", "cg_restart")
RETRACTIONS = ("qr", "geodesic")

# CG safeguards: descent slack and direction-growth bound
_CG_DESCENT_TOL = 1e-12
_CG_GROWTH = 1e3

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
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
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


def cg_direction(
    g_new: np.ndarray,
    g_old: Optional[np.ndarray],
    d_old: Optional[np.ndarray],
    u_new: np.ndarray,
    iter_index: int,
    period: int,
    norm_new: float,
    norm_old: float,
) -> tuple[np.ndarray, float, bool]:
    """Polak-Ribiere-plus direction with periodic restart and descent /
    boundedness safeguards, as (D, ||D||_F, whether it was reset to -G).
    `norm_new` and `norm_old` are the norms of the gradients g_new and g_old.
    The previous direction is moved to the tangent space at `u_new` by
    projection.  g_old needs none: g_new is tangent at `u_new`, so
    <g_new, P g_old> = <g_new, g_old>."""
    if g_old is None or d_old is None or iter_index % period == 0:
        return -g_new, norm_new, True
    d_old_here = project_tangent(u_new, d_old)
    denom = norm_old**2
    beta = 0.0
    if denom > 0.0:
        beta = float(np.sum(g_new * (g_new - g_old))) / denom
    beta = max(0.0, beta)
    d = -g_new + beta * d_old_here
    d_norm = float(np.linalg.norm(d))
    slope = float(np.sum(g_new * d))
    # a NaN slope or norm fails both tests and resets too
    if not (slope <= -_CG_DESCENT_TOL * norm_new**2 and d_norm <= _CG_GROWTH * norm_new):
        return -g_new, norm_new, True
    return d, d_norm, False


def _evaluate(model: EnergyModel, u: np.ndarray, au: Optional[np.ndarray]):
    """(energy, Euclidean gradient, Grassmann gradient, residual) at the
    frame `u`, from the product au = A U when it is given.  A non-finite
    gradient has no tangent projection: the Grassmann gradient is then None
    and the residual NaN."""
    energy, egrad = model.evaluate(u) if au is None else model.evaluate(u, au)
    if not np.isfinite(egrad).all():
        return energy, egrad, None, math.nan
    grad = project_tangent(u, egrad)
    return energy, egrad, grad, float(np.linalg.norm(grad))


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
    # A U of `u`: carried, or formed by backtracking's accepted trial
    au: Optional[np.ndarray] = None
    carried = False  # whether `au` came from the recurrence
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
    energy = residual = math.nan
    tic = time.perf_counter()
    while True:
        try:
            if carry and not carried:
                au = model.apply_operator(u)
            energy, egrad, grad, residual = _evaluate(model, u, au)
        except (LinalgError, FloatingPointError) as exc:
            diagnostic = diagnostic or f"iteration {n}: {exc}"  # a failed step's stays first
        if diagnostic:
            status = Status.FAILED
        elif not (math.isfinite(energy) and math.isfinite(residual)):
            status, diagnostic = Status.FAILED, f"iteration {n}: non-finite energy or residual"
        elif residual <= config.epsilon:
            status = Status.CONVERGED
        elif n >= config.max_iter:
            status = Status.MAX_ITERATIONS
        else:
            status = None
        if carried and status is not None:
            carried, diagnostic = False, ""  # decide it on an exact evaluation
            continue
        # the frame is checked after each exact evaluation of a carried solve, and at exit
        if status is not Status.FAILED and (status is not None or carry and not carried):
            defect = ortho_defect(u)
            if not defect <= ORTHO_TOL:
                status = Status.FAILED
                diagnostic = f"iteration {n}: orthonormality defect {defect:.3e}"
        if status is not None:
            break
        nm = ss.initial_nm_state(config.alpha, energy) if nm is None else ss.nm_update(nm, energy)

        if config.direction == "steepest":
            direction, d_norm, was_reset = -grad, residual, False
        else:
            direction, d_norm, was_reset = cg_direction(
                grad, g_prev, d_prev, u, n, config.cg_restart_period, residual, residual_prev
            )
        direction.setflags(write=False)
        slope = float(np.sum(grad * direction))
        assert slope < 0.0

        s = None if prev_u is None else u - prev_u
        y = None if g_prev is None else grad - g_prev
        t_initial = ss.bb_initial(n, s, y, mode=config.bb_mode, first_step=config.first_step)

        try:
            if config.strategy == "adaptive":
                ad = model.apply_operator(direction) if carry else None
                hq = grassmann_hessian_qform(model, u, direction, egrad, ad)
                decision = ss.adaptive_step(energy, nm.c, slope, hq, t_initial, params, d_norm)
                if carry:
                    next_u, r_inv = retract_qr_factors(u, direction, decision.t)
                    au = (au + decision.t * ad) @ r_inv if (n + 1) % CARRY_REFRESH else None
                    carried = au is not None
                else:
                    next_u = retraction(u, direction, decision.t)
            elif config.strategy == "backtracking":
                decision, next_u, au = ss.backtracking_step(
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
        except (LinalgError, ss.MaxBacktracks, FloatingPointError) as exc:
            diagnostic = f"iteration {n}: {exc}"
            failed_trials = exc.trials if isinstance(exc, ss.MaxBacktracks) else 0
            if carried:
                carried = False  # report the iterate exactly
                continue
            status = Status.FAILED
            break

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

    if status is Status.FAILED:
        # the frame a failure stopped at may be what failed: report it unchecked
        final_point = object.__new__(StiefelPoint)
        object.__setattr__(final_point, "u", u)
    else:
        final_point = StiefelPoint(u)
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

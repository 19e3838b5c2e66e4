"""Benchmark workloads, built from a seed, and the check of every solve.

Each workload is a list of solves: instances (model, start frame, tolerance,
reference energy) crossed with step strategies and direction/retraction
pairs.  Both strategies always run on the same instances and start frames.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from grassopt import (
    EnergyModel,
    LinalgError,
    QuadraticTraceModel,
    SolveConfig,
    SolveResult,
    Status,
    StiefelPoint,
    eigen_oracle,
    grassmann_gradient,
    harmonic_lattice,
    random_symmetric,
    thin_qr,
)

STRATEGIES = ("adaptive", "backtracking")
MAX_ITER = 5000
# Strategies agree to about 1e-13 relative on every instance; a converged
# energy further than this from the reference is wrong, not imprecise.
ENERGY_RTOL = 1e-9
ORTHO_TOL = 1e-10
# The check recomputes the residual with the solver's own function.
RESIDUAL_RTOL = 1e-9
# Lattice minima have no closed form; they are pinned in this file.
REFERENCES = Path(__file__).with_name("references.json")

# Number of start frames per pass, drawn from the run seed.
QUAD_DENSE_FRAMES = 6  # one pass of both strategies fits in a 40 s run
SMALL_BATCH_FRAMES = 8


@dataclass(frozen=True)
class Instance:
    label: str
    model: EnergyModel
    u0: StiefelPoint
    epsilon: float
    reference: float  # minimum energy


@dataclass(frozen=True)
class Job:
    instance: Instance
    config: SolveConfig

    @property
    def strategy(self) -> str:
        return self.config.strategy


def start_frame(n: int, p: int, seed: int) -> StiefelPoint:
    """Q factor of a seeded Gaussian n-by-p matrix."""
    q, _ = thin_qr(np.random.default_rng(seed).standard_normal((n, p)))
    return StiefelPoint(q)


def frame_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=count)]


def pinned_reference(key: str) -> float:
    """Reference energy pinned in references.json; KeyError if absent."""
    return float(json.loads(REFERENCES.read_text())["energies"][key])


def _jobs(instances, pairs=(("steepest", "qr"),)) -> list[Job]:
    return [
        Job(inst, SolveConfig(epsilon=inst.epsilon, max_iter=MAX_ITER, strategy=s,
                              direction=d, retraction=r))
        for inst in instances
        for d, r in pairs
        for s in STRATEGIES
    ]


def quad_dense(seed: int) -> list[Job]:
    model = QuadraticTraceModel(random_symmetric(1000, 7))
    energy, _ = eigen_oracle(model, 20)
    return _jobs(
        Instance(f"quadratic n=1000 p=20 frame {f}", model, start_frame(1000, 20, f), 1e-6, energy)
        for f in frame_seeds(seed, QUAD_DENSE_FRAMES)
    )


def lattice_stiff(seed: int) -> list[Job]:
    # The start frame (seed 0) is the same for every run seed.  Iteration
    # counts here move by 10-30% between random start frames (backtracking
    # fails at a different iteration each time), and one pass over a single
    # frame already takes about 20 s on a 2-core Xeon, so a run cannot
    # average over enough seeded frames to be steady.
    model = harmonic_lattice(1024, gamma=1.0)
    energy = pinned_reference("lattice npts=1024 p=8 gamma=1")
    return _jobs([Instance("lattice npts=1024 p=8 frame 0", model, start_frame(1024, 8, 0), 1e-6, energy)])


def small_batch(seed: int) -> list[Job]:
    quad = QuadraticTraceModel(random_symmetric(200, 7))
    quad_energy, _ = eigen_oracle(quad, 10)
    lattice = harmonic_lattice(128, gamma=1.0)
    lattice_energy = pinned_reference("lattice npts=128 p=4 gamma=1")
    instances = []
    for f in frame_seeds(seed, SMALL_BATCH_FRAMES):
        instances.append(Instance(f"quadratic n=200 p=10 frame {f}", quad, start_frame(200, 10, f), 1e-8, quad_energy))
        instances.append(Instance(f"lattice npts=128 p=4 frame {f}", lattice, start_frame(128, 4, f), 1e-8, lattice_energy))
    return _jobs(instances, pairs=(("steepest", "qr"), ("cg_restart", "geodesic")))


WORKLOADS = {
    "quad-dense": quad_dense,
    "lattice-stiff": lattice_stiff,
    "small-batch": small_batch,
}


def check(job: Job, result: SolveResult) -> str:
    """Empty string if the solve's output is right, else what is wrong.

    Every solve must return an orthonormal final frame, and finite reported
    residual and energy that match their recomputation at that frame.  A
    converged solve must have residual <= epsilon and energy within
    ENERGY_RTOL of the reference.  An unconverged solve (max_iterations or
    failed, e.g. backtracking at its shrink cap) is a right output when it
    says truthfully where it stopped: residual above epsilon and energy not
    below the reference.  It is counted in fail_share, not as a wrong output.
    """
    inst, point = job.instance, result.final_point
    status = result.status.value
    energy, residual = result.final_energy, result.final_residual
    if not (math.isfinite(energy) and math.isfinite(residual)):
        return f"status {status}: non-finite energy or residual ({result.diagnostic})"
    u = point.u
    defect = float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))
    if not defect <= ORTHO_TOL:
        return f"orthonormality defect {defect:.3e}"
    try:
        recomputed_residual = grassmann_gradient(inst.model, point).norm
        recomputed_energy = inst.model.value(u)
    except (LinalgError, ArithmeticError, ValueError) as exc:
        return f"status {status}: final frame cannot be evaluated: {exc}"
    if not abs(recomputed_residual - residual) <= RESIDUAL_RTOL * residual:
        return f"reported residual {residual!r} differs from recomputed {recomputed_residual!r}"
    scale = ENERGY_RTOL * max(1.0, abs(inst.reference))
    if not abs(recomputed_energy - energy) <= scale:
        return f"reported energy {energy!r} differs from recomputed {recomputed_energy!r}"
    if result.status is Status.CONVERGED:
        if not residual <= inst.epsilon:
            return f"converged with residual {residual!r} > {inst.epsilon:g}"
        if not abs(energy - inst.reference) <= scale:
            return f"converged energy {energy!r} differs from reference {inst.reference!r}"
    else:
        if not residual > inst.epsilon:
            return f"status {status} with residual {residual!r} <= {inst.epsilon:g}"
        if not energy >= inst.reference - scale:
            return f"status {status} with energy {energy!r} below reference {inst.reference!r}"
    return ""

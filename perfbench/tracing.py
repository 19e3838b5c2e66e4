"""Spans and counts recorded from outside the grassopt package.

`instrument` replaces the package's public functions, at the module
attributes their callers look them up by, with wrappers that record one
span per call, and restores them on exit.  `CountingModel` delegates to an
energy model and records a span per model call, so model calls are counted
where they happen.  Spans are kept in memory with the index of their parent
span; self time is computed afterwards, once all spans are closed.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import time
from dataclasses import dataclass, field

import grassopt.manifold
import grassopt.objectives
import grassopt.search
import grassopt.stepsize
from grassopt import EnergyModel

MODEL_CALLS = ("objectives.value", "objectives.euclidean_gradient", "objectives.hessian_apply")

# (module, attribute, span name).  Each attribute is the name under which
# the calling module looks the function up at call time.
_FUNCTIONS = (
    (grassopt.manifold, "thin_qr", "linalg.thin_qr"),
    (grassopt.manifold, "svd_thin", "linalg.svd_thin"),
    (grassopt.objectives, "project_tangent", "manifold.project_tangent"),
    (grassopt.search, "project_tangent", "manifold.project_tangent"),
    (grassopt.search, "retract_qr", "manifold.retract_qr"),
    (grassopt.search, "retract_geodesic", "manifold.retract_geodesic"),
    (grassopt.search, "grassmann_gradient", "objectives.grassmann_gradient"),
    (grassopt.search, "grassmann_hessian_qform", "objectives.grassmann_hessian_qform"),
    (grassopt.stepsize, "bb_initial", "stepsize.bb_initial"),
    (grassopt.stepsize, "nm_update", "stepsize.nm_update"),
)
# step decisions are also kept, to count accepted initial guesses
_DECISIONS = (
    (grassopt.stepsize, "adaptive_step", "stepsize.adaptive_step"),
    (grassopt.stepsize, "backtracking_step", "stepsize.backtracking_step"),
)
# frame validation runs in __post_init__ of these frozen dataclasses
_FRAMES = (grassopt.StiefelPoint, grassopt.TangentVector)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """Spans in the order they were opened, and the step decisions seen."""

    spans: list[Span] = field(default_factory=list)
    decisions: list = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records a span `name`."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span.end = clock()

        return traced

    def _keep_decision(self, fn):
        def keep(*args, **kwargs):
            out = fn(*args, **kwargs)
            # (root span of the enclosing solve, the StepDecision)
            self.decisions.append((self._open[0], out[0] if isinstance(out, tuple) else out))
            return out

        return keep

    def write(self, path, own: list[float]) -> None:
        """Write every span with its self time `own` as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "self_s"])
            out.writerows(
                (i, s.name, s.start, s.end, s.parent, own[i]) for i, s in enumerate(self.spans)
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def totals_by_root(spans: list[Span], own: list[float]) -> dict[int, dict[str, list]]:
    """For each root span: {span name: [calls, total duration, total self time]},
    given the self time `own` of each span."""
    root = roots(spans)
    out: dict[int, dict[str, list]] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(root[i], {}).setdefault(s.name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += s.end - s.start
        t[2] += own[i]
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of the root span each span descends from."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out


class CountingModel(EnergyModel):
    """Energy model that delegates every call and records a span for it."""

    def __init__(self, model: EnergyModel, tracer: Tracer):
        self._model = model
        self._value = tracer.wrap("objectives.value", model.value)
        self._gradient = tracer.wrap("objectives.euclidean_gradient", model.euclidean_gradient)
        self._hessian = tracer.wrap("objectives.hessian_apply", model.hessian_apply)

    def value(self, u):
        return self._value(u)

    def euclidean_gradient(self, u):
        return self._gradient(u)

    def hessian_apply(self, u, d):
        return self._hessian(u, d)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the package's public functions to record spans into `tracer`."""
    saved = []
    try:
        for module, attr, name in _FUNCTIONS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        for module, attr, name in _DECISIONS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, tracer._keep_decision(getattr(module, attr))))
        for cls in _FRAMES:
            saved.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = tracer.wrap("manifold.frame", cls.__post_init__)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

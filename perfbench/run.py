"""Solver benchmark: time to solution and cost per iteration of the adaptive
and backtracking step strategies, with per-layer counts traced from outside.

    python3 perfbench/run.py --workload quad-dense --seed 1 --seconds 40 --trace 0

Run from the repository root.  The package is imported from ./src.  The
workload's instances are built from --seed (lattice-stiff has one fixed
start frame, see workloads.py); both strategies solve the same
instances from the same start frames, and every solve's output is checked
(workloads.check).  The JSON `failed` counts wrong outputs; a solve that
stops unconverged and says so is a "miss", counted in fail_share.  With
--trace 0 the solves are repeated in passes for
--seconds and the end-to-end metrics are medians over passes.  With
--trace 1 one plain pass and one traced pass run, and per-layer metrics come
from the traced pass; its spans are written to perfbench/out/.  Human-readable
lines come first; the last line of standard output is one JSON object.
Tests of this directory's code: python -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("quad-dense", "lattice-stiff", "small-batch")
STRATEGIES = ("adaptive", "backtracking")
# Set-up repeats: at least this many, and more while under SETUP_BUDGET_S.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_BUDGET_S = 1.0
WARMUP_ITERS = 20
# One BLAS thread: on a small shared host a multi-threaded product stalls
# whenever another process takes one of its cores, which made per-run times
# spread about twice as wide as single-threaded ones.
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import grassopt from ./src of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "grassopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {src / 'grassopt'}")
    sys.path.insert(0, str(src))
    import grassopt

    if Path(grassopt.__file__).resolve().parent != (src / "grassopt").resolve():
        sys.exit(f"perfbench: imported grassopt from {grassopt.__file__}, not {src}")
    return grassopt


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = str(getter())
    cpu = platform.processor() or platform.machine()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
    }


def timed_setup(build, seed):
    """Build the jobs several times; return the last build and the median time."""
    times = []
    started = time.perf_counter()
    while len(times) < SETUP_REPEATS or (
        len(times) < SETUP_MAX_REPEATS and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        jobs = None  # free the previous build first
        tic = time.perf_counter()
        jobs = build(seed)
        times.append(time.perf_counter() - tic)
    return jobs, statistics.median(times)


def warm_up(solve, jobs):
    """One short untimed solve per distinct configuration."""
    seen = set()
    for job in jobs:
        key = (job.config.strategy, job.config.direction, job.config.retraction)
        if key not in seen:
            seen.add(key)
            solve(job.instance.model, job.instance.u0,
                  dataclasses.replace(job.config, max_iter=WARMUP_ITERS))


class Tally:
    """Per-strategy totals of one pass: solve time, iterations, counters and
    outcomes.  `failed` counts wrong outputs (see workloads.check); `missed`
    counts solves that did not converge to a correct answer, which includes
    unconverged solves that report their status truthfully."""

    def __init__(self):
        self.seconds = dict.fromkeys(STRATEGIES, 0.0)
        self.iters = dict.fromkeys(STRATEGIES, 0)
        self.energy_evals = dict.fromkeys(STRATEGIES, 0)
        self.retractions = dict.fromkeys(STRATEGIES, 0)
        self.attempted = dict.fromkeys(STRATEGIES, 0)
        self.failed = dict.fromkeys(STRATEGIES, 0)
        self.missed = dict.fromkeys(STRATEGIES, 0)
        self.misses = []  # solves that did not converge to a correct answer
        self.wrong = []  # solves whose output is wrong

    def add(self, job, result, seconds, wrong):
        s = job.strategy
        self.seconds[s] += seconds
        self.iters[s] += result.iters
        self.energy_evals[s] += result.total_energy_evals
        self.retractions[s] += result.total_retraction_evals
        self.attempted[s] += 1
        where = f"{s} {job.config.direction}/{job.config.retraction} {job.instance.label}"
        if wrong:
            self.failed[s] += 1
            self.wrong.append(f"{where}: {wrong}")
        if wrong or result.status.value != "converged":
            self.missed[s] += 1
            self.misses.append(f"{where}: {wrong or 'status ' + result.status.value}"
                               + (f" ({result.diagnostic})" if result.diagnostic else ""))


def run_pass(solve, jobs, check, order=1, model_for=lambda job: job.instance.model):
    """Solve every job once, timing each solve, and check each result."""
    tally = Tally()
    for job in jobs[::order]:
        model = model_for(job)
        tic = time.perf_counter()
        result = solve(model, job.instance.u0, job.config)
        seconds = time.perf_counter() - tic
        tally.add(job, result, seconds, check(job, result))
    return tally


def plain_metrics(passes, setup_s):
    """End-to-end metrics: medians over passes of per-strategy totals."""
    out = {"setup_s": (setup_s, "s")}
    for s in STRATEGIES:
        out[f"{s}.solve_s"] = (statistics.median(p.seconds[s] for p in passes), "s")
        out[f"{s}.ms_per_iter"] = (
            statistics.median(1e3 * p.seconds[s] / p.iters[s] for p in passes), "ms")
        out[f"{s}.iters"] = (statistics.median(p.iters[s] for p in passes), "count")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def layer_metrics(tracer, own, traced, plain):
    """Per-layer metrics of the traced pass, per strategy.  Root spans are
    named search.solve/<strategy>; other roots (from the output check) are
    left out."""
    from tracing import MODEL_CALLS, totals_by_root

    by_root = totals_by_root(tracer.spans, own)
    strategy_of = {root: tracer.spans[root].name.partition("/")[2] for root in by_root}
    out = {}
    for s in STRATEGIES:
        tot: dict[str, list] = {}
        for root, totals in by_root.items():
            if strategy_of[root] == s:
                for name, (calls, dur, own) in totals.items():
                    t = tot.setdefault(name, [0, 0.0, 0.0])
                    t[0] += calls
                    t[1] += dur
                    t[2] += own

        def calls(*names):
            return sum(tot[n][0] for n in names if n in tot)

        def dur(*names):
            return sum(tot[n][1] for n in names if n in tot)

        def own(prefix):
            return sum(t[2] for n, t in tot.items() if n.startswith(prefix))

        iters = traced.iters[s]
        applies = calls(*MODEL_CALLS)
        decisions = [d for root, d in tracer.decisions if strategy_of[root] == s]
        out.update({
            f"objectives.{s}.applies_per_iter": (applies / iters, "1/iter"),
            f"objectives.{s}.self_ms_per_iter": (1e3 * own("objectives.") / iters, "ms/iter"),
            f"objectives.{s}.us_per_apply": (1e6 * dur(*MODEL_CALLS) / applies, "us"),
            f"linalg.{s}.qr_us_per_call": (
                1e6 * dur("linalg.thin_qr") / max(calls("linalg.thin_qr"), 1), "us"),
            f"linalg.{s}.qr_ms_per_iter": (1e3 * dur("linalg.thin_qr") / iters, "ms/iter"),
            f"linalg.{s}.svd_ms_per_iter": (1e3 * dur("linalg.svd_thin") / iters, "ms/iter"),
            f"manifold.{s}.frames_per_iter": (calls("manifold.frame") / iters, "1/iter"),
            f"manifold.{s}.validate_ms_per_iter": (1e3 * dur("manifold.frame") / iters, "ms/iter"),
            f"manifold.{s}.retract_self_ms_per_iter": (
                1e3 * own("manifold.retract_") / iters, "ms/iter"),
            f"manifold.{s}.project_ms_per_iter": (
                1e3 * own("manifold.project_tangent") / iters, "ms/iter"),
            f"stepsize.{s}.decide_us_per_iter": (1e6 * own("stepsize.") / iters, "us/iter"),
            f"stepsize.{s}.initial_accepted_share": (
                sum(d.initial_accepted for d in decisions) / max(len(decisions), 1), "share"),
            f"search.{s}.retractions_per_iter": (traced.retractions[s] / iters, "1/iter"),
            f"search.{s}.energy_evals_per_iter": (traced.energy_evals[s] / iters, "1/iter"),
            f"search.{s}.self_ms_per_iter": (1e3 * own("search.") / iters, "ms/iter"),
            f"search.{s}.fail_share": (traced.missed[s] / traced.attempted[s], "share"),
        })
        if s == "backtracking":
            out["stepsize.backtracking.backtracks_per_iter"] = (
                sum(d.backtracks for d in decisions) / iters, "1/iter")
    plain_s, traced_s = sum(plain.seconds.values()), sum(traced.seconds.values())
    out["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "share")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))  # before numpy is first imported
    grassopt = import_package()
    import tracing
    import workloads

    solve = grassopt.solve
    jobs, setup_s = timed_setup(workloads.WORKLOADS[args.workload], args.seed)
    warm_up(solve, jobs)

    if args.trace == 0:
        passes = []
        started = time.perf_counter()
        while True:
            tic = time.perf_counter()
            # alternate which strategy of a pair runs first
            passes.append(run_pass(solve, jobs, workloads.check, order=(-1) ** len(passes)))
            now = time.perf_counter()
            if (now - started) + (now - tic) > args.seconds:
                break  # the next pass would end after --seconds
        metrics = plain_metrics(passes, setup_s)
        derived = {
            "adaptive_over_backtracking.ms_per_iter": (
                metrics["adaptive.ms_per_iter"][0] / metrics["backtracking.ms_per_iter"][0],
                "ratio"),
            "passes": (len(passes), "count"),
        }
        for s in STRATEGIES:
            derived[f"{s}.fail_share"] = (
                sum(p.missed[s] for p in passes) / sum(p.attempted[s] for p in passes), "share")
    else:
        plain = run_pass(solve, jobs, workloads.check)
        tracer = tracing.Tracer()
        solvers = {s: tracer.wrap(f"search.solve/{s}", solve) for s in STRATEGIES}
        with tracing.instrument(tracer):
            traced = run_pass(
                lambda model, u0, config: solvers[config.strategy](model, u0, config),
                jobs, workloads.check,
                model_for=lambda job: tracing.CountingModel(job.instance.model, tracer))
        own = tracing.self_times(tracer.spans)
        metrics = layer_metrics(tracer, own, traced, plain)
        passes = [plain, traced]
        derived = {"spans": (len(tracer.spans), "count")}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", own)

    env = environment(nproc)
    attempted = sum(sum(p.attempted.values()) for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    misses = sorted({m for p in passes for m in p.misses})

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in derived.items():
        print(f"derived {name} = {value:.6g} {unit} (not gated)")
    for miss in misses:
        print(f"miss {miss}")
    for w in wrong:
        print(f"WRONG {w}")

    summary = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, derived={k: v for k, (v, _) in derived.items()}, misses=misses)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

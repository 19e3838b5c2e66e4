"""Interleaved A/B timing, bit-identity and output check of the benchmark's solves.

    python3 scripts/abtime.py --parent DIR [--workload W]... [--seed N]... [--rounds R]

DIR is another checkout, for instance of the parent commit made with `git
archive`, or `.` for this tree against itself.  Both trees' package and
perfbench workloads are loaded into one process under separate module
names, with one BLAS thread pinned before numpy is imported (`quad-dense`
trajectories change with the thread count).  Each round solves every job of
each workload (default all three) and seed (default 1) with both trees in
turn, alternating which goes first, so drift of the host falls on both.

After its clock stops, each solve is digested (a SHA-256 of its status,
iterations, trace without `elapsed`, final-frame bytes, energy, residual,
both counters and diagnostic) and its output is checked by that tree's
`workloads.check`, the benchmark's own output check.  Per workload and seed
the script prints how many jobs are bit-identical to DIR, the largest
relative difference of final energies |E - E_DIR| / max(1, |E_DIR|) over
the jobs whose bits differ (0 if none do) and, per strategy, both trees'
iteration totals, the median and quartiles of the ms/iter ratio (this
checkout over DIR, one per job and round) and how often this checkout was
faster.  Its first line names the kernels it ran: numpy's version (its
`einsum` and elementwise loops make the density terms' bits), OpenBLAS's
config string (version and core, on which the dense product's bits depend)
and its thread count, `unknown` where numpy's OpenBLAS does not report
them.  It exits 1 if the trees take different iterations on a job (the
timing would compare different work), if a job's digest in a later round
differs from round 0 in either tree (a model kept state from one solve to
the next), or if the check finds a solve's output wrong.  It writes
nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib.util
import math
import os
import statistics
import sys
import time
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("quad-dense", "lattice-stiff", "small-batch")


def load_tree(root: Path, tag: str):
    """(package, workloads module) of the checkout at `root`, imported as
    grassopt_<tag> and workloads_<tag>."""
    src = root / "src" / "grassopt"
    spec = importlib.util.spec_from_file_location(
        f"grassopt_{tag}", src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    # workloads.py imports `grassopt`: let it find this tree's package
    saved = sys.modules.get("grassopt")
    sys.modules["grassopt"] = package
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{tag}", root / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["grassopt"]
        else:
            sys.modules["grassopt"] = saved
    return package, workloads


def blas_kernel() -> str:
    """The line naming numpy's version and its BLAS: the config string and
    thread count of numpy's bundled OpenBLAS, each `unknown` where the
    library lacks it."""
    import numpy as np

    config = threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        blas = ctypes.CDLL(lib)
        get_config = getattr(blas, "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            config = " ".join(get_config().decode().split())
        get_threads = getattr(blas, "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = str(get_threads())
    return f"abtime: numpy {np.__version__}, BLAS {config}, threads {threads}"


def digest(result) -> str:
    trace = [astuple(rec)[:-1] for rec in result.trace]  # elapsed is last
    fields = (
        result.status.value,
        result.iters,
        trace,
        result.final_energy,
        result.final_residual,
        result.total_energy_evals,
        result.total_retraction_evals,
        result.diagnostic,
    )
    h = hashlib.sha256(repr(fields).encode())
    h.update(result.final_point.u.tobytes())
    return h.hexdigest()


def timed_solve(tree, job) -> tuple[int, float, str, str, float]:
    """(iterations, ms per iteration, digest, what is wrong with the output
    by the tree's own `workloads.check`, "" if nothing, final energy) of one
    solve of `job` with `tree`, a (package, workloads module) pair."""
    package, workloads = tree
    gc.collect()
    tic = time.perf_counter()
    result = package.solve(job.instance.model, job.instance.u0, job.config)
    elapsed = time.perf_counter() - tic
    ms = 1e3 * elapsed / max(result.iters, 1)
    return result.iters, ms, digest(result), workloads.check(job, result), result.final_energy


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(trees, name: str, seed: int, rounds: int) -> int:
    """Solve every job of the workload `name` at `seed` with both trees,
    (parent, this checkout) as returned by `load_tree`, in `rounds` rounds
    and print the comparison.  Returns the number of faults: solves whose
    iteration counts differ between the trees, solves whose digest differs
    from the same tree's in round 0, and solves whose output the tree's own
    `workloads.check` finds wrong."""
    jobs = [workloads.WORKLOADS[name](seed) for _, workloads in trees]
    first: list[tuple[str, str]] = []  # the two trees' round-0 digests, per job
    moved: list[float] = []  # relative energy differences of the jobs whose bits differ
    totals: dict[str, list[int]] = {}  # the two trees' iterations, per strategy
    ratios: dict[str, list[float]] = {}
    faults = 0
    for r in range(rounds):
        for i, pair in enumerate(zip(*jobs)):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            runs = {side: timed_solve(trees[side], pair[side]) for side in order}
            iters, ms, digests, wrong, energy = zip(runs[0], runs[1])  # each (parent, change)
            if r == 0:
                first.append(digests)
                total = totals.setdefault(pair[1].strategy, [0, 0])
                total[0] += iters[0]
                total[1] += iters[1]
                if digests[0] != digests[1]:
                    moved.append(abs(energy[1] - energy[0]) / max(1.0, abs(energy[0])))
            label = f"{name} seed={seed} job={i} {pair[1].strategy} [{pair[1].instance.label}]"
            sides = zip(("parent", "this checkout"), digests, first[i], wrong)
            for tree, now, then, fault in sides:
                if now != then:
                    faults += 1
                    print(f"abtime: {label}: {tree} round {r} differs from round 0",
                          file=sys.stderr)
                if fault:
                    faults += 1
                    print(f"abtime: {label}: {tree} round {r} output wrong: {fault}",
                          file=sys.stderr)
            if iters[0] != iters[1]:
                faults += 1
                print(f"abtime: {label}: {iters[1]} iterations, parent {iters[0]}",
                      file=sys.stderr)
            ratio = ms[1] / ms[0]
            ratios.setdefault(pair[1].strategy, []).append(ratio)
            bits = "" if digests[0] == digests[1] else ", bits differ"
            print(f"round {r} {label}: {iters[1]} iters, ms/iter "
                  f"{ms[0]:.4f} -> {ms[1]:.4f}, ratio {ratio:.3f}{bits}")
    same = sum(parent == change for parent, change in first)
    print(f"abtime: {name} seed={seed}: {same}/{len(first)} jobs bit-identical to the parent")
    worst = math.nan if any(map(math.isnan, moved)) else max(moved, default=0.0)
    print(f"abtime: {name} seed={seed}: final energies differ by at most {worst:.3e} "
          f"relative over the {len(moved)} jobs whose bits differ")
    for strategy, (parent, change) in totals.items():
        print(f"abtime: {name} seed={seed} {strategy}: {change} iterations in all, "
              f"parent {parent}")
    for strategy, values in ratios.items():
        q1, median, q3 = quartiles(values)
        faster = sum(v < 1.0 for v in values)
        print(f"abtime: {name} seed={seed} {strategy}: ms/iter ratio median "
              f"{median:.3f} [q1 {q1:.3f}, q3 {q3:.3f}], faster on {faster}/{len(values)}")
    return faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the checkout to compare against")
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    for root in (args.parent, ROOT):
        for part in ("src/grassopt/__init__.py", "perfbench/workloads.py"):
            if not (root / part).is_file():
                ap.error(f"no {part} under {root}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    trees = (load_tree(args.parent.resolve(), "parent"), load_tree(ROOT, "change"))
    print(blas_kernel())
    faults = sum(
        compare(trees, name, seed, args.rounds)
        for name in args.workload or WORKLOAD_NAMES
        for seed in args.seed or (1,)
    )
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

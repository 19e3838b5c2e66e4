"""Interleaved A/B timing of the benchmark's solves: this checkout against another.

    python3 scripts/abtime.py --parent DIR [--workload W] [--seed N] [--rounds R]

DIR is a second checkout of the repository, for instance of the parent
commit made with `git archive`.  The package and the benchmark's workloads
are loaded from DIR/src and DIR/perfbench and from this checkout's src and
perfbench, under separate module names, into one process, and one BLAS
thread is pinned before numpy is imported.  Each round solves every job of
each workload (all three by default, seed 1) with both trees, one right
after the other, alternating which tree goes first, so drift of the host
between runs falls on both alike.

For each workload and strategy the script prints the median and quartiles
of the ms/iter ratio (this checkout over DIR), one ratio per job and round,
and the share of those pairs on which this checkout was faster.  It exits 1
if the two trees take different numbers of iterations on a job: the timing
then compares different work.  It reads perfbench/ and writes nothing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
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


def timed_solve(package, job) -> tuple[int, float]:
    """(iterations, ms per iteration) of one solve of `job`."""
    gc.collect()
    tic = time.perf_counter()
    result = package.solve(job.instance.model, job.instance.u0, job.config)
    elapsed = time.perf_counter() - tic
    return result.iters, 1e3 * elapsed / max(result.iters, 1)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the checkout to compare against")
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
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

    mismatched = 0
    for name in args.workload or WORKLOAD_NAMES:
        jobs = [workloads.WORKLOADS[name](args.seed) for _, workloads in trees]
        ratios: dict[str, list[float]] = {}
        for r in range(args.rounds):
            for i, pair in enumerate(zip(*jobs)):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                runs = {side: timed_solve(trees[side][0], pair[side]) for side in order}
                (iters_parent, ms_parent), (iters_change, ms_change) = runs[0], runs[1]
                label = f"{name} job={i} {pair[1].strategy} [{pair[1].instance.label}]"
                if iters_parent != iters_change:
                    mismatched += 1
                    print(f"abtime: {label}: {iters_change} iterations, parent {iters_parent}",
                          file=sys.stderr)
                ratios.setdefault(pair[1].strategy, []).append(ms_change / ms_parent)
                print(f"round {r} {label}: {iters_change} iters, ms/iter "
                      f"{ms_parent:.4f} -> {ms_change:.4f}, ratio {ms_change / ms_parent:.3f}")
        for strategy, values in ratios.items():
            q1, median, q3 = quartiles(values)
            faster = sum(v < 1.0 for v in values)
            print(f"abtime: {name} seed={args.seed} {strategy}: ms/iter ratio median "
                  f"{median:.3f} [q1 {q1:.3f}, q3 {q3:.3f}], faster on {faster}/{len(values)}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

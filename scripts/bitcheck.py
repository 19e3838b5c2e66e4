"""Bit-identity digests of the benchmark's solves.

    python3 scripts/bitcheck.py --workload small-batch --seed 1
    python3 scripts/bitcheck.py            # all three workloads, seeds 1 and 2

Prints one line per job: workload, seed, job index, strategy, direction,
retraction, instance label and a SHA-256 digest of the solve's status,
iteration count, trace without `elapsed`, final-frame bytes, energy,
residual, both counters and diagnostic.  A change meant to keep every result
bit for bit is checked by running this script in both trees and diffing the
outputs.

The package and the benchmark's workloads are imported from this checkout's
src/ and perfbench/, never from an installed copy, and one BLAS thread is
pinned before numpy is imported: `quad-dense` trajectories change with the
BLAS thread count.  Every job is solved twice, in two passes over the job
list, and the script exits 1 if a job's two digests differ, which catches
state that one solve leaves behind for the next.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("quad-dense", "lattice-stiff", "small-batch")


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", action="append", type=int)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import grassopt
    import workloads

    if Path(grassopt.__file__).resolve().parent != (src / "grassopt").resolve():
        sys.exit(f"bitcheck: imported grassopt from {grassopt.__file__}, not {src}")
    cases = [
        (f"{name} seed={seed} job={i}", job)
        for name in args.workload or WORKLOAD_NAMES
        for seed in args.seed or (1, 2)
        for i, job in enumerate(workloads.WORKLOADS[name](seed))
    ]
    digests = [
        [digest(grassopt.solve(job.instance.model, job.instance.u0, job.config)) for _, job in cases]
        for _ in range(2)
    ]
    for (key, job), first in zip(cases, digests[0]):
        config = job.config
        print(f"{key} {config.strategy} {config.direction}+{config.retraction}"
              f" [{job.instance.label}] {first}")
    differ = [i for i, (a, b) in enumerate(zip(*digests)) if a != b]
    for i in differ:
        print(f"bitcheck: {cases[i][0]}: the second solve differs from the first", file=sys.stderr)
    print(f"bitcheck: {len(cases)} jobs, {len(differ)} repeat digests differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

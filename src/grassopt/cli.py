"""Command-line harness: run a single solve, compare strategies on one
problem instance, or run the property-check suites.

Exit codes: 0 success, 1 usage/config error or numerical failure (`failed`
status), 2 iteration cap reached.  `compare` exits with the code of its worst
solve: 1 if any failed, else 2 if any reached the cap.  `check` prints one
[PASS] or [FAIL] line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
import time
from collections import Counter
from dataclasses import astuple, fields
from pathlib import Path

from .checks import SUITES, run_suite
from .manifold import StiefelPoint, random_frame
from .objectives import (
    EnergyModel,
    QuadraticTraceModel,
    harmonic_lattice,
    load_matrix,
    random_symmetric,
)
from .search import (
    DIRECTIONS,
    RETRACTIONS,
    STRATEGIES,
    IterationRecord,
    SolveConfig,
    SolveResult,
    Status,
    solve,
)
from .stepsize import BB_MODES, StepParams

# the trace is IterationRecord's fields, in order; `elapsed` is in seconds
TRACE_COLUMNS = tuple(
    "elapsed_s" if f.name == "elapsed" else f.name for f in fields(IterationRecord)
)


class ConfigError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassopt",
        description="Line-search minimization on the Stiefel/Grassmann manifold",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config, step = SolveConfig(), StepParams()  # the library's defaults

    def add_problem_flags(p):
        p.add_argument("--config", help="flat key=value file with flag defaults")
        p.add_argument("--problem", choices=["quadratic", "lattice"], default="quadratic")
        p.add_argument("--n", type=int, default=50, help="quadratic matrix size")
        p.add_argument("--p", type=int, default=3, help="number of columns")
        p.add_argument("--matrix-file", help="dense symmetric matrix file (quadratic)")
        p.add_argument("--npts", type=int, default=128, help="lattice grid size")
        p.add_argument("--length", type=float, default=10.0, help="lattice domain length")
        p.add_argument("--gamma", type=float, default=1.0, help="interaction strength")
        p.add_argument("--well", type=float, default=1.0, help="harmonic well depth")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eta", type=float, default=step.eta)
        p.add_argument("--alpha", type=float, default=config.alpha)
        p.add_argument("--k", type=float, default=step.k)
        p.add_argument("--theta", type=float, default=step.theta)
        p.add_argument("--t-min", type=float, default=step.t_min)
        p.add_argument("--first-step", type=float, default=config.first_step)
        p.add_argument("--eps", type=float, default=config.epsilon)
        p.add_argument("--max-iter", type=int, default=config.max_iter)
        p.add_argument("--retraction", choices=RETRACTIONS, default=config.retraction)
        p.add_argument("--direction", choices=DIRECTIONS, default=config.direction)
        p.add_argument("--cg-restart-period", type=int, default=config.cg_restart_period)
        p.add_argument("--out", help="output path (trace / comparison table)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    run_p = sub.add_parser("run", help="solve one instance and write its trace")
    add_problem_flags(run_p)
    run_p.add_argument("--strategy", choices=STRATEGIES, default=config.strategy)
    run_p.add_argument("--bb-mode", choices=BB_MODES, default=config.bb_mode)

    cmp_p = sub.add_parser("compare", help="run several strategies on one instance")
    add_problem_flags(cmp_p)
    cmp_p.add_argument(
        "--strategy",
        action="append",
        choices=STRATEGIES,
        help="repeatable; default: adaptive + backtracking",
    )
    cmp_p.add_argument(
        "--bb-mode", action="append", choices=BB_MODES, help="repeatable; default: odd_even"
    )

    chk_p = sub.add_parser("check", help="run the property suites")
    chk_p.add_argument(
        "suite", nargs="?", default="all", choices=sorted(SUITES) + ["all"]
    )
    return parser


def apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Overlay a flat key=value file; command-line flags keep priority only
    for flags the file does not mention (file entries overwrite defaults and
    explicit flags alike, simplest flat semantics).

    Each entry is parsed as the flag `--key=value` of the same subcommand, so
    it gets the flag's type and choices; a repeatable flag collects every
    entry of its key into a list.  A `#` at the start of a line or after
    whitespace starts a comment; any other `#` is part of the value, as in
    a path."""
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    from_file: set[str] = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        flag = "--" + attr.replace("_", "-")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                parsed = getattr(parser.parse_args([args.command, f"{flag}={value}"]), attr)
        except SystemExit:
            reason = err.getvalue().strip().splitlines()[-1].partition("error: ")[2]
            raise ConfigError(f"{path}:{lineno}: {reason}") from None
        if isinstance(parsed, list) and attr in from_file:
            parsed = getattr(args, attr) + parsed
        setattr(args, attr, parsed)
        from_file.add(attr)


def build_model(args) -> EnergyModel:
    for flag, least in (("n", 1), ("p", 1), ("npts", 1), ("seed", 0)):
        if getattr(args, flag) < least:
            raise ConfigError(f"--{flag} must be at least {least}, got {getattr(args, flag)}")
    if args.problem == "quadratic":
        if args.matrix_file:
            mat = load_matrix(args.matrix_file)
        else:
            mat = random_symmetric(args.n, seed=args.seed)
        if args.p > mat.shape[0]:
            raise ConfigError("p must not exceed n")
        return QuadraticTraceModel(mat)
    if args.npts < args.p:
        raise ConfigError("p must not exceed npts")
    return harmonic_lattice(args.npts, length=args.length, gamma=args.gamma, well=args.well)


def build_start(args, model: EnergyModel) -> StiefelPoint:
    return random_frame(model.npts, args.p, args.seed)


def build_solver_config(args, strategy: str, bb_mode: str) -> SolveConfig:
    params = StepParams(eta=args.eta, t_min=args.t_min, k=args.k, theta=args.theta)
    return SolveConfig(
        epsilon=args.eps,
        max_iter=args.max_iter,
        step_params=params,
        alpha=args.alpha,
        strategy=strategy,
        bb_mode=bb_mode,
        first_step=args.first_step,
        direction=args.direction,
        retraction=args.retraction,
        cg_restart_period=args.cg_restart_period,
    )


def _json(value) -> str:
    """Strict JSON, with the NaN and Infinity json writes for non-finite floats as null."""
    plain = json.loads(json.dumps(value), parse_constant=lambda token: None)
    return json.dumps(plain, indent=1, allow_nan=False)


def _write_table(path: Path, fmt: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Write `rows` (dicts keyed by `columns`) as a JSON list of objects,
    encoded as `run`'s summary is (numbers, booleans, null, objects), or as
    a CSV table with a header.  In CSV, floats are written as `.17e` (18
    significant digits), so they round-trip exactly; flags as 0 or 1, None
    as empty, and a dict as one cell of compact JSON with sorted keys."""
    if fmt == "json":
        path.write_text(_json(rows))
        return

    def _cell(value):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float):
            return f"{value:.17e}"
        if isinstance(value, dict):
            return json.dumps(value, sort_keys=True, separators=(",", ":"))
        return "" if value is None else value

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows({key: _cell(value) for key, value in row.items()} for row in rows)


def summary_dict(result: SolveResult, config: SolveConfig, wallclock: float) -> dict:
    """The report of a finished solve: `run` writes it as its summary, and
    each `compare` row is it plus `flagged`."""
    steps = result.iters or math.nan  # no step, no per-step figures
    return {
        "strategy": config.strategy,
        "bb_mode": config.bb_mode,
        "status": result.status.value,
        "iters": result.iters,
        "final_energy": result.final_energy,
        "final_residual": result.final_residual,
        "energy_evals": result.total_energy_evals,
        "retraction_evals": result.total_retraction_evals,
        # how often the initial (BB) guess was accepted as the step
        "initial_accepted_share": (
            sum(rec.initial_accepted for rec in result.trace) / steps
        ),
        # iterations per clamp_reason: why steps were clamped
        "clamp_reasons": dict(Counter(rec.clamp_reason for rec in result.trace)),
        "wallclock_s": wallclock,
        "ms_per_iter": 1e3 * wallclock / steps,
    }


def timed_solve(model: EnergyModel, u0: StiefelPoint, config: SolveConfig):
    """The solve's result and its summary, timed around `solve` alone."""
    tic = time.perf_counter()
    result = solve(model, u0, config)
    return result, summary_dict(result, config, time.perf_counter() - tic)


def exit_code(result: SolveResult, label: str = "") -> int:
    """0 converged, 2 iteration cap, 1 failed (diagnostic on stderr)."""
    if result.status is Status.CONVERGED:
        return 0
    if result.status is Status.MAX_ITERATIONS:
        return 2
    print(f"error: {label}{result.diagnostic}", file=sys.stderr)
    return 1


def cmd_run(args) -> int:
    model = build_model(args)
    config = build_solver_config(args, args.strategy, args.bb_mode)
    result, summary = timed_solve(model, build_start(args, model), config)

    out = Path(args.out or f"trace_{args.problem}_{args.strategy}.{args.format}")
    rows = [dict(zip(TRACE_COLUMNS, astuple(rec))) for rec in result.trace]
    _write_table(out, args.format, TRACE_COLUMNS, rows)
    out.with_suffix(out.suffix + ".summary.json").write_text(_json(summary))
    print(_json(summary))
    return exit_code(result)


def cmd_compare(args) -> int:
    """One row per strategy and BB mode: the solve's summary plus `flagged`."""
    bb_modes = args.bb_mode or ["odd_even"]
    model = build_model(args)
    u0 = build_start(args, model)  # shared start: fairness across strategies

    rows = []
    codes = []
    for strategy in args.strategy or ["adaptive", "backtracking"]:
        for bb_mode in bb_modes:
            config = build_solver_config(args, strategy, bb_mode)
            result, summary = timed_solve(model, u0, config)
            codes.append(exit_code(result, f"{strategy}/{bb_mode}: "))
            rows.append({**summary, "flagged": ""})

    converged = [r for r in rows if r["status"] == Status.CONVERGED.value]
    if converged:
        ref = converged[0]["final_energy"]
        for row in converged:
            if abs(row["final_energy"] - ref) > 1e-7 * (1.0 + abs(ref)):
                row["flagged"] = "energy_mismatch"

    for row in rows:
        label = row["strategy"] if len(bb_modes) == 1 else f"{row['strategy']}/{row['bb_mode']}"
        print(
            f"{label:<24} {row['status']:<14} E={row['final_energy']: .12e} "
            f"iter={row['iters']:<6} res={row['final_residual']:.3e} "
            f"evals={row['energy_evals']}/{row['retraction_evals']} "
            f"accepted={row['initial_accepted_share']:.2f} {row['flagged']}"
        )

    out = Path(args.out or f"compare_{args.problem}.{args.format}")
    _write_table(out, args.format, tuple(rows[0]), rows)
    return 1 if 1 in codes else max(codes)


def cmd_check(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"[{tag}] {res.name}{detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command in ("run", "compare"):
            apply_config_file(args, parser)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_check(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

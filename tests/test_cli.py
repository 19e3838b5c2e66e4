import csv
import json
from collections import Counter

import numpy as np
import pytest

from grassopt import QuadraticTraceModel, SolveConfig, eigen_oracle, random_symmetric
from grassopt.cli import TRACE_COLUMNS, build_parser, build_solver_config, main
from grassopt.search import DIRECTIONS, RETRACTIONS


# The headers are derived in code; these literals pin the files users read,
# the README recipes' among them (tests/test_readme.py).
TRACE_HEADER = (
    "iter,energy,residual,step,backtracks,estimator,direction_reset,"
    "initial_accepted,clamp_reason,elapsed_s"
)
COMPARE_HEADER = (
    "strategy,bb_mode,status,iters,final_energy,final_residual,energy_evals,"
    "retraction_evals,initial_accepted_share,clamp_reasons,wallclock_s,ms_per_iter,flagged"
)
OVERFLOW = "iteration 0: overflow encountered in dot"


def run_cli(*argv):
    return main(list(argv))


def is_full_precision(cell):
    """A float cell written as `.17e` (18 significant digits), which round-trips."""
    try:
        return f"{float(cell):.17e}" == cell
    except (TypeError, ValueError):
        return False


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON parsers do."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strip_elapsed(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("elapsed_s")
    return rows


class TestRun:
    def test_quadratic_matches_oracle(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--problem", "quadratic", "--n", "50", "--p", "3",
            "--seed", "1", "--strategy", "adaptive", "--eps", "1e-9",
            "--out", str(out),
        )
        assert code == 0
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        assert summary["status"] == "converged"
        oracle, _ = eigen_oracle(QuadraticTraceModel(random_symmetric(50, seed=1)), 3)
        assert abs(summary["final_energy"] - oracle) <= 1e-8 * (1.0 + abs(oracle))

    def test_forced_cap_exits_2(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--n", "20", "--p", "2", "--seed", "3",
            "--max-iter", "1", "--eps", "1e-12", "--out", str(out),
        )
        assert code == 2

    def test_trace_columns_and_roundtrip(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--n", "30", "--p", "2", "--seed", "2",
            "--eps", "1e-8", "--out", str(out),
        ) == 0
        rows = read_trace(out)
        assert rows and tuple(rows[0].keys()) == TRACE_COLUMNS
        # 17 significant digits survive a float round-trip exactly
        for row in rows:
            for key in ("energy", "residual", "step"):
                val = float(row[key])
                assert f"{val:.17e}" == row[key]

    def test_step_decisions_in_trace_and_summary(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--problem", "lattice", "--npts", "32", "--p", "2",
            "--seed", "4", "--eps", "1e-8", "--out", str(out),
        ) == 0
        rows = read_trace(out)
        assert {row["initial_accepted"] for row in rows} == {"0", "1"}
        assert {row["clamp_reason"] for row in rows} <= {
            "none", "trust_radius", "floor", "curvature_minimizer"
        }
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        accepted = sum(row["initial_accepted"] == "1" for row in rows)
        assert summary["initial_accepted_share"] == accepted / len(rows)

    def test_clamp_reasons_in_summary(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--problem", "lattice", "--npts", "32", "--p", "2",
            "--seed", "4", "--eps", "1e-8", "--out", str(out),
        ) == 0
        reasons = Counter(row["clamp_reason"] for row in read_trace(out))
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        assert summary["clamp_reasons"] == dict(reasons)
        assert sum(summary["clamp_reasons"].values()) == summary["iters"]

    def test_floored_none_step_reports_floor(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--problem", "lattice", "--npts", "16", "--p", "2",
            "--strategy", "none", "--first-step", "1e-30", "--out", str(out),
        ) == 0
        first = read_trace(out)[0]
        assert float(first["step"]) == 1e-20
        assert first["clamp_reason"] == "floor"
        assert first["initial_accepted"] == "1"

    def test_backtracking_stops_at_the_floor(self, tmp_path, capsys):
        """A BB guess raised to t_min that is not accepted fails the step at
        once: the next shrink would drop below the floor."""
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--problem", "lattice", "--npts", "16", "--p", "2",
            "--strategy", "backtracking", "--first-step", "1e-30", "--out", str(out),
        ) == 1
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        assert (summary["status"], summary["iters"]) == ("failed", 0)
        assert (summary["energy_evals"], summary["retraction_evals"]) == (2, 1)
        assert "iteration 0: no acceptable step after 0 shrinks" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        assert run_cli(
            "run", "--n", "20", "--p", "2", "--seed", "2",
            "--eps", "1e-8", "--out", str(out), "--format", "json",
        ) == 0
        rows = json.loads(out.read_text())
        assert rows and set(rows[0]) == set(TRACE_COLUMNS)

    def test_failed_solve_writes_strict_json(self, tmp_path, capsys):
        """The NaN residual of a failed solve is null in the summary file and
        on stdout."""
        out = tmp_path / "nf.json"
        assert run_cli(
            "run", "--problem", "lattice", "--npts", "16", "--p", "2", "--gamma", "1e308",
            "--format", "json", "--out", str(out),
        ) == 1
        summary = strict_json((tmp_path / "nf.json.summary.json").read_text())
        assert (summary["status"], summary["final_residual"]) == ("failed", None)
        assert strict_json(capsys.readouterr().out) == summary
        assert strict_json(out.read_text()) == []

    @pytest.mark.parametrize(
        "args, code, status",
        [("--n 4 --p 4", 0, "converged"),
         ("--n 20 --p 2 --first-step 1e308 --strategy none", 1, "failed")],
        ids=["converged-start", "failed-at-0"],
    )
    def test_no_step_reports_no_per_step_figures(self, tmp_path, args, code, status):
        """A solve that takes no step has no share of accepted guesses and no
        time per step: both are NaN, written as null."""
        out = tmp_path / "t.json"
        assert run_cli("run", *args.split(), "--format", "json", "--out", str(out)) == code
        summary = strict_json((tmp_path / "t.json.summary.json").read_text())
        assert (summary["status"], summary["iters"]) == (status, 0)
        assert summary["initial_accepted_share"] is None and summary["ms_per_iter"] is None
        assert summary["wallclock_s"] > 0.0

    def test_lattice_beyond_dense_size(self, tmp_path):
        """A lattice whose dense matrix would take 80 GB runs as a stencil."""
        out = tmp_path / "trace.json"
        assert run_cli(
            "run", "--problem", "lattice", "--npts", "100000", "--p", "8",
            "--max-iter", "5", "--format", "json", "--out", str(out),
        ) == 2
        rows = json.loads(out.read_text())
        assert [row["iter"] for row in rows] == [0, 1, 2, 3, 4]
        summary = json.loads((tmp_path / "trace.json.summary.json").read_text())
        assert summary["status"] == "max_iterations"

    def test_default_name_takes_format_suffix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--n", "20", "--p", "2", "--eps", "1e-8", "--format", "json") == 0
        rows = json.loads((tmp_path / "trace_quadratic_adaptive.json").read_text())
        assert rows and set(rows[0]) == set(TRACE_COLUMNS)
        assert (tmp_path / "trace_quadratic_adaptive.json.summary.json").exists()
        assert not list(tmp_path.glob("*.csv"))

    def test_determinism_apart_from_elapsed(self, tmp_path):
        args = (
            "run", "--problem", "lattice", "--npts", "32", "--p", "2",
            "--seed", "4", "--eps", "1e-8",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert strip_elapsed(out1) == strip_elapsed(out2)

    def test_matrix_file_input(self, tmp_path):
        mat = random_symmetric(8, seed=6)
        mfile = tmp_path / "mat.txt"
        body = "\n".join(" ".join(f"{x:.17e}" for x in row) for row in mat)
        mfile.write_text(f"8\n{body}\n")
        out = tmp_path / "trace.csv"
        assert run_cli(
            "run", "--matrix-file", str(mfile), "--p", "2", "--seed", "0",
            "--eps", "1e-9", "--out", str(out),
        ) == 0
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        oracle, _ = eigen_oracle(QuadraticTraceModel(mat), 2)
        assert abs(summary["final_energy"] - oracle) <= 1e-8 * (1.0 + abs(oracle))

    def test_p_larger_than_n_rejected(self, tmp_path):
        assert run_cli("run", "--n", "3", "--p", "5", "--out", str(tmp_path / "t.csv")) == 1

    @pytest.mark.parametrize(
        "problem, flag, value",
        [
            ("quadratic", "--p", "-1"),
            ("quadratic", "--p", "0"),
            ("quadratic", "--n", "0"),
            ("lattice", "--npts", "0"),
        ],
    )
    def test_size_below_one_rejected(self, tmp_path, capsys, problem, flag, value):
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--problem", problem, "--n", "10", "--p", "1", flag, value,
            "--out", str(out),
        )
        assert code == 1
        assert f"error: {flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, source):
        out = tmp_path / "t.csv"
        argv = ["--seed", "-1"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            argv = ["--config", str(cfg)]
        assert run_cli(command, *argv, "--out", str(out)) == 1
        assert "error: --seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--gamma", "nan", "gamma"),
            ("--gamma", "inf", "gamma"),
            ("--length", "nan", "length"),
            ("--well", "nan", "well"),
        ],
    )
    def test_non_finite_lattice_input_rejected(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--problem", "lattice", "--npts", "16", "--p", "2", flag, value,
            "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "length", ["1e-300", "1e-160"], ids=["square-underflows", "scale-overflows"]
    )
    def test_tiny_lattice_length_rejected(self, tmp_path, capsys, length):
        """A mesh width whose 1/h^2 is not a finite positive float ends the
        run with an error line, not a traceback or a failed solve."""
        out = tmp_path / "t.csv"
        code = run_cli(
            "run", "--problem", "lattice", "--npts", "8", "--p", "2", "--length", length,
            "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mesh width")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            ("--problem lattice --npts 16 --p 2 --well 1e300", OVERFLOW),
            ("--problem lattice --npts 16 --p 2 --gamma 1e200", OVERFLOW),
            ("--problem lattice --npts 16 --p 2 --gamma 1e308", OVERFLOW),
            ("--n 20 --p 2 --first-step 1e308 --strategy none",
             "iteration 0: QR retraction: step |t| ||D||_F = inf is not finite"),
            ("--n 20 --p 2 --first-step 1e308 --strategy backtracking",
             "iteration 0: QR retraction: step |t| ||D||_F = inf is not finite"),
            ("--problem lattice --npts 16 --p 2 --length 1e300", "mesh width"),
            ("--problem lattice --npts 16 --p 2 --well 1e308", "potential has non-finite"),
        ],
    )
    def test_blowup_exits_1(self, tmp_path, capsys, strict, args, message):
        """A numerical blowup ends the run with exit status 1 and one error
        line naming it, whether RuntimeWarnings are errors or not: no
        RuntimeWarning traceback and no warning."""
        code = run_cli("run", *args.split(), "--out", str(tmp_path / "t.csv"))
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {message}")

    @pytest.mark.parametrize("retraction, name", [("qr", "QR"), ("geodesic", "geodesic")])
    @pytest.mark.parametrize("strategy", ["none", "backtracking"])
    def test_overflowing_step_named(self, tmp_path, capsys, strict, strategy, retraction, name):
        """A first step too large for a float fails the run at iteration 0,
        named by the retraction, with no RuntimeWarning on the way."""
        code = run_cli(
            "run", "--n", "20", "--p", "2", "--first-step", "1e308", "--strategy", strategy,
            "--retraction", retraction, "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: iteration 0: {name} retraction: step |t| " in err
        assert "Traceback" not in err

    def test_non_finite_matrix_file_rejected(self, tmp_path, capsys):
        mfile = tmp_path / "mat.txt"
        mfile.write_text("2\n1 nan\nnan 1\n")
        out = tmp_path / "t.csv"
        assert run_cli("run", "--matrix-file", str(mfile), "--p", "1", "--out", str(out)) == 1
        assert "error: matrix has non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    def test_matrix_file_beyond_float64_named(self, tmp_path, capsys, strict):
        mfile = tmp_path / "mat.txt"
        mfile.write_text("2\n1e400 0\n0 1\n")
        out = tmp_path / "t.csv"
        assert run_cli("run", "--matrix-file", str(mfile), "--p", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {mfile}: entry 1 ('1e400') is beyond the float64 range" in err
        assert not out.exists()

    def test_non_finite_eps_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli("run", "--n", "10", "--p", "1", "--eps", "nan", "--out", str(out)) == 1
        assert "error: epsilon must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


class TestFileFormats:
    """Cells of the written files.  In CSV: floats as `.17e`, flags as 0 or 1,
    None as an empty cell.  In JSON, as in `run`'s summary: floats as
    numbers, flags as booleans, None as null."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_cells(self, tmp_path, fmt):
        rows = {}
        for strategy in ("adaptive", "backtracking"):
            out = tmp_path / f"{strategy}.{fmt}"
            assert run_cli(
                "run", "--problem", "lattice", "--npts", "32", "--p", "2", "--seed", "4",
                "--eps", "1e-8", "--direction", "cg_restart", "--strategy", strategy,
                "--format", fmt, "--out", str(out),
            ) == 0
            rows[strategy] = read_trace(out) if fmt == "csv" else json.loads(out.read_text())
        if fmt == "csv":
            is_float, flags, missing = is_full_precision, ("0", "1"), ""
        else:
            is_float, flags, missing = (lambda cell: type(cell) is float), (False, True), None
        for strategy, trace in rows.items():
            for row in trace:
                assert [key for key, cell in row.items() if is_float(cell)] == (
                    ["energy", "residual", "step"]
                    + (["estimator"] if strategy == "adaptive" else [])
                    + ["elapsed_s"]
                )
                for key in ("direction_reset", "initial_accepted"):
                    assert type(row[key]) is type(flags[0]) and row[key] in flags
            # a CG restart and a plain step: both flag values occur
            assert {row["direction_reset"] for row in trace} == set(flags)
        # backtracking has no estimate: None is written as an empty cell, or null
        assert all(row["estimator"] == missing for row in rows["backtracking"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_cells(self, tmp_path, fmt):
        out = tmp_path / f"cmp.{fmt}"
        assert run_cli(
            "compare", "--n", "20", "--p", "2", "--eps", "1e-8",
            "--strategy", "adaptive", "--format", fmt, "--out", str(out),
        ) == 0
        if fmt == "csv":
            with open(out, newline="") as fh:
                (row,) = csv.DictReader(fh)
        else:
            (row,) = json.loads(out.read_text())
        floats = (
            "final_energy", "final_residual", "initial_accepted_share", "wallclock_s",
            "ms_per_iter",
        )
        is_float = is_full_precision if fmt == "csv" else (lambda cell: type(cell) is float)
        assert [key for key, cell in row.items() if is_float(cell)] == list(floats)
        assert row["flagged"] == "" and row["status"] == "converged"
        reasons = row["clamp_reasons"]
        if fmt == "json":
            counts = ("iters", "energy_evals", "retraction_evals")
            assert all(type(row[key]) is int for key in counts)
            # an object of int counts
            assert reasons and all(type(count) is int for count in reasons.values())
            # the row is the run summary of the same solve, encoded the same way
            trace = tmp_path / "trace.csv"
            assert run_cli(
                "run", "--n", "20", "--p", "2", "--eps", "1e-8", "--out", str(trace)
            ) == 0
            summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
            for key in ("wallclock_s", "ms_per_iter"):
                del summary[key], row[key]
            assert row == {**summary, "flagged": ""}
        else:
            # one cell of compact JSON with sorted keys
            parsed = json.loads(reasons)
            assert reasons == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
            assert sum(parsed.values()) == int(row["iters"])


class TestConfigFile:
    def test_overlay(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 30\np = 2\nseed = 9\neps = 1e-8  # comment\n\nmax-iter = 5000\n")
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        oracle, _ = eigen_oracle(QuadraticTraceModel(random_symmetric(30, seed=9)), 2)
        assert abs(summary["final_energy"] - oracle) <= 1e-7 * (1.0 + abs(oracle))

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        """Only a `#` at the start of a line or after whitespace starts a
        comment; this path was once cut off at its `#`."""
        mat = random_symmetric(8, seed=6)
        mfile = tmp_path / "m#1.txt"
        body = "\n".join(" ".join(f"{x:.17e}" for x in row) for row in mat)
        mfile.write_text(f"8\n{body}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment line\nmatrix-file = {mfile}  # the # file\np = 2\n")
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--config", str(cfg), "--eps", "1e-9", "--out", str(out)) == 0
        summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
        oracle, _ = eigen_oracle(QuadraticTraceModel(mat), 2)
        assert abs(summary["final_energy"] - oracle) <= 1e-8 * (1.0 + abs(oracle))

    def test_missing_file(self):
        assert run_cli("run", "--config", "/nonexistent/nowhere.cfg") == 1

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_bad_value_type(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = banana\n")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_misspelled_problem_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = quadratc\nn = 10\np = 2\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_format_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("format = xml\nn = 10\np = 2\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == 1
        assert not (tmp_path / "t.csv").exists()

    def test_repeatable_flag_from_file(self, tmp_path):
        """Each file entry for a repeatable flag is one list item; together
        they replace the strategies given on the command line."""
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("n = 20\np = 2\neps = 1e-8\nstrategy = backtracking\nstrategy = none\n")
        out = tmp_path / "cmp.csv"
        code = run_cli(
            "compare", "--strategy", "adaptive", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy"] for r in rows] == ["backtracking", "none"]


class TestCompare:
    def test_adaptive_vs_backtracking_lattice(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run_cli(
            "compare", "--problem", "lattice", "--npts", "48", "--p", "3",
            "--gamma", "1.0", "--seed", "5", "--eps", "1e-8",
            "--strategy", "adaptive", "--strategy", "backtracking",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy"] for r in rows] == ["adaptive", "backtracking"]
        assert all(r["status"] == "converged" for r in rows)
        e0, e1 = (float(r["final_energy"]) for r in rows)
        assert abs(e0 - e1) <= 1e-7 * (1.0 + abs(e0))
        assert not any(r["flagged"] for r in rows)

    def test_bb_mode_matrix(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli(
            "compare", "--n", "30", "--p", "2", "--seed", "6", "--eps", "1e-8",
            "--strategy", "backtracking",
            "--bb-mode", "odd_even", "--bb-mode", "bb1", "--bb-mode", "bb2",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["bb_mode"] for r in rows] == ["odd_even", "bb1", "bb2"]

    def test_none_strategy_row_still_emitted(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli(
            "compare", "--n", "20", "--p", "2", "--seed", "7",
            "--eps", "1e-10", "--max-iter", "20",
            "--strategy", "adaptive", "--strategy", "none",
            "--out", str(out),
        )
        assert code == 2  # both solves stop at the cap
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_json_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "compare", "--n", "20", "--p", "2", "--seed", "6", "--eps", "1e-8",
            "--strategy", "adaptive", "--strategy", "backtracking",
            "--bb-mode", "bb1", "--bb-mode", "bb2", "--format", "json",
        )
        assert code == 0
        rows = json.loads((tmp_path / "compare_quadratic.json").read_text())
        assert [(r["strategy"], r["bb_mode"]) for r in rows] == [
            ("adaptive", "bb1"), ("adaptive", "bb2"),
            ("backtracking", "bb1"), ("backtracking", "bb2"),
        ]
        assert all(",".join(r) == COMPARE_HEADER for r in rows)
        assert all(r["status"] == "converged" for r in rows)

    def test_exit_code_of_worst_solve(self, tmp_path, capsys):
        code = run_cli(
            "compare", "--n", "20", "--p", "2", "--max-iter", "50",
            "--strategy", "backtracking", "--strategy", "none",
            "--out", str(tmp_path / "cmp.csv"),
        )
        assert capsys.readouterr().out.count("max_iterations") == 2
        assert code == 2

    def test_p_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run_cli(
            "compare", "--problem", "lattice", "--npts", "16", "--p", "0", "--out", str(out)
        )
        assert code == 1
        assert "error: --p must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_rows_are_strict_json(self, tmp_path):
        out = tmp_path / "nf.json"
        assert run_cli(
            "compare", "--problem", "lattice", "--npts", "16", "--p", "2", "--gamma", "1e308",
            "--format", "json", "--out", str(out),
        ) == 1
        rows = strict_json(out.read_text())
        assert [(r["status"], r["final_residual"]) for r in rows] == [("failed", None)] * 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_step_reports_no_per_step_figures(self, tmp_path, capsys, fmt):
        """From a converged start no strategy takes a step: the per-step
        figures are NaN, null in JSON, nan in CSV and on the compare line."""
        out = tmp_path / f"cmp.{fmt}"
        assert run_cli("compare", "--n", "4", "--p", "4", "--format", fmt, "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(" iter=0 " in line and " accepted=nan " in line for line in lines)
        rows = read_trace(out) if fmt == "csv" else strict_json(out.read_text())
        nan = "nan" if fmt == "csv" else None
        for row in rows:
            assert str(row["iters"]) == "0"
            assert (row["initial_accepted_share"], row["ms_per_iter"]) == (nan, nan)

    def test_rows_are_run_summaries(self, tmp_path):
        """Each compare row is the run summary of the same solve plus
        `flagged`, apart from the timings; floats after the `.17e` round trip."""
        flags = (
            "--problem", "lattice", "--npts", "32", "--p", "2", "--seed", "4", "--eps", "1e-8"
        )
        strategies = ("adaptive", "backtracking", "none")
        out = tmp_path / "cmp.csv"
        strategy_flags = [arg for strategy in strategies for arg in ("--strategy", strategy)]
        assert run_cli("compare", *flags, *strategy_flags, "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == COMPARE_HEADER
        rows = read_trace(out)
        assert [row.pop("flagged") for row in rows] == ["", "", ""]
        for strategy, row in zip(strategies, rows):
            trace = tmp_path / f"{strategy}.csv"
            assert run_cli("run", *flags, "--strategy", strategy, "--out", str(trace)) == 0
            summary = json.loads((tmp_path / f"{strategy}.csv.summary.json").read_text())
            assert list(summary) == list(row)
            for key in ("wallclock_s", "ms_per_iter"):
                del summary[key], row[key]
            assert summary["strategy"] == strategy
            expected = {
                key: f"{value:.17e}" if isinstance(value, float) else value
                for key, value in summary.items()
            }
            expected["clamp_reasons"] = json.dumps(
                summary["clamp_reasons"], sort_keys=True, separators=(",", ":")
            )
            assert row == {key: str(value) for key, value in expected.items()}

    def test_shared_start_fairness(self, tmp_path):
        """All strategies see the same U0: the iteration-0 energy in their
        individual run traces must coincide bit-for-bit."""
        args = ("--n", "25", "--p", "2", "--seed", "8", "--eps", "1e-8")
        energies = []
        for strategy in ("adaptive", "backtracking"):
            out = tmp_path / f"{strategy}.csv"
            assert run_cli("run", *args, "--strategy", strategy, "--out", str(out)) == 0
            energies.append(read_trace(out)[0]["energy"])
        assert energies[0] == energies[1]


class TestCheck:
    def test_stepsize_suite(self, capsys):
        assert run_cli("check", "stepsize") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_all_suites(self, capsys):
        assert run_cli("check") == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out

    def test_unknown_suite_rejected(self):
        assert run_cli("check", "astrology") == 1


class TestLibraryDefaults:
    """The solver flags take their choices and defaults from the library."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--direction", d) for d in DIRECTIONS] + [("--retraction", r) for r in RETRACTIONS],
    )
    def test_every_direction_and_retraction_parses(self, command, flag, value):
        args = build_parser().parse_args([command, flag, value])
        assert getattr(args, flag[2:]) == value

    def test_flagless_run_builds_default_config(self):
        args = build_parser().parse_args(["run"])
        assert build_solver_config(args, args.strategy, args.bb_mode) == SolveConfig()


def test_bad_flag_exits_1():
    assert run_cli("run", "--no-such-flag") == 1

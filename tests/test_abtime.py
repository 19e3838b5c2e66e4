"""scripts/abtime.py on two small stub trees: a copy of the package each, with
a two-job workload and its output check in place of the benchmark's."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("abtime", REPO / "scripts" / "abtime.py")
abtime = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abtime)

WORKLOADS = """
from types import SimpleNamespace

import numpy as np

from grassopt import QuadraticTraceModel, SolveConfig, StiefelPoint, random_symmetric, thin_qr


def small_batch(seed):
    model = QuadraticTraceModel(random_symmetric(20, seed))
    frame, _ = thin_qr(np.random.default_rng(seed).standard_normal((20, 2)))
    instance = SimpleNamespace(label="n=20 p=2", model=model, u0=StiefelPoint(frame))
    configs = [SolveConfig(epsilon={eps}, strategy=s) for s in ("adaptive", "backtracking")]
    return [SimpleNamespace(instance=instance, config=c, strategy=c.strategy) for c in configs]


def check(job, result):
    return {fault!r}


WORKLOADS = {{"small-batch": small_batch}}
"""

# Every solve starts from a slightly larger first step than the one before:
# state that the package keeps from one solve to the next.
LEAK = """
import dataclasses as _dataclasses

_solve, _solves = solve, []


def solve(model, u0, config):
    _solves.append(None)
    step = config.first_step * (1.0 + 1e-9 * len(_solves))
    return _solve(model, u0, _dataclasses.replace(config, first_step=step))
"""


def stub_tree(root, eps=1e-8, leak=False, fault=""):
    shutil.copytree(REPO / "src" / "grassopt", root / "src" / "grassopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if leak:
        with open(root / "src" / "grassopt" / "__init__.py", "a") as fh:
            fh.write(LEAK)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS.format(eps=eps, fault=fault))
    return root


@pytest.fixture
def load():
    """abtime.load_tree; the modules it loads are dropped afterwards, so the
    next test's trees load afresh under the same names."""
    before = set(sys.modules)
    yield abtime.load_tree
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_identical_trees_pass(tmp_path, load, capsys):
    root = stub_tree(tmp_path)
    trees = (load(root, "parent"), load(root, "change"))
    assert abtime.compare(trees, "small-batch", 1, rounds=2) == 0
    out = capsys.readouterr().out
    assert "abtime: small-batch seed=1: 2/2 jobs bit-identical to the parent" in out


def test_state_kept_between_solves_fails(tmp_path, load, capsys):
    """Both trees leak alike, so they agree with each other in every round,
    and each differs from its own round 0."""
    root = stub_tree(tmp_path, leak=True)
    trees = (load(root, "parent"), load(root, "change"))
    assert abtime.compare(trees, "small-batch", 1, rounds=2) == 4
    captured = capsys.readouterr()
    assert captured.err.count("round 1 differs from round 0") == 4
    assert "2/2 jobs bit-identical" in captured.out


def test_different_iteration_counts_fail(tmp_path, load, capsys):
    parent = stub_tree(tmp_path / "parent", eps=1e-4)
    change = stub_tree(tmp_path / "change", eps=1e-10)
    trees = (load(parent, "parent"), load(change, "change"))
    assert abtime.compare(trees, "small-batch", 1, rounds=1) == 2
    captured = capsys.readouterr()
    assert captured.err.count("iterations, parent") == 2
    assert "0/2 jobs bit-identical" in captured.out


@pytest.mark.parametrize("eps, moved", [((1e-8, 1e-8), 0), ((1e-4, 1e-10), 2)],
                         ids=["same", "moved"])
def test_reports_iterations_and_energies_moved(tmp_path, load, capsys, eps, moved):
    """Each tree's iteration total per strategy, and the largest relative
    difference of final energies over the jobs whose bits differ."""
    tags = ("parent", "change")
    trees = [load(stub_tree(tmp_path / tag, eps=e), tag) for tag, e in zip(tags, eps)]
    abtime.compare(trees, "small-batch", 1, rounds=1)
    out = capsys.readouterr().out
    parent, change = (
        [package.solve(job.instance.model, job.instance.u0, job.config)
         for job in workloads.WORKLOADS["small-batch"](1)]
        for package, workloads in trees
    )
    for strategy, p, c in zip(("adaptive", "backtracking"), parent, change):
        assert f"seed=1 {strategy}: {c.iters} iterations in all, parent {p.iters}" in out
    worst = max(abs(c.final_energy - p.final_energy) / max(1.0, abs(p.final_energy))
                for p, c in zip(parent, change))
    assert (moved == 0) == (worst == 0.0)
    assert (f"final energies differ by at most {worst:.3e} relative over the {moved} jobs "
            "whose bits differ") in out


def test_wrong_output_fails(tmp_path, load, capsys):
    """Each tree's own check judges its own solves: a fault per job and tree."""
    root = stub_tree(tmp_path, fault="energy below the reference")
    trees = (load(root, "parent"), load(root, "change"))
    assert abtime.compare(trees, "small-batch", 1, rounds=1) == 4
    captured = capsys.readouterr()
    assert captured.err.count("output wrong: energy below the reference") == 4
    assert captured.err.count("parent round 0 output wrong") == 2
    assert "2/2 jobs bit-identical" in captured.out


def test_names_the_blas_first(tmp_path, monkeypatch, capsys):
    """The first line names the BLAS, here numpy's OpenBLAS with its core."""
    root = stub_tree(tmp_path)
    monkeypatch.setattr(abtime, "load_tree", lambda root, tag: None)
    monkeypatch.setattr(abtime, "compare", lambda trees, name, seed, rounds: 0)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after main pins them
    assert abtime.main(["--parent", str(root), "--workload", "small-batch"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"abtime: numpy \S+, BLAS OpenBLAS \d\S* .+, threads \d+", line)


def test_names_numpy_beside_the_blas():
    """numpy's own loops (`einsum`, elementwise products) make the density
    terms' bits, so the first line names numpy's version before the BLAS."""
    assert abtime.blas_kernel().startswith(f"abtime: numpy {np.__version__}, BLAS ")


def test_blas_unknown_without_the_symbols(monkeypatch):
    monkeypatch.setattr(abtime.ctypes, "CDLL", lambda path: object())
    want = f"abtime: numpy {np.__version__}, BLAS unknown, threads unknown"
    assert abtime.blas_kernel() == want

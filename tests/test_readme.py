"""The README's extension example and shell recipes, run as written."""

import csv
import importlib.util
import pathlib
import re
import shlex
import sys

import pytest

import grassopt
from grassopt import (
    QuadraticTraceModel,
    SolveConfig,
    Status,
    eigen_oracle,
    random_symmetric,
    solve,
)
from grassopt.cli import build_model, build_parser, build_start, main
from grassopt.manifold import random_frame
from grassopt.search import DIRECTIONS, RETRACTIONS, STRATEGIES

from test_cli import COMPARE_HEADER, TRACE_HEADER

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SHELL_SYNTAX = re.compile(r"[$|;&<>()`*~]")


def readme_commands():
    """(README line, words) for each command of the README's sh blocks but
    those that begin with pip or pytest: `\\` continuations joined, ` #
    comments` stripped and `for NAME in WORDS; do ... done` unrolled.  The
    words are None for a block of other shell syntax, so none is skipped."""
    text, commands = README.read_text(), []
    for block in re.finditer(r"```sh\n(.*?)```", text, re.S):
        line = text.count("\n", 0, block.start()) + 1
        if block[1].split()[:1] in (["pip"], ["pytest"]):
            continue
        raw = block[1].replace("\\\n", " ").splitlines()
        lines = [s for s in (re.sub(r"(^|\s)#.*", "", r).strip() for r in raw) if s]
        loop = lines and re.fullmatch(r"for (\w+) in ([\w ]+); do", lines[0])
        if loop and lines[-1] == "done":
            lines = [s.replace(f"${loop[1]}", v) for v in loop[2].split() for s in lines[1:-1]]
        try:
            words = [shlex.split(s) for s in lines if not SHELL_SYNTAX.search(s)]
        except ValueError:  # an unclosed quote
            words = []
        if lines and len(words) == len(lines) and all(w[0] == "grassopt" for w in words):
            commands += [(line, w) for w in words]
        else:
            commands.append((line, None))
    return commands


COMMANDS = readme_commands()


@pytest.mark.parametrize(
    "line, words", COMMANDS, ids=[shlex.join(w[1:]) if w else f"line{n}" for n, w in COMMANDS]
)
def test_recipe_runs_as_written(tmp_path, monkeypatch, line, words):
    """A README command exits 0 in a fresh directory with RuntimeWarnings as
    errors (pyproject.toml); each CSV it writes has its kind's pinned header,
    and no compare row is flagged."""
    assert words, f"README.md:{line}: an sh block this test cannot read"
    monkeypatch.chdir(tmp_path)
    assert main(words[1:]) == 0
    header = TRACE_HEADER if words[1] == "run" else COMPARE_HEADER
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            flagged = [row["strategy"] for row in reader if row.get("flagged")]
        assert ",".join(reader.fieldnames) == header, path.name
        assert not flagged, f"{path.name}: energy_mismatch"


def test_stiff_recipe_starts_from_the_benchmark_frame(monkeypatch):
    """The README runs its stiff compare recipe from the start frame of the
    benchmark's lattice-stiff workload; the CLI builds that frame bit for bit."""
    [words] = [w for _, w in COMMANDS if w and "1024" in w]
    args = build_parser().parse_args(words[1:])
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", README.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    frame = build_start(args, build_model(args)).u
    assert frame.tobytes() == workloads.start_frame(1024, 8, 0).u.tobytes()


def readme_shifted():
    """The `Shifted` wrapper of the README's one python block."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {"grassopt": grassopt}
    exec(blocks[0], namespace)
    return namespace["Shifted"]


def wrapper(kind):
    """`Shifted`, or a variant that also overrides one optional method with
    the signature the README gives it."""
    shifted = readme_shifted()
    if kind == "shifted":
        return shifted

    class ShiftedEvaluate(shifted):
        def evaluate(self, u):
            energy, egrad = self.model.evaluate(u)
            return energy + self.shift, egrad

    class ShiftedQform(shifted):
        def hessian_qform(self, u, d):
            return self.model.hessian_qform(u, d)

    return ShiftedEvaluate if kind == "evaluate" else ShiftedQform


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("retraction", RETRACTIONS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", ["shifted", "evaluate", "hessian_qform"])
def test_wrapper_reaches_shifted_minimum(kind, strategy, retraction, direction):
    model, shift = QuadraticTraceModel(random_symmetric(30, 5)), 2.5
    target = eigen_oracle(model, 3)[0] + shift
    config = SolveConfig(
        epsilon=1e-8, max_iter=5000, strategy=strategy, retraction=retraction,
        direction=direction,
    )
    result = solve(wrapper(kind)(model, shift), random_frame(30, 3, 6), config)
    assert result.status is Status.CONVERGED
    assert abs(result.final_energy - target) <= 1e-10 * abs(target)

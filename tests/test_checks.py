"""The property suites of `grassopt check`: every check passes, the names are
pinned, and a NaN in the quantity a check tests fails it."""

import numpy as np
import pytest

from grassopt import TraceDensityModel, checks, stepsize
from grassopt.checks import SUITES, run_suite
from grassopt.cli import main

NAMES = {
    "geometry": ["retraction_axioms", "feasibility", "second_order_defect"],
    "objectives": [
        "orthogonal_invariance",
        "gradient_fd",
        "gradient_tangency",
        "evaluate_consistency",
        "qform_consistency",
        "hessian_symmetry",
        "taylor_expansion",
        "qform_fd",
    ],
    "stepsize": ["improve_step_acceptable", "nm_recursion", "bb_positivity"],
}
CHECKS = [fn for suite in SUITES.values() for fn in suite]


@pytest.mark.parametrize("check", CHECKS, ids=[n for names in NAMES.values() for n in names])
def test_check_passes(check):
    """Acceptance criteria 4-6, one check at a time: a failing check raises
    CheckFailed with its detail."""
    check()


def test_names_pinned():
    """The CLI prints these names in this order, and the tests' ids are them."""
    assert [(suite, [r.name for r in run_suite(suite)]) for suite in SUITES] == list(NAMES.items())


def nan_retraction(u, d, t):
    """Exact at t = 0, and an all-NaN frame at any other step."""
    return u if t == 0 else np.full_like(u, np.nan)


def nan_like(*args):
    return np.full_like(args[-1], np.nan)


# (check, owner, attribute, replacement): each makes NaN what the check tests
PLANTED = [
    ("retraction_axioms", checks, "retract_qr", nan_retraction),
    ("feasibility", checks, "retract_geodesic", nan_retraction),
    ("gradient_tangency", checks, "project_tangent", lambda u, g: np.full_like(u, np.nan)),
    ("gradient_fd", TraceDensityModel, "euclidean_gradient", nan_like),
    ("hessian_symmetry", TraceDensityModel, "hessian_apply", nan_like),
    ("orthogonal_invariance", TraceDensityModel, "value", lambda self, u: np.nan),
    ("qform_fd", TraceDensityModel, "value", lambda self, u: np.nan),
    ("taylor_expansion", TraceDensityModel, "value", lambda self, u: np.nan),
    ("improve_step_acceptable", stepsize, "improve_step", lambda g, hq, theta, norm_d: np.nan),
]


@pytest.mark.parametrize(
    "name, owner, attribute, replacement", PLANTED, ids=[case[0] for case in PLANTED]
)
def test_planted_nan_fails(monkeypatch, name, owner, attribute, replacement):
    """A condition written `if error > tol: fail` passed on NaN."""
    monkeypatch.setattr(owner, attribute, replacement)
    [check] = [fn for fn in CHECKS if fn.__name__ == f"check_{name}"]
    monkeypatch.setitem(SUITES, "planted", [check])
    [result] = run_suite("planted")
    assert (result.name, result.passed) == (name, False), result


def test_cli_reports_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(checks, "retract_qr", nan_retraction)
    monkeypatch.setattr(checks, "retract_geodesic", nan_retraction)
    assert main(["check", "geometry"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] feasibility  (max defect nan)" in out.splitlines()
    assert out.splitlines()[-1] == "0/3 checks passed"

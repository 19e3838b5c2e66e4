"""Seeded property suites behind the `check` subcommand.

Each check runs a fixed-seed randomized experiment against an independent
oracle (finite differences, exact identities, closed forms).  It raises
`CheckFailed` at its first violation and otherwise returns its detail, or
None.  Every condition is written as what must hold (`not err <= tol`), and
maxima are taken with np.max, so a NaN fails a check rather than passing it.
`run_suite` turns each check into a `CheckResult` named after its function.
The pytest suite reuses these so the CLI and the tests agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import stepsize as ss
from .manifold import (
    StiefelPoint,
    ortho_defect,
    project_tangent,
    random_frame,
    retract_geodesic,
    retract_qr,
)
from .objectives import (
    QuadraticTraceModel,
    grassmann_gradient,
    grassmann_hessian_qform,
    harmonic_lattice,
    random_symmetric,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class CheckFailed(Exception):
    """A check's first violation; its message is the result's detail."""


def _random_tangent(rng, u: np.ndarray) -> np.ndarray:
    return project_tangent(u, rng.standard_normal(u.shape))


def _at_most(label: str, values, tol: float) -> str:
    """`label` and the largest of `values`, which must not exceed `tol`."""
    worst = np.max(values)
    detail = f"{label} {worst:.2e}"
    if not worst <= tol:
        raise CheckFailed(detail)
    return detail


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------


def check_retraction_axioms() -> str:
    """retract(U, D, 0) = U exactly, and (retract(U, D, h) - U)/h -> D with
    O(h) error (first-order decay observed across h = 1e-3, 1e-4, 1e-5), for
    the QR and geodesic retractions."""
    rng = np.random.default_rng(100)
    gaps = []
    for retract in (retract_qr, retract_geodesic):
        for _ in range(20):
            u = random_frame(25, 4, rng).u
            d = _random_tangent(rng, u)
            if not np.array_equal(retract(u, d, 0.0), u):
                raise CheckFailed("value at t=0 not exact")
            errs = [np.linalg.norm((retract(u, d, h) - u) / h - d) for h in (1e-3, 1e-4, 1e-5)]
            ratios = [errs[0] / errs[1], errs[1] / errs[2]]
            gaps += [abs(r - 10.0) for r in ratios]
            if not all(r >= 5.0 for r in ratios):
                raise CheckFailed(f"FD error ratios {ratios} not ~10x")
    return f"max |ratio - 10| = {np.max(gaps):.2f}"


def check_feasibility() -> str:
    """1000 random retractions with t in [0, 10] keep ||U^T U - I|| <= 1e-10,
    and so do 500 QR retractions with t ||D|| in [0, 2]: Cholesky QR below
    t ||D|| = 1, the Householder fallback above."""
    rng = np.random.default_rng(101)
    defects = []
    for i in range(1500):
        u = random_frame(20, 3, rng).u
        d = _random_tangent(rng, u)
        if i < 1000:
            t = 10.0 * rng.random()
            retract = retract_qr if i % 2 == 0 else retract_geodesic
        else:
            t = 2.0 * rng.random() / np.linalg.norm(d)
            retract = retract_qr
        defects.append(ortho_defect(retract(u, d, t)))
    return _at_most("max defect", defects, 1e-10)


def check_second_order_defect() -> None:
    """||retract(U,D,t) - U - tD|| / (t ||D||) decreases monotonically over
    t = 1e-1, 1e-2, 1e-3 (the o(t ||D||) retraction defect)."""
    rng = np.random.default_rng(102)
    for retract in (retract_qr, retract_geodesic):
        for _ in range(50):
            u = random_frame(30, 4, rng).u
            d = _random_tangent(rng, u)
            defects = []
            for t in (1e-1, 1e-2, 1e-3):
                diff = retract(u, d, t) - u - t * d
                defects.append(np.linalg.norm(diff) / (t * np.linalg.norm(d)))
            if not (defects[0] > defects[1] > defects[2]):
                raise CheckFailed(f"defects not decreasing: {defects}")


# ---------------------------------------------------------------------------
# objectives suite
# ---------------------------------------------------------------------------


def _cases(seed: int, rounds: int):
    """(rng, model, n, p) for a dense quadratic and a lattice model in each
    of `rounds` rounds, drawn from one stream: the dense model's seed first."""
    rng = np.random.default_rng(seed)
    lattice = harmonic_lattice(32, length=8.0, gamma=1.5, well=1.0)
    for _ in range(rounds):
        quad = QuadraticTraceModel(random_symmetric(24, seed=int(rng.integers(1 << 30))))
        yield rng, quad, 24, 4
        yield rng, lattice, 32, 4


def check_orthogonal_invariance() -> None:
    """E(UP) = E(U) to 1e-10 and grad_G(UP) = grad_G(U) P to 1e-9 over 200
    random (model, U, P) triples."""
    for rng, model, n, p in _cases(200, 100):
        point = random_frame(n, p, rng)
        rot = random_frame(p, p, rng).u
        rotated = StiefelPoint(point.u @ rot)
        e0 = model.value(point.u)
        if not abs(model.value(rotated.u) - e0) <= 1e-10 * (1.0 + abs(e0)):
            raise CheckFailed("energy not invariant")
        g0 = grassmann_gradient(model, point).d
        g1 = grassmann_gradient(model, rotated).d
        if not np.linalg.norm(g1 - g0 @ rot) <= 1e-9 * (1.0 + np.linalg.norm(g0)):
            raise CheckFailed("gradient not equivariant")


def check_gradient_fd() -> None:
    """Central finite differences of E match <grad E, D> to 1e-6 relative
    (100 trials per model, step 1e-5)."""
    eps = 1e-5
    for rng, model, n, p in _cases(201, 100):
        u = rng.standard_normal((n, p))
        u /= np.linalg.norm(u)
        d = rng.standard_normal((n, p))
        d /= np.linalg.norm(d)
        exact = float(np.sum(model.euclidean_gradient(u) * d))
        fd = (model.value(u + eps * d) - model.value(u - eps * d)) / (2.0 * eps)
        if not abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)):
            raise CheckFailed(f"exact {exact} vs fd {fd}")


def check_gradient_tangency() -> str:
    """||U^T grad_G E(U)|| <= 1e-10."""
    norms = []
    for rng, model, n, p in _cases(202, 100):
        u = random_frame(n, p, rng).u
        norms.append(np.linalg.norm(u.T @ project_tangent(u, model.euclidean_gradient(u))))
    return _at_most("max", norms, 1e-10)


def check_evaluate_consistency() -> None:
    """evaluate(U) returns (value(U), euclidean_gradient(U)) bit-for-bit for
    both models, and so does evaluate(U, A U)."""
    for rng, model, n, p in _cases(206, 20):
        u = random_frame(n, p, rng).u
        for energy, egrad in (model.evaluate(u), model.evaluate(u, model.apply_operator(u))):
            if not energy == model.value(u):
                raise CheckFailed(f"n={n}: energy differs")
            if not np.array_equal(egrad, model.euclidean_gradient(u)):
                raise CheckFailed(f"n={n}: gradient differs")


def check_qform_consistency() -> str:
    """hessian_qform(U, D) is <D, hessian_apply(U, D)> to 1e-12 (1 + |value|),
    and hessian_qform(U, D, A D) has the bits of hessian_qform(U, D)."""
    gaps = []
    for rng, model, n, p in _cases(207, 50):
        u = random_frame(n, p, rng).u
        d = _random_tangent(rng, u)
        form = model.hessian_qform(u, d)
        action = float(np.sum(d * model.hessian_apply(u, d)))
        gaps.append(abs(form - action) / (1.0 + abs(form)))
        if not gaps[-1] <= 1e-12:
            raise CheckFailed(f"n={n}: {form} vs {action}")
        if not model.hessian_qform(u, d, model.apply_operator(d)) == form:
            raise CheckFailed(f"n={n}: supplied A D changes the form")
    return f"max relative gap {np.max(gaps):.1e}"


def check_hessian_symmetry() -> None:
    """<hess[D1], D2> = <hess[D2], D1> to 1e-9 relative."""
    for rng, model, n, p in _cases(203, 100):
        u = rng.standard_normal((n, p))
        d1 = rng.standard_normal((n, p))
        d2 = rng.standard_normal((n, p))
        lhs = float(np.sum(model.hessian_apply(u, d1) * d2))
        rhs = float(np.sum(model.hessian_apply(u, d2) * d1))
        if not abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs)):
            raise CheckFailed(f"{lhs} vs {rhs}")


def check_taylor_expansion() -> str:
    """Third-order Taylor remainder along the geodesic: the defect of the
    quadratic model drops ~1000x from t = 1e-1 to t = 1e-2.  A trial is weak
    unless it drops at least 100x or vanishes at t = 1e-2, to allow for
    cancellation noise; at most 1 trial in 20 may be weak."""
    weak = []
    for rng, model, n, p in _cases(204, 40):
        point = random_frame(n, p, rng)
        d = _random_tangent(rng, point.u)
        d = d / np.linalg.norm(d)  # a unit tangent
        e0 = model.value(point.u)
        g = float(np.sum(grassmann_gradient(model, point).d * d))
        hq = grassmann_hessian_qform(model, point.u, d)
        rems = []
        for t in (1e-1, 1e-2):
            et = model.value(retract_geodesic(point.u, d, t))
            rems.append(abs(et - e0 - t * g - 0.5 * t * t * hq))
        weak.append(not (rems[1] == 0 or rems[0] / rems[1] >= 100.0))
    detail = f"{sum(weak)}/{len(weak)} weak-decay trials"
    if not sum(weak) <= len(weak) // 20:
        raise CheckFailed(detail)
    return detail


def check_qform_fd() -> None:
    """Second finite difference of t -> E(exp(tD)) at 0 matches the Grassmann
    Hessian quadratic form to 1e-4 relative."""
    t = 1e-4
    for rng, model, n, p in _cases(205, 100):
        u = random_frame(n, p, rng).u
        d = _random_tangent(rng, u)
        d = d / np.linalg.norm(d)  # a unit tangent
        hq = grassmann_hessian_qform(model, u, d)
        e0 = model.value(u)
        ep = model.value(retract_geodesic(u, d, t))
        em = model.value(retract_geodesic(u, d, -t))
        fd = (ep - 2.0 * e0 + em) / (t * t)
        if not abs(fd - hq) <= 1e-4 * (1.0 + abs(hq)):
            raise CheckFailed(f"hq {hq} vs fd {fd}")


# ---------------------------------------------------------------------------
# stepsize suite
# ---------------------------------------------------------------------------


def _random_tuple(rng):
    e_minus_c = -(10.0 ** rng.uniform(-8, 1)) if rng.random() < 0.8 else 0.0
    g = -(10.0 ** rng.uniform(-4, 2))
    hq = (10.0 ** rng.uniform(-4, 3)) * (1.0 if rng.random() < 0.7 else -1.0)
    eta = 10.0 ** rng.uniform(-5, -0.5)
    theta = 10.0 ** rng.uniform(-2, 1)
    norm_d = 10.0 ** rng.uniform(-2, 2)
    return e_minus_c, g, hq, eta, theta, norm_d


def check_improve_step_acceptable() -> None:
    """improve_step is always acceptable: zeta(t) >= eta = 1e-4 within the
    trust radius."""
    rng = np.random.default_rng(301)
    for _ in range(1000):
        e_minus_c, g, hq, _, theta, norm_d = _random_tuple(rng)
        eta = 1e-4
        t = ss.improve_step(g, hq, theta, norm_d)
        zeta = ss.estimator_zeta(e_minus_c, 0.0, g, hq, t)
        if not (zeta >= eta and t * norm_d <= theta * (1.0 + 1e-12)):
            raise CheckFailed(f"zeta {zeta} at t {t}")


def check_nm_recursion() -> None:
    """Over update sequences with E_new below the running reference (what an
    accepted step guarantees): C >= last E, Q in [1, 1/(1-alpha)); with
    alpha = 0 the reference equals the last energy exactly."""
    rng = np.random.default_rng(302)
    for _ in range(200):
        alpha = rng.choice([0.0, 0.3, 0.85, 0.99])
        state = ss.initial_nm_state(float(alpha), float(rng.standard_normal()))
        for _ in range(50):
            # may exceed the previous energy (non-monotone) but stays under C
            e = state.c - abs(rng.standard_normal())
            state = ss.nm_update(state, float(e))
            if not state.c >= e - 1e-12 * max(1.0, abs(e)):
                raise CheckFailed(f"C {state.c} < E {e}")
            if not (1.0 <= state.q < 1.0 / (1.0 - alpha) + 1e-12):
                raise CheckFailed(f"Q {state.q} out of range")
            if alpha == 0.0 and not state.c == e:
                raise CheckFailed("alpha=0 not exact Armijo")


def check_bb_positivity() -> None:
    """BB steps are positive and finite whenever the denominators are."""
    rng = np.random.default_rng(303)
    for _ in range(500):
        s = rng.standard_normal((12, 3))
        y = rng.standard_normal((12, 3))
        for fn in (ss.bb_step_1, ss.bb_step_2):
            try:
                t = fn(s, y)
            except ss.DegenerateDenominator:
                continue
            if not (t > 0.0 and np.isfinite(t)):
                raise CheckFailed(f"step {t}")


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES: dict[str, list[Callable[[], Optional[str]]]] = {
    "geometry": [
        check_retraction_axioms,
        check_feasibility,
        check_second_order_defect,
    ],
    "objectives": [
        check_orthogonal_invariance,
        check_gradient_fd,
        check_gradient_tangency,
        check_evaluate_consistency,
        check_qform_consistency,
        check_hessian_symmetry,
        check_taylor_expansion,
        check_qform_fd,
    ],
    "stepsize": [
        check_improve_step_acceptable,
        check_nm_recursion,
        check_bb_positivity,
    ],
}


def run_suite(name: str) -> list[CheckResult]:
    """One result per check of suite `name` (or of every suite, "all"), named
    after its function without the `check_` prefix."""
    if name == "all":
        checks = [fn for suite in SUITES.values() for fn in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    results = []
    for fn in checks:
        try:
            passed, detail = True, fn() or ""
        except CheckFailed as exc:
            passed, detail = False, str(exc)
        results.append(CheckResult(fn.__name__.removeprefix("check_"), passed, detail))
    return results

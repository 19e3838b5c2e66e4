"""Seeded property suites behind the `check` subcommand.

Each check runs a fixed-seed randomized experiment against an independent
oracle (finite differences, exact identities, closed forms) and reports
pass/fail.  The pytest suite reuses these so the CLI and the tests agree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stepsize as ss
from .linalg import thin_qr
from .manifold import (
    StiefelPoint,
    ortho_defect,
    project_tangent,
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


def _random_point(rng, n, p) -> StiefelPoint:
    q, _ = thin_qr(rng.standard_normal((n, p)))
    return StiefelPoint(q)


def _random_tangent(rng, u: np.ndarray) -> np.ndarray:
    return project_tangent(u, rng.standard_normal(u.shape))


def _random_orthogonal(rng, p) -> np.ndarray:
    q, _ = thin_qr(rng.standard_normal((p, p)))
    return q


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------


def check_retraction_axioms() -> CheckResult:
    """retract(U, D, 0) = U exactly, and (retract(U, D, h) - U)/h -> D with
    O(h) error (first-order decay observed across h = 1e-3, 1e-4, 1e-5), for
    the QR and geodesic retractions."""
    rng = np.random.default_rng(100)
    worst = 0.0
    for retract in (retract_qr, retract_geodesic):
        for _ in range(20):
            u = _random_point(rng, 25, 4).u
            d = _random_tangent(rng, u)
            if not np.array_equal(retract(u, d, 0.0), u):
                return CheckResult("retraction_axioms", False, "value at t=0 not exact")
            errs = []
            for h in (1e-3, 1e-4, 1e-5):
                fd = (retract(u, d, h) - u) / h
                errs.append(np.linalg.norm(fd - d))
            ratios = [errs[i] / errs[i + 1] for i in range(2)]
            worst = max(worst, abs(ratios[0] - 10.0), abs(ratios[1] - 10.0))
            if any(r < 5.0 for r in ratios):
                return CheckResult(
                    "retraction_axioms", False, f"FD error ratios {ratios} not ~10x"
                )
    return CheckResult("retraction_axioms", True, f"max |ratio - 10| = {worst:.2f}")


def check_feasibility() -> CheckResult:
    """1000 random retractions with t in [0, 10] keep ||U^T U - I|| <= 1e-10,
    and so do 500 QR retractions with t ||D|| in [0, 2]: Cholesky QR below
    t ||D|| = 1, the Householder fallback above."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(1500):
        u = _random_point(rng, 20, 3).u
        d = _random_tangent(rng, u)
        if i < 1000:
            t = 10.0 * rng.random()
            retract = retract_qr if i % 2 == 0 else retract_geodesic
        else:
            t = 2.0 * rng.random() / np.linalg.norm(d)
            retract = retract_qr
        worst = max(worst, ortho_defect(retract(u, d, t)))
    return CheckResult("feasibility", worst <= 1e-10, f"max defect {worst:.2e}")


def check_second_order_defect() -> CheckResult:
    """||retract(U,D,t) - U - tD|| / (t ||D||) decreases monotonically over
    t = 1e-1, 1e-2, 1e-3 (the o(t ||D||) retraction defect)."""
    rng = np.random.default_rng(102)
    for retract in (retract_qr, retract_geodesic):
        for _ in range(50):
            u = _random_point(rng, 30, 4).u
            d = _random_tangent(rng, u)
            defects = []
            for t in (1e-1, 1e-2, 1e-3):
                diff = retract(u, d, t) - u - t * d
                defects.append(np.linalg.norm(diff) / (t * np.linalg.norm(d)))
            if not (defects[0] > defects[1] > defects[2]):
                return CheckResult(
                    "second_order_defect", False, f"defects not decreasing: {defects}"
                )
    return CheckResult("second_order_defect", True)


# ---------------------------------------------------------------------------
# objectives suite
# ---------------------------------------------------------------------------


def _models(rng):
    quad = QuadraticTraceModel(random_symmetric(24, seed=int(rng.integers(1 << 30))))
    lattice = harmonic_lattice(32, length=8.0, gamma=1.5, well=1.0)
    return [(quad, 24, 4), (lattice, 32, 4)]


def check_orthogonal_invariance() -> CheckResult:
    """E(UP) = E(U) to 1e-10 and grad_G(UP) = grad_G(U) P to 1e-9 over 200
    random (model, U, P) triples."""
    rng = np.random.default_rng(200)
    for _ in range(100):
        for model, n, p in _models(rng):
            point = _random_point(rng, n, p)
            rot = _random_orthogonal(rng, p)
            rotated = StiefelPoint(point.u @ rot)
            e0 = model.value(point.u)
            if abs(model.value(rotated.u) - e0) > 1e-10 * (1.0 + abs(e0)):
                return CheckResult("orthogonal_invariance", False, "energy not invariant")
            g0 = grassmann_gradient(model, point).d
            g1 = grassmann_gradient(model, rotated).d
            if np.linalg.norm(g1 - g0 @ rot) > 1e-9 * (1.0 + np.linalg.norm(g0)):
                return CheckResult(
                    "orthogonal_invariance", False, "gradient not equivariant"
                )
    return CheckResult("orthogonal_invariance", True)


def check_gradient_fd() -> CheckResult:
    """Central finite differences of E match <grad E, D> to 1e-6 relative
    (100 trials per model, step 1e-5)."""
    rng = np.random.default_rng(201)
    eps = 1e-5
    for _ in range(100):
        for model, n, p in _models(rng):
            u = rng.standard_normal((n, p))
            u /= np.linalg.norm(u)
            d = rng.standard_normal((n, p))
            d /= np.linalg.norm(d)
            exact = float(np.sum(model.euclidean_gradient(u) * d))
            fd = (model.value(u + eps * d) - model.value(u - eps * d)) / (2.0 * eps)
            if abs(exact - fd) > 1e-6 * (1.0 + abs(exact)):
                return CheckResult(
                    "gradient_fd", False, f"exact {exact} vs fd {fd}"
                )
    return CheckResult("gradient_fd", True)


def check_gradient_tangency() -> CheckResult:
    """||U^T grad_G E(U)|| <= 1e-10."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        for model, n, p in _models(rng):
            point = _random_point(rng, n, p)
            g = project_tangent(point.u, model.euclidean_gradient(point.u))
            worst = max(worst, np.linalg.norm(point.u.T @ g))
    return CheckResult("gradient_tangency", worst <= 1e-10, f"max {worst:.2e}")


def check_evaluate_consistency() -> CheckResult:
    """evaluate(U) returns (value(U), euclidean_gradient(U)) bit-for-bit for
    both models, and so does evaluate(U, A U)."""
    rng = np.random.default_rng(206)
    for _ in range(20):
        for model, n, p in _models(rng):
            u = _random_point(rng, n, p).u
            au = model.apply_operator(u)
            for energy, egrad in (model.evaluate(u), model.evaluate(u, au)):
                if energy != model.value(u):
                    return CheckResult(
                        "evaluate_consistency", False, f"n={n}: energy differs"
                    )
                if not np.array_equal(egrad, model.euclidean_gradient(u)):
                    return CheckResult(
                        "evaluate_consistency", False, f"n={n}: gradient differs"
                    )
    return CheckResult("evaluate_consistency", True)


def check_qform_consistency() -> CheckResult:
    """hessian_qform(U, D) is <D, hessian_apply(U, D)> to 1e-12 (1 + |value|),
    and hessian_qform(U, D, A D) has the bits of hessian_qform(U, D)."""
    rng = np.random.default_rng(207)
    worst = 0.0
    for _ in range(50):
        for model, n, p in _models(rng):
            u = _random_point(rng, n, p).u
            d = _random_tangent(rng, u)
            form = model.hessian_qform(u, d)
            action = float(np.sum(d * model.hessian_apply(u, d)))
            err = abs(form - action) / (1.0 + abs(form))
            worst = max(worst, err)
            if not err <= 1e-12:
                return CheckResult("qform_consistency", False, f"n={n}: {form} vs {action}")
            if model.hessian_qform(u, d, model.apply_operator(d)) != form:
                return CheckResult(
                    "qform_consistency", False, f"n={n}: supplied A D changes the form"
                )
    return CheckResult("qform_consistency", True, f"max relative gap {worst:.1e}")


def check_hessian_symmetry() -> CheckResult:
    """<hess[D1], D2> = <hess[D2], D1> to 1e-9 relative."""
    rng = np.random.default_rng(203)
    for _ in range(100):
        for model, n, p in _models(rng):
            u = rng.standard_normal((n, p))
            d1 = rng.standard_normal((n, p))
            d2 = rng.standard_normal((n, p))
            lhs = float(np.sum(model.hessian_apply(u, d1) * d2))
            rhs = float(np.sum(model.hessian_apply(u, d2) * d1))
            if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
                return CheckResult("hessian_symmetry", False, f"{lhs} vs {rhs}")
    return CheckResult("hessian_symmetry", True)


def check_taylor_expansion() -> CheckResult:
    """Third-order Taylor remainder along the geodesic: the defect of the
    quadratic model drops ~1000x from t = 1e-1 to t = 1e-2."""
    rng = np.random.default_rng(204)
    bad = 0
    trials = 0
    for _ in range(40):
        for model, n, p in _models(rng):
            point = _random_point(rng, n, p)
            d = _random_tangent(rng, point.u)
            d = d / np.linalg.norm(d)  # a unit tangent
            e0 = model.value(point.u)
            g = float(np.sum(grassmann_gradient(model, point).d * d))
            hq = grassmann_hessian_qform(model, point.u, d)
            rems = []
            for t in (1e-1, 1e-2):
                et = model.value(retract_geodesic(point.u, d, t))
                rems.append(abs(et - e0 - t * g - 0.5 * t * t * hq))
            trials += 1
            # ratio ~ 1000; allow slack for cancellation noise at 1e-2
            if rems[1] > 0 and rems[0] / rems[1] < 100.0:
                bad += 1
    ok = bad <= trials // 20
    return CheckResult("taylor_expansion", ok, f"{bad}/{trials} weak-decay trials")


def check_qform_fd() -> CheckResult:
    """Second finite difference of t -> E(exp(tD)) at 0 matches the Grassmann
    Hessian quadratic form to 1e-4 relative."""
    rng = np.random.default_rng(205)
    t = 1e-4
    for _ in range(100):
        for model, n, p in _models(rng):
            u = _random_point(rng, n, p).u
            d = _random_tangent(rng, u)
            d = d / np.linalg.norm(d)  # a unit tangent
            hq = grassmann_hessian_qform(model, u, d)
            e0 = model.value(u)
            ep = model.value(retract_geodesic(u, d, t))
            em = model.value(retract_geodesic(u, d, -t))
            fd = (ep - 2.0 * e0 + em) / (t * t)
            if abs(fd - hq) > 1e-4 * (1.0 + abs(hq)):
                return CheckResult("qform_fd", False, f"hq {hq} vs fd {fd}")
    return CheckResult("qform_fd", True)


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


def check_improve_step_acceptable() -> CheckResult:
    """improve_step is always acceptable: zeta(t) >= eta = 1e-4 within the
    trust radius."""
    rng = np.random.default_rng(301)
    for _ in range(1000):
        e_minus_c, g, hq, _, theta, norm_d = _random_tuple(rng)
        eta = 1e-4
        t = ss.improve_step(g, hq, theta, norm_d)
        zeta = ss.estimator_zeta(e_minus_c, 0.0, g, hq, t)
        if zeta < eta or t * norm_d > theta * (1.0 + 1e-12):
            return CheckResult(
                "improve_step_acceptable", False, f"zeta {zeta} at t {t}"
            )
    return CheckResult("improve_step_acceptable", True)


def check_nm_recursion() -> CheckResult:
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
            if state.c < e - 1e-12 * max(1.0, abs(e)):
                return CheckResult("nm_recursion", False, f"C {state.c} < E {e}")
            if not (1.0 <= state.q < 1.0 / (1.0 - alpha) + 1e-12):
                return CheckResult("nm_recursion", False, f"Q {state.q} out of range")
            if alpha == 0.0 and state.c != e:
                return CheckResult("nm_recursion", False, "alpha=0 not exact Armijo")
    return CheckResult("nm_recursion", True)


def check_bb_positivity() -> CheckResult:
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
                return CheckResult("bb_positivity", False, f"step {t}")
    return CheckResult("bb_positivity", True)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES: dict[str, list[Callable[[], CheckResult]]] = {
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
    if name == "all":
        checks = [fn for suite in SUITES.values() for fn in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [fn() for fn in checks]

"""Stiefel/Grassmann geometry: points, tangents, retractions.

A point is an n-by-p frame with orthonormal columns; the subspace it spans
is the Grassmann point.  Tangent vectors D satisfy U^T D = 0.  Two
retractions are provided: QR-based and the exact geodesic.

`StiefelPoint` and `TangentVector` are the typed frames of the public API:
their constructors check the invariant (U^T U = I, U^T D = 0) on a frozen
copy.  The kernels below work on plain n-by-p arrays and check neither
invariant; the frames the retractions compute are made read-only in place.
`solve` checks the orthonormality of its iterates at entry, at exact
refreshes and at exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ConvergenceFailure, RankDeficient, ShapeMismatch, svd_thin, thin_qr

ORTHO_TOL = 1e-10
# Largest |t| ||D||_F for which the QR retraction uses Cholesky QR.  For a
# tangent D, (U + t D)^T (U + t D) = I + t^2 D^T D, whose condition number is
# then at most 2, so the Cholesky factor is as accurate as Householder's R.
CHOLESKY_QR_MAX_STEP = 1.0


def ortho_defect(u: np.ndarray) -> float:
    """||U^T U - I||_F of a frame; NaN for a non-finite one."""
    return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StiefelPoint:
    """An n-by-p frame with orthonormal columns."""

    u: np.ndarray

    def __post_init__(self):
        u = _frozen(self.u)
        if u.ndim != 2 or u.shape[0] < u.shape[1]:
            raise ShapeMismatch(f"expected n >= p frame, got shape {u.shape}")
        defect = ortho_defect(u)
        if not defect <= ORTHO_TOL:  # NaN fails too
            raise ValueError(f"columns not orthonormal: defect {defect:.3e}")
        object.__setattr__(self, "u", u)

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape


@dataclass(frozen=True)
class TangentVector:
    """A direction D with base^T D = 0, attached to its base point."""

    d: np.ndarray
    base: StiefelPoint

    def __post_init__(self):
        d = _frozen(self.d)
        if d.shape != self.base.shape:
            raise ShapeMismatch(
                f"tangent shape {d.shape} != base shape {self.base.shape}"
            )
        drift = np.linalg.norm(self.base.u.T @ d)
        if not drift <= ORTHO_TOL * max(1.0, float(np.linalg.norm(d))):
            raise ValueError(f"not tangent at base: U^T D norm {drift:.3e}")
        object.__setattr__(self, "d", d)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.d))


def project_tangent(u: np.ndarray, g) -> np.ndarray:
    """Orthogonal projection of an ambient matrix onto the tangent space at
    the frame `u`."""
    gm = np.asarray(g, dtype=float)
    if gm.shape != u.shape:
        raise ShapeMismatch(f"shape {gm.shape} != frame shape {u.shape}")
    d = gm - u @ (u.T @ gm)
    # Project twice: one pass leaves U^T D at roundoff times ||G||, and the
    # geodesic retraction, which does not re-orthonormalize, needs U^T D = 0
    # to roundoff in D's own scale, or its frames drift off the manifold.
    return d - u @ (u.T @ d)


def retract_qr(u: np.ndarray, d: np.ndarray, t: float) -> np.ndarray:
    """QR retraction: the frame of retract_qr_factors, the Q factor of U + t D
    with a positive-diagonal R."""
    return retract_qr_factors(u, d, t)[0]


def retract_qr_factors(u: np.ndarray, d: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """QR retraction together with the inverse of its p-by-p factor:
    U + t D = U_new R, returned as (U_new, R^-1), U_new read-only.

    Up to |t| ||D||_F = CHOLESKY_QR_MAX_STEP this is a Cholesky QR: R is the
    transposed Cholesky factor of G = (U + t D)^T (U + t D) and
    U_new = (U + t D) R^-1, the same sign-fixed factors as Householder's up
    to roundoff.  Beyond it, Householder QR (thin_qr).  Raises
    ConvergenceFailure on non-finite input and RankDeficient when G is not
    positive definite.
    """
    if t == 0.0:
        return u, np.eye(u.shape[1])
    x = u + t * d
    if abs(t) * float(np.linalg.norm(d)) > CHOLESKY_QR_MAX_STEP:
        q, r = thin_qr(x)
        r_inv = np.linalg.inv(r)
    else:
        gram = x.T @ x
        if not np.isfinite(gram).all():
            raise ConvergenceFailure("non-finite input to the Cholesky QR retraction")
        try:
            r = np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(f"Cholesky QR retraction: {exc}") from exc
        r_inv = np.linalg.inv(r)
        q = x @ r_inv
    q.setflags(write=False)
    return q, r_inv


def retract_geodesic(u: np.ndarray, d: np.ndarray, t: float) -> np.ndarray:
    """Exponential-map retraction along the exact Grassmann geodesic
    (Edelman, Arias & Smith 1998); the new frame is read-only.  With
    D = A diag(s) B^T, the frame U B cos(s t) B^T + A sin(s t) B^T is formed
    as the update U + (U B (cos(s t) - I) + A sin(s t)) B^T, cos - 1 written
    as -2 sin^2(s t / 2).  Its rounding shrinks with t; the round trip U B B^T
    adds about eps ||U|| at any t, which can swamp a small trial's decrease."""
    if t == 0.0:
        return u
    a, s, qt = svd_thin(d)  # d = a @ diag(s) @ b.T
    b = qt.T
    st = s * t
    half = np.sin(0.5 * st)
    u_new = u + ((u @ b) * (-2.0 * half * half) + a * np.sin(st)) @ b.T
    u_new.setflags(write=False)
    return u_new

"""Stiefel/Grassmann geometry: points, tangents, retractions.

A point is an n-by-p frame with orthonormal columns; the subspace it spans
is the Grassmann point.  Tangent vectors D satisfy U^T D = 0.  Two
retractions are provided: QR-based and the exact geodesic.

The public constructors check their invariant (U^T U = I, U^T D = 0).  The
frames and tangents this module's kernels build from their own arithmetic
are frozen in place and checked for finiteness only; `solve` checks the
orthonormality of its iterates at entry, at exact refreshes and at exit.
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

    def __neg__(self) -> "TangentVector":
        return _trusted_tangent(-self.d, self.base)

    def scaled(self, c: float) -> "TangentVector":
        return _trusted_tangent(c * self.d, self.base)


def _freeze_fresh(a: np.ndarray, what: str) -> np.ndarray:
    """Make a float array that no one else holds read-only, without a copy."""
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite {what}")
    a.setflags(write=False)
    return a


def _trusted_point(u: np.ndarray) -> StiefelPoint:
    """A frame computed by a retraction from an orthonormal frame; U^T U is
    not recomputed."""
    point = object.__new__(StiefelPoint)
    object.__setattr__(point, "u", _freeze_fresh(u, "frame"))
    return point


def _trusted_tangent(d: np.ndarray, base: StiefelPoint) -> TangentVector:
    """A tangent computed from tangents or by projection at `base`; U^T D is
    not recomputed."""
    tangent = object.__new__(TangentVector)
    object.__setattr__(tangent, "d", _freeze_fresh(d, "tangent"))
    object.__setattr__(tangent, "base", base)
    return tangent


def project_tangent(point: StiefelPoint, g) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space."""
    gm = np.asarray(g, dtype=float)
    if gm.shape != point.shape:
        raise ShapeMismatch(f"shape {gm.shape} != point shape {point.shape}")
    d = gm - point.u @ (point.u.T @ gm)
    # kill first-order roundoff so the tangency invariant holds exactly
    d = d - point.u @ (point.u.T @ d)
    return _trusted_tangent(d, point)


def retract_qr(point: StiefelPoint, tangent: TangentVector, t: float) -> StiefelPoint:
    """QR retraction: the frame of retract_qr_factors, the Q factor of U + t D
    with a positive-diagonal R."""
    return retract_qr_factors(point, tangent, t)[0]


def retract_qr_factors(
    point: StiefelPoint, tangent: TangentVector, t: float
) -> tuple[StiefelPoint, np.ndarray]:
    """QR retraction together with the inverse of its p-by-p factor:
    U + t D = U_new R, returned as (U_new, R^-1).

    Up to |t| ||D||_F = CHOLESKY_QR_MAX_STEP this is a Cholesky QR: R is the
    transposed Cholesky factor of G = (U + t D)^T (U + t D) and
    U_new = (U + t D) R^-1, the same sign-fixed factors as Householder's up
    to roundoff.  Beyond it, Householder QR (thin_qr).  Raises
    ConvergenceFailure on non-finite input and RankDeficient when G is not
    positive definite.
    """
    if t == 0.0:
        return point, np.eye(point.shape[1])
    x = point.u + t * tangent.d
    if abs(t) * tangent.norm > CHOLESKY_QR_MAX_STEP:
        q, r = thin_qr(x)
        return _trusted_point(q), np.linalg.inv(r)
    gram = x.T @ x
    if not np.isfinite(gram).all():
        raise ConvergenceFailure("non-finite input to the Cholesky QR retraction")
    try:
        r = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"Cholesky QR retraction: {exc}") from exc
    r_inv = np.linalg.inv(r)
    return _trusted_point(x @ r_inv), r_inv


def retract_geodesic(
    point: StiefelPoint, tangent: TangentVector, t: float
) -> StiefelPoint:
    """Exponential-map retraction along the exact Grassmann geodesic."""
    if t == 0.0:
        return point
    a, s, qt = svd_thin(tangent.d)  # d = a @ diag(s) @ b.T
    b = qt.T
    st = s * t
    u_new = (point.u @ b) * np.cos(st) @ b.T + a * np.sin(st) @ b.T
    return _trusted_point(u_new)

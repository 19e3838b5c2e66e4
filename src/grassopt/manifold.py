"""Stiefel/Grassmann geometry: points, tangents, retractions.

A point is an n-by-p frame with orthonormal columns; the subspace it spans
is the Grassmann point.  Tangent vectors D satisfy U^T D = 0.  Two
retractions are provided: QR-based and the exact geodesic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeMismatch, svd_thin, thin_qr

ORTHO_TOL = 1e-10


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
        defect = np.linalg.norm(u.T @ u - np.eye(u.shape[1]))
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
        return TangentVector(-self.d, self.base)

    def scaled(self, c: float) -> "TangentVector":
        return TangentVector(c * self.d, self.base)


def project_tangent(point: StiefelPoint, g) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space."""
    gm = np.asarray(g, dtype=float)
    if gm.shape != point.shape:
        raise ShapeMismatch(f"shape {gm.shape} != point shape {point.shape}")
    d = gm - point.u @ (point.u.T @ gm)
    # kill first-order roundoff so the tangency invariant holds exactly
    d = d - point.u @ (point.u.T @ d)
    return TangentVector(d, point)


def retract_qr(point: StiefelPoint, tangent: TangentVector, t: float) -> StiefelPoint:
    """QR retraction: Q factor of U + t D (positive-diagonal convention)."""
    if t == 0.0:
        return point
    return retract_qr_factors(point, tangent, t)[0]


def retract_qr_factors(
    point: StiefelPoint, tangent: TangentVector, t: float
) -> tuple[StiefelPoint, np.ndarray]:
    """QR retraction together with its p-by-p factor: U + t D = U_new R."""
    q, r = thin_qr(point.u + t * tangent.d)
    return StiefelPoint(q), r


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
    return StiefelPoint(u_new)

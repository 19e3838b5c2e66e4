"""Stiefel/Grassmann geometry: points, tangents, retractions, transport.

A point is an n-by-p frame with orthonormal columns; the subspace it spans
is the Grassmann point.  Tangent vectors D satisfy U^T D = 0.  Two
retractions are provided (QR-based and the exact geodesic), together with
parallel transport along geodesics, principal angles between subspaces and
the two standard Grassmann distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeMismatch, svd_thin, thin_qr

ORTHO_TOL = 1e-10

# columns of the angle decomposition with sin(theta) below this are treated
# as zero-angle and filled by Gram-Schmidt instead of division
_SIN_FILL_TOL = 1e-6


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


@dataclass(frozen=True)
class PrincipalAngles:
    """Canonical angles between two subspaces and the aligned factors.

    theta is sorted descending in [0, pi/2].  a is the p-by-p left factor of
    the SVD of U^T W, a2 the n-by-p frame spanning the departing directions;
    b (the right factor) is kept for reconstruction.
    """

    theta: np.ndarray
    a: np.ndarray
    a2: np.ndarray
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))
        object.__setattr__(self, "a", _frozen(self.a))
        object.__setattr__(self, "a2", _frozen(self.a2))
        object.__setattr__(self, "b", _frozen(self.b))


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
    q, _ = thin_qr(point.u + t * tangent.d)
    return StiefelPoint(q)


def _direction_svd(tangent: TangentVector):
    a, s, qt = svd_thin(tangent.d)
    return a, s, qt.T  # d = a @ diag(s) @ b.T


def retract_geodesic(
    point: StiefelPoint, tangent: TangentVector, t: float
) -> StiefelPoint:
    """Exponential-map retraction along the exact Grassmann geodesic."""
    if t == 0.0:
        return point
    a, s, b = _direction_svd(tangent)
    st = s * t
    u_new = (point.u @ b) * np.cos(st) @ b.T + a * np.sin(st) @ b.T
    return StiefelPoint(u_new)


def parallel_transport(
    point: StiefelPoint, direction: TangentVector, t: float, vec: TangentVector
) -> TangentVector:
    """Isometric transport of `vec` along the geodesic through `direction`.

    The result is re-projected onto the tangent space at the endpoint to
    control roundoff drift over repeated transports.
    """
    a, s, b = _direction_svd(direction)
    st = s * t
    at_v = a.T @ vec.d
    moved = (-(point.u @ b) * np.sin(st) + a * np.cos(st)) @ at_v
    transported = moved + vec.d - a @ at_v
    endpoint = retract_geodesic(point, direction, t)
    return project_tangent(endpoint, transported)


def _fill_orthonormal(u: np.ndarray, cols: np.ndarray, idx: list[int]) -> None:
    """Fill cols[:, idx] with unit vectors orthogonal to span(u) and to the
    other columns, by Gram-Schmidt over the canonical basis (deterministic)."""
    n = u.shape[0]
    for i in idx:
        for k in range(n):
            cand = np.zeros(n)
            cand[k] = 1.0
            cand -= u @ (u.T @ cand)
            cand -= cols @ (cols.T @ cand)
            nrm = np.linalg.norm(cand)
            if nrm > 0.5:
                cols[:, i] = cand / nrm
                break
        else:  # pragma: no cover - needs n < 2p
            raise ValueError("no canonical vector orthogonal to the span")


def principal_angles(point: StiefelPoint, other: StiefelPoint) -> PrincipalAngles:
    """Canonical angles between span(point) and span(other).

    cos(theta) are the singular values of U^T W clamped into [0, 1]; theta
    comes out sorted descending.  Small angles are recovered from the sine
    factor W - U(U^T W) = A2 sin(Theta) B^T, which keeps full precision where
    arccos of a near-unit cosine would lose half the digits.
    """
    if point.shape != other.shape:
        raise ShapeMismatch(f"{point.shape} != {other.shape}")
    u, w = point.u, other.u
    m = u.T @ w
    a, c, bt = np.linalg.svd(m)
    # descending singular values = ascending angles; flip to descending theta
    a = a[:, ::-1].copy()
    b = bt.T[:, ::-1].copy()
    c = np.clip(c[::-1], 0.0, 1.0)

    residual = w - u @ m  # = a2 @ diag(sin theta) @ b.T
    sin_t = np.minimum(np.linalg.norm(residual @ b, axis=0), 1.0)
    theta = np.arctan2(sin_t, c)
    a2 = np.zeros_like(u)
    fill: list[int] = []
    for i in range(theta.size):
        if sin_t[i] > _SIN_FILL_TOL:
            a2[:, i] = (residual @ b[:, i]) / sin_t[i]
        else:
            fill.append(i)
    if fill:
        _fill_orthonormal(u, a2, fill)
    return PrincipalAngles(theta=theta, a=a, a2=a2, b=b)


def connecting_direction(point: StiefelPoint, angles: PrincipalAngles) -> TangentVector:
    """Initial velocity A2 @ diag(theta) @ A^T of the geodesic reaching the
    other subspace at t = 1."""
    d = angles.a2 * angles.theta @ angles.a.T
    return project_tangent(point, d)


def dist_cf(point: StiefelPoint, other: StiefelPoint) -> float:
    """Chordal Frobenius distance ||2 sin(theta/2)||."""
    theta = principal_angles(point, other).theta
    return float(np.linalg.norm(2.0 * np.sin(0.5 * theta)))


def dist_geo(point: StiefelPoint, other: StiefelPoint) -> float:
    """Geodesic (arc-length) distance ||theta||."""
    theta = principal_angles(point, other).theta
    return float(np.linalg.norm(theta))

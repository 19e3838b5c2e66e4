"""Orthogonally invariant energy functionals and their manifold calculus.

Models expose the ambient value / gradient / Hessian action on raw arrays
(so finite-difference probes may leave the manifold), plus a fused
`evaluate` that returns value and gradient from one pass and a scalar
`hessian_qform`; the Grassmann gradient and Hessian quadratic form are
assembled on top.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .linalg import ShapeMismatch, sym_eig
from .manifold import StiefelPoint, TangentVector, project_tangent


class EnergyModel(abc.ABC):
    """Smooth energy E(U) invariant under U -> U P for orthogonal P.

    `evaluate` returns (value(U), euclidean_gradient(U)); a model may fuse
    the two to share work, but must return exactly what they return.
    `hessian_qform` returns <D, hessian_apply(U, D)>; a model may form the
    scalar without the n-by-p Hessian action, but must agree with it to
    roundoff and return the same bits with or without a supplied A D.

    `solve` carries A U across QR retractions exactly when the model
    defines `apply_operator(x) -> A x`, and backtracking then applies A once
    per trial and no more.  A model that defines it accepts the products A U
    and A D as `value(u, au)`, `evaluate(u, au)` and `hessian_qform(u, d,
    ad)`, and returns the same bits with or without them; `hessian_apply(u,
    d)` forms its own A D.  The concrete `TraceDensityModel` is final, since
    its fused `evaluate` and its `apply_operator` would bypass a subclass's
    redefinitions; a variant delegates to it instead and, without
    `apply_operator`, is evaluated exactly.
    """

    # A x for the model's linear operator, or None if the model has none
    apply_operator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @abc.abstractmethod
    def value(self, u: np.ndarray) -> float: ...

    @abc.abstractmethod
    def euclidean_gradient(self, u: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def hessian_apply(self, u: np.ndarray, d: np.ndarray) -> np.ndarray: ...

    def evaluate(self, u: np.ndarray, au: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
        """(E(U), Euclidean gradient of E at U); `au` is ignored here."""
        return self.value(u), self.euclidean_gradient(u)

    def hessian_qform(
        self, u: np.ndarray, d: np.ndarray, ad: Optional[np.ndarray] = None
    ) -> float:
        """<D, Euclidean Hessian of E at U applied to D>, from `hessian_apply`;
        `ad` is ignored here."""
        return float(np.sum(d * self.hessian_apply(u, d)))


def _is_count(value) -> bool:
    """Whether `value` is an integer >= 1 (and not a bool)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class DirichletLaplacian:
    """The three-point Laplacian on `npts` interior grid points of mesh
    width h, with zero Dirichlet values beyond both ends:
    (A x)_r = (2 x_r - x_{r-1} - x_{r+1}) / h^2.

    It stores no matrix, so its product and its kinetic energy cost
    O(npts * p) time and memory for an npts-by-p block.
    """

    npts: int
    h: float

    def __post_init__(self):
        if not _is_count(self.npts):
            raise ValueError(f"npts must be an integer >= 1, got {self.npts!r}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"mesh width h must be finite and positive, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.npts, self.npts)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x: the differences first, the scale 1/h^2 last, so that A @ I
        has the bits of the dense matrix with 2/h^2 on its diagonal and
        -1/h^2 beside it."""
        if x.shape[0] != self.npts:
            raise ShapeMismatch(f"operator of size {self.npts} applied to shape {x.shape}")
        out = np.multiply(x, 2.0)
        out[1:] -= x[:-1]
        out[:-1] -= x[1:]
        out *= 1.0 / self.h**2
        return out

    def kinetic_energy(self, u: np.ndarray) -> float:
        """tr(U^T A U)/2 as ||dU||_F^2 / (2 h^2), where dU is the
        difference of U with the zero rows beyond its ends.  A sum of
        squares does not cancel; the sum of U * (A U) loses about four
        digits on a fine grid."""
        d = u[1:] - u[:-1]
        squares = np.vdot(d, d) + np.vdot(u[0], u[0]) + np.vdot(u[-1], u[-1])
        return 0.5 * (1.0 / self.h**2) * float(squares)


@dataclass(frozen=True, eq=False)
class TraceDensityModel(EnergyModel):
    """E(U) = tr(U^T A U)/2 + h * sum_r [V_r rho_r + (gamma/2) rho_r^2]
    for symmetric A, with the density rho_r = sum_i U_ri^2.

    A is a dense symmetric matrix or a `DirichletLaplacian`.  The trace
    term is computed from A U for a dense A, and from the differences of U
    for the Laplacian.  rho is invariant under U -> U P, so E is
    orthogonally invariant.  Without a potential V the density terms are
    absent: E is the trace term alone, minimized by the p lowest
    eigenvectors of A.  The class is final.
    """

    a: Union[np.ndarray, DirichletLaplacian]
    v: Optional[np.ndarray] = None
    h: float = 1.0
    gamma: float = 0.0

    def __init_subclass__(cls, **kwargs):
        raise TypeError("TraceDensityModel is final; delegate to it instead of subclassing")

    def __post_init__(self):
        stencil = isinstance(self.a, DirichletLaplacian)
        mat = self.a if stencil else np.asarray(self.a, dtype=float)
        if not stencil:
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ShapeMismatch(f"need a square matrix, got {mat.shape}")
            if not np.isfinite(mat).all():
                raise ValueError("matrix has non-finite entries")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"mesh width h must be finite and positive, got {self.h}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.v is not None:
            vec = np.array(self.v, dtype=float)  # a copy: it is frozen below
            if vec.shape != (mat.shape[0],):
                raise ShapeMismatch("potential length must match grid size")
            if not np.isfinite(vec).all():
                raise ValueError("potential has non-finite entries")
            vec.setflags(write=False)
            object.__setattr__(self, "v", vec)
        elif self.gamma != 0.0:
            raise ValueError("gamma needs a potential v")
        if stencil:
            return
        nrm = np.linalg.norm(mat)
        if nrm > 0 and np.linalg.norm(mat - mat.T) > 1e-10 * nrm:
            raise ValueError("matrix not symmetric within 1e-10 relative")
        mat = mat + mat.T
        mat *= 0.5
        mat.setflags(write=False)
        object.__setattr__(self, "a", mat)

    @property
    def npts(self) -> int:
        return self.a.shape[0]

    def density(self, u: np.ndarray) -> np.ndarray:
        return np.sum(u * u, axis=1)

    def value(self, u, au=None):
        return self._energy(u, au, self._rho(u))

    def euclidean_gradient(self, u):
        return self._gradient(u, self.a @ u, self._rho(u))

    def apply_operator(self, x):
        return self.a @ x

    def evaluate(self, u, au=None):
        if au is None:
            au = self.a @ u
        rho = self._rho(u)
        return self._energy(u, au, rho), self._gradient(u, au, rho)

    def _rho(self, u):
        """The density, or None for a model without the density terms."""
        return None if self.v is None else self.density(u)

    def _energy(self, u, au, rho):
        if isinstance(self.a, DirichletLaplacian):
            quad = self.a.kinetic_energy(u)
        else:
            if au is None:
                au = self.a @ u
            quad = 0.5 * float(np.sum(u * au))
        if rho is None:
            return quad
        ext = self.h * float(self.v @ rho)
        inter = 0.5 * self.gamma * self.h * float(rho @ rho)
        return quad + ext + inter

    def _gradient(self, u, au, rho):
        if rho is None:
            return au
        return (
            au
            + 2.0 * self.h * (self.v[:, None] * u)
            + 2.0 * self.gamma * self.h * (rho[:, None] * u)
        )

    def hessian_apply(self, u, d):
        ad = self.a @ d
        if self.v is None:
            return ad
        rho = self.density(u)
        sigma = np.sum(u * d, axis=1)
        return (
            ad
            + 2.0 * self.h * (self.v[:, None] * d)
            + 2.0 * self.gamma * self.h * (rho[:, None] * d + 2.0 * sigma[:, None] * u)
        )

    def hessian_qform(self, u, d, ad=None):
        """<D, A D> + 2h sum_r (V_r + gamma rho_r) |d_r|^2 + 4 gamma h sum_r sigma_r^2,
        with sigma_r = <u_r, d_r>: the density terms from row sums, with no
        n-by-p Hessian action.  Without V it is <D, A D>, with the bits of
        the default."""
        if ad is None:
            ad = self.a @ d
        quad = float(np.sum(d * ad))
        if self.v is None:
            return quad
        rho = np.einsum("ij,ij->i", u, u)
        sigma = np.einsum("ij,ij->i", u, d)
        dd = np.einsum("ij,ij->i", d, d)
        weighted = float((self.v + self.gamma * rho) @ dd)
        return quad + 2.0 * self.h * weighted + 4.0 * self.gamma * self.h * float(sigma @ sigma)


# The constructors of the trace-only and the lattice energies.
QuadraticTraceModel = NonlinearLatticeModel = TraceDensityModel


def harmonic_lattice(
    npts: int, length: float = 10.0, gamma: float = 1.0, well: float = 1.0
) -> TraceDensityModel:
    """Standard test instance: Dirichlet Laplacian on (0, L) plus a harmonic
    well centered at L/2 and interaction strength gamma."""
    if not 0.0 < length < math.inf:
        raise ValueError(f"lattice length must be finite and positive, got {length}")
    if not math.isfinite(well):
        raise ValueError(f"well depth must be finite, got {well}")
    if not _is_count(npts):  # before h divides by npts + 1
        raise ValueError(f"npts must be an integer >= 1, got {npts!r}")
    h = length / (npts + 1)
    x = h * np.arange(1, npts + 1)
    v = 0.5 * well * (x - 0.5 * length) ** 2
    return TraceDensityModel(a=DirichletLaplacian(npts, h), v=v, h=h, gamma=gamma)


def random_symmetric(n: int, seed: int) -> np.ndarray:
    """Seeded dense symmetric matrix with standard-normal entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def load_matrix(path) -> np.ndarray:
    """Read a dense square matrix: first line n, then n*n whitespace-separated
    entries, row-major."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = int(tokens[0]) if tokens[0].isdecimal() else 0
    if n < 1:
        raise ValueError(f"{path}: matrix size must be a positive integer, got {tokens[0]!r}")
    try:
        entries = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(entries) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, got {len(entries)}")
    return np.array(entries).reshape(n, n)


def grassmann_gradient(model: EnergyModel, point: StiefelPoint) -> TangentVector:
    """Tangent projection (I - U U^T) grad E(U), checked as a TangentVector."""
    return TangentVector(project_tangent(point.u, model.euclidean_gradient(point.u)), point)


def grassmann_hessian_qform(
    model: EnergyModel,
    u: np.ndarray,
    d: np.ndarray,
    egrad: Optional[np.ndarray] = None,
    ad: Optional[np.ndarray] = None,
) -> float:
    """Quadratic form <D, hess E(U)[D]> - tr(D^T D U^T grad E(U)) for a
    frame `u` and a tangent `d` at it.

    The first term is the model's `hessian_qform`, which by default is
    <D, hessian_apply(U, D)> and which `TraceDensityModel` forms from row
    sums.  `egrad` is the Euclidean gradient at `u` if the caller already
    has it; otherwise it is computed here.  `ad` is the product A D of a
    model with `apply_operator`, passed on to its `hessian_qform`.
    """
    if egrad is None:
        egrad = model.euclidean_gradient(u)
    curvature = model.hessian_qform(u, d, ad)
    correction = float(np.trace((d.T @ d) @ (u.T @ egrad)))
    return curvature - correction


def eigen_oracle(model: TraceDensityModel, p: int) -> tuple[float, StiefelPoint]:
    """Ground truth for a model without a potential: half the sum of the p
    smallest eigenvalues of A, and the corresponding eigenvector frame, for
    an integer 1 <= p <= n."""
    if model.v is not None:
        raise ValueError("eigen_oracle needs a model without a potential v")
    if not isinstance(model.a, np.ndarray):
        raise ValueError("eigen_oracle needs a dense matrix A, not an operator")
    n = model.a.shape[0]
    if not (_is_count(p) and p <= n):
        raise ValueError(f"p must be an integer in [1, {n}], got {p!r}")
    evals, evecs = sym_eig(model.a)
    energy = 0.5 * float(np.sum(evals[:p]))
    return energy, StiefelPoint(evecs[:, :p])

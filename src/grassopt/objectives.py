"""Orthogonally invariant energy functionals and their manifold calculus.

Models expose the ambient value / gradient / Hessian action on raw arrays
(so finite-difference probes may leave the manifold), plus a fused
`evaluate` that returns value and gradient from one pass; the Grassmann
gradient and Hessian quadratic form are assembled on top.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import ShapeMismatch, sym_eig
from .manifold import StiefelPoint, TangentVector, project_tangent

# redefining any of these drops a parent's apply_operator
_EXACT_METHODS = ("value", "euclidean_gradient", "hessian_apply", "evaluate")


class EnergyModel(abc.ABC):
    """Smooth energy E(U) invariant under U -> U P for orthogonal P.

    `evaluate` may be overridden to share work between the energy and the
    gradient; it must return exactly what `value` and `euclidean_gradient`
    return.  A subclass that redefines either of those without redefining
    `evaluate` falls back to the composed default, so a fused `evaluate`
    inherited from a parent never bypasses the subclass's definitions.

    A model whose energy is tr(U^T A U)/2 plus terms that need no product
    with A may define `apply_operator(x) -> A x`.  Its `evaluate(u, au)` and
    `hessian_apply(u, d, ad)` must then accept the products A U and A D in
    place of computing them, and return bit-for-bit what they return without
    them.  `solve` uses this to carry A U across QR retractions.  A subclass
    that redefines `value`, `euclidean_gradient`, `hessian_apply` or
    `evaluate` without redefining `apply_operator` loses it, so it is always
    evaluated through its own definitions.
    """

    # A x for the model's linear operator, or None if the model has none
    apply_operator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "evaluate" not in own and ("value" in own or "euclidean_gradient" in own):
            cls.evaluate = EnergyModel.evaluate
        if "apply_operator" not in own and not own.keys().isdisjoint(_EXACT_METHODS):
            cls.apply_operator = None

    @abc.abstractmethod
    def value(self, u: np.ndarray) -> float: ...

    @abc.abstractmethod
    def euclidean_gradient(self, u: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def hessian_apply(self, u: np.ndarray, d: np.ndarray) -> np.ndarray: ...

    def evaluate(self, u: np.ndarray, au: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
        """(E(U), Euclidean gradient of E at U); `au` is ignored here."""
        return self.value(u), self.euclidean_gradient(u)


@dataclass(frozen=True)
class QuadraticTraceModel(EnergyModel):
    """E(U) = tr(U^T A U)/2 for symmetric A; minimized by the p lowest
    eigenvectors of A."""

    a: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.a, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch(f"need a square matrix, got {mat.shape}")
        nrm = np.linalg.norm(mat)
        if nrm > 0 and np.linalg.norm(mat - mat.T) > 1e-10 * nrm:
            raise ValueError("matrix not symmetric within 1e-10 relative")
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        object.__setattr__(self, "a", mat)

    def value(self, u):
        return 0.5 * float(np.sum(u * (self.a @ u)))

    def euclidean_gradient(self, u):
        return self.a @ u

    def apply_operator(self, x):
        return self.a @ x

    def evaluate(self, u, au=None):
        if au is None:
            au = self.a @ u
        return 0.5 * float(np.sum(u * au)), au

    def hessian_apply(self, u, d, ad=None):
        return self.a @ d if ad is None else ad


@dataclass(frozen=True)
class NonlinearLatticeModel(EnergyModel):
    """1-D lattice energy with a density-dependent quartic term.

    E(U) = tr(U^T A U)/2 + h * sum_r V_r rho_r + (gamma h / 2) * sum_r rho_r^2
    with rho_r = sum_i U_ri^2.  rho is invariant under U -> U P, so E is
    orthogonally invariant.
    """

    a: np.ndarray
    v: np.ndarray
    h: float
    gamma: float

    def __post_init__(self):
        mat = np.asarray(self.a, dtype=float)
        vec = np.asarray(self.v, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch(f"need a square matrix, got {mat.shape}")
        if vec.shape != (mat.shape[0],):
            raise ShapeMismatch("potential length must match grid size")
        if self.h <= 0:
            raise ValueError("mesh width must be positive")
        if self.gamma < 0:
            raise ValueError("interaction strength must be nonnegative")
        nrm = np.linalg.norm(mat)
        if nrm > 0 and np.linalg.norm(mat - mat.T) > 1e-10 * nrm:
            raise ValueError("matrix not symmetric within 1e-10 relative")
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "a", mat)
        object.__setattr__(self, "v", vec)

    @property
    def npts(self) -> int:
        return self.a.shape[0]

    def density(self, u: np.ndarray) -> np.ndarray:
        return np.sum(u * u, axis=1)

    def value(self, u):
        return self._energy(u, self.a @ u, self.density(u))

    def euclidean_gradient(self, u):
        return self._gradient(u, self.a @ u, self.density(u))

    def apply_operator(self, x):
        return self.a @ x

    def evaluate(self, u, au=None):
        if au is None:
            au = self.a @ u
        rho = self.density(u)
        return self._energy(u, au, rho), self._gradient(u, au, rho)

    def _energy(self, u, au, rho):
        quad = 0.5 * float(np.sum(u * au))
        ext = self.h * float(self.v @ rho)
        inter = 0.5 * self.gamma * self.h * float(rho @ rho)
        return quad + ext + inter

    def _gradient(self, u, au, rho):
        return (
            au
            + 2.0 * self.h * (self.v[:, None] * u)
            + 2.0 * self.gamma * self.h * (rho[:, None] * u)
        )

    def hessian_apply(self, u, d, ad=None):
        rho = self.density(u)
        sigma = np.sum(u * d, axis=1)
        return (
            (self.a @ d if ad is None else ad)
            + 2.0 * self.h * (self.v[:, None] * d)
            + 2.0 * self.gamma * self.h * (rho[:, None] * d + 2.0 * sigma[:, None] * u)
        )


def harmonic_lattice(
    npts: int, length: float = 10.0, gamma: float = 1.0, well: float = 1.0
) -> NonlinearLatticeModel:
    """Standard test instance: Dirichlet Laplacian on (0, L) plus a harmonic
    well centered at L/2 and interaction strength gamma."""
    h = length / (npts + 1)
    x = h * np.arange(1, npts + 1)
    lap = (
        np.diag(np.full(npts, 2.0))
        - np.diag(np.ones(npts - 1), 1)
        - np.diag(np.ones(npts - 1), -1)
    ) / h**2
    v = 0.5 * well * (x - 0.5 * length) ** 2
    return NonlinearLatticeModel(a=lap, v=v, h=h, gamma=gamma)


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
    n = int(tokens[0])
    entries = [float(t) for t in tokens[1:]]
    if len(entries) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, got {len(entries)}")
    return np.array(entries).reshape(n, n)


def grassmann_gradient(model: EnergyModel, point: StiefelPoint) -> TangentVector:
    """Tangent projection (I - U U^T) grad E(U)."""
    return project_tangent(point, model.euclidean_gradient(point.u))


def grassmann_hessian_qform(
    model: EnergyModel,
    point: StiefelPoint,
    tangent: TangentVector,
    egrad: Optional[np.ndarray] = None,
    ad: Optional[np.ndarray] = None,
) -> float:
    """Quadratic form <D, hess E(U)[D]> - tr(D^T D U^T grad E(U)).

    `egrad` is the Euclidean gradient at `point` if the caller already has
    it; otherwise it is computed here.  `ad` is the product A D of a model
    with `apply_operator`, passed on to its `hessian_apply`.
    """
    u, d = point.u, tangent.d
    if egrad is None:
        egrad = model.euclidean_gradient(u)
    hd = model.hessian_apply(u, d) if ad is None else model.hessian_apply(u, d, ad)
    curvature = float(np.sum(d * hd))
    correction = float(np.trace((d.T @ d) @ (u.T @ egrad)))
    return curvature - correction


def eigen_oracle(model: QuadraticTraceModel, p: int) -> tuple[float, StiefelPoint]:
    """Ground truth for the quadratic model: half the sum of the p smallest
    eigenvalues, and the corresponding eigenvector frame."""
    evals, evecs = sym_eig(model.a)
    energy = 0.5 * float(np.sum(evals[:p]))
    return energy, StiefelPoint(evecs[:, :p])

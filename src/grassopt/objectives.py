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

from .linalg import ConvergenceFailure, ShapeMismatch
from .manifold import StiefelPoint, TangentVector, project_tangent

# Above this many multiply-adds n*n*p, a dense A X with p >= 2 columns is
# formed as (X^T A)^T, whose packing OpenBLAS runs faster for a thin X: about
# 20% at n = 1000, p = 20, same bits (OpenBLAS 0.3.31, SkylakeX, one thread).
# At or below it, A X runs OpenBLAS's small-matrix kernel, faster there
# (dgemm_small_kernel_permit: M*N*K <= 100^3).
TRANSPOSED_GEMM_MIN_WORK = 10**6


class EnergyModel(abc.ABC):
    """Smooth energy E(U) invariant under U -> U P for orthogonal P.

    `evaluate` returns (value(U), euclidean_gradient(U)); a model may fuse
    the two to share work, but must return exactly what they return.
    `hessian_qform` returns <D, hessian_apply(U, D)>; a model may form the
    scalar without the n-by-p Hessian action, but must agree with it to
    roundoff.

    `solve` hands a model a product only when it has one: on the carried
    path (adaptive step, QR retraction, a model that defines
    `apply_operator(x) -> A x`) it calls `evaluate(u, au)` with A U and
    `hessian_qform(u, d, ad)` with A D, and the model must return the bits
    it returns without them (by construction if it forms every product by
    `apply_operator`).  Every other call passes the frame, and the
    direction, alone.  The concrete `TraceDensityModel` is final, since its
    fused `evaluate` and its `apply_operator` would bypass a subclass's
    redefinitions; a variant delegates to it instead and, without
    `apply_operator`, is evaluated exactly.

    A read-only frame handed to a model does not change afterwards, so a
    model may keep what it formed from it.
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
        return float((d * self.hessian_apply(u, d)).sum())


def _is_count(value) -> bool:
    """Whether `value` is an integer >= 1 (and not a bool)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


def _float64(convert, x, name: str) -> np.ndarray:
    """convert(x, dtype=float), raising ValueError on complex entries, whose
    imaginary parts the cast would drop, and on an entry beyond the float64
    range rather than casting it to inf.  Only a cast can overflow, so a
    float64 array is checked by no pass of its own.  An object array's
    entries are typed again as a list's would be, so a complex one is seen."""
    if getattr(x, "dtype", None) == object:
        x = x.tolist()
    if np.iscomplexobj(x):
        raise ValueError(f"{name} has complex entries")
    try:
        with np.errstate(over="raise"):
            return convert(x, dtype=float)
    except (FloatingPointError, OverflowError):
        raise ValueError(f"{name} has entries beyond the float64 range") from None


def _check_height(n: int, x: np.ndarray) -> None:
    """Raise ShapeMismatch unless `x` has the operator's `n` rows."""
    if x.shape[:1] != (n,):
        raise ShapeMismatch(f"operator of size {n} applied to shape {x.shape}")


@dataclass(frozen=True)
class DirichletLaplacian:
    """The three-point Laplacian on `npts` interior grid points of mesh
    width h, with zero Dirichlet values beyond both ends:
    (A x)_r = (2 x_r - x_{r-1} - x_{r+1}) / h^2.

    It stores no matrix, so its product and its trace energy cost
    O(npts * p) time and memory for an npts-by-p block.
    """

    npts: int
    h: float

    def __post_init__(self):
        if not _is_count(self.npts):
            raise ValueError(f"npts must be an integer >= 1, got {self.npts!r}")
        with np.errstate(all="ignore"):  # the products scale by 1/h^2, which may be 0 or inf
            scale = 1.0 / np.float64(self.h) ** 2
        if not (self.h > 0.0 and 0.0 < scale < math.inf):
            raise ValueError(f"mesh width h must be positive with 0 < 1/h^2 < inf, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.npts, self.npts)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x: the differences first, the scale 1/h^2 last, so that A @ I
        has the bits of the dense matrix with 2/h^2 on its diagonal and
        -1/h^2 beside it."""
        _check_height(self.npts, x)
        out = np.multiply(x, 2.0)
        out[1:] -= x[:-1]
        out[:-1] -= x[1:]
        out *= 1.0 / self.h**2
        return out

    def trace_energy(self, u: np.ndarray, product=None) -> float:
        """tr(U^T A U)/2 as ||dU||_F^2 / (2 h^2), where dU is the
        difference of U with the zero rows beyond its ends; `product` is
        not called.  A sum of squares does not cancel; the sum of U * (A U)
        loses about four digits on a fine grid."""
        _check_height(self.npts, u)
        d = u[1:] - u[:-1]
        squares = np.vdot(d, d) + np.vdot(u[0], u[0]) + np.vdot(u[-1], u[-1])
        return 0.5 * (1.0 / self.h**2) * float(squares)


SYM_TOL = 1e-10  # the relative asymmetry ||A - A^T||_F / ||A||_F accepted as roundoff


def symmetrized(mat: np.ndarray) -> Optional[np.ndarray]:
    """The symmetric matrix a finite square `mat` stands for, or None.

    That is `mat` itself, not a copy, if it equals its transpose, and else
    A/2 + A^T/2 if ||A - A^T||_F <= SYM_TOL ||A||_F (None beyond).  The
    norms are taken of A / max|a_ij|, whose entries lie in [-1, 1], and
    A/2 + A^T/2 lies within the range of A, so neither the test nor the
    result overflows on a finite A.  On entries of normal range A/2 + A^T/2
    has the bits of (A + A^T)/2.
    """
    if np.array_equal(mat, mat.T):
        return mat
    unit = mat / max(mat.max(), -mat.min())  # not 0, as mat is not symmetric
    if np.linalg.norm(unit - unit.T) > SYM_TOL * np.linalg.norm(unit):
        return None
    sym = np.multiply(mat, 0.5, order="C")
    sym += 0.5 * mat.T
    return sym


class DenseSymmetric:
    """A dense symmetric matrix, `mat`, as an operator.

    The constructor takes a non-empty square matrix of finite real entries
    within SYM_TOL of symmetric, and keeps one read-only copy of the
    symmetric matrix it stands for (`symmetrized`), never again checked.
    """

    def __init__(self, mat):
        mat = _float64(np.asarray, mat, "matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ShapeMismatch(f"need a non-empty square matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix has non-finite entries")
        sym = symmetrized(mat)
        if sym is None:
            raise ValueError(f"matrix not symmetric within {SYM_TOL:g} relative")
        self.mat = mat.copy() if sym is mat else sym  # the operator owns its matrix
        self.mat.setflags(write=False)
        self.shape = self.mat.shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x; a block of p >= 2 columns with n n p above
        TRANSPOSED_GEMM_MIN_WORK as (x^T A)^T, A being symmetric."""
        mat = self.mat
        _check_height(mat.shape[0], x)
        if x.ndim == 2 and x.shape[1] > 1 and mat.size * x.shape[1] > TRANSPOSED_GEMM_MIN_WORK:
            return np.ascontiguousarray((x.T @ mat).T)
        return mat @ x

    def trace_energy(self, u: np.ndarray, product) -> float:
        """tr(U^T A U)/2 as the sum of U * (A U), A U being `product()`."""
        return 0.5 * float((u * product()).sum())


@dataclass(frozen=True, eq=False)
class TraceDensityModel(EnergyModel):
    """E(U) = tr(U^T A U)/2 + h * sum_r [V_r rho_r + (gamma/2) rho_r^2]
    for symmetric A, with the density rho_r = sum_i U_ri^2.

    A is an operator: an object with `shape`, the product `A @ x` and
    `trace_energy(u, product)`, tr(U^T A U)/2, where `product()` returns
    the frame record's A U.  `DenseSymmetric` and `DirichletLaplacian` are
    the two; the constructor keeps one as it is and takes any other `a` as
    the matrix of a `DenseSymmetric`.  rho is invariant under U -> U P, so
    E is orthogonally invariant.  Without a potential V the density terms are
    absent: E is the trace term alone, minimized by the p lowest
    eigenvectors of A.  The class is final.

    The model keeps one record of what it formed for the last read-only
    frame it saw: rho, the weight w = 2h (V + gamma rho), the exact A U and
    the energy.  Only the same array object, still read-only, is served
    from it, so a read-only frame forms each at most once: A U on a dense
    A once per backtracking trial, whose energy needs it, and on the
    stencil once per accepted frame, for its gradient.  The A U handed to
    `evaluate` goes into a record of its own, which is never kept; a
    writable frame is never kept either.  `apply_operator` forms every
    product with A: the record's A U and the A D of `hessian_apply` and
    `hessian_qform`.
    """

    a: Union[DenseSymmetric, DirichletLaplacian]
    v: Optional[np.ndarray] = None
    h: float = 1.0
    gamma: float = 0.0

    def __init_subclass__(cls, **kwargs):
        raise TypeError("TraceDensityModel is final; delegate to it instead of subclassing")

    def __post_init__(self):
        if not isinstance(self.a, (DenseSymmetric, DirichletLaplacian)):
            object.__setattr__(self, "a", DenseSymmetric(self.a))
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"mesh width h must be finite and positive, got {self.h}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.v is not None:
            vec = _float64(np.array, self.v, "potential")  # a copy: it is frozen below
            if vec.shape != (self.a.shape[0],):
                raise ShapeMismatch("potential length must match grid size")
            if not np.isfinite(vec).all():
                raise ValueError("potential has non-finite entries")
            vec.setflags(write=False)
            object.__setattr__(self, "v", vec)
        elif self.gamma != 0.0:
            raise ValueError("gamma needs a potential v")

    @property
    def npts(self) -> int:
        return self.a.shape[0]

    def density(self, u: np.ndarray) -> np.ndarray:
        """rho_r = sum_i U_ri^2, read-only; formed once per read-only frame."""
        formed = self._formed(u)
        if "rho" not in formed:
            rho = formed["rho"] = np.einsum("ij,ij->i", u, u)
            rho.setflags(write=False)
        return formed["rho"]

    def value(self, u):
        return self._energy(u, self._formed(u), self._rho(u))

    def euclidean_gradient(self, u):
        return self._gradient(u, self._product(u, self._formed(u)))

    def apply_operator(self, x):
        """A x, in the operator's own form."""
        return self.a @ x

    def evaluate(self, u, au=None):
        formed = self._formed(u) if au is None else {"au": au}  # a handed product's, not kept
        return self._energy(u, formed, self._rho(u)), self._gradient(u, self._product(u, formed))

    _last = (None, None)  # (read-only frame, its record); not a dataclass field

    def _formed(self, u):
        """The record of what was formed for the frame `u`: the held one if it
        is of `u` and `u` is still read-only, or a new one, held if `u` is
        read-only."""
        frame, formed = self._last
        if u is frame and not u.flags.writeable:
            return formed
        formed = {}
        if not u.flags.writeable:
            object.__setattr__(self, "_last", (u, formed))
        return formed

    def _product(self, u, formed):
        """A U from the record `formed` of the frame `u`, formed there once,
        read-only."""
        if "au" not in formed:
            au = formed["au"] = self.apply_operator(u)
            au.setflags(write=False)
        return formed["au"]

    def _rho(self, u):
        """The density, or None for a model without the density terms."""
        return None if self.v is None else self.density(u)

    def _weight(self, u):
        """w_r = 2h (V_r + gamma rho_r), which scales the rows of U in the
        gradient and of D in the Hessian action, read-only; formed once per
        read-only frame, for a model with a potential."""
        formed = self._formed(u)
        if "w" not in formed:
            w = formed["w"] = (2.0 * self.h) * (self.v + self.gamma * self.density(u))
            w.setflags(write=False)
        return formed["w"]

    def _energy(self, u, formed, rho):
        """E(U) with the density `rho`, formed once for the record `formed` of
        the frame `u`; the operator's trace energy reads the record's A U if
        it needs one."""
        if "energy" not in formed:
            energy = self.a.trace_energy(u, lambda: self._product(u, formed))
            if rho is not None:
                ext = self.h * float(self.v @ rho)
                inter = 0.5 * self.gamma * self.h * float(rho @ rho)
                energy = energy + ext + inter
            formed["energy"] = energy
        return formed["energy"]

    def _gradient(self, u, au):
        if self.v is None:
            return au
        return au + self._weight(u)[:, None] * u

    def hessian_apply(self, u, d):
        ad = self.apply_operator(d)
        if self.v is None:
            return ad
        sigma = np.einsum("ij,ij->i", u, d)
        scale = 4.0 * self.gamma * self.h
        return ad + self._weight(u)[:, None] * d + scale * (sigma[:, None] * u)

    def hessian_qform(self, u, d, ad=None):
        """<D, A D> + sum_r w_r |d_r|^2 + 4 gamma h sum_r sigma_r^2, with the
        weight w and sigma_r = <u_r, d_r>: the density terms from row sums,
        with no n-by-p Hessian action.  Without V it is <D, A D>, with the
        bits of the default."""
        if ad is None:
            ad = self.apply_operator(d)
        quad = float((d * ad).sum())
        if self.v is None:
            return quad
        sigma = np.einsum("ij,ij->i", u, d)
        dd = np.einsum("ij,ij->i", d, d)
        interaction = 4.0 * self.gamma * self.h * float(sigma @ sigma)
        return quad + float(self._weight(u) @ dd) + interaction


# The constructor of the trace-only energy.
QuadraticTraceModel = TraceDensityModel


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
    with np.errstate(all="ignore"):  # an overflow (or 0 * inf) is named by the checks below
        v = 0.5 * well * (x - 0.5 * length) ** 2
    return TraceDensityModel(a=DirichletLaplacian(npts, h), v=v, h=h, gamma=gamma)


def random_symmetric(n: int, seed: int) -> np.ndarray:
    """Seeded dense symmetric matrix with standard-normal entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    s = g + g.T
    s *= 0.5
    return s


def load_matrix(path) -> np.ndarray:
    """Read a dense square matrix: first line n, then n*n whitespace-separated
    entries, row-major.  An entry that reads as +-inf without being an inf
    literal, such as 1e400, is named as beyond the float64 range."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = int(tokens[0]) if tokens[0].isdecimal() else 0
    if n < 1:
        raise ValueError(f"{path}: matrix size must be a positive integer, got {tokens[0]!r}")
    try:
        entries = np.array([float(t) for t in tokens[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for k in np.flatnonzero(np.isinf(entries)):
        token = tokens[1 + k]
        if token.lstrip("+-").lower() not in ("inf", "infinity"):
            raise ValueError(f"{path}: entry {k + 1} ({token!r}) is beyond the float64 range")
    if len(entries) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, got {len(entries)}")
    return entries.reshape(n, n)


def grassmann_gradient(model: EnergyModel, point: StiefelPoint) -> TangentVector:
    """Tangent projection (I - U U^T) grad E(U), checked as a TangentVector."""
    return TangentVector(project_tangent(point.u, model.euclidean_gradient(point.u)), point)


def grassmann_hessian_qform(
    model: EnergyModel,
    u: np.ndarray,
    d: np.ndarray,
    ug: Optional[np.ndarray] = None,
    ad: Optional[np.ndarray] = None,
) -> float:
    """Quadratic form <D, hess E(U)[D]> - tr(D^T D U^T grad E(U)) for a
    frame `u` and a tangent `d` at it.

    The first term is the model's `hessian_qform`, which by default is
    <D, hessian_apply(U, D)> and which `TraceDensityModel` forms from row
    sums.  `ug` is the p-by-p product U^T grad E(U) if the caller already
    has it, as `solve` does from its tangent projection; otherwise it is
    computed here.  `ad` is the product A D of a model with
    `apply_operator`, passed on to its `hessian_qform` only when given.
    """
    if ug is None:
        ug = u.T @ model.euclidean_gradient(u)
    curvature = model.hessian_qform(u, d) if ad is None else model.hessian_qform(u, d, ad)
    correction = float(((d.T @ d) @ ug).trace())
    return curvature - correction


def eigen_oracle(model: TraceDensityModel, p: int) -> tuple[float, StiefelPoint]:
    """Ground truth for a model without a potential: half the sum of the p
    smallest eigenvalues of A, and the corresponding eigenvector frame, for
    an integer 1 <= p <= n.

    `DenseSymmetric` made its matrix `model.a.mat` finite and exactly
    symmetric, so it is eigensolved as the operator holds it, with no check
    and no copy; a failed eigensolve raises ConvergenceFailure.
    """
    if not isinstance(model, TraceDensityModel):
        raise TypeError(f"eigen_oracle needs a TraceDensityModel, got {type(model).__name__}")
    if model.v is not None:
        raise ValueError("eigen_oracle needs a model without a potential v")
    mat = getattr(model.a, "mat", None)
    if mat is None:
        raise ValueError("eigen_oracle needs a dense matrix A, not an operator")
    n = mat.shape[0]
    if not (_is_count(p) and p <= n):
        raise ValueError(f"p must be an integer in [1, {n}], got {p!r}")
    try:
        evals, evecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    with np.errstate(over="raise"):  # an energy beyond float64 raises FloatingPointError
        energy = float(np.sum(0.5 * evals[:p]))
    return energy, StiefelPoint(evecs[:, :p])

"""Dense factorization kernels with pinned numerical contracts.

Thin wrappers over LAPACK (via numpy) that fix the conventions the rest of
the package relies on: sign-fixed QR, descending singular values, ascending
eigenvalues.  All functions are pure and operate on float64 arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

RANK_TOL = 1e-12
SYM_TOL = 1e-10  # the relative asymmetry ||A - A^T||_F / ||A||_F accepted as roundoff


class LinalgError(Exception):
    """Base class for numerical kernel failures."""


class RankDeficient(LinalgError):
    """Input matrix does not have full column rank."""


class ConvergenceFailure(LinalgError):
    """The backend iterative factorization failed to converge."""


class ShapeMismatch(LinalgError):
    """Operand shapes are incompatible."""


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {a.shape}")
    return a


def thin_qr(m) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a positive-diagonal R.

    The sign fix makes the factorization unique (hence deterministic) for a
    full-column-rank input.  Raises RankDeficient when the smallest singular
    value falls below RANK_TOL times the largest (read off the p-by-p R,
    whose singular values are the input's), and ConvergenceFailure on
    non-finite input.
    """
    a = _as_matrix(m)
    n, p = a.shape
    if n < p:
        raise ShapeMismatch(f"thin_qr needs n >= p, got {n}x{p}")
    if not np.isfinite(a).all():
        raise ConvergenceFailure("non-finite input to thin_qr")
    q, r = np.linalg.qr(a, mode="reduced")
    try:
        sv = np.linalg.svd(r, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if p > 0 and sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficient(
            f"smallest singular value {sv[-1]:.3e} below {RANK_TOL:g} * {sv[0]:.3e}"
        )
    signs = np.sign(np.diag(r)).copy()
    signs[signs == 0] = 1.0
    return q * signs, r * signs[:, None]


def svd_thin(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``m = p_mat @ diag(s) @ qt`` with s sorted descending."""
    a = _as_matrix(m)
    try:
        p_mat, s, qt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return p_mat, s, qt


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


def eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a finite, exactly symmetric matrix, eigenvalues
    ascending; the matrix is taken as it is, with no check."""
    try:
        evals, evecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return evals, evecs


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition, eigenvalues ascending.

    An input equal to its transpose is solved as it is, with no copy; any
    other is symmetrized as A/2 + A^T/2 (see `symmetrized`), and one whose
    relative asymmetry exceeds SYM_TOL is rejected.  A non-finite input
    raises ConvergenceFailure.
    """
    mat = _as_matrix(a)
    n, m = mat.shape
    if n != m:
        raise ShapeMismatch(f"sym_eig needs a square matrix, got {n}x{m}")
    if not np.isfinite(mat).all():
        raise ConvergenceFailure("non-finite input to sym_eig")
    sym = symmetrized(mat)
    if sym is None:
        raise ShapeMismatch(f"matrix is not symmetric within {SYM_TOL:g} relative")
    return eigh(sym)

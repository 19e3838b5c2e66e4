"""Dense factorization kernels with pinned numerical contracts.

Thin wrappers over LAPACK (via numpy) that fix the conventions the rest of
the package relies on: sign-fixed QR, descending singular values, ascending
eigenvalues.  All functions are pure and operate on float64 arrays.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-12


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
    q, r = np.linalg.qr(a, mode="reduced")
    try:
        sv = np.linalg.svd(r, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if not np.isfinite(sv).all():
        raise ConvergenceFailure("non-finite input to thin_qr")
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


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition, eigenvalues ascending.

    The input is symmetrized as (A + A^T)/2; a relative asymmetry beyond
    1e-10 is rejected.
    """
    mat = _as_matrix(a)
    n, m = mat.shape
    if n != m:
        raise ShapeMismatch(f"sym_eig needs a square matrix, got {n}x{m}")
    nrm = np.linalg.norm(mat)
    if nrm > 0 and np.linalg.norm(mat - mat.T) > 1e-10 * nrm:
        raise ShapeMismatch("matrix is not symmetric within 1e-10 relative")
    sym = 0.5 * (mat + mat.T)
    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return evals, evecs

import numpy as np
import numpy.testing as npt
import pytest

from grassopt import (
    ConvergenceFailure,
    RankDeficient,
    ShapeMismatch,
    svd_thin,
    sym_eig,
    thin_qr,
)


class TestThinQR:
    def test_identity(self):
        q, r = thin_qr(np.eye(3))
        npt.assert_array_equal(q, np.eye(3))
        npt.assert_array_equal(r, np.eye(3))

    def test_scaled_identity_positive_diagonal(self):
        q, r = thin_qr(2.0 * np.eye(2))
        npt.assert_allclose(q, np.eye(2), atol=1e-15)
        npt.assert_allclose(r, 2.0 * np.eye(2), atol=1e-15)

    def test_random_reconstruction(self):
        m = np.random.default_rng(42).standard_normal((50, 5))
        q, r = thin_qr(m)
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)
        npt.assert_array_equal(r, np.triu(r))
        assert np.all(np.diag(r) > 0)

    def test_deterministic(self):
        m = np.random.default_rng(3).standard_normal((20, 4))
        q1, r1 = thin_qr(m)
        q2, r2 = thin_qr(m)
        npt.assert_array_equal(q1, q2)
        npt.assert_array_equal(r1, r2)

    def test_rank_deficient_rejected(self):
        m = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            thin_qr(m)

    def test_wide_rejected(self):
        with pytest.raises(ShapeMismatch):
            thin_qr(np.ones((2, 5)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConvergenceFailure):
            thin_qr([[bad, 1.0], [0.0, 1.0], [1.0, 1.0]])

    def test_rank_check_matches_input_singular_values(self):
        # rank is judged on R, whose singular values are the input's: a
        # column scaled just above / below the tolerance flips the verdict
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((30, 3)))
        thin_qr(q * [1.0, 1.0, 1e-11])
        with pytest.raises(RankDeficient):
            thin_qr(q * [1.0, 1.0, 1e-13])


class TestSvdThin:
    def test_diagonal(self):
        p, s, qt = svd_thin(np.diag([3.0, 1.0]))
        npt.assert_allclose(s, [3.0, 1.0])
        # signed permutations of the identity
        npt.assert_allclose(np.abs(p), np.eye(2), atol=1e-15)
        npt.assert_allclose(np.abs(qt), np.eye(2), atol=1e-15)

    def test_zero_matrix(self):
        p, s, qt = svd_thin(np.zeros((4, 2)))
        npt.assert_allclose(s, np.zeros(2))
        assert np.linalg.norm(p.T @ p - np.eye(2)) <= 1e-12
        assert np.linalg.norm(qt @ qt.T - np.eye(2)) <= 1e-12

    def test_random_reconstruction(self):
        m = np.random.default_rng(7).standard_normal((40, 4))
        p, s, qt = svd_thin(m)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.linalg.norm(p * s @ qt - m) <= 1e-12 * np.linalg.norm(m)

    def test_bulk_reconstruction(self):
        # 500 random shapes, reconstruction to 1e-11 relative
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(2, 61))
            p_cols = int(rng.integers(1, min(n, 10) + 1))
            m = rng.standard_normal((n, p_cols))
            p, s, qt = svd_thin(m)
            assert np.linalg.norm(p * s @ qt - m) <= 1e-11 * np.linalg.norm(m)


class TestSymEig:
    def test_diagonal(self):
        evals, evecs = sym_eig(np.diag([1.0, 2.0, 3.0]))
        npt.assert_allclose(evals, [1.0, 2.0, 3.0])
        npt.assert_allclose(np.abs(evecs), np.eye(3), atol=1e-15)

    def test_exchange_matrix(self):
        evals, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_allclose(evals, [-1.0, 1.0], atol=1e-15)

    def test_random_residual(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((30, 30))
        a = 0.5 * (g + g.T)
        evals, evecs = sym_eig(a)
        nrm = np.linalg.norm(a)
        assert np.linalg.norm(a @ evecs - evecs * evals) <= 1e-10 * nrm
        assert np.linalg.norm(evecs.T @ evecs - np.eye(30)) <= 1e-12
        # trace consistency
        assert abs(np.sum(evals) - np.trace(a)) <= 1e-9 * nrm

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeMismatch):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_propagates(self):
        a = np.full((3, 3), np.nan)
        with pytest.raises((ConvergenceFailure, ShapeMismatch)):
            sym_eig(a)

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    ConvergenceFailure,
    RankDeficient,
    ShapeMismatch,
    StiefelPoint,
    TangentVector,
    project_tangent,
    retract_geodesic,
    retract_qr,
)
from grassopt.linalg import thin_qr
from grassopt.manifold import CHOLESKY_QR_MAX_STEP, ORTHO_TOL, ortho_defect, retract_qr_factors
from grassopt.checks import run_suite

from conftest import random_stiefel, random_tangent

E1 = StiefelPoint(np.array([[1.0], [0.0]]))


class TestTypes:
    def test_stiefel_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_tangent_rejects_normal_component(self):
        with pytest.raises(ValueError):
            TangentVector(np.array([[1.0], [0.0]]), E1)

    def test_stiefel_rejects_nan(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.full((4, 2), np.nan))

    def test_tangent_rejects_nan(self):
        with pytest.raises(ValueError):
            TangentVector(np.array([[0.0], [np.nan]]), E1)

    def test_immutable_storage(self):
        point = random_stiefel(5, 2, 0)
        with pytest.raises(ValueError):
            point.u[0, 0] = 99.0


class TestProjectTangent:
    def test_already_tangent_is_fixed_point(self):
        point = random_stiefel(8, 3, 1)
        d = random_tangent(point, 2)
        npt.assert_allclose(project_tangent(point, d.d).d, d.d, atol=1e-14)

    def test_point_itself_projects_to_zero(self):
        point = random_stiefel(8, 3, 3)
        npt.assert_allclose(project_tangent(point, point.u).d, 0.0, atol=1e-14)

    def test_explicit_small_case(self):
        d = project_tangent(E1, np.array([[3.0], [4.0]]))
        npt.assert_allclose(d.d, [[0.0], [4.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            project_tangent(E1, np.ones((3, 1)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        point = random_stiefel(10, 3, seed)
        g = np.random.default_rng(seed + 1).standard_normal((10, 3))
        once = project_tangent(point, g)
        twice = project_tangent(point, once.d)
        npt.assert_allclose(twice.d, once.d, atol=1e-13)


class TestRetractions:
    @pytest.mark.parametrize("retract", [retract_qr, retract_geodesic])
    def test_zero_step_exact(self, retract):
        point = random_stiefel(12, 4, 4)
        tangent = random_tangent(point, 5)
        assert retract(point, tangent, 0.0) is point

    def test_qr_planar(self):
        d = TangentVector(np.array([[0.0], [1.0]]), E1)
        new = retract_qr(E1, d, 1.0)
        npt.assert_allclose(new.u, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_qr_first_order_defect(self):
        point = random_stiefel(20, 4, 6)
        tangent = random_tangent(point, 7)
        t = 1e-4
        diff = retract_qr(point, tangent, t).u - (point.u + t * tangent.d)
        # defect is second order in t
        assert np.linalg.norm(diff) <= 2.0 * (t * tangent.norm) ** 2

    def test_geodesic_planar_rotation(self):
        theta = 0.7
        d = TangentVector(np.array([[0.0], [theta]]), E1)
        for t in (0.3, 1.0, 2.5):
            new = retract_geodesic(E1, d, t)
            npt.assert_allclose(
                new.u, [[np.cos(theta * t)], [np.sin(theta * t)]], atol=1e-14
            )

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_geodesic_closed_form_two_columns(self, angle):
        """U = [e1, e2], D = A diag(theta) B^T with A = [e3, e4]: the endpoint
        is U B cos(Theta t) B^T + A sin(Theta t) B^T (B = I when angle = 0)."""
        eye = np.eye(6)
        u, a = eye[:, :2], eye[:, 2:4]
        b = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        theta = np.array([0.9, 0.4])
        point = StiefelPoint(u)
        d = TangentVector(a * theta @ b.T, point)
        for t in (0.7, 2.0):
            expect = u @ b * np.cos(theta * t) @ b.T + a * np.sin(theta * t) @ b.T
            npt.assert_allclose(retract_geodesic(point, d, t).u, expect, rtol=0, atol=1e-14)

    def test_geodesic_zero_direction(self):
        point = random_stiefel(9, 2, 8)
        zero = TangentVector(np.zeros(point.shape), point)
        for t in (0.5, 3.0):
            npt.assert_allclose(retract_geodesic(point, zero, t).u, point.u, atol=1e-14)


class TestCarriedRetraction:
    """retract_qr_factors: Cholesky QR up to t ||D|| = CHOLESKY_QR_MAX_STEP,
    Householder beyond; both return the Householder frame and R^-1, and
    retract_qr returns the same frame."""

    @pytest.mark.parametrize("step", [0.2, CHOLESKY_QR_MAX_STEP, 1.5, 5.0])
    @pytest.mark.parametrize("shape", [(20, 4), (200, 10)])
    def test_same_frame_as_householder_and_inverse_factor(self, shape, step):
        point = random_stiefel(*shape, 9)
        tangent = random_tangent(point, 10)
        t = step / tangent.norm
        new, r_inv = retract_qr_factors(point, tangent, t)
        householder, _ = thin_qr(point.u + t * tangent.d)
        npt.assert_allclose(new.u, householder, rtol=0, atol=1e-13)
        npt.assert_array_equal(retract_qr(point, tangent, t).u, new.u)
        # U + t D = U_new R, the identity the carried product A U relies on
        npt.assert_allclose((point.u + t * tangent.d) @ r_inv, new.u, rtol=0, atol=1e-13)
        assert np.all(np.diag(r_inv) > 0.0)
        assert np.linalg.norm(new.u.T @ new.u - np.eye(shape[1])) <= 1e-14
        assert not new.u.flags.writeable

    def test_zero_step_exact(self):
        point = random_stiefel(12, 4, 4)
        new, r_inv = retract_qr_factors(point, random_tangent(point, 5), 0.0)
        assert new is point
        npt.assert_array_equal(r_inv, np.eye(4))

    def test_long_negative_step_falls_back_to_householder(self):
        # rank one: G = I + t^2 D^T D has condition 1 + t^2 ||D||_F^2, which
        # Cholesky QR would not survive at |t| ||D||_F = 1e5
        point = random_stiefel(30, 4, 0)
        rng = np.random.default_rng(0)
        tangent = project_tangent(
            point, np.outer(rng.standard_normal(30), rng.standard_normal(4))
        )
        new = retract_qr(point, tangent, -1e5 / tangent.norm)
        assert ortho_defect(new.u) <= ORTHO_TOL

    @staticmethod
    def unchecked_direction(d, base):
        # bypass the tangency check to present a direction no solver builds
        tangent = TangentVector.__new__(TangentVector)
        object.__setattr__(tangent, "d", np.asarray(d, dtype=float))
        object.__setattr__(tangent, "base", base)
        return tangent

    def test_singular_gram_raises_rank_deficient(self):
        # U + 1 * (-U) = 0 within the Cholesky regime
        with pytest.raises(RankDeficient):
            retract_qr_factors(E1, self.unchecked_direction(-E1.u, E1), 1.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["cholesky", "householder"])
    def test_non_finite_raises_convergence_failure(self, entry):
        # a NaN norm fails the t ||D|| > 1 test, an infinite one passes it
        bad = self.unchecked_direction([[0.0], [entry]], E1)
        with pytest.raises(ConvergenceFailure):
            retract_qr_factors(E1, bad, 1e-3)


def test_geometry_suite_passes():
    results = run_suite("geometry")
    failing = [r for r in results if not r.passed]
    assert not failing, failing

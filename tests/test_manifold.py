import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    ConvergenceFailure,
    RankDeficient,
    ShapeMismatch,
    SolveConfig,
    Status,
    StiefelPoint,
    TangentVector,
    harmonic_lattice,
    project_tangent,
    retract_geodesic,
    retract_qr,
    solve,
)
from grassopt.linalg import thin_qr
from grassopt.manifold import (
    CHOLESKY_QR_MAX_STEP,
    ORTHO_TOL,
    frobenius_norm,
    ortho_defect,
    random_frame,
    retract_qr_factors,
)

from conftest import random_tangent

E1 = StiefelPoint(np.array([[1.0], [0.0]]))
U1 = E1.u


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
        point = random_frame(5, 2, 0)
        with pytest.raises(ValueError):
            point.u[0, 0] = 99.0


class TestFrobeniusNorm:
    """frobenius_norm has the bits of np.linalg.norm on every memory layout."""

    LAYOUTS = {
        "c": lambda x: x,
        "f": np.asfortranarray,
        "transposed": lambda x: x.T,
        "sliced": lambda x: x[::2, 1:],
        "reversed": lambda x: x[::-1, ::-2],
    }

    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 12)),
        layout=st.sampled_from(sorted(LAYOUTS)),
        scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_numpy(self, shape, layout, scale, seed):
        x = self.LAYOUTS[layout](scale * np.random.default_rng(seed).standard_normal(shape))
        assert frobenius_norm(x) == np.linalg.norm(x)

    def test_non_finite(self):
        assert np.isnan(frobenius_norm(np.array([[1.0, np.nan]])))
        assert frobenius_norm(np.array([[1.0], [-np.inf]])) == np.inf


class TestProjectTangent:
    @given(n=st.integers(1, 30), p=st.integers(1, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_supplied_ug_is_bit_identical(self, n, p, seed):
        u = random_frame(n, min(n, p), seed).u
        g = np.random.default_rng(seed + 1).standard_normal(u.shape)
        npt.assert_array_equal(project_tangent(u, g, u.T @ g), project_tangent(u, g))

    def test_already_tangent_is_fixed_point(self):
        u = random_frame(8, 3, 1).u
        d = random_tangent(u, 2)
        npt.assert_allclose(project_tangent(u, d), d, atol=1e-14)

    def test_point_itself_projects_to_zero(self):
        u = random_frame(8, 3, 3).u
        npt.assert_allclose(project_tangent(u, u), 0.0, atol=1e-14)

    def test_explicit_small_case(self):
        d = project_tangent(U1, np.array([[3.0], [4.0]]))
        npt.assert_allclose(d, [[0.0], [4.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            project_tangent(U1, np.ones((3, 1)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        u = random_frame(10, 3, seed).u
        g = np.random.default_rng(seed + 1).standard_normal((10, 3))
        once = project_tangent(u, g)
        twice = project_tangent(u, once)
        npt.assert_allclose(twice, once, atol=1e-13)

    def test_second_projection_keeps_geodesic_cg_on_the_manifold(self):
        """The geodesic retraction does not re-orthonormalize, so it needs
        directions tangent to roundoff.  With one projection this solve stops
        at the iteration cap with an orthonormality defect near 1e2."""
        config = SolveConfig(
            epsilon=1e-8, max_iter=5000, strategy="adaptive",
            direction="cg_restart", retraction="geodesic",
        )
        result = solve(harmonic_lattice(128, gamma=1.0), random_frame(128, 4, 0), config)
        assert result.status is Status.CONVERGED
        assert ortho_defect(result.final_point.u) <= 1e-12


class TestRetractions:
    @pytest.mark.parametrize("retract", [retract_qr, retract_geodesic])
    def test_zero_step_exact(self, retract):
        u = random_frame(12, 4, 4).u
        d = random_tangent(u, 5)
        assert retract(u, d, 0.0) is u

    def test_qr_planar(self):
        new = retract_qr(U1, np.array([[0.0], [1.0]]), 1.0)
        npt.assert_allclose(new, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_qr_first_order_defect(self):
        u = random_frame(20, 4, 6).u
        d = random_tangent(u, 7)
        t = 1e-4
        diff = retract_qr(u, d, t) - (u + t * d)
        # defect is second order in t
        assert np.linalg.norm(diff) <= 2.0 * (t * np.linalg.norm(d)) ** 2

    def test_geodesic_planar_rotation(self):
        theta = 0.7
        d = np.array([[0.0], [theta]])
        for t in (0.3, 1.0, 2.5):
            new = retract_geodesic(U1, d, t)
            npt.assert_allclose(
                new, [[np.cos(theta * t)], [np.sin(theta * t)]], atol=1e-14
            )

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_geodesic_closed_form_two_columns(self, angle):
        """U = [e1, e2], D = A diag(theta) B^T with A = [e3, e4]: the endpoint
        is U B cos(Theta t) B^T + A sin(Theta t) B^T (B = I when angle = 0)."""
        eye = np.eye(6)
        u, a = eye[:, :2], eye[:, 2:4]
        b = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        theta = np.array([0.9, 0.4])
        d = a * theta @ b.T
        for t in (0.7, 2.0):
            expect = u @ b * np.cos(theta * t) @ b.T + a * np.sin(theta * t) @ b.T
            npt.assert_allclose(retract_geodesic(u, d, t), expect, rtol=0, atol=1e-14)

    def test_geodesic_zero_direction(self):
        u = random_frame(9, 2, 8).u
        for t in (0.5, 3.0):
            npt.assert_allclose(retract_geodesic(u, np.zeros(u.shape), t), u, atol=1e-14)

    @pytest.mark.parametrize("direction", ["steepest", "cg_restart"])
    def test_geodesic_backtracking_converges_on_lattice(self, direction):
        """The geodesic step is an update of U, whose rounding shrinks with t.
        Rebuilt through U B B^T, every step carried rounding of about
        eps ||U||, and each of these solves stopped at the shrink cap."""
        model = harmonic_lattice(128, gamma=1.0)
        config = SolveConfig(
            epsilon=1e-8, strategy="backtracking", direction=direction, retraction="geodesic"
        )
        for frame in range(4):
            result = solve(model, random_frame(128, 4, frame), config)
            assert result.status is Status.CONVERGED, (frame, result.diagnostic)
            assert ortho_defect(result.final_point.u) <= 1e-14


class TestCarriedRetraction:
    """retract_qr_factors: Cholesky QR up to t ||D|| = CHOLESKY_QR_MAX_STEP,
    Householder beyond; both return the Householder frame and R^-1, and
    retract_qr returns the same frame."""

    @pytest.mark.parametrize("step", [0.2, CHOLESKY_QR_MAX_STEP, 1.5, 5.0])
    @pytest.mark.parametrize("shape", [(20, 4), (200, 10)])
    def test_same_frame_as_householder_and_inverse_factor(self, shape, step):
        u = random_frame(*shape, 9).u
        d = random_tangent(u, 10)
        t = step / np.linalg.norm(d)
        new, r_inv = retract_qr_factors(u, d, t)
        householder, _ = thin_qr(u + t * d)
        npt.assert_allclose(new, householder, rtol=0, atol=1e-13)
        npt.assert_array_equal(retract_qr(u, d, t), new)
        # U + t D = U_new R, the identity the carried product A U relies on
        npt.assert_allclose((u + t * d) @ r_inv, new, rtol=0, atol=1e-13)
        assert np.all(np.diag(r_inv) > 0.0)
        assert np.linalg.norm(new.T @ new - np.eye(shape[1])) <= 1e-14
        assert not new.flags.writeable

    def test_zero_step_exact(self):
        u = random_frame(12, 4, 4).u
        new, r_inv = retract_qr_factors(u, random_tangent(u, 5), 0.0)
        assert new is u
        npt.assert_array_equal(r_inv, np.eye(4))

    def test_long_negative_step_falls_back_to_householder(self):
        # rank one: G = I + t^2 D^T D has condition 1 + t^2 ||D||_F^2, which
        # Cholesky QR would not survive at |t| ||D||_F = 1e5
        u = random_frame(30, 4, 0).u
        rng = np.random.default_rng(0)
        d = project_tangent(u, np.outer(rng.standard_normal(30), rng.standard_normal(4)))
        new = retract_qr(u, d, -1e5 / np.linalg.norm(d))
        assert ortho_defect(new) <= ORTHO_TOL

    def test_singular_gram_raises_rank_deficient(self):
        # U + 1 * (-U) = 0 within the Cholesky regime; -U is no tangent, and
        # the kernel does not check tangency
        with pytest.raises(RankDeficient):
            retract_qr_factors(U1, -U1, 1.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["cholesky", "householder"])
    def test_non_finite_raises_convergence_failure(self, entry):
        # a NaN or infinite norm makes the step |t| ||D|| non-finite
        with pytest.raises(ConvergenceFailure):
            retract_qr_factors(U1, np.array([[0.0], [entry]]), 1e-3)


class TestNonFiniteStep:
    """A step t D too large for a float is named by the retraction it is
    handed to, before any factorization, and warns of nothing."""

    u = random_frame(20, 2, 0).u
    d = random_tangent(u, 1)
    d = 10.0 * d / np.linalg.norm(d)  # sigma_max(D) >= ||D||_F / sqrt(2) > 1.8

    @pytest.mark.parametrize(
        "retract, message",
        [
            (retract_qr_factors, r"QR retraction: step \|t\| \|\|D\|\|_F = inf is not finite"),
            (retract_geodesic, r"geodesic retraction: step \|t\| sigma_max = inf is not finite"),
        ],
        ids=["qr", "geodesic"],
    )
    def test_infinite_step_named(self, strict, retract, message):
        with pytest.raises(ConvergenceFailure, match=message):
            retract(self.u, self.d, 1e308)

    def test_non_finite_frame_caught_by_the_gram(self):
        """A finite step on a non-finite frame reaches the Cholesky QR,
        whose Gram check names it: NumPy's Cholesky would not raise."""
        u = self.u.copy()
        u[0, 0] = np.nan
        with pytest.raises(ConvergenceFailure, match="non-finite input to the Cholesky QR"):
            retract_qr_factors(u, self.d, 1e-3)

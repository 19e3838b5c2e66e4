import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    DirichletLaplacian,
    EnergyModel,
    NonlinearLatticeModel,
    QuadraticTraceModel,
    ShapeMismatch,
    StiefelPoint,
    TraceDensityModel,
    eigen_oracle,
    grassmann_gradient,
    grassmann_hessian_qform,
    harmonic_lattice,
    load_matrix,
    random_symmetric,
    retract_geodesic,
)
from grassopt.checks import run_suite

from conftest import random_stiefel, random_tangent

DIAG123 = QuadraticTraceModel(np.diag([1.0, 2.0, 3.0]))
E1 = StiefelPoint(np.array([[1.0], [0.0], [0.0]]))
E2 = StiefelPoint(np.array([[0.0], [1.0], [0.0]]))


def small_lattice():
    return harmonic_lattice(24, length=6.0, gamma=0.5, well=1.5)


class TestConstruction:
    def test_quadratic_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadraticTraceModel(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_quadratic_rejects_rectangular(self):
        with pytest.raises(ShapeMismatch):
            QuadraticTraceModel(np.ones((2, 3)))

    def test_lattice_rejects_bad_mesh(self):
        with pytest.raises(ValueError):
            NonlinearLatticeModel(a=np.eye(3), v=np.zeros(3), h=0.0, gamma=1.0)

    def test_lattice_rejects_negative_interaction(self):
        with pytest.raises(ValueError):
            NonlinearLatticeModel(a=np.eye(3), v=np.zeros(3), h=0.1, gamma=-1.0)

    def test_lattice_rejects_wrong_potential_length(self):
        with pytest.raises(ShapeMismatch):
            NonlinearLatticeModel(a=np.eye(3), v=np.zeros(4), h=0.1, gamma=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("potential", [False, True], ids=["quadratic", "lattice"])
    def test_rejects_non_finite_matrix(self, bad, potential):
        a = np.eye(3)
        a[0, 1] = bad
        v = np.zeros(3) if potential else None
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            TraceDensityModel(a, v=v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_potential(self, bad):
        with pytest.raises(ValueError, match="potential has non-finite entries"):
            NonlinearLatticeModel(a=np.eye(3), v=np.array([0.0, bad, 0.0]), h=0.1, gamma=1.0)

    @pytest.mark.parametrize(
        "h, gamma, named",
        [(np.nan, 1.0, "mesh width"), (np.inf, 1.0, "mesh width"),
         (0.1, np.nan, "gamma"), (0.1, np.inf, "gamma")],
    )
    def test_rejects_non_finite_scalars(self, h, gamma, named):
        with pytest.raises(ValueError, match=named):
            NonlinearLatticeModel(a=np.eye(3), v=np.zeros(3), h=h, gamma=gamma)

    def test_potential_is_copied_before_freezing(self):
        v = np.zeros(3)
        model = NonlinearLatticeModel(a=np.eye(3), v=v, h=0.1, gamma=1.0)
        v[0] = 1.0  # the caller's array stays writable
        assert model.v[0] == 0.0 and not model.v.flags.writeable

    def test_interaction_needs_potential(self):
        with pytest.raises(ValueError, match="needs a potential"):
            TraceDensityModel(np.eye(3), gamma=1.0)

    @pytest.mark.parametrize(
        "kwargs, named",
        [({"length": np.nan}, "length"), ({"length": 0.0}, "length"),
         ({"length": np.inf}, "length"), ({"well": np.nan}, "well")],
    )
    def test_harmonic_lattice_rejects_bad_scalars(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            harmonic_lattice(8, **kwargs)

    def test_harmonic_lattice_shapes(self):
        model = harmonic_lattice(16, length=8.0)
        assert model.npts == 16
        assert model.h == pytest.approx(8.0 / 17.0)
        # well is centered: potential symmetric about the midpoint
        npt.assert_allclose(model.v, model.v[::-1], atol=1e-12)

    @pytest.mark.parametrize("npts", [1, 2, 128])
    def test_harmonic_lattice_laplacian_bits(self, npts):
        """The stencil applied to the identity has the bits of the dense formula."""
        h = harmonic_lattice(npts).h
        dense = (
            np.diag(np.full(npts, 2.0))
            - np.diag(np.ones(npts - 1), 1)
            - np.diag(np.ones(npts - 1), -1)
        ) / h**2
        assert (harmonic_lattice(npts).a @ np.eye(npts)).tobytes() == dense.tobytes()

    @pytest.mark.parametrize(
        "kwargs, named",
        [({"v": np.array([0.0, np.nan, 0.0, 0.0])}, "potential"),
         ({"v": np.array([0.0, 0.0, np.inf, 0.0])}, "potential"),
         ({"h": 0.0}, "mesh width"), ({"h": -0.1}, "mesh width"),
         ({"h": np.nan}, "mesh width"), ({"h": np.inf}, "mesh width"),
         ({"gamma": -1.0}, "gamma"), ({"gamma": np.nan}, "gamma"),
         ({"gamma": np.inf}, "gamma")],
    )
    def test_operator_model_rejects_bad_inputs(self, kwargs, named):
        """The operator path checks V, h and gamma as the dense path does."""
        args = {"a": DirichletLaplacian(4, 0.5), "v": np.zeros(4), "h": 0.5, "gamma": 1.0}
        with pytest.raises(ValueError, match=named):
            TraceDensityModel(**{**args, **kwargs})

    def test_operator_model_rejects_wrong_potential_length(self):
        with pytest.raises(ShapeMismatch):
            TraceDensityModel(a=DirichletLaplacian(4, 0.5), v=np.zeros(5), h=0.5)

    @pytest.mark.parametrize(
        "npts, h, named",
        [(0, 0.5, "npts"), (-3, 0.5, "npts"), (2.0, 0.5, "npts"), (True, 0.5, "npts"),
         (4, 0.0, "mesh width"), (4, np.nan, "mesh width"), (4, np.inf, "mesh width")],
    )
    def test_laplacian_rejects_bad_size_or_mesh(self, npts, h, named):
        with pytest.raises(ValueError, match=named):
            DirichletLaplacian(npts, h)

    @pytest.mark.parametrize("npts", [0, -1, 3.0])
    def test_harmonic_lattice_rejects_bad_size(self, npts):
        with pytest.raises(ValueError, match="npts"):
            harmonic_lattice(npts)

    def test_laplacian_rejects_wrong_rows(self):
        with pytest.raises(ShapeMismatch):
            DirichletLaplacian(4, 0.5) @ np.ones((5, 2))

    def test_matrix_is_symmetrized_into_a_read_only_copy(self):
        a = random_symmetric(6, 3)
        a[0, 1] += 1e-12  # within the symmetry tolerance
        before = a.copy()
        model = QuadraticTraceModel(a)
        npt.assert_array_equal(a, before)
        assert a.flags.writeable and not model.a.flags.writeable
        assert model.a.tobytes() == (0.5 * (before + before.T)).tobytes()

    def test_identity_equality_and_hash(self):
        model = harmonic_lattice(4)
        copy = harmonic_lattice(4)  # equal-valued, a different model
        assert model == model and model != copy
        assert {model: 1}[model] == 1 and hash(model) != hash(copy)


class TestValuesAndGradients:
    def test_quadratic_value(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert DIAG123.value(u) == pytest.approx(1.5)

    def test_lattice_reduces_to_quadratic(self):
        model = small_lattice()
        bare = NonlinearLatticeModel(
            a=model.a, v=np.zeros(model.npts), h=model.h, gamma=0.0
        )
        quad = QuadraticTraceModel(model.a)
        u = random_stiefel(model.npts, 3, 0).u
        assert bare.value(u) == pytest.approx(quad.value(u), rel=1e-14)
        npt.assert_allclose(bare.euclidean_gradient(u), quad.euclidean_gradient(u))
        d = random_tangent(u, 1)
        npt.assert_allclose(bare.hessian_apply(u, d), quad.hessian_apply(u, d))

    def test_lattice_pure_interaction_gradient(self):
        # A = 0, V = 0, gamma = 1, h = 1: grad = 2 diag(rho) U
        model = NonlinearLatticeModel(a=np.zeros((4, 4)), v=np.zeros(4), h=1.0, gamma=1.0)
        u = np.zeros((4, 1))
        u[1, 0] = 1.0
        grad = model.euclidean_gradient(u)
        npt.assert_allclose(grad, 2.0 * model.density(u)[:, None] * u)

    @pytest.mark.parametrize("make", [lambda: DIAG123, small_lattice])
    def test_gradient_finite_difference(self, make):
        model = make()
        n = model.a.shape[0] if hasattr(model, "a") else 3
        rng = np.random.default_rng(17)
        eps = 1e-5
        for _ in range(25):
            u = rng.standard_normal((n, 2))
            d = rng.standard_normal((n, 2))
            analytic = float(np.sum(model.euclidean_gradient(u) * d))
            fd = (model.value(u + eps * d) - model.value(u - eps * d)) / (2 * eps)
            assert abs(analytic - fd) <= 1e-6 * (1.0 + abs(analytic))

    def test_hessian_is_gradient_derivative(self):
        model = small_lattice()
        rng = np.random.default_rng(23)
        u = rng.standard_normal((model.npts, 2))
        d = rng.standard_normal((model.npts, 2))
        eps = 1e-6
        fd = (
            model.euclidean_gradient(u + eps * d)
            - model.euclidean_gradient(u - eps * d)
        ) / (2 * eps)
        analytic = model.hessian_apply(u, d)
        assert np.linalg.norm(fd - analytic) <= 1e-5 * (1.0 + np.linalg.norm(analytic))

    def test_hessian_symmetry(self):
        model = small_lattice()
        point = random_stiefel(model.npts, 3, 5)
        d1 = random_tangent(point.u, 6)
        d2 = random_tangent(point.u, 7)
        lhs = float(np.sum(model.hessian_apply(point.u, d1) * d2))
        rhs = float(np.sum(model.hessian_apply(point.u, d2) * d1))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


class TestEvaluate:
    """evaluate(U) is (value(U), euclidean_gradient(U)), bit for bit."""

    @pytest.mark.parametrize("make", [lambda: DIAG123, small_lattice], ids=["quadratic", "lattice"])
    def test_matches_value_and_gradient(self, make):
        model = make()
        for seed in range(5):
            u = random_stiefel(model.a.shape[0], 2, seed).u
            energy, egrad = model.evaluate(u)
            assert energy == model.value(u)
            npt.assert_array_equal(egrad, model.euclidean_gradient(u))


class TestSuppliedProducts:
    """apply_operator(x) is A x, and evaluate / hessian_qform return the same
    bits from a supplied product as without it."""

    @pytest.mark.parametrize("make", [lambda: DIAG123, small_lattice], ids=["quadratic", "lattice"])
    def test_bit_identical_with_supplied_products(self, make):
        model = make()
        for seed in range(5):
            point = random_stiefel(model.a.shape[0], 2, seed)
            u, d = point.u, random_tangent(point.u, seed + 10)
            au = model.apply_operator(u)
            npt.assert_array_equal(au, model.a @ u)
            energy, egrad = model.evaluate(u, au)
            assert energy == model.evaluate(u)[0]
            npt.assert_array_equal(egrad, model.evaluate(u)[1])

    @given(
        n=st.integers(1, 24),
        p=st.integers(1, 4),
        stencil=st.booleans(),
        potential=st.booleans(),
        gamma=st.floats(0.0, 2.0),
        h=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_carry_contract(self, n, p, stencil, potential, gamma, h, seed):
        """For a dense or stencil A, with and without a potential: evaluate is
        (value, gradient) bit for bit, hessian_qform is <D, hessian_apply>,
        and supplied products A U and A D change no bit.  Without a
        potential the form is <D, A D> exactly."""
        rng = np.random.default_rng(seed)
        a = DirichletLaplacian(n, h) if stencil else random_symmetric(n, seed)
        v = rng.standard_normal(n) if potential else None
        model = TraceDensityModel(a, v=v, h=h, gamma=gamma if potential else 0.0)
        u, d = rng.standard_normal((2, n, min(p, n)))
        energy, egrad = model.evaluate(u)
        assert energy == model.value(u)
        npt.assert_array_equal(egrad, model.euclidean_gradient(u))
        carried_energy, carried_egrad = model.evaluate(u, model.apply_operator(u))
        assert carried_energy == energy
        npt.assert_array_equal(carried_egrad, egrad)
        form = model.hessian_qform(u, d)
        action = float(np.sum(d * model.hessian_apply(u, d)))
        assert abs(form - action) <= 1e-12 * (1.0 + abs(form))
        assert model.hessian_qform(u, d, model.apply_operator(d)) == form
        if not potential:
            assert form == float(np.sum(d * (a @ d)))

    def test_model_is_final(self):
        assert QuadraticTraceModel is NonlinearLatticeModel is TraceDensityModel
        with pytest.raises(TypeError, match="final"):

            class Shifted(TraceDensityModel):
                def value(self, u):
                    return super().value(u) + 1.0

    def test_wrapper_has_no_apply_operator(self):
        class Wrapper(EnergyModel):
            def value(self, u):
                return DIAG123.value(u)

            def euclidean_gradient(self, u):
                return DIAG123.euclidean_gradient(u)

            def hessian_apply(self, u, d):
                return DIAG123.hessian_apply(u, d)

        assert Wrapper().apply_operator is None


class TestStencilOperator:
    """A model on the stencil Laplacian agrees with its dense twin."""

    @given(
        npts=st.integers(1, 64),
        p=st.integers(1, 4),
        potential=st.booleans(),
        length=st.floats(0.5, 50.0),
        gamma=st.floats(0.0, 100.0),
        well=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_twin(self, npts, p, potential, length, gamma, well, seed):
        lattice = harmonic_lattice(npts, length=length, gamma=gamma, well=well)
        dense_laplacian = lattice.a @ np.eye(npts)
        if potential:
            model = lattice
            twin = TraceDensityModel(a=dense_laplacian, v=lattice.v, h=lattice.h, gamma=gamma)
        else:
            model = TraceDensityModel(a=lattice.a)
            twin = TraceDensityModel(a=dense_laplacian)
        rng = np.random.default_rng(seed)
        u, d = rng.standard_normal((2, npts, min(p, npts)))

        def close(x, y):
            return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

        assert close(model.value(u), twin.value(u))
        assert close(model.euclidean_gradient(u), twin.euclidean_gradient(u))
        assert close(model.hessian_apply(u, d), twin.hessian_apply(u, d))

    def test_kinetic_energy_of_one_point(self):
        lap = DirichletLaplacian(1, 0.5)
        assert lap.kinetic_energy(np.array([[3.0, 4.0]])) == 0.5 * 4.0 * 2.0 * 25.0

    def test_eigen_oracle_needs_a_dense_matrix(self):
        with pytest.raises(ValueError, match="dense matrix"):
            eigen_oracle(TraceDensityModel(a=harmonic_lattice(8).a), 2)


class TestOrthogonalInvariance:
    @pytest.mark.parametrize("make", [lambda: DIAG123, small_lattice])
    def test_value_invariant(self, make):
        model = make()
        n = model.a.shape[0]
        point = random_stiefel(n, 2, 31)
        rot, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((2, 2)))
        e0 = model.value(point.u)
        assert abs(model.value(point.u @ rot) - e0) <= 1e-10 * (1.0 + abs(e0))

    def test_gradient_equivariant(self):
        model = small_lattice()
        point = random_stiefel(model.npts, 3, 33)
        rot, _ = np.linalg.qr(np.random.default_rng(34).standard_normal((3, 3)))
        rotated = StiefelPoint(point.u @ rot)
        g = grassmann_gradient(model, point).d
        g_rot = grassmann_gradient(model, rotated).d
        assert np.linalg.norm(g_rot - g @ rot) <= 1e-9 * (1.0 + np.linalg.norm(g))


class TestGrassmannCalculus:
    @pytest.mark.parametrize("point", [E1, E2])
    def test_eigenvector_is_stationary(self, point):
        assert grassmann_gradient(DIAG123, point).norm <= 1e-14

    def test_non_eigenvector_not_stationary(self):
        mix = StiefelPoint(np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2))
        grad = grassmann_gradient(DIAG123, mix)
        assert grad.norm > 0.1
        # direct evaluation: (I - UU^T) A U for A = diag(1,2,3)
        au = DIAG123.a @ mix.u
        expect = au - mix.u @ (mix.u.T @ au)
        npt.assert_allclose(grad.d, expect, atol=1e-14)

    def test_gradient_tangency(self):
        model = small_lattice()
        for seed in range(10):
            point = random_stiefel(model.npts, 3, seed)
            grad = grassmann_gradient(model, point)
            assert np.linalg.norm(point.u.T @ grad.d) <= 1e-10

    def test_qform_zero_direction(self):
        u = random_stiefel(10, 2, 40).u
        model = QuadraticTraceModel(random_symmetric(10, 1))
        assert grassmann_hessian_qform(model, u, np.zeros(u.shape)) == 0.0

    def test_qform_explicit_small_case(self):
        d = np.array([[0.0], [1.0], [0.0]])
        assert grassmann_hessian_qform(DIAG123, E1.u, d) == pytest.approx(1.0)

    def test_qform_quadratic_scaling(self):
        model = small_lattice()
        u = random_stiefel(model.npts, 2, 41).u
        d = random_tangent(u, 42)
        base = grassmann_hessian_qform(model, u, d)
        assert grassmann_hessian_qform(model, u, 3.0 * d) == pytest.approx(
            9.0 * base, rel=1e-12
        )

    def test_qform_matches_geodesic_second_difference(self):
        model = small_lattice()
        u = random_stiefel(model.npts, 3, 43).u
        d = random_tangent(u, 44)
        qform = grassmann_hessian_qform(model, u, d)
        eps = 1e-4
        plus = model.value(retract_geodesic(u, d, eps))
        minus = model.value(retract_geodesic(u, d, -eps))
        fd = (plus - 2.0 * model.value(u) + minus) / eps**2
        assert abs(fd - qform) <= 1e-4 * (1.0 + abs(qform))

    def test_taylor_third_order(self):
        model = small_lattice()
        point = random_stiefel(model.npts, 2, 45)
        d = random_tangent(point.u, 46)
        e0 = model.value(point.u)
        g = float(np.sum(grassmann_gradient(model, point).d * d))
        q = grassmann_hessian_qform(model, point.u, d)

        def remainder(t):
            e_t = model.value(retract_geodesic(point.u, d, t))
            return abs(e_t - e0 - t * g - 0.5 * t**2 * q)

        # third-order remainder: 10x smaller t gives ~1000x smaller defect
        ratio = remainder(1e-1) / remainder(1e-2)
        assert 200.0 <= ratio <= 5000.0


class TestEigenOracle:
    def test_diag_p1(self):
        energy, minimizer = eigen_oracle(DIAG123, 1)
        assert energy == pytest.approx(0.5)
        npt.assert_allclose(np.abs(minimizer.u), E1.u, atol=1e-14)

    def test_diag_p2(self):
        energy, minimizer = eigen_oracle(DIAG123, 2)
        assert energy == pytest.approx(1.5)
        assert grassmann_gradient(DIAG123, minimizer).norm <= 1e-12

    def test_rejects_model_with_potential(self):
        with pytest.raises(ValueError, match="potential"):
            eigen_oracle(harmonic_lattice(8), 2)

    @pytest.mark.parametrize("p", [7, 6, 0, -2, 2.0, True])
    def test_rejects_p_outside_one_to_n(self, p):
        with pytest.raises(ValueError, match="integer in"):
            eigen_oracle(QuadraticTraceModel(random_symmetric(5, 0)), p)

    @pytest.mark.parametrize("p", [5, np.int64(3)])
    def test_accepts_integer_p_up_to_n(self, p):
        _, minimizer = eigen_oracle(QuadraticTraceModel(random_symmetric(5, 0)), p)
        assert minimizer.shape == (5, int(p))

    def test_random_matrix_is_stationary_minimum(self):
        model = QuadraticTraceModel(random_symmetric(30, seed=4))
        energy, minimizer = eigen_oracle(model, 4)
        assert model.value(minimizer.u) == pytest.approx(energy, rel=1e-12)
        assert grassmann_gradient(model, minimizer).norm <= 1e-10
        # any other frame has energy >= the oracle value
        other = random_stiefel(30, 4, 50)
        assert model.value(other.u) >= energy - 1e-12


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        mat = random_symmetric(5, seed=8)
        path = tmp_path / "mat.txt"
        rows = "\n".join(" ".join(f"{x:.17e}" for x in row) for row in mat)
        path.write_text(f"5\n{rows}\n")
        npt.assert_array_equal(load_matrix(path), mat)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3 4\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    @pytest.mark.parametrize("header", ["2.5", "-2", "0", "two"])
    def test_bad_size_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n1 0 0 1\n")
        expect = f"{path}: matrix size must be a positive integer, got '{header}'"
        with pytest.raises(ValueError) as err:
            load_matrix(path)
        assert str(err.value) == expect

    @pytest.mark.parametrize("entry", ["x", "1,5"])
    def test_bad_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n1 0\n{entry} 1\n")
        expect = f"{path}: could not convert string to float: '{entry}'"
        with pytest.raises(ValueError) as err:
            load_matrix(path)
        assert str(err.value) == expect

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_matrix(path)


def test_objective_suite_passes():
    results = run_suite("objectives")
    failing = [r for r in results if not r.passed]
    assert not failing, failing

import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassopt import (
    ConvergenceFailure,
    DirichletLaplacian,
    EnergyModel,
    QuadraticTraceModel,
    ShapeMismatch,
    SolveConfig,
    StiefelPoint,
    TraceDensityModel,
    eigen_oracle,
    grassmann_gradient,
    grassmann_hessian_qform,
    harmonic_lattice,
    load_matrix,
    random_symmetric,
    retract_geodesic,
    solve,
)
from grassopt import objectives
from grassopt.checks import run_suite

from conftest import random_stiefel, random_tangent, traced_peak

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
            TraceDensityModel(a=np.eye(3), v=np.zeros(3), h=0.0, gamma=1.0)

    def test_lattice_rejects_negative_interaction(self):
        with pytest.raises(ValueError):
            TraceDensityModel(a=np.eye(3), v=np.zeros(3), h=0.1, gamma=-1.0)

    def test_lattice_rejects_wrong_potential_length(self):
        with pytest.raises(ShapeMismatch):
            TraceDensityModel(a=np.eye(3), v=np.zeros(4), h=0.1, gamma=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("potential", [False, True], ids=["quadratic", "lattice"])
    def test_rejects_non_finite_matrix(self, bad, potential):
        a = np.eye(3)
        a[0, 1] = bad
        v = np.zeros(3) if potential else None
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            TraceDensityModel(a, v=v)

    # finite entries beyond the float64 range: a long double, and a Python int
    BEYOND = [np.longdouble("-1e400"), 10**400]

    @pytest.mark.parametrize("huge", BEYOND, ids=["longdouble", "int"])
    @pytest.mark.parametrize("potential", [False, True], ids=["quadratic", "lattice"])
    def test_matrix_beyond_float64_named(self, strict, huge, potential):
        a = np.array([[huge, 0], [0, 1]])
        v = np.zeros(2) if potential else None
        with pytest.raises(ValueError, match="matrix has entries beyond the float64 range"):
            TraceDensityModel(a, v=v)

    @pytest.mark.parametrize("huge", BEYOND, ids=["longdouble", "int"])
    def test_potential_beyond_float64_named(self, strict, huge):
        v = np.array([0, huge, 0])
        with pytest.raises(ValueError, match="potential has entries beyond the float64 range"):
            TraceDensityModel(a=np.eye(3), v=v, h=0.1, gamma=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_potential(self, bad):
        with pytest.raises(ValueError, match="potential has non-finite entries"):
            TraceDensityModel(a=np.eye(3), v=np.array([0.0, bad, 0.0]), h=0.1, gamma=1.0)

    @pytest.mark.parametrize(
        "h, gamma, named",
        [(np.nan, 1.0, "mesh width"), (np.inf, 1.0, "mesh width"),
         (0.1, np.nan, "gamma"), (0.1, np.inf, "gamma")],
    )
    def test_rejects_non_finite_scalars(self, h, gamma, named):
        with pytest.raises(ValueError, match=named):
            TraceDensityModel(a=np.eye(3), v=np.zeros(3), h=h, gamma=gamma)

    def test_potential_is_copied_before_freezing(self):
        v = np.zeros(3)
        model = TraceDensityModel(a=np.eye(3), v=v, h=0.1, gamma=1.0)
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

    @pytest.mark.parametrize(
        "kwargs, named",
        [({"length": 1e300}, "mesh width"), ({"well": 1e308}, "potential"),
         ({"npts": 1000, "length": 1e156, "well": 0.0}, "potential")],
        ids=["mesh-width", "well", "zero-well"],
    )
    def test_harmonic_lattice_names_an_overflow(self, strict, kwargs, named):
        """A potential that overflows (or is 0 * inf) is named by the
        constructors' checks, whether RuntimeWarnings are errors or not."""
        with pytest.raises(ValueError, match=named):
            harmonic_lattice(**{"npts": 8, **kwargs})

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

    @pytest.mark.parametrize(
        "h",
        [1e-300, 1e-160, 1e200],
        ids=["square-underflows", "scale-overflows", "scale-underflows"],
    )
    def test_laplacian_rejects_mesh_width_without_finite_scale(self, h):
        """The products scale by 1/h^2, which must be a finite positive float."""
        with pytest.raises(ValueError, match="mesh width"):
            DirichletLaplacian(4, h)

    def test_laplacian_accepts_small_mesh_width_with_finite_scale(self):
        assert np.isfinite(DirichletLaplacian(4, 1e-150) @ np.ones((4, 1))).all()

    def test_harmonic_lattice_rejects_tiny_length(self):
        with pytest.raises(ValueError, match="mesh width"):
            harmonic_lattice(8, length=1e-300)

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

    def test_symmetric_matrix_is_copied_as_it_is(self):
        a = random_symmetric(6, 3)
        model = QuadraticTraceModel(a)
        assert model.a is not a and model.a.tobytes() == a.tobytes()
        a[0, 0] = 9.0  # the caller's array stays writable and apart
        assert not model.a.flags.writeable and model.a[0, 0] != 9.0

    def test_huge_symmetric_matrix_kept_finite(self, strict):
        """(A + A^T)/2 overflowed this A to inf, and the oracle read NaN."""
        a = np.array([[1e308, 0.0], [0.0, 1e308]])
        model = QuadraticTraceModel(a)
        assert model.a.tobytes() == a.tobytes()
        assert eigen_oracle(model, 1)[0] == 5e307
        assert eigen_oracle(model, 2)[0] == 1e308

    def test_huge_nearly_symmetric_matrix_symmetrized_in_range(self, strict):
        model = QuadraticTraceModel(np.array([[1e308, 1.0], [2.0, 1e308]]))
        npt.assert_array_equal(model.a, [[1e308, 1.5], [1.5, 1e308]])

    def test_overflowing_asymmetry_rejected(self, strict):
        """Both Frobenius norms of this A overflow to inf unscaled, which once
        let it pass as symmetric."""
        with pytest.raises(ValueError, match="not symmetric within 1e-10"):
            QuadraticTraceModel(np.array([[1.0, 1e160], [0.0, 1.0]]))

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
        bare = TraceDensityModel(
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
        model = TraceDensityModel(a=np.zeros((4, 4)), v=np.zeros(4), h=1.0, gamma=1.0)
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


def longdouble_kernels(model, u, d):
    """(rho, Euclidean gradient, Hessian action, Hessian quadratic form) of a
    model with a potential at the frame `u` and direction `d`, each from its
    defining formula in np.longdouble, term by term:
    grad = A U + 2h V U + 2 gamma h rho U and
    H[D] = A D + 2h V D + 2 gamma h (rho D + 2 sigma U), sigma_r = <u_r, d_r>."""
    ld = np.longdouble
    u, d, v = u.astype(ld), d.astype(ld), model.v.astype(ld)
    h, gamma = ld(model.h), ld(model.gamma)
    if isinstance(model.a, DirichletLaplacian):

        def apply(x):  # (2 x_r - x_{r-1} - x_{r+1}) / h^2
            out = 2 * x
            out[1:] -= x[:-1]
            out[:-1] -= x[1:]
            return out / ld(model.a.h) ** 2

    else:
        a = model.a.astype(ld)
        apply = lambda x: a @ x
    rho = (u * u).sum(axis=1)
    sigma = (u * d).sum(axis=1)
    grad = apply(u) + 2 * h * v[:, None] * u + 2 * gamma * h * rho[:, None] * u
    hd = (apply(d) + 2 * h * v[:, None] * d
          + 2 * gamma * h * (rho[:, None] * d + 2 * sigma[:, None] * u))
    return rho, grad, hd, (d * hd).sum()


class TestDensityKernels:
    """rho, the gradient, the Hessian action and the judge's quadratic form,
    which read the one weight 2h (V + gamma rho) of a frame, agree with their
    defining formulas in long double to 1e-13 relative (the largest error
    seen over these cases is 1.8e-16)."""

    CASES = [(npts, p, gamma) for npts in (7, 128, 1024) for p in (1, 4, 8)
             for gamma in (0.0, 1.0, 100.0)] + [("dense", 4, 1.0)]

    @pytest.mark.parametrize("npts, p, gamma", CASES)
    def test_match_long_double(self, npts, p, gamma):
        if npts == "dense":
            v = np.random.default_rng(11).standard_normal(40)
            model = TraceDensityModel(random_symmetric(40, 3), v=v, h=0.1, gamma=gamma)
        else:
            model = harmonic_lattice(npts, gamma=gamma)
        u = random_stiefel(model.npts, min(p, model.npts), 1).u
        d = random_tangent(u, 2)
        got = (model.density(u), model.euclidean_gradient(u), model.hessian_apply(u, d),
               model.hessian_qform(u, d))
        for name, have, want in zip(("rho", "gradient", "Hessian action", "qform"), got,
                                    longdouble_kernels(model, u, d)):
            gap = np.linalg.norm(np.asarray(have, dtype=np.longdouble) - want)
            assert gap <= 1e-13 * np.linalg.norm(want), name


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

    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 5),
        stencil=st.booleans(),
        potential=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_qform_from_supplied_ug(self, n, p, stencil, potential, seed):
        """grassmann_hessian_qform given U^T grad E, as `solve` passes it, has
        the bits of the form that computes it, with and without A D."""
        rng = np.random.default_rng(seed)
        a = DirichletLaplacian(n, 0.1) if stencil else random_symmetric(n, seed)
        v = rng.standard_normal(n) if potential else None
        model = TraceDensityModel(a, v=v, h=0.1, gamma=1.0 if potential else 0.0)
        u = np.linalg.qr(rng.standard_normal((n, min(p, n))))[0]
        d = random_tangent(u, seed + 1)
        ug = u.T @ model.evaluate(u)[1]
        ad = model.apply_operator(d)
        assert grassmann_hessian_qform(model, u, d, ug=ug) == grassmann_hessian_qform(model, u, d)
        assert grassmann_hessian_qform(model, u, d, ug, ad) == grassmann_hessian_qform(
            model, u, d, None, ad
        )

    def test_model_is_final(self):
        assert QuadraticTraceModel is TraceDensityModel
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


class TestDenseProduct:
    """apply_operator is the one product with A.  On a dense A it forms a
    block of p >= 2 columns with n n p above TRANSPOSED_GEMM_MIN_WORK as
    (x^T A)^T, and every other product as A x."""

    # (n, p): at or below the cutoff, and the benchmark's dense shapes, where
    # the transposed form keeps the bits of A x (one or two BLAS threads,
    # OpenBLAS's SkylakeX core)
    SAME_BITS = [(20, 3), (100, 4), (100, 100), (200, 10), (400, 4), (1000, 20), (1024, 8)]
    # above the cutoff, where the transposed form may differ by roundoff
    ABOVE = [(300, 20), (400, 10), (500, 20), (600, 4), (700, 20), (1500, 20), (200, 40),
             (159, 40), (142, 50), (100, 101), (708, 2)]

    @staticmethod
    def block(n, p, seed=0):
        model = QuadraticTraceModel(random_symmetric(n, seed))
        shape = (n,) if p is None else (n, p)
        return model, np.random.default_rng(seed + 1).standard_normal(shape)

    @pytest.mark.parametrize("n, p", SAME_BITS + [(1000, 1), (300, 1), (1000, None), (50, None)])
    def test_bits_of_a_x(self, n, p):
        model, x = self.block(n, p)
        ax = model.apply_operator(x)
        assert ax.flags.c_contiguous
        assert ax.tobytes() == (model.a @ x).tobytes()

    @pytest.mark.parametrize("n, p", ABOVE)
    def test_above_cutoff_agrees_to_roundoff(self, n, p):
        assert n * n * p > objectives.TRANSPOSED_GEMM_MIN_WORK
        model, x = self.block(n, p)
        ax, want = model.apply_operator(x), model.a @ x
        assert ax.shape == want.shape and ax.flags.c_contiguous
        assert np.linalg.norm(ax - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("potential", [False, True], ids=["trace", "density"])
    def test_contracts_above_cutoff(self, potential):
        """Handed products give the bits of the model's own, above the cutoff
        too, as `grassopt check` shows below it."""
        n, p = 708, 2
        rng = np.random.default_rng(3)
        v = rng.standard_normal(n) if potential else None
        gamma = 1.0 if potential else 0.0
        model = TraceDensityModel(random_symmetric(n, 3), v=v, h=0.5, gamma=gamma)
        u = random_stiefel(n, p, 4).u
        d = random_tangent(u, 5)
        au = model.apply_operator(u)
        energy, egrad = model.evaluate(u)
        assert model.value(u) == energy
        carried_energy, carried_egrad = model.evaluate(u, au)
        assert carried_energy == energy and carried_egrad.tobytes() == egrad.tobytes()
        assert model.hessian_qform(u, d, model.apply_operator(d)) == model.hessian_qform(u, d)

    @pytest.mark.parametrize("make", [lambda: DIAG123, small_lattice], ids=["dense", "stencil"])
    def test_one_owner(self, make, monkeypatch):
        """A U of a frame, the Hessian action and the quadratic form each form
        their product through apply_operator, once; a handed A D forms none."""
        model = make()
        calls = []
        apply_operator = TraceDensityModel.apply_operator

        def counted(self, x):
            calls.append(x)
            return apply_operator(self, x)

        monkeypatch.setattr(TraceDensityModel, "apply_operator", counted)
        u = random_stiefel(model.npts, 2, 6).u
        d = random_tangent(u, 7)
        ad = model.a @ d
        for call, expected in [
            (lambda: model.euclidean_gradient(np.array(u)), 1),
            (lambda: model.evaluate(np.array(u)), 1),
            (lambda: model.hessian_apply(u, d), 1),
            (lambda: model.hessian_qform(u, d), 1),
            (lambda: model.hessian_qform(u, d, ad), 0),
        ]:
            calls.clear()
            call()
            assert len(calls) == expected
        calls.clear()
        model.value(np.array(u))  # the stencil's energy forms no product
        assert len(calls) == (1 if isinstance(model.a, np.ndarray) else 0)


class TestWrongHeight:
    """A frame of the wrong height fails with the same ShapeMismatch on the
    dense matrix and on the stencil."""

    MESSAGE = r"operator of size 5 applied to shape \(4, 2\)"
    MODELS = [lambda: QuadraticTraceModel(random_symmetric(5, 1)), lambda: harmonic_lattice(5)]

    @pytest.mark.parametrize("make", MODELS, ids=["dense", "stencil"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, u: m.value(u),
            lambda m, u: m.euclidean_gradient(u),
            lambda m, u: m.evaluate(u),
            lambda m, u: m.hessian_apply(u, u),
            lambda m, u: m.hessian_qform(u, u),
        ],
        ids=["value", "euclidean_gradient", "evaluate", "hessian_apply", "hessian_qform"],
    )
    def test_model_calls(self, make, call):
        with pytest.raises(ShapeMismatch, match=self.MESSAGE):
            call(make(), random_stiefel(4, 2, 0).u)

    @pytest.mark.parametrize("strategy", ["adaptive", "backtracking"])
    @pytest.mark.parametrize("make", MODELS, ids=["dense", "stencil"])
    def test_solve_fails_at_iteration_0(self, make, strategy):
        result = solve(make(), random_stiefel(4, 2, 0), SolveConfig(strategy=strategy))
        assert (result.status.value, result.iters) == ("failed", 0)
        assert result.diagnostic == "iteration 0: operator of size 5 applied to shape (4, 2)"


def frozen(x):
    x = np.array(x)
    x.setflags(write=False)
    return x


class TestFrameCache:
    """The model's record for the last read-only frame changes no answer:
    every method gives the same bits warm as cold, a writable frame is never
    served from the record, and nothing formed from a handed A U is kept."""

    @staticmethod
    def parts(n, p, stencil, potential, seed):
        rng = np.random.default_rng(seed)
        a = DirichletLaplacian(n, 0.1) if stencil else random_symmetric(n, seed)
        v = rng.standard_normal(n) if potential else None
        make = lambda: TraceDensityModel(a, v=v, h=0.1, gamma=1.0 if potential else 0.0)
        u, d = rng.standard_normal((2, n, min(p, n)))
        return make, u, d

    @staticmethod
    def calls(u, d, au, ad):
        """Every method at the frame `u`, as functions of the model; the
        products A U and A D are the objects `au` and `ad`."""
        return [
            lambda m: m.value(u),
            lambda m: m.evaluate(u),
            lambda m: m.evaluate(u, au),
            lambda m: m.euclidean_gradient(u),
            lambda m: m.hessian_apply(u, d),
            lambda m: m.hessian_qform(u, d),
            lambda m: m.hessian_qform(u, d, ad),
            lambda m: m.density(u),
        ]

    @staticmethod
    def answers(model, calls):
        """The bytes of each answer of `model` to `calls`, made in turn."""
        out = []
        for call in calls:
            got = call(model)
            out.extend(np.asarray(x).tobytes() for x in (got if isinstance(got, tuple) else [got]))
        return out

    @given(
        n=st.integers(1, 24),
        p=st.integers(1, 4),
        stencil=st.booleans(),
        potential=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_answers_are_cold_answers(self, n, p, stencil, potential, seed):
        make, u, d = self.parts(n, p, stencil, potential, seed)
        u, d = frozen(u), frozen(d)
        model = make()
        au, ad = frozen(model.a @ u), frozen(model.a @ d)
        calls = self.calls(u, d, au, ad)
        # each method on a fresh model, then all of them on one model, twice
        cold = [x for call in calls for x in self.answers(make(), [call])]
        assert self.answers(model, calls + calls) == cold + cold
        # the frame's writable twin is never served from the slot
        assert self.answers(model, self.calls(np.array(u), d, au, ad)) == cold

    @given(
        n=st.integers(2, 24),
        p=st.integers(1, 4),
        stencil=st.booleans(),
        potential=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_changed_frame_gives_new_answers(self, n, p, stencil, potential, seed):
        """A writable frame changed in place between calls, or a read-only
        one made writable and changed, gives the new frame's answers."""
        make, u, d = self.parts(n, p, stencil, potential, seed)
        new = 2.0 * u[::-1]
        a = make().a
        want = self.answers(make(), self.calls(frozen(new), d, a @ new, a @ d))
        for read_only in (False, True):
            model, frame = make(), np.array(u)
            frame.setflags(write=not read_only)
            self.answers(model, self.calls(frame, d, a @ frame, a @ d))
            frame.setflags(write=True)
            frame[...] = new
            assert self.answers(model, self.calls(frame, d, a @ frame, a @ d)) == want

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("make", [lambda: DIAG123, small_lattice], ids=["quadratic", "lattice"])
    def test_density_is_read_only(self, make, read_only):
        model = make()
        u = random_stiefel(model.npts, 2, 3).u
        rho = model.density(u if read_only else np.array(u))
        assert not rho.flags.writeable
        assert (model.density(u) is rho) == read_only

    @pytest.mark.parametrize("read_only", [False, True])
    def test_weight_is_read_only(self, read_only):
        """The weight 2h (V + gamma rho) is read-only, and stays one object
        for one read-only frame while the gradient, the Hessian action and
        the judge read it; for a writable frame each call forms it anew and
        nothing is kept."""
        model = small_lattice()
        point = random_stiefel(model.npts, 2, 3)
        u = point.u if read_only else np.array(point.u)
        d = random_tangent(point.u, 4)
        w = model._weight(u)
        assert not w.flags.writeable
        model.evaluate(u)
        model.hessian_apply(u, d)
        model.hessian_qform(u, d)
        again = model._weight(u)
        assert (again is w) == read_only
        npt.assert_array_equal(again, 2.0 * model.h * (model.v + model.gamma * model.density(u)))
        assert (model._last[0] is u) == read_only

    def test_energy_follows_the_handed_product(self):
        """On a dense A, one frame evaluated with one A U object and then with
        another gets the second product's energy, as a fresh model does."""
        model = QuadraticTraceModel(random_symmetric(12, seed=4))
        u = random_stiefel(12, 3, 5).u
        au = model.apply_operator(u)
        other = (1.0 + 1e-3) * au
        first, second = model.evaluate(u, au)[0], model.evaluate(u, other)[0]
        assert second == QuadraticTraceModel(model.a).evaluate(u, other)[0] != first
        assert model.value(u) == QuadraticTraceModel(model.a).value(u)

    @pytest.mark.parametrize("potential", [False, True], ids=["trace", "density"])
    @pytest.mark.parametrize("stencil", [False, True], ids=["dense", "stencil"])
    def test_handed_product_is_not_kept(self, stencil, potential):
        """A product handed in with a read-only frame is used as given, and
        nothing formed from it is kept: afterwards the model answers as a
        fresh one does."""
        make, u, _ = self.parts(12, 3, stencil, potential, seed=7)
        u, model = frozen(u), make()
        perturbed = frozen((1.0 + 1e-3) * (model.a @ u))
        handed = lambda m: m.evaluate(u, perturbed)
        assert self.answers(model, [handed]) == self.answers(make(), [handed])
        exact = [lambda m: m.value(u), lambda m: m.evaluate(u)]
        assert self.answers(model, exact) == self.answers(make(), exact)

    def test_gradient_and_value_form_one_product(self):
        """On a dense A, the gradient and then the value of one read-only
        frame form A U once: without a potential the gradient is that
        product, and every later call hands back the same object."""
        model = QuadraticTraceModel(random_symmetric(12, seed=4))
        point = random_stiefel(12, 3, 5)
        grad = model.euclidean_gradient(point.u)
        grassmann_gradient(model, point)
        model.value(point.u)
        assert model.euclidean_gradient(point.u) is grad
        assert model.evaluate(point.u)[1] is grad

    def test_shared_between_threads(self):
        """Threads that evaluate their own frames on one model get their own
        frames' answers: the slot is replaced whole and read by identity."""
        model = small_lattice()
        frames = [random_stiefel(model.npts, 2, seed).u for seed in range(6)]

        def calls(u):
            return [lambda m: m.value(u), lambda m: m.evaluate(u), lambda m: m.density(u)]

        want = [self.answers(small_lattice(), calls(u)) for u in frames]
        wrong = []

        def work(u, expected):
            for _ in range(200):
                if self.answers(model, calls(u)) != expected:
                    wrong.append(u)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=pair) for pair in zip(frames, want)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

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

    def test_rejects_a_duck_typed_model(self):
        """Only the model's constructor makes A symmetric, so an object that
        merely looks like a model is refused before A is eigensolved."""

        class Lookalike:
            a = np.array([[0.0, 1.0], [0.0, 0.0]])
            v = None

        with pytest.raises(TypeError, match="needs a TraceDensityModel, got Lookalike"):
            eigen_oracle(Lookalike(), 1)

    def test_bits_of_eigh_of_the_symmetrized_matrix(self):
        a = random_symmetric(200, 7)
        energy, minimizer = eigen_oracle(QuadraticTraceModel(a), 10)
        evals, evecs = np.linalg.eigh(0.5 * (a + a.T))
        assert energy == 0.5 * float(np.sum(evals[:10]))
        assert minimizer.u.tobytes() == evecs[:, :10].tobytes()

    def test_holds_no_copy_of_the_matrix(self):
        """The traced peak is the eigenvectors; a symmetrized copy of A beside
        them made it 2.00 n^2 doubles."""
        model = QuadraticTraceModel(random_symmetric(400, 3))
        assert traced_peak(lambda: eigen_oracle(model, 5), 400) <= 1.1

    def test_failed_eigensolve_raises_convergence_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            eigen_oracle(DIAG123, 1)

    def test_energy_beyond_float64_raises(self):
        model = QuadraticTraceModel(np.diag([1e308] * 4))
        with pytest.raises(FloatingPointError, match="overflow"):
            eigen_oracle(model, 4)

    def test_random_matrix_is_stationary_minimum(self):
        model = QuadraticTraceModel(random_symmetric(30, seed=4))
        energy, minimizer = eigen_oracle(model, 4)
        assert model.value(minimizer.u) == pytest.approx(energy, rel=1e-12)
        assert grassmann_gradient(model, minimizer).norm <= 1e-10
        # any other frame has energy >= the oracle value
        other = random_stiefel(30, 4, 50)
        assert model.value(other.u) >= energy - 1e-12

    def test_diagonal(self):
        energy, frame = eigen_oracle(DIAG123, 3)
        assert energy == 3.0
        npt.assert_allclose(np.abs(frame.u), np.eye(3), atol=1e-15)

    def test_exchange_matrix(self):
        model = QuadraticTraceModel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eigen_oracle(model, 1)[0] == pytest.approx(-0.5, abs=1e-15)
        assert eigen_oracle(model, 2)[0] == pytest.approx(0.0, abs=1e-15)

    def test_random_residual(self):
        """With p = n the frame diagonalizes A, and twice the energy is tr A."""
        a = random_symmetric(30, 11)
        energy, frame = eigen_oracle(QuadraticTraceModel(a), 30)
        u, nrm = frame.u, np.linalg.norm(a)
        evals = np.einsum("ij,ij->j", u, a @ u)
        assert np.linalg.norm(a @ u - u * evals) <= 1e-10 * nrm
        assert np.linalg.norm(u.T @ u - np.eye(30)) <= 1e-12
        assert np.all(np.diff(evals) >= -1e-12 * nrm)  # ascending
        assert abs(2.0 * energy - np.trace(a)) <= 1e-9 * nrm


class TestSymmetrized:
    """The constructor's symmetry rule, `objectives.symmetrized`, on its own."""

    def test_asymmetric_rejected(self):
        assert objectives.symmetrized(np.array([[0.0, 1.0], [0.0, 0.0]])) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected_before_the_symmetry_test(self, bad, monkeypatch):
        """The rule assumes a finite A, so the constructor refuses any other
        before it asks."""

        def unreachable(mat):
            raise AssertionError("symmetrized called on a non-finite matrix")

        monkeypatch.setattr(objectives, "symmetrized", unreachable)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            QuadraticTraceModel(np.array([[1.0, bad], [bad, 1.0]]))

    def test_huge_symmetric_entries_do_not_overflow(self, strict):
        """Entries near the top of the float64 range are kept as they are;
        (A + A^T)/2 would overflow to inf."""
        a = np.array([[1e308, 0.0], [0.0, 1e308]])
        assert objectives.symmetrized(a) is a

    def test_overflowing_asymmetry_rejected(self, strict):
        """Both Frobenius norms of [[1, 1e160], [0, 1]] overflow to inf
        unscaled, which once let it pass as symmetric."""
        assert objectives.symmetrized(np.array([[1.0, 1e160], [0.0, 1.0]])) is None

    def test_huge_nearly_symmetric_entries_symmetrized_in_range(self, strict):
        """A/2 + A^T/2 keeps a diagonal of 1e308; A + A^T would make it inf."""
        sym = objectives.symmetrized(np.array([[1e308, 1.0], [2.0, 1e308]]))
        npt.assert_array_equal(sym, [[1e308, 1.5], [1.5, 1e308]])

    def test_nearly_symmetric_has_the_bits_of_the_average(self):
        a = np.random.default_rng(5).standard_normal((40, 40))
        a = a + a.T
        a[3, 7] += 1e-12
        before = a.copy()
        sym = objectives.symmetrized(a)
        assert sym.flags.c_contiguous and not np.shares_memory(sym, a)
        assert sym.tobytes() == (0.5 * (before + before.T)).tobytes()
        npt.assert_array_equal(a, before)

    def test_symmetric_input_is_not_copied(self):
        """An exactly symmetric input is returned as it is: the traced peak is
        the elementwise comparison's booleans (0.18 n^2 doubles), not a copy
        of A (1.00)."""
        a = random_symmetric(400, 3)
        assert objectives.symmetrized(a) is a
        assert traced_peak(lambda: objectives.symmetrized(a), 400) <= 0.5


class TestRandomSymmetric:
    def test_bits_of_the_average(self):
        g = np.random.default_rng(7).standard_normal((50, 50))
        assert random_symmetric(50, 7).tobytes() == (0.5 * (g + g.T)).tobytes()

    def test_one_temporary(self):
        """The draw and the result, with no third n-by-n array."""
        assert traced_peak(lambda: random_symmetric(400, 3), 400) <= 2.1


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

    @pytest.mark.parametrize(
        "entries, k, token",
        [("1 0 0 1e400", 4, "1e400"), ("-inf 0 0 -1E999", 4, "-1E999"),
         ("1 1e400 0 2e400", 2, "1e400")],
    )
    def test_entry_beyond_float64_named(self, tmp_path, strict, entries, k, token):
        """The first entry that reads as inf without being an inf literal."""
        path = tmp_path / "huge.txt"
        path.write_text(f"2\n{entries}\n")
        expect = f"{path}: entry {k} ('{token}') is beyond the float64 range"
        with pytest.raises(ValueError) as err:
            load_matrix(path)
        assert str(err.value) == expect

    def test_inf_literal_left_to_the_model(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("2\n1 +Infinity\n-inf 1\n")
        npt.assert_array_equal(load_matrix(path), [[1.0, np.inf], [-np.inf, 1.0]])

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

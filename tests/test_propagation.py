import math

import numpy as np
import pytest

from proxflow import (
    ControllabilityError,
    DimensionError,
    Gaussian,
    LinearSystem,
    ModeMismatchError,
    NumericFailure,
    SingularityError,
    SpdMatrix,
    StabilityError,
    StepConfig,
    StepSizeError,
    ValidationError,
    exact_cov,
    exact_mean,
    expm,
    general_mean_map,
    grad_w2_cross,
    inv_spd,
    jko_step_general_cov,
    jko_step_general_mean,
    jko_step_symmetric,
    make_equipartition,
    propagate,
    symmetrized_pair,
)
from proxflow.matrices import max_abs
from support import random_spd, random_system


class TestLinearSystem:
    def test_rejects_non_hurwitz(self):
        with pytest.raises(StabilityError):
            LinearSystem([[1.0]], [[1.0]])

    def test_rejects_uncontrollable(self):
        # B excites only the first coordinate of a decoupled system
        with pytest.raises(ControllabilityError):
            LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))

    def test_scalar_counts_as_a_one_by_one_matrix(self):
        sys = LinearSystem(-1.0, 1.0)
        assert sys.a.tolist() == [[-1.0]] and sys.b.tolist() == [[1.0]]
        assert sys.diffusion().tolist() == [[2.0]]

    def test_diffusion_convention(self):
        sys = LinearSystem([[-1.0]], [[2.0]])
        assert sys.diffusion()[0, 0] == pytest.approx(8.0)
        assert not sys.diffusion().flags.writeable


class TestStepConfig:
    def test_zero_steps_allowed(self):
        assert StepConfig(h=0.1, steps=0).steps == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            StepConfig(h=0.0, steps=1)
        with pytest.raises(ValidationError):
            StepConfig(h=0.1, steps=-1)
        with pytest.raises(ValidationError):
            StepConfig(h=0.1, steps=1, beta=-2.0)


class TestMakeEquipartition:
    def test_isotropic_identity_case(self):
        frame = make_equipartition(LinearSystem(-np.eye(2), np.eye(2)))
        assert max_abs(frame.pinf.mat - np.eye(2)) < 1e-12
        assert frame.theta == pytest.approx(1.0)
        assert max_abs(frame.a_ep + np.eye(2)) < 1e-12
        assert max_abs(frame.b_ep - np.eye(2)) < 1e-12

    def test_scalar_case(self):
        frame = make_equipartition(LinearSystem([[-2.0]], [[1.0]]))
        assert frame.pinf.mat[0, 0] == pytest.approx(0.5)
        assert frame.theta == pytest.approx(0.5)
        assert frame.a_ep[0, 0] == pytest.approx(-2.0)
        assert frame.b_ep[0, 0] == pytest.approx(math.sqrt(2.0))

    def test_stationary_covariance_below_floor_is_named(self):
        # Hurwitz and controllable, but P_inf = 1e-14 lies under the floor
        with pytest.raises(SingularityError, match=r"^stationary covariance of \(A, B\): "
                           r"matrix is not positive definite within the floor"):
            make_equipartition(LinearSystem([[-1.0]], [[1e-7]]))

    def test_similarity_preserves_spectrum(self):
        rng = np.random.default_rng(14)
        a = -random_spd(rng, 3).mat
        sys = LinearSystem(a, rng.normal(size=(3, 3)))
        frame = make_equipartition(sys)
        got = np.sort(np.linalg.eigvals(frame.a_ep).real)
        want = np.sort(np.linalg.eigvals(a).real)
        assert max_abs(got - want) < 1e-9

    def test_frame_invariants_random_systems(self):
        rng = np.random.default_rng(15)
        for trial in range(200):
            n = 1 + trial % 5
            sys = random_system(rng, n)
            frame = make_equipartition(sys)
            res = sys.a @ frame.pinf.mat + frame.pinf.mat @ sys.a.T + sys.diffusion()
            assert max_abs(res) < 1e-9
            assert frame.theta == pytest.approx(frame.pinf.trace() / n)
            res_ep = (
                frame.a_ep * frame.theta
                + frame.theta * frame.a_ep.T
                + 2.0 * frame.theta * frame.b_ep @ frame.b_ep.T
            )
            assert max_abs(res_ep) < 1e-9
            assert max_abs(frame.a_ep_sym + frame.a_ep_skew - frame.a_ep) < 1e-14
            assert max_abs(frame.pinf_sqrt @ frame.pinf_sqrt - frame.pinf.mat) < 1e-10


class TestSymmetrizedPair:
    def test_time_zero(self):
        rng = np.random.default_rng(16)
        frame = make_equipartition(random_system(rng, 3))
        f, g = symmetrized_pair(frame, 0.0)
        assert max_abs(f - frame.a_ep_sym) < 1e-14
        assert max_abs(g - frame.b_ep) < 1e-14

    def test_symmetric_drift_isotropic_noise_is_constant(self):
        # the skew part is trivial when the stationary covariance commutes
        # with the drift, e.g. symmetric A with isotropic B
        rng = np.random.default_rng(17)
        a = -random_spd(rng, 2).mat
        frame = make_equipartition(LinearSystem(a, 0.8 * np.eye(2)))
        assert max_abs(frame.a_ep_skew) < 1e-12
        f1, _ = symmetrized_pair(frame, 0.0)
        f2, _ = symmetrized_pair(frame, 1.3)
        assert max_abs(f1 - f2) < 1e-12

    def test_spectral_invariance_and_stationarity(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            frame = make_equipartition(random_system(rng, n))
            t = 0.7
            f, g = symmetrized_pair(frame, t)
            assert max_abs(f - f.T) == 0.0
            got = np.sort(np.linalg.eigvalsh(f))
            want = np.sort(np.linalg.eigvalsh(frame.a_ep_sym))
            assert max_abs(got - want) < 1e-9
            assert np.max(np.linalg.eigvalsh(f)) < 1e-12  # F <= 0
            assert max_abs(g @ g.T + f) < 1e-9
            res = f * frame.theta + frame.theta * f + 2.0 * frame.theta * g @ g.T
            assert max_abs(res) < 1e-9


class TestJkoStepSymmetric:
    def test_gibbs_fixed_point_scalar(self):
        g = Gaussian([0.0], SpdMatrix(1.0))
        out = jko_step_symmetric(g, SpdMatrix(1.0), 1.0, 0.1)
        assert abs(out.cov.mat[0, 0] - 1.0) < 1e-14
        assert abs(out.mean[0]) == 0.0

    def test_scalar_worked_values(self):
        g = Gaussian([2.0], SpdMatrix(2.0))
        out = jko_step_symmetric(g, SpdMatrix(1.0), 1.0, 0.1)
        z = 5.0 * (-1.0 + math.sqrt(1.22))
        assert out.mean[0] == pytest.approx(2.0 / 1.1, abs=1e-12)
        assert out.cov.mat[0, 0] == pytest.approx(1.0 / (2.0 * z * z), abs=1e-12)
        # one exact ODE step for comparison: within O(h) of 1 + e^{-0.2}
        assert out.cov.mat[0, 0] == pytest.approx(1.0 + math.exp(-0.2), abs=0.02)

    def test_small_step_continuity(self):
        rng = np.random.default_rng(19)
        g = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        gamma = random_spd(rng, 2)
        prev = None
        for h in (1e-2, 1e-3, 1e-4):
            out = jko_step_symmetric(g, gamma, 1.0, h)
            dev = max(max_abs(out.mean - g.mean), max_abs(out.cov.mat - g.cov.mat))
            if prev is not None:
                assert dev < 0.55 * prev  # shrinks linearly with h
            prev = dev

    def test_gibbs_fixed_point_random(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            gamma = random_spd(rng, n, eig_low=0.2, eig_high=5.0)
            beta = float(rng.uniform(0.1, 10.0))
            h = float(rng.uniform(1e-3, 0.1))
            cov = SpdMatrix(gamma.map_eigenvalues(lambda w: 1.0 / (beta * w)))
            out = jko_step_symmetric(Gaussian(np.zeros(n), cov), gamma, beta, h)
            assert max_abs(out.cov.mat - cov.mat) < 1e-10
            assert max_abs(out.mean) < 1e-14

    def test_first_order_rate_identity(self):
        # out - in = h(-Gamma P - P Gamma + 2 I / beta) + O(h^2), halving-ratio check
        rng = np.random.default_rng(21)
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        gamma = SpdMatrix(q @ np.diag([0.7, 1.9]) @ q.T)
        p0 = random_spd(rng, 2)
        g0 = Gaussian(rng.normal(size=2), p0)
        beta = 1.4
        rate = -(gamma.mat @ p0.mat + p0.mat @ gamma.mat) + 2.0 / beta * np.eye(2)

        def residual(h):
            out = jko_step_symmetric(g0, gamma, beta, h)
            return max_abs(out.cov.mat - p0.mat - h * rate)

        for h in (0.02, 0.01):
            assert 3.2 < residual(h) / residual(h / 2) < 4.8

    def test_proximal_optimality_gradient(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            gamma = random_spd(rng, n)
            g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
            beta = float(rng.uniform(0.3, 3.0))
            h = float(rng.uniform(0.01, 0.1))
            out = jko_step_symmetric(g0, gamma, beta, h)
            grad_mean = (out.mean - g0.mean) + h * gamma.mat @ out.mean
            grad_cov = (
                0.5 * (np.eye(n) - 2.0 * grad_w2_cross(out.cov, g0.cov))
                - (h / (2.0 * beta)) * inv_spd(out.cov).mat
                + 0.5 * h * gamma.mat
            )
            assert max_abs(grad_mean) < 1e-8
            assert max_abs(grad_cov) < 1e-8


class TestJkoStepGeneralMean:
    def test_symmetric_reduces_to_resolvent(self):
        rng = np.random.default_rng(23)
        gamma = random_spd(rng, 2)
        sys = LinearSystem(-gamma.mat, 0.7 * np.eye(2))
        h = 0.05
        mean_map = general_mean_map(make_equipartition(sys), h)
        mu = rng.normal(size=2)
        out = jko_step_general_mean(mu, mean_map)
        want = np.linalg.solve(np.eye(2) + h * gamma.mat, mu)
        assert max_abs(out - want) < 1e-10

    def test_zero_is_fixed(self):
        rng = np.random.default_rng(24)
        mean_map = general_mean_map(make_equipartition(random_system(rng, 3)), 0.01)
        out = jko_step_general_mean(np.zeros(3), mean_map)
        assert max_abs(out) == 0.0

    def test_first_order_agreement_richardson(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        frame = make_equipartition(LinearSystem(a, np.eye(2)))
        rng = np.random.default_rng(25)
        mu = rng.normal(size=2)

        def residual(h):
            out = jko_step_general_mean(mu, general_mean_map(frame, h))
            return max_abs(out - (np.eye(2) + h * a) @ mu)

        for h in (1e-2, 5e-3):
            assert 3.2 < residual(h) / residual(h / 2) < 4.8

    def test_map_matches_rotating_frame_product(self):
        # M_h against P^(1/2) e^(S kh) (I - h F(kh))^-1 e^(S h) e^(-S kh) P^(-1/2),
        # the per-step product before the rotation was cancelled
        rng = np.random.default_rng(29)
        h = 0.02
        for n in (2, 3, 5, 8):
            frame = make_equipartition(random_system(rng, n))
            mean_map = general_mean_map(frame, h)
            for k in (1, 7, 60, 300):
                f_kh, _ = symmetrized_pair(frame, k * h)
                rot = expm(frame.a_ep_skew, k * h)
                inner = np.linalg.solve(np.eye(n) - h * f_kh, expm(frame.a_ep_skew, h))
                want = frame.pinf_sqrt @ rot @ inner @ rot.T @ frame.pinf_inv_sqrt
                assert max_abs(mean_map - want) <= 1e-11 * max_abs(want)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(26)
        frame = make_equipartition(random_system(rng, 2))
        for h in (0.0, -0.1, math.nan):
            with pytest.raises(ValidationError):
                general_mean_map(frame, h)
        with pytest.raises(ValidationError, match="length"):
            jko_step_general_mean(np.zeros(3), general_mean_map(frame, 0.1))


class TestJkoStepGeneralCov:
    def test_stationary_fixed_point(self):
        rng = np.random.default_rng(27)
        sys = random_system(rng, 3)
        frame = make_equipartition(sys)
        out = jko_step_general_cov(frame.pinf, sys, 0.05)
        assert max_abs(out.mat - frame.pinf.mat) < 1e-9

    def test_scalar_arithmetic(self):
        sys = LinearSystem([[-1.0]], [[1.0]])
        out = jko_step_general_cov(SpdMatrix(2.0), sys, 0.1)
        assert out.mat[0, 0] == pytest.approx(2.0 + 0.1 * (-4.0 + 2.0))

    def test_zero_step(self):
        rng = np.random.default_rng(28)
        sys = random_system(rng, 2)
        p = random_spd(rng, 2)
        out = jko_step_general_cov(p, sys, 0.0)
        assert max_abs(out.mat - p.mat) == 0.0

    def test_oversized_step_raises(self):
        sys = LinearSystem([[-1.0]], [[1e-2]])
        with pytest.raises(StepSizeError):
            jko_step_general_cov(SpdMatrix(1.0), sys, 0.6)


class TestPropagate:
    def test_zero_steps(self):
        sys = LinearSystem([[-1.0]], [[1.0]])
        g0 = Gaussian([1.0], SpdMatrix(1.0))
        path = propagate(sys, g0, StepConfig(h=0.1, steps=0, beta=1.0), "symmetric-exact")
        assert path == [(0.0, g0)]

    def test_symmetric_mode_refuses_a_batch_before_its_first_step(self):
        # an input fault, so it stays a validation error: inside the run
        # guard a refusal would read as numeric
        sys = LinearSystem([[-1.0]], [[1.0]])
        g0 = Gaussian(np.zeros((2, 1)), SpdMatrix(1.0))
        with pytest.raises(DimensionError, match=r"^expected a single density, got a batch of 2"):
            propagate(sys, g0, StepConfig(h=0.1, steps=2, beta=1.0), "symmetric-exact")

    def test_symmetric_terminal_near_exact(self):
        sys = LinearSystem([[-1.0]], [[1.0]])
        g0 = Gaussian([2.0], SpdMatrix(2.0))
        cfg = StepConfig(h=0.01, steps=10, beta=1.0)
        path = propagate(sys, g0, cfg, "symmetric-exact")
        assert len(path) == 11
        t, g = path[-1]
        assert t == pytest.approx(0.1)
        want = exact_cov(sys, g0.cov, 0.1).mat[0, 0]
        assert abs(g.cov.mat[0, 0] - want) < 0.01  # within O(h)

    def test_general_terminal_mean_near_exact(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sys = LinearSystem(a, np.eye(2))
        g0 = Gaussian([2.0, 1.0], SpdMatrix(np.eye(2)))
        cfg = StepConfig(h=0.01, steps=50)
        path = propagate(sys, g0, cfg, "general-first-order")
        want = exact_mean(sys, g0.mean, 0.5)
        assert max_abs(path[-1][1].mean - want) < 0.02  # within O(h)

    def test_order_one_convergence_symmetric(self):
        sys = LinearSystem([[-1.0]], [[1.0]])
        g0 = Gaussian([2.0], SpdMatrix(2.0))
        ref_m = exact_mean(sys, g0.mean, 1.0)
        ref_c = exact_cov(sys, g0.cov, 1.0)
        errors = []
        for h in (0.04, 0.02, 0.01, 0.005):
            cfg = StepConfig(h=h, steps=round(1.0 / h), beta=1.0)
            _, g = propagate(sys, g0, cfg, "symmetric-exact")[-1]
            errors.append(
                (max_abs(g.mean - ref_m), max_abs(g.cov.mat - ref_c.mat))
            )
        for (m0, c0), (m1, c1) in zip(errors, errors[1:]):
            assert 1.7 < m0 / m1 < 2.3
            assert 1.7 < c0 / c1 < 2.3

    def test_mode_mismatch_names_assumption(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sys = LinearSystem(a, np.eye(2))
        g0 = Gaussian([0.0, 0.0], SpdMatrix(np.eye(2)))
        with pytest.raises(ModeMismatchError, match="symmetric"):
            propagate(sys, g0, StepConfig(h=0.1, steps=1, beta=0.5), "symmetric-exact")
        sym = LinearSystem(-np.eye(2), np.eye(2))
        with pytest.raises(ModeMismatchError, match="isotropic"):
            propagate(sym, g0, StepConfig(h=0.1, steps=1, beta=3.0), "symmetric-exact")
        with pytest.raises(ModeMismatchError, match="beta"):
            propagate(sym, g0, StepConfig(h=0.1, steps=1), "symmetric-exact")

    def test_isotropic_noise_tolerance(self):
        g0 = Gaussian([0.0, 0.0], SpdMatrix(np.eye(2)))
        cfg = StepConfig(h=0.1, steps=1, beta=2.0)
        scale = math.sqrt(0.5)
        near = LinearSystem(-np.eye(2), scale * np.eye(2) + np.diag([1e-12, 0.0]))
        assert len(propagate(near, g0, cfg, "symmetric-exact")) == 2
        off = LinearSystem(-np.eye(2), scale * np.eye(2) + np.diag([1e-6, 0.0]))
        with pytest.raises(ModeMismatchError, match="deviation"):
            propagate(off, g0, cfg, "symmetric-exact")

    def test_overflowing_step_raises_numeric_failure(self):
        # every input is valid, but P + h (A P + P A^T + 2 B B^T) overflows
        sys = LinearSystem([[-3.0, 0.5], [-0.5, -3.0]], np.eye(2))
        g0 = Gaussian([0.0, 0.0], SpdMatrix(8e307 * np.eye(2)))
        with pytest.raises(NumericFailure,
                           match=r"^general-first-order propagation failed at step 1: overflow"):
            propagate(sys, g0, StepConfig(h=0.02, steps=10), "general-first-order")

    def test_step_that_overflows_in_symmetrization_raises_numeric_failure(self):
        # P + h (A P + P A^T + 2 B B^T) is finite, but its off-diagonal 1e308
        # passes _HALF_MAX, so (P + P^T)/2 overflows: the step is named, and
        # a direct call raises without a floating-point warning
        sys = LinearSystem([[-1.0, 10.0], [0.0, -1.0]], np.eye(2))
        p0 = SpdMatrix(1e307 * np.eye(2))
        with pytest.raises(NumericFailure, match=r"^general-first-order propagation failed "
                                                 r"at step 1: eigendecomposition"):
            propagate(sys, Gaussian([0.0, 0.0], p0), StepConfig(h=1.0, steps=2),
                      "general-first-order")
        with pytest.raises(NumericFailure, match=r"^eigendecomposition produced non-finite"):
            jko_step_general_cov(p0, sys, 1.0)

    def test_step_size_failure_keeps_its_class_and_names_the_step(self):
        # 1 + 0.05 (-100 + 2) < 0: the first covariance step is indefinite
        sys = LinearSystem(np.diag([-50.0, -1.0]), np.eye(2))
        g0 = Gaussian([0.0, 0.0], SpdMatrix(np.eye(2)))
        with pytest.raises(StepSizeError, match=r"^general-first-order propagation failed "
                                                r"at step 1: covariance step with h=0\.05"):
            propagate(sys, g0, StepConfig(h=0.05, steps=4), "general-first-order")

    def test_unknown_mode(self):
        sys = LinearSystem([[-1.0]], [[1.0]])
        g0 = Gaussian([0.0], SpdMatrix(1.0))
        with pytest.raises(ValidationError):
            propagate(sys, g0, StepConfig(h=0.1, steps=1), "semi-implicit")

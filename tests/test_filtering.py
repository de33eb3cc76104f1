import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from proxflow import (
    DimensionError,
    Gaussian,
    LinearSystem,
    MeasurementModel,
    NumericFailure,
    ProxflowError,
    SingularityError,
    SpdMatrix,
    StepConfig,
    StepSizeError,
    ValidationError,
    error_metrics,
    exact_cov,
    exact_mean,
    general_mean_map,
    jko_step_general_cov,
    jko_step_general_mean,
    jko_step_symmetric,
    lmmr_update,
    make_equipartition,
    propagate,
    run_filter,
    simulate,
    wasserstein_update,
)
from proxflow import filtering, gaussians, propagation
from proxflow.errors import named_failures
from proxflow.matrices import max_abs, solve
from support import count_eigh, random_orthogonal, random_spd

SCALAR_SYS = LinearSystem([[-1.0]], [[1.0]])
SCALAR_MEAS = MeasurementModel([[1.0]], SpdMatrix(1.0))


def scalar_gaussian(mu, p):
    return Gaussian([mu], SpdMatrix(p))


class TestMeasurementModel:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            MeasurementModel(np.ones((2, 3)), SpdMatrix(np.eye(3)))

    def test_information_matrix(self):
        m = MeasurementModel([[1.0, 0.0]], SpdMatrix(2.0))
        want = np.array([[0.5, 0.0], [0.0, 0.0]])
        info = m.information_matrix()
        assert max_abs(info - want) < 1e-14
        assert not info.flags.writeable
        assert m.information_matrix() is info  # formed once, not per update

    def test_transport_terms_are_kept_for_the_last_finite_h(self):
        m = MeasurementModel([[1.0, 0.5]], SpdMatrix(2.0))
        scaled, gain = m.transport_terms(0.02)
        assert np.array_equal(scaled, np.eye(2) + 0.02 * m.information_matrix())
        assert np.array_equal(gain, np.linalg.solve(scaled, 0.02 * m.c.T @ m.rinv))
        assert all(a is b for a, b in zip(m.transport_terms(0.02), (scaled, gain)))
        other = m.transport_terms(0.01)
        assert other[0] is not scaled and m.transport_terms(0.01)[0] is other[0]
        huge = MeasurementModel([[1e150]], SpdMatrix(1.0))
        for over in ("warn", "raise"):  # refused by name, in a run guard or not, and not kept
            with pytest.raises(NumericFailure) as info, np.errstate(over=over):
                huge.transport_terms(1e10)
            assert str(info.value) == "I + h C^T R^-1 C: h C^T R^-1 C overflows"


class TestLmmrUpdate:
    def test_scalar_worked_example(self):
        out = lmmr_update(scalar_gaussian(0, 1), SCALAR_MEAS, [1.0], 0.1)
        assert out.mean[0] == pytest.approx(0.1 / 1.1, abs=1e-14)
        assert out.cov.mat[0, 0] == pytest.approx(1.0 / 1.1, abs=1e-14)

    def test_zero_innovation_keeps_mean(self):
        rng = np.random.default_rng(41)
        prior = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        c = np.array([[1.0, -0.3]])
        meas = MeasurementModel(c, SpdMatrix(0.8))
        y = c @ prior.mean
        out = lmmr_update(prior, meas, y, 0.2)
        assert max_abs(out.mean - prior.mean) < 1e-12
        # covariance still shrinks
        assert np.all(np.linalg.eigvalsh(prior.cov.mat - out.cov.mat) > -1e-12)
        assert out.cov.trace() < prior.cov.trace()

    def test_small_step_continuity(self):
        prior = scalar_gaussian(0.5, 1.5)
        out = lmmr_update(prior, SCALAR_MEAS, [2.0], 1e-10)
        assert abs(out.mean[0] - prior.mean[0]) < 1e-9
        assert abs(out.cov.mat[0, 0] - prior.cov.mat[0, 0]) < 1e-9

    def test_information_monotone_multivariate(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            prior = Gaussian(rng.normal(size=n), random_spd(rng, n))
            meas = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
            y = rng.normal(size=m)
            h = float(rng.uniform(0.01, 0.5))
            out = lmmr_update(prior, meas, y, h)
            assert np.min(np.linalg.eigvalsh(prior.cov.mat - out.cov.mat)) >= -1e-12

    def test_covariance_expansion_first_order(self):
        prior = scalar_gaussian(0.0, 1.3)
        meas = MeasurementModel([[1.2]], SpdMatrix(0.7))
        s = 1.2 * 1.2 / 0.7

        def residual(h):
            out = lmmr_update(prior, meas, [0.5], h)
            return abs(out.cov.mat[0, 0] - (1.3 - h * 1.3 * s * 1.3))

        for h in (0.02, 0.01):
            assert 3.2 < residual(h) / residual(h / 2) < 4.8


class TestWassersteinUpdate:
    def test_scalar_worked_example(self):
        out = wasserstein_update(scalar_gaussian(0, 1), SCALAR_MEAS, [1.0], 0.1)
        assert out.mean[0] == pytest.approx(0.1 / 1.1, abs=1e-14)
        assert out.cov.mat[0, 0] == pytest.approx(1.0 / 1.21, abs=1e-14)

    def test_zero_innovation_keeps_mean(self):
        rng = np.random.default_rng(43)
        prior = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        c = np.array([[0.6, 1.1]])
        meas = MeasurementModel(c, SpdMatrix(1.4))
        out = wasserstein_update(prior, meas, c @ prior.mean, 0.2)
        assert max_abs(out.mean - prior.mean) < 1e-12

    def test_zero_observation_matrix_is_identity_update(self):
        rng = np.random.default_rng(44)
        prior = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        meas = MeasurementModel(np.zeros((1, 2)), SpdMatrix(1.0))
        out = wasserstein_update(prior, meas, [3.0], 0.3)
        assert max_abs(out.mean - prior.mean) < 1e-14
        assert max_abs(out.cov.mat - prior.cov.mat) < 1e-14

    def test_information_monotone_scalar(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            prior = scalar_gaussian(rng.normal(), float(rng.uniform(0.2, 3.0)))
            meas = MeasurementModel(
                [[float(rng.uniform(0.2, 2.0))]], SpdMatrix(float(rng.uniform(0.2, 2.0)))
            )
            out = wasserstein_update(prior, meas, [rng.normal()], float(rng.uniform(0.01, 0.5)))
            assert prior.cov.mat[0, 0] - out.cov.mat[0, 0] >= -1e-12

    def test_monotonicity_fails_off_commuting_class(self):
        # With a rank-deficient information matrix and a correlated prior the
        # transport-proximal covariance update is NOT monotone; this pins the
        # known counterexample so the scalar-only scope of the monotonicity
        # guarantee stays visible.
        prior = Gaussian(np.zeros(2), SpdMatrix([[1.0, 0.9], [0.9, 1.0]]))
        meas = MeasurementModel(np.array([[0.0, 1.0]]), SpdMatrix(1.0))
        out = wasserstein_update(prior, meas, [0.0], 0.5)
        assert np.min(np.linalg.eigvalsh(prior.cov.mat - out.cov.mat)) < -1e-6

    def test_proximal_optimality_gradient(self):
        from proxflow import grad_w2_cross

        rng = np.random.default_rng(46)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, n + 1))
            prior = Gaussian(rng.normal(size=n), random_spd(rng, n))
            c = rng.normal(size=(m, n))
            r = random_spd(rng, m)
            meas = MeasurementModel(c, r)
            y = rng.normal(size=m)
            h = float(rng.uniform(0.01, 0.2))
            out = wasserstein_update(prior, meas, y, h)
            grad_mean = (out.mean - prior.mean) - h * c.T @ meas.rinv @ (y - c @ out.mean)
            grad_cov = 0.5 * (
                np.eye(n) - 2.0 * grad_w2_cross(out.cov, prior.cov)
            ) + 0.5 * h * meas.information_matrix()
            assert max_abs(grad_mean) < 1e-8
            assert max_abs(grad_cov) < 1e-8


class TestPredictUpdateComposition:
    def test_lmmr_cycle_recovers_riccati_rate(self):
        frame = make_equipartition(SCALAR_SYS)
        p = 1.7

        def residual(h):
            g = scalar_gaussian(0.4, p)
            prior = Gaussian(
                jko_step_general_mean(g.mean, general_mean_map(frame, h)),
                jko_step_general_cov(g.cov, SCALAR_SYS, h),
            )
            out = lmmr_update(prior, SCALAR_MEAS, [0.0], h)
            want = p + h * (-2.0 * p + 2.0 - p * p)
            return abs(out.cov.mat[0, 0] - want)

        for h in (0.02, 0.01):
            assert 3.2 < residual(h) / residual(h / 2) < 4.8

    def test_wasserstein_cycle_recovers_lyapunov_rate(self):
        frame = make_equipartition(SCALAR_SYS)
        p = 1.7

        def residual(h):
            g = scalar_gaussian(0.4, p)
            prior = Gaussian(
                jko_step_general_mean(g.mean, general_mean_map(frame, h)),
                jko_step_general_cov(g.cov, SCALAR_SYS, h),
            )
            out = wasserstein_update(prior, SCALAR_MEAS, [0.0], h)
            # (A - C'R^-1C) P + P (A - C'R^-1C)' + 2BB' with A=-1, C=R=B=1
            want = p + h * (-4.0 * p + 2.0)
            return abs(out.cov.mat[0, 0] - want)

        for h in (0.02, 0.01):
            assert 3.2 < residual(h) / residual(h / 2) < 4.8


class TestUpdateSolveFailure:
    # The KL update's posterior P- - K C P- falls below the SPD floor at
    # P = 1e306 I and C = [1, 0.5], and with C scaled by 1e150, as its
    # information form (P-)^-1 + h C^T R^-1 C does; there I + h C^T R^-1 C is
    # singular in floating point too, so the transport update's solves fail.
    @pytest.mark.parametrize("update,scale,prior", [
        (lmmr_update, 1.0, 1e306), (lmmr_update, 1e150, 1.0), (wasserstein_update, 1e150, 1.0),
    ])
    def test_failed_solve_names_the_update(self, update, scale, prior):
        meas = MeasurementModel([[scale, 0.5 * scale]], SpdMatrix(1.0))
        g = Gaussian(np.zeros(2), SpdMatrix(prior * np.eye(2)))
        # run_filter adds the update's name and step, so the update names neither
        error, cause = {
            lmmr_update: (SingularityError, "posterior covariance P- - K C P- "
                                            "is not positive definite within the floor"),
            wasserstein_update: (NumericFailure, "a solve failed"),
        }[update]
        with pytest.raises(error, match=rf"^{re.escape(cause)}: "):
            update(g, meas, [0.0], 0.02)


class TestInnovationForm:
    # Both updates step the mean as mu- + gain (y - C mu-). The proximal
    # minimizers are the solutions of linear systems, solved here directly:
    # the KL one (I + h P- C' R^-1 C) mu+ = mu- + h P- C' R^-1 y, the
    # transport one (I + h C' R^-1 C) mu+ = mu- + h C' R^-1 y.
    @pytest.mark.parametrize("batch", [None, 3], ids=["one-mean", "batch"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("update", [lmmr_update, wasserstein_update])
    def test_mean_matches_the_proximal_solve(self, update, n, m, batch):
        rng = np.random.default_rng(60 + 10 * n + m)
        shape = () if batch is None else (batch,)
        prior = Gaussian(rng.normal(size=shape + (n,)), random_spd(rng, n))
        c = rng.normal(size=(m, n))
        meas = MeasurementModel(c, random_spd(rng, m))
        y = rng.normal(size=shape + (m,))
        h = 0.05
        p = prior.cov.mat if update is lmmr_update else np.eye(n)
        lhs = np.eye(n) + h * p @ c.T @ meas.rinv @ c
        rhs = prior.mean + y @ (h * p @ c.T @ meas.rinv).T
        want = np.linalg.solve(lhs, rhs.T).T  # one column per mean
        got = update(prior, meas, y, h).mean
        assert got.shape == want.shape
        assert max_abs(got - want) <= 1e-13 * max_abs(want)



def _information_form(p, c, r, h):
    """The KL update's (gain, P+) in information form, in plain numpy:
    P+ = ((P-)^-1 + h C' R^-1 C)^-1 and gain h P+ C' R^-1."""
    rinv = np.linalg.inv(r)
    cov = np.linalg.inv(np.linalg.inv(p) + h * c.T @ rinv @ c)
    return h * cov @ c.T @ rinv, cov


class TestGainForm:
    # At n >= 2 the KL update evaluates its information form in gain form;
    # by the matrix inversion lemma the two are equal, and in floating point
    # they agree within GAIN_FORM_RTOL of the largest entry over this grid.
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_gain_form_agrees_with_the_information_form(self, n):
        rng = np.random.default_rng(70 + n)
        worst = 0.0
        for m in sorted({1, (n + 1) // 2, n}):
            c = rng.normal(size=(m, n))
            for cond in (1.0, 1e3, 1e6):
                q = random_orthogonal(rng, n)
                p = (q * np.geomspace(1.0 / cond, 1.0, n)) @ q.T
                for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4):
                    r = random_spd(rng, m).mat * scale
                    meas = MeasurementModel(c, SpdMatrix(r))
                    for h in (1e-3, 0.02, 1.0):
                        want_gain, want_cov = _information_form(p, c, r, h)
                        SpdMatrix(want_cov)  # the information form accepts every case
                        gain, cov = filtering._lmmr_half(SpdMatrix(p), meas, h)
                        for got, want in ((gain, want_gain), (cov.mat, want_cov)):
                            worst = max(worst, max_abs(got - want) / max_abs(want))
        assert worst <= filtering.GAIN_FORM_RTOL


class TestEighCount:
    # A covariance that is only stepped, solved with or multiplied never runs
    # np.linalg.eigh: a run's one call, with the jko predict, is the square
    # root of the stationary covariance in make_equipartition, made once.
    @pytest.mark.parametrize("steps", [1, 50])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    def test_a_filter_run_makes_no_eigh_per_step(self, monkeypatch, update, predict, steps):
        sys, meas, g0, rng = _dense_problem(8, 3)
        cfg = StepConfig(h=0.02, steps=steps)
        dz = 0.1 * rng.normal(size=(steps, 3))
        calls = count_eigh(monkeypatch)
        run_filter(sys, meas, g0, dz, cfg, update, predict)
        assert len(calls) == {"jko": 1, "exact": 0}[predict]

    @pytest.mark.parametrize("steps", [1, 50])
    def test_a_general_first_order_propagation_makes_no_eigh_per_step(self, monkeypatch,
                                                                       steps):
        sys, _, g0, _ = _dense_problem(8, 3)
        calls = count_eigh(monkeypatch)
        propagate(sys, g0, StepConfig(h=0.02, steps=steps), "general-first-order")
        assert len(calls) == 1

    def test_a_symmetric_step_makes_two(self, monkeypatch):
        # (P-)^(-1/2) and the quadratic equation's right-hand side; Z's
        # eigenpairs come from the right-hand side's, with no eigh
        rng = np.random.default_rng(9)
        g, gamma = Gaussian(rng.normal(size=8), random_spd(rng, 8)), random_spd(rng, 8)
        calls = count_eigh(monkeypatch)
        for step in range(1, 4):
            g = jko_step_symmetric(g, gamma, 1.0, 0.02)
            assert len(calls) == 2 * step


class TestRunFilter:
    def test_zero_steps(self):
        g0 = scalar_gaussian(0.0, 1.0)
        run = run_filter(
            SCALAR_SYS, SCALAR_MEAS, g0, np.zeros((0, 1)), StepConfig(h=0.1, steps=0)
        )
        assert run.covs == (g0.cov,)
        assert run.means().shape == (1, 1) and run.means().tobytes() == g0.mean.tobytes()
        assert run.terminal.mean.tobytes() == g0.mean.tobytes() and run.terminal.cov is g0.cov

    def test_lmmr_covariance_near_optimal_steady_state(self):
        h = 0.01
        steps = 1500
        dz = np.zeros((steps, 1))
        run = run_filter(
            SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0, 2), dz, StepConfig(h=h, steps=steps)
        )
        assert abs(run.terminal.cov.mat[0, 0] - (math.sqrt(3.0) - 1.0)) < 5e-3

    def test_wasserstein_covariance_near_observer_steady_state(self):
        h = 0.01
        steps = 1500
        dz = np.zeros((steps, 1))
        run = run_filter(
            SCALAR_SYS,
            SCALAR_MEAS,
            scalar_gaussian(0, 2),
            dz,
            StepConfig(h=h, steps=steps),
            update="wasserstein",
        )
        assert abs(run.terminal.cov.mat[0, 0] - 0.5) < 5e-3

    def test_exact_predict_matches_jko_predict_to_first_order(self):
        rng = np.random.default_rng(47)
        steps = 50
        dz = rng.normal(size=(steps, 1)) * 0.1
        g0 = scalar_gaussian(0.3, 1.0)
        runs = {}
        for predict in ("jko", "exact"):
            runs[predict] = run_filter(
                SCALAR_SYS, SCALAR_MEAS, g0, dz, StepConfig(h=0.01, steps=steps), predict=predict
            )
        gap = max_abs(runs["jko"].means() - runs["exact"].means())
        assert gap < 1e-3

    @pytest.mark.parametrize("noise", [1.0, 1e-4])
    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_exact_predict_matches_the_oracle_at_every_step(self, n, update, noise):
        # The run's exact predict is one affine map built once; the loop here
        # calls the oracle at every step, as the exact predict once did. At
        # small noise the map's offset Q_h is tiny against a unit-scale probe,
        # so this case shows whether reading it off the oracle cancels.
        sys, meas, g0, rng = _dense_problem(n, min(n, 3))
        sys = LinearSystem(sys.a, noise * sys.b)
        g0 = Gaussian(g0.mean, SpdMatrix(noise**2 * g0.cov.mat))
        cfg = StepConfig(h=0.02, steps=300)
        dz = math.sqrt(cfg.h) * rng.normal(size=(cfg.steps, meas.obs_dim))
        update_fn = {"lmmr": lmmr_update, "wasserstein": wasserstein_update}[update]
        want = [g0]
        for k in range(cfg.steps):
            g = want[-1]
            prior = Gaussian(exact_mean(sys, g.mean, cfg.h), exact_cov(sys, g.cov, cfg.h))
            want.append(update_fn(prior, meas, dz[k] / cfg.h, cfg.h))
        run = run_filter(sys, meas, g0, dz, cfg, update=update, predict="exact")
        means = np.stack([g.mean for g in want])
        covs = np.stack([g.cov.mat for g in want])
        got_covs = np.stack([cov.mat for cov in run.covs])
        assert max_abs(run.means() - means) <= 1e-11 * max_abs(means)
        assert max_abs(got_covs - covs) <= 1e-11 * max_abs(covs)

    def test_exact_predict_on_a_stiff_system_with_small_noise(self):
        # e^(-150 h) shrinks the probe's fast direction by 2.5e-3: a probe at
        # the noise scale alone would fall below the SPD floor. The reference
        # is the Van Loan block exponential; the oracle's RK4 is 1e-10 off
        # here, since 150 times its 1e-3 substep is not small.
        sys = LinearSystem([[-1.0, 0.0], [0.5, -150.0]], 1e-6 * np.eye(2))
        meas = MeasurementModel([[1.0, 0.5]], SpdMatrix(1.0))
        g0 = Gaussian(np.array([1.0, -1.0]), SpdMatrix(np.eye(2)))
        cfg = StepConfig(h=0.02, steps=4)
        dz = np.full((cfg.steps, 1), 0.01)
        block = np.block([[-sys.a, sys.diffusion()], [np.zeros((2, 2)), sys.a.T]])
        van_loan = scipy.linalg.expm(cfg.h * block)
        phi = van_loan[2:, 2:].T
        q_h = phi @ van_loan[:2, 2:]
        want = [g0]
        for k in range(cfg.steps):
            cov = phi @ want[-1].cov.mat @ phi.T + q_h
            prior = Gaussian(phi @ want[-1].mean, SpdMatrix(0.5 * (cov + cov.T)))
            want.append(lmmr_update(prior, meas, dz[k] / cfg.h, cfg.h))
        run = run_filter(sys, meas, g0, dz, cfg, predict="exact")
        assert max_abs(run.means() - np.stack([g.mean for g in want])) <= 1e-12
        assert max_abs(run.terminal.cov.mat - want[-1].cov.mat) <= 1e-12

    def test_exact_predict_names_an_oracle_read_that_fails(self):
        # e^(-1e4 h) puts the probe at 5e163, where exact_cov's output
        # cancels to an indefinite matrix; the failure names the predict.
        sys = LinearSystem([[-10000.0, 1.0], [0.0, -1.0]], np.eye(2))
        meas = MeasurementModel([[1.0, 0.0]], SpdMatrix(1.0))
        g0 = Gaussian(np.zeros(2), SpdMatrix(np.eye(2)))
        with pytest.raises(SingularityError, match=r"^exact predict: cannot read Q_h off the "
                                                 r"oracle at h=0\.02: exact covariance: "
                                                 r"SPD matrix is not positive"):
            run_filter(sys, meas, g0, np.zeros((10, 1)), StepConfig(h=0.02, steps=10),
                       predict="exact")

    @pytest.mark.parametrize("predict", ["jko", "exact"])
    def test_posterior_below_the_floor_names_the_update_and_step(self, predict):
        # R = 1e-9 squeezes the transport posterior's observed variance to
        # 2.5e-15 at the first update, below the SPD floor
        sys = LinearSystem([[-1.0, 0.5], [0.0, -2.0]], np.eye(2))
        meas = MeasurementModel([[1.0, 0.0]], SpdMatrix(1e-9))
        g0 = Gaussian(np.zeros(2), SpdMatrix(np.eye(2)))
        cfg = StepConfig(h=0.02, steps=50)
        with pytest.raises(SingularityError, match=r"^wasserstein update failed at step 1: "
                                                   r"SPD matrix is not positive definite"):
            run_filter(sys, meas, g0, np.zeros((2, cfg.steps, 1)), cfg, "wasserstein", predict)

    def test_exact_predict_that_overflows_names_the_step(self):
        # Phi P Phi^T is finite, but its entries pass _HALF_MAX, so
        # symmetrizing it overflows to a non-finite eigendecomposition
        sys = LinearSystem([[-1.0, 100.0], [0.0, -1.0]], np.eye(2))
        meas = MeasurementModel([[1.0, 0.5]], SpdMatrix(1.0))
        g0 = Gaussian(np.zeros(2), SpdMatrix(2e307 * np.eye(2)))
        with pytest.raises(NumericFailure, match=r"^exact predict failed at step 1: "):
            run_filter(sys, meas, g0, np.zeros((3, 1)), StepConfig(h=0.02, steps=3),
                       predict="exact")

    @pytest.mark.parametrize("a,cov,h,predict,error,message", [
        # 1 + 0.05 (-100 + 2) < 0: the first jko covariance step is indefinite
        ([[-50.0, 0.0], [0.0, -1.0]], 1.0, 0.05, "jko", StepSizeError,
         r"jko predict failed at step 1: covariance step with h=0\.05 lost"),
        # P- - K C P- falls below the SPD floor at P = 1.5e307 I
        ([[-1.0, 100.0], [0.0, -1.0]], 1.5e307, 0.02, "exact", SingularityError,
         r"lmmr update failed at step 1: posterior covariance P- - K C P- "
         r"is not positive definite within the floor"),
    ], ids=["jko-predict", "update-solve"])
    def test_failing_step_keeps_its_class_and_names_the_step(self, a, cov, h, predict, error,
                                                             message):
        sys = LinearSystem(a, np.eye(2))
        meas = MeasurementModel([[1.0, 0.5]], SpdMatrix(1.0))
        g0 = Gaussian(np.zeros(2), SpdMatrix(cov * np.eye(2)))
        with pytest.raises(error, match=rf"^{message}"):
            run_filter(sys, meas, g0, np.zeros((3, 1)), StepConfig(h=h, steps=3),
                       predict=predict)

    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    def test_stiff_run_passes_raw_products_inside_the_symmetry_tolerance(self, update,
                                                                         predict):
        # R = 1e-6 I drives the update's solves hard; every covariance the
        # recursions form reaches SpdMatrix unsymmetrized and must pass its
        # symmetry check
        sys, meas, g0, rng = _dense_problem(8, 3)
        meas = MeasurementModel(meas.c, SpdMatrix(1e-6 * np.eye(3)))
        cfg = StepConfig(h=0.02, steps=100)
        dz = math.sqrt(cfg.h) * rng.normal(size=(cfg.steps, 3))
        run = run_filter(sys, meas, g0, dz, cfg, update=update, predict=predict)
        assert len(run.covs) == cfg.steps + 1 and run.means().shape == (cfg.steps + 1, 8)

    @pytest.mark.parametrize("steps", [10, 300])
    def test_exact_predict_reads_the_oracle_once_per_run(self, steps, monkeypatch):
        calls = {"exact_mean": 0, "exact_cov": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(filtering, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(filtering, name, counted)
        sys, meas, g0, rng = _dense_problem(3, 2)
        dz = rng.normal(size=(steps, 2))
        run_filter(sys, meas, g0, dz, StepConfig(h=0.02, steps=steps), predict="exact")
        assert calls == {"exact_mean": 1, "exact_cov": 1}

    @pytest.mark.parametrize("batch", [None, 3], ids=["one-path", "batch"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_jko_predict_is_the_general_propagation_step(self, n, batch):
        # With C = 0 the transport update is the identity, so the run's means
        # and covariances are the predicts alone. The KL update cannot show
        # this: it returns inv(inv(P)), not P.
        sys, _, g0, rng = _dense_problem(n, 1)
        meas = MeasurementModel(np.zeros((1, n)), random_spd(rng, 1))
        cfg = StepConfig(h=0.02, steps=50)
        shape = (cfg.steps, 1) if batch is None else (batch, cfg.steps, 1)
        run = run_filter(sys, meas, g0, rng.normal(size=shape), cfg,
                         update="wasserstein", predict="jko")
        path = propagate(sys, g0, cfg, "general-first-order")
        assert len(run.covs) == len(path) == cfg.steps + 1
        assert run.means().shape == shape[:-2] + (cfg.steps + 1, n)
        for k, (_, want) in enumerate(path):
            mean = run.means()[..., k, :]
            assert np.array_equal(mean, np.broadcast_to(want.mean, mean.shape))
            assert np.array_equal(run.covs[k].mat, want.cov.mat)

    def test_increment_length_mismatch(self):
        with pytest.raises(DimensionError):
            run_filter(
                SCALAR_SYS,
                SCALAR_MEAS,
                scalar_gaussian(0, 1),
                np.zeros((3, 1)),
                StepConfig(h=0.1, steps=5),
            )

    def test_unknown_kinds(self):
        g0 = scalar_gaussian(0, 1)
        dz = np.zeros((1, 1))
        with pytest.raises(ValidationError):
            run_filter(SCALAR_SYS, SCALAR_MEAS, g0, dz, StepConfig(h=0.1, steps=1), update="enkf")
        with pytest.raises(ValidationError):
            run_filter(SCALAR_SYS, SCALAR_MEAS, g0, dz, StepConfig(h=0.1, steps=1), predict="euler")


class TestErrorMetrics:
    def test_perfect_estimate(self):
        g0 = scalar_gaussian(0.0, 1.0)
        run = run_filter(
            SCALAR_SYS, SCALAR_MEAS, g0, np.zeros((0, 1)), StepConfig(h=0.1, steps=0)
        )
        summary = error_metrics(run, np.zeros((1, 1)))
        assert summary.terminal_squared == 0.0
        assert summary.path_rmse == 0.0

    def test_constant_offset(self):
        h, steps = 0.05, 20
        dz = np.zeros((steps, 1))
        run = run_filter(SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0, 1), dz, StepConfig(h=h, steps=steps))
        truth = run.means() + 0.7
        summary = error_metrics(run, truth)
        assert summary.path_rmse == pytest.approx(0.7)
        assert math.sqrt(summary.terminal_squared) == pytest.approx(0.7)

    def test_misaligned_lengths(self):
        run = run_filter(
            SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0, 1), np.zeros((2, 1)), StepConfig(h=0.1, steps=2)
        )
        with pytest.raises(DimensionError):
            error_metrics(run, np.zeros((7, 1)))

    def test_one_dimensional_truth_rejected(self):
        # a truth path is (steps + 1, n) even for n = 1, like the run's means
        run = run_filter(
            SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0, 1), np.zeros((2, 1)), StepConfig(h=0.1, steps=2)
        )
        with pytest.raises(DimensionError, match=r"^truth path must be a matrix, got shape \(3,"):
            error_metrics(run, np.zeros(3))


class TestMonteCarloBenchmark:
    def test_lmmr_not_worse_than_observer_200_seeds(self):
        # 200 paired runs on shared noise; the KL-proximal filter's mean
        # terminal squared error must not exceed the transport-proximal
        # observer's beyond one-sided Monte Carlo noise (2 standard errors).
        g0 = scalar_gaussian(0.0, 1.0)
        h, horizon = 0.02, 6.0
        steps = round(horizon / h)
        cfg = StepConfig(h=h, steps=steps)
        paths = [simulate(SCALAR_SYS, SCALAR_MEAS, g0, cfg, [seed]) for seed in range(1000, 1200)]
        dz = np.concatenate([increments for _, increments in paths])
        truth = np.concatenate([states for states, _ in paths])
        terminal = {}
        for kind in ("lmmr", "wasserstein"):
            run = run_filter(SCALAR_SYS, SCALAR_MEAS, g0, dz, cfg, update=kind)
            terminal[kind] = error_metrics(run, truth).terminal_squared
        diffs = terminal["lmmr"] - terminal["wasserstein"]
        assert diffs.shape == (200,)
        mean_diff = float(diffs.mean())
        stderr = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
        assert mean_diff <= 2.0 * stderr

    def test_only_the_kl_filter_reports_its_realized_error_covariance(self):
        # compare_scalar.json's system. The normalised estimation error
        # squared, NEES_k = (mu_k - x_k)^2 / P_k, averages 1 over the settled
        # steps (t >= 2) when P_k is the covariance the error really has. The
        # KL filter's is: it settles at the Kalman-Bucy sqrt(3) - 1. The
        # transport filter's estimate has the static gain L = C^T R^-1, whose
        # error covariance SIGMA solves (A - LC) SIGMA + SIGMA (A - LC)^T
        # + 2BB^T + LRL^T = 0, here -4 SIGMA + 3 = 0; it reports P_T (about
        # 1/2), so its NEES averages SIGMA / P_T, and its path MSE exceeds the
        # KL filter's by SIGMA - (sqrt(3) - 1). Each mean over the 200 seeds
        # must lie within 3 standard errors of its prediction.
        sigma = 0.75
        g0 = scalar_gaussian(0.0, 1.0)
        cfg = StepConfig(h=0.02, steps=300)
        states, dz = simulate(SCALAR_SYS, SCALAR_MEAS, g0, cfg, range(5000, 5200))
        nees, mse, p_final = {}, {}, {}
        for kind in ("lmmr", "wasserstein"):
            run = run_filter(SCALAR_SYS, SCALAR_MEAS, g0, dz, cfg,
                             update=kind, predict="jko")
            sq = (run.means() - states)[:, 100:, 0] ** 2
            p = np.array([cov.mat.item() for cov in run.covs[100:]])
            nees[kind], mse[kind] = (sq / p).mean(axis=1), sq.mean(axis=1)
            p_final[kind] = run.covs[-1].mat.item()
        ratio = sigma / p_final["wasserstein"]
        checks = [
            (nees["lmmr"], 1.0),
            (nees["wasserstein"], ratio),
            (nees["wasserstein"] - nees["lmmr"], ratio - 1.0),
            (mse["lmmr"] - mse["wasserstein"], (math.sqrt(3.0) - 1.0) - sigma),
        ]
        for per_seed, want in checks:
            assert per_seed.shape == (200,)
            stderr = per_seed.std(ddof=1) / math.sqrt(per_seed.size)
            assert abs(per_seed.mean() - want) <= 3.0 * stderr


def _dense_problem(n, m):
    rng = np.random.default_rng(48 + n)
    a = rng.normal(size=(n, n)) / math.sqrt(n)
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    sys = LinearSystem(a, np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n))
    meas = MeasurementModel(rng.normal(size=(m, n)) / math.sqrt(n), random_spd(rng, m))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    return sys, meas, g0, rng


class TestBatchedRunFilter:
    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    @pytest.mark.parametrize("n,m", [(1, 1), (8, 3)])
    def test_batch_equals_one_seed_runs_bitwise(self, n, m, update, predict):
        sys, meas, g0, rng = _dense_problem(n, m)
        cfg = StepConfig(h=0.02, steps=25)
        dz = 0.1 * rng.normal(size=(6, cfg.steps, m))
        batch = run_filter(sys, meas, g0, dz, cfg, update=update, predict=predict)
        singles = [run_filter(sys, meas, g0, path, cfg, update=update, predict=predict)
                   for path in dz]
        assert batch.means().shape == (6, cfg.steps + 1, n)
        assert np.array_equal(batch.means(), np.stack([r.means() for r in singles]))
        assert len(batch.covs) == len(singles[0].covs) == cfg.steps + 1
        for cov, cov_single in zip(batch.covs, singles[0].covs):
            assert np.array_equal(cov.mat, cov_single.mat)

    def test_error_metrics_per_seed(self):
        cfg = StepConfig(h=0.05, steps=10)
        dz = np.zeros((3, cfg.steps, 1))
        run = run_filter(SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0, 1), dz, cfg)
        offsets = np.array([0.5, 1.0, 2.0])
        summary = error_metrics(run, run.means() + offsets[:, None, None])
        assert np.allclose(summary.terminal_squared, offsets ** 2, rtol=1e-12, atol=0.0)
        assert np.allclose(summary.path_rmse, offsets, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "shape", [(2, 2, 5, 1), (2, 4, 1), (2, 5, 2)], ids=["rank4", "steps", "obs_dim"]
    )
    def test_rejects_bad_increment_shapes(self, shape):
        with pytest.raises(DimensionError):
            run_filter(SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0, 1), np.zeros(shape),
                       StepConfig(h=0.1, steps=5))

    def test_rejects_batched_prior(self):
        g0 = Gaussian(np.zeros((2, 1)), SpdMatrix(1.0))
        with pytest.raises(DimensionError):
            run_filter(SCALAR_SYS, SCALAR_MEAS, g0, np.zeros((2, 5, 1)), StepConfig(h=0.1, steps=5))

    @pytest.mark.parametrize("update", [lmmr_update, wasserstein_update])
    def test_update_rejects_mismatched_measurement_batch(self, update):
        batch = Gaussian(np.zeros((3, 1)), SpdMatrix(1.0))
        with pytest.raises(DimensionError):
            update(batch, SCALAR_MEAS, np.zeros((2, 1)), 0.1)
        with pytest.raises(DimensionError):
            update(batch, SCALAR_MEAS, np.zeros(1), 0.1)
        with pytest.raises(DimensionError):
            update(scalar_gaussian(0, 1), SCALAR_MEAS, np.zeros((3, 1)), 0.1)


def _stepwise_run(sys, meas, g0, dz, cfg, update, predict):
    """run_filter written out: every step predicts and updates the
    covariance, with no reuse."""
    h = cfg.h
    _, step = (propagation.general_step if predict == "jko" else filtering._exact_step)(sys, h)
    update_fn = {"lmmr": lmmr_update, "wasserstein": wasserstein_update}[update]
    out = [Gaussian(np.broadcast_to(g0.mean, dz.shape[:-2] + (g0.dim,)), g0.cov)]
    for k in range(cfg.steps):
        out.append(update_fn(step(out[-1]), meas, dz[..., k, :] / h, h))
    return out


# (A, C, prior mean, data scale) of a one-path tail that runs in floats
_TAIL_CASES = {
    "unit": (-1.0, 1.0, 0.5, 0.1),
    "negzero-start": (-1.0, 1.0, -0.0, 0.0),
    "negative-c-negzero-data": (-1.0, -1.0, 0.0, -0.0),
    "c0-negzero-data": (-1.0, 0.0, -0.0, -0.0),
    "negzero-c": (-1.0, -0.0, 0.5, 0.0),
    "tiny": (-1.0, -1.0, 1e-300, 1e-300),
    "huge": (-1.0, 1e-150, 1e300, 1e300),
    "large-c": (-1.0, 1e3, -1e300, 1e-300),
}


class TestSettledCovariance:
    @staticmethod
    def _count_calls(monkeypatch, space: dict, name):
        """Count the calls made through space[name], a module's or a table's binding."""
        calls = []
        real = space[name]

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setitem(space, name, counted)
        return calls

    @classmethod
    def _count_cov_steps(cls, monkeypatch):
        return cls._count_calls(monkeypatch, vars(propagation), "jko_step_general_cov")

    @staticmethod
    def _assert_bitwise(run, want):
        assert len(run.covs) == run.means().shape[-2] == len(want)
        for k, w in enumerate(want):
            mean = run.means()[..., k, :]
            assert mean.shape == w.mean.shape
            assert mean.tobytes() == w.mean.tobytes()
            assert run.covs[k].mat.tobytes() == w.cov.mat.tobytes()

    @pytest.mark.parametrize("seeds", [None, 3], ids=["one-path", "batch"])
    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    def test_a_settled_covariance_is_reused_bit_for_bit(self, monkeypatch, predict, update,
                                                        seeds):
        # The scalar system's posterior covariance repeats bit for bit well
        # within 1000 steps of h = 0.02; run_filter walks the public predict
        # and update up to that step, and the settled tail after it steps
        # only the means, with the repeated covariance and gain.
        cfg = StepConfig(h=0.02, steps=1000)
        g0 = scalar_gaussian(0.5, 2.0)
        rng = np.random.default_rng(90)
        dz = 0.1 * rng.normal(size=(cfg.steps, 1) if seeds is None else (seeds, cfg.steps, 1))
        cov_steps = self._count_cov_steps(monkeypatch)
        mean_steps = self._count_calls(monkeypatch, vars(propagation), "jko_step_general_mean")
        updates = self._count_calls(monkeypatch, filtering._UPDATES, update)
        run = run_filter(SCALAR_SYS, SCALAR_MEAS, g0, dz, cfg, update=update, predict=predict)
        counts = len(cov_steps), len(mean_steps), len(updates)
        want = _stepwise_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, cfg, update, predict)
        self._assert_bitwise(run, want)
        # step k's posterior is want[k + 1]; the first repeat is at step settle
        covs = [g.cov.mat.tobytes() for g in want[1:]]
        settle = next(k for k in range(1, cfg.steps) if covs[k] == covs[k - 1])
        assert settle < cfg.steps // 2
        # steps 0..settle go through the public steps, the later ones do not
        walked = settle + 1 if predict == "jko" else 0
        assert counts == (walked, walked, settle + 1)
        assert all(cov is run.covs[settle + 1] for cov in run.covs[settle + 1:])

    @pytest.mark.parametrize("seeds", [None, 2], ids=["one-path", "batch"])
    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    def test_a_failure_in_the_settled_tail_names_its_stage_and_step(self, monkeypatch,
                                                                    predict, update, seeds):
        # The covariance settles before step 500, so step 801 is a tail step;
        # its y = dz / h overflows there, as in a run that walks every step.
        cfg = StepConfig(h=0.02, steps=1000)
        dz = np.zeros((cfg.steps, 1) if seeds is None else (seeds, cfg.steps, 1))
        dz[..., 800, :] = 1e307
        updates = self._count_calls(monkeypatch, filtering._UPDATES, update)
        with pytest.raises(NumericFailure,
                           match=rf"^{update} update failed at step 801: overflow encountered in divide$"):
            run_filter(SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0.5, 2.0), dz, cfg,
                       update=update, predict=predict)
        assert len(updates) < 500

    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict,a,c,mean,scale", [
        pytest.param(predict, *case, id=f"{name}-{predict}")
        for name, case in _TAIL_CASES.items() for predict in ("jko", "exact")
    ] + [pytest.param("exact", -40.0, -1.0, -1e-300, 0.0, id="underflow-exact")])
    def test_a_one_path_float_tail_is_its_row_of_a_batch_bitwise(self, predict, update,
                                                                   a, c, mean, scale):
        # One path of one state steps its settled tail in Python floats, a
        # batch in numpy. numpy adds a 1 x 1 product to +0.0 and a float
        # product keeps a -0.0: +-0.0 means, data and C make such zeros, and
        # so does the last case, whose negative mean decays under zero data
        # until Phi mu (Phi < 1/2) underflows to -0.0 in the tail.
        sys = LinearSystem([[a]], [[1.0]])
        meas = MeasurementModel([[c]], SpdMatrix(1.0))
        cfg = StepConfig(h=0.02, steps=2000)
        dz = scale * np.abs(np.random.default_rng(11).normal(size=(2, cfg.steps, 1)))
        g0 = scalar_gaussian(mean, 2.0)
        one = run_filter(sys, meas, g0, dz[0], cfg, update=update, predict=predict)
        batch = run_filter(sys, meas, g0, dz, cfg, update=update, predict=predict)
        assert one.covs[-1] is one.covs[-2]  # the covariance settled: the tail ran
        assert one.means().tobytes() == batch.means()[0].tobytes()
        assert [p.mat.tobytes() for p in one.covs] == [p.mat.tobytes() for p in batch.covs]

    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    def test_a_one_path_tail_makes_no_matvec_per_step(self, monkeypatch, predict, update):
        # the walk's steps are the same for 1000 and 2000 steps; a one-path
        # tail is floats, a batch's makes matvecs every step
        real = filtering.matvec
        calls = []
        monkeypatch.setattr(filtering, "matvec", lambda *args: calls.append(1) or real(*args))
        dz = 0.1 * np.random.default_rng(12).normal(size=(2, 2000, 1))
        counts = {}
        for paths in (dz[0], dz):
            for steps in (1000, 2000):
                calls.clear()
                run_filter(SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0.5, 2.0),
                           paths[..., :steps, :], StepConfig(h=0.02, steps=steps),
                           update=update, predict=predict)
                counts[paths.ndim, steps] = len(calls)
        assert counts[2, 1000] == counts[2, 2000]
        assert counts[3, 2000] - counts[3, 1000] == 3 * 1000

    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    def test_a_covariance_that_never_settles_is_stepped_every_time(self, monkeypatch, update):
        sys, meas, g0, rng = _dense_problem(3, 2)
        cfg = StepConfig(h=0.02, steps=300)
        dz = 0.1 * rng.normal(size=(3, cfg.steps, 2))
        calls = self._count_cov_steps(monkeypatch)
        run = run_filter(sys, meas, g0, dz, cfg, update=update, predict="jko")
        assert len(calls) == cfg.steps
        self._assert_bitwise(run, _stepwise_run(sys, meas, g0, dz, cfg, update, "jko"))
        covs = {cov.mat.tobytes() for cov in run.covs}
        assert len(covs) == cfg.steps + 1


# 1x1 covariance-step inputs from 1e-300 to 1e300. _A_UNDERFLOW * the prior
# next to the floor underflows to -0.0; h = 1e300 with C^T R^-1 C = 1e300
# overflows S = I + h C^T R^-1 C.
_NEAR_FLOOR = 1.0000001e-12
_A_UNDERFLOW = -1e-315
_PRIORS = [_NEAR_FLOOR, 1e-6, 1.0, 3.7e8, 1e150, 1e300]
_DRIFTS = [_A_UNDERFLOW, -1e-300, -1.0, -1e150, -1e300]
_NOISES = [1e-300, 1.0, 1e150]
_OBSERVATIONS = [(c, r) for c in (1e-300, 1.0, 1e150) for r in (1e-11, 1.0, 1e11)]
_UPDATE_STEPS = [1e-300, 1e-3, 0.02, 1.0, 1e300]
_PREDICT_STEPS = [0.0] + _UPDATE_STEPS


def _matrix_jko_cov(p, sys, h):
    """jko_step_general_cov written as matrix arithmetic."""
    m = p.mat
    try:
        return SpdMatrix(m + h * (sys.a @ m + m @ sys.a.T + 2.0 * sys.b @ sys.b.T))
    except SingularityError as exc:
        raise StepSizeError(
            f"covariance step with h={h} lost positive-definiteness; use a smaller step"
        ) from exc


def _matrix_lmmr_half(p, meas, h):
    """filtering._lmmr_half's 1 x 1 information form written as matrix
    arithmetic, P+ = inv(inv(P-) + h C^T R^-1 C), with P+ the one SpdMatrix."""
    with np.errstate(over="ignore"):
        info = np.linalg.inv(p.mat) + h * meas.information_matrix()
    if not np.isfinite(info).all():
        raise NumericFailure("information matrix (P-)^-1 + h C^T R^-1 C: h C^T R^-1 C overflows")
    cov = SpdMatrix(np.linalg.inv(info), "posterior covariance ((P-)^-1 + h C^T R^-1 C)^-1")
    return h * cov.mat @ meas.c.T @ meas.rinv, cov


def _matrix_wasserstein_half(p, meas, h):
    """filtering._wasserstein_half written as two matrix solves."""
    scaled, gain = meas.transport_terms(h)
    return gain, SpdMatrix(solve(scaled, solve(scaled, p.mat, "a solve failed").T,
                                 "a solve failed").T)


def _scalar_cases(kind):
    """(prior, model, h) over the grid: a LinearSystem for the predict, a
    MeasurementModel for the updates (models whose C^T R^-1 C overflows are
    refused at construction and left out)."""
    if kind == "jko-predict":
        models = [LinearSystem([[a]], [[b]]) for a in _DRIFTS for b in _NOISES]
        steps = _PREDICT_STEPS
    else:
        models = []
        for c, r in _OBSERVATIONS:
            try:
                models.append(MeasurementModel([[c]], SpdMatrix(r)))
            except ValidationError:
                continue
        steps = _UPDATE_STEPS
    return [(SpdMatrix(p), m, h) for p in _PRIORS for m in models for h in steps]


def _outcome(fn, *args):
    """The bytes of what fn(*args) returns (an SpdMatrix or a (gain, SpdMatrix)
    half), or its refusal's class and text."""
    try:
        out = fn(*args)
    except ProxflowError as exc:
        return type(exc), str(exc)
    gain, cov = out if isinstance(out, tuple) else (np.empty(0), out)
    return gain.tobytes(), cov.mat.tobytes(), cov.eigenvalues.tobytes()


def _guarded(fn, *args):
    """fn(*args) inside a run's guard, whose stage reads "step"."""
    with named_failures(lambda: "step"):
        return fn(*args)


class TestWalkedMeans:
    """A walked step's mean comes from checked inputs, so it is not read again
    by the outside-input rule (as_vectors); a public update still refuses a
    mean it computed that is not finite."""

    @pytest.mark.parametrize("seeds", [None, 3], ids=["one-path", "batch"])
    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    @pytest.mark.parametrize("predict", ["jko", "exact"])
    def test_a_walk_reads_only_its_public_inputs(self, monkeypatch, predict, update, seeds):
        # as_vectors reads the run's starting Gaussian, then per walked step
        # jko_step_general_mean's mean (jko only) and the update's y: 2 or 1
        # reads a step, where building each step's Gaussians read 2 more
        cfg = StepConfig(h=0.02, steps=50)
        g0 = scalar_gaussian(0.5, 2.0)
        dz = 0.1 * np.random.default_rng(7).normal(
            size=(cfg.steps, 1) if seeds is None else (seeds, cfg.steps, 1))
        reads = []
        real = filtering.as_vectors

        def counted(*args, **kwargs):
            reads.append(1)
            return real(*args, **kwargs)

        for module in (gaussians, propagation, filtering):
            monkeypatch.setattr(module, "as_vectors", counted)
        run = run_filter(SCALAR_SYS, SCALAR_MEAS, g0, dz, cfg, update=update, predict=predict)
        assert len({p.mat.tobytes() for p in run.covs}) == cfg.steps + 1  # every step walked
        assert len(reads) == (2 if predict == "jko" else 1) * cfg.steps + 1

    @pytest.mark.parametrize("update", [lmmr_update, wasserstein_update])
    @pytest.mark.parametrize("n,seeds", [(1, None), (2, None), (2, 3)])
    def test_a_public_update_refuses_a_mean_that_overflows(self, update, n, seeds):
        # outside any guard, with numpy's warnings off, the posterior mean
        # mu + K (y - C mu) = 1e308 + k (-1e308 - 1e308) is -inf or nan
        meas = MeasurementModel(np.ones((1, n)), SpdMatrix(1.0))
        mean = np.full((n,) if seeds is None else (seeds, n), 1e308)
        prior = Gaussian(mean, SpdMatrix(np.eye(n)))
        y = np.full(mean.shape[:-1] + (1,), -1e308)
        with np.errstate(all="ignore"), pytest.raises(ValidationError) as info:
            update(prior, meas, y, 1.0)
        assert str(info.value) == "mean has non-finite entries"


class TestScalarCovarianceSteps:
    _STEPS = {
        "jko-predict": (jko_step_general_cov, _matrix_jko_cov),
        "lmmr": (filtering._lmmr_half, _matrix_lmmr_half),
        "wasserstein": (filtering._wasserstein_half, _matrix_wasserstein_half),
    }

    def test_the_grid_reaches_the_edges(self):
        assert _A_UNDERFLOW * _NEAR_FLOOR == 0.0
        assert math.copysign(1.0, _A_UNDERFLOW * _NEAR_FLOOR) == -1.0
        huge = MeasurementModel([[1e150]], SpdMatrix(1.0))
        for half in (filtering._lmmr_half, filtering._wasserstein_half):  # h C^T R^-1 C overflows
            with pytest.raises(NumericFailure, match=r"h C\^T R\^-1 C overflows$"):
                half(SpdMatrix(1.0), huge, 1e300)

    @pytest.mark.parametrize("kind", list(_STEPS))
    def test_scalar_steps_keep_the_matrix_bits_across_magnitudes(self, kind):
        """At 1x1 each covariance step is float arithmetic: the bytes of its
        matrix expression or the same refusal, outside a run's guard and
        inside it. Inside it the one difference is where the matrix
        arithmetic overflows: numpy's floating-point message there becomes
        the SpdMatrix refusal of the non-finite float, still a
        NumericFailure, and no RuntimeWarning is raised."""
        step, matrix_step = self._STEPS[kind]
        faults = 0
        for case in _scalar_cases(kind):
            with np.errstate(all="ignore"):
                assert _outcome(step, *case) == _outcome(matrix_step, *case), case
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = (_outcome(_guarded, f, *case) for f in (step, matrix_step))
            if got != want and re.fullmatch(r"step: .* encountered in \w+", want[1]):
                assert want[0] is NumericFailure, case
                assert got == (NumericFailure, "step: SPD matrix has non-finite entries"), case
                faults += 1
            else:
                assert got == want, case
        # both updates refuse an overflowing h C^T R^-1 C by name, as their
        # matrix forms do (the transport one in transport_terms, which both share)
        assert (faults > 0) == (kind == "jko-predict")

    @pytest.mark.parametrize("c", [-0.0, 0.0, -1e-300, -1.0])
    def test_the_scalar_gain_keeps_the_matrix_gains_zero_sign(self, c):
        # h p c r underflows to a zero of c's sign (or is -0.0 for C = -0.0),
        # where the matrix products add it to +0.0
        meas = MeasurementModel([[c]], SpdMatrix(1.0))
        for h in (1e-300, 0.02):
            case = SpdMatrix(_NEAR_FLOOR), meas, h
            assert _outcome(filtering._lmmr_half, *case) == _outcome(_matrix_lmmr_half, *case)

    @pytest.mark.parametrize("n", [1, 2])
    def test_scalar_transport_update_makes_no_solve(self, monkeypatch, n):
        # S and the gain are solved once per h by transport_terms; at 1x1 the
        # covariance is (p / s) / s, with no solve, and at n = 2 each update
        # solves twice for S^-1 P- S^-T.
        if n == 1:  # a fresh model: SCALAR_MEAS may hold its terms for h already
            sys, meas = SCALAR_SYS, MeasurementModel([[1.0]], SpdMatrix(1.0))
            g0 = scalar_gaussian(0.5, 2.0)
        else:
            sys, meas, g0, _ = _dense_problem(2, 1)
        cfg = StepConfig(h=0.02, steps=300)
        dz = 0.1 * np.random.default_rng(5).normal(size=(cfg.steps, 1))
        count = TestSettledCovariance._count_calls
        solves = count(monkeypatch, vars(filtering), "solve")
        halves = count(monkeypatch, vars(filtering), "_wasserstein_half")
        settled_halves = count(monkeypatch, filtering._HALVES, "wasserstein")
        run_filter(sys, meas, g0, dz, cfg, update="wasserstein")
        walked = len(halves) + len(settled_halves)
        assert walked > 0
        assert len(solves) == 1 + (2 * walked if n == 2 else 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_model_run_at_another_h_runs_as_a_fresh_one(self, n):
        # transport_terms keeps the last h's terms on the model, so a model
        # run at h = 0.02 carries them into a later run at h = 0.01; that
        # run's means and covariances must be a fresh model's, bit for bit.
        def problem():
            if n == 1:
                meas = MeasurementModel([[1.0]], SpdMatrix(1.0))
                return SCALAR_SYS, meas, scalar_gaussian(0.5, 2.0)
            return _dense_problem(2, 1)[:3]

        dz = 0.1 * np.random.default_rng(6).normal(size=(3, 400, 1))
        sys, shared, g0 = problem()
        run_filter(sys, shared, g0, dz[:, :200], StepConfig(h=0.02, steps=200),
                   update="wasserstein")
        runs = [run_filter(sys, meas, g0, dz, StepConfig(h=0.01, steps=400), update="wasserstein")
                for meas in (shared, problem()[1])]
        assert runs[0].means().tobytes() == runs[1].means().tobytes()
        assert [c.mat.tobytes() for c in runs[0].covs] == [c.mat.tobytes() for c in runs[1].covs]



class TestScalarInformationForm:
    """At 1 x 1 the KL update is P+ = 1 / (1 / p + h J), J = c^2 / r, in floats:
    (P-)^-1 has no floor of its own, P+ has the SPD floor."""

    @pytest.mark.parametrize("p0", [1e13, 1e20, 1e300])
    def test_a_diffuse_prior_runs_and_its_first_posterior_is_the_float_formula(self, p0):
        cfg = StepConfig(h=0.02, steps=5)
        g0 = scalar_gaussian(0.0, p0)
        run = run_filter(SCALAR_SYS, SCALAR_MEAS, g0, np.zeros((cfg.steps, 1)), cfg)
        p = jko_step_general_cov(g0.cov, SCALAR_SYS, cfg.h).mat.item()
        assert run.covs[1].mat.item() == 1.0 / (1.0 / p + cfg.h * 1.0 * 1.0 / 1.0)

    def test_a_posterior_below_the_floor_names_the_posterior_covariance(self):
        # (P-)^-1 ~ 1e12 is finite; P+ = 1 / (1e12 + 2e9) sits below the floor
        meas = MeasurementModel([[1.0]], SpdMatrix(1e-11))
        prior = scalar_gaussian(0.0, _NEAR_FLOOR)
        cause = ("posterior covariance ((P-)^-1 + h C^T R^-1 C)^-1 is not positive "
                 "definite within the floor: eigenvalues in [9.980e-13, 9.980e-13]")
        with pytest.raises(SingularityError) as info:
            lmmr_update(prior, meas, [0.0], 0.02)
        assert str(info.value) == cause
        sys = LinearSystem([[-1e-9]], [[1e-9]])  # the predict keeps p next to the floor
        with pytest.raises(SingularityError) as info:
            run_filter(sys, meas, prior, np.zeros((3, 1)), StepConfig(h=0.02, steps=3))
        assert str(info.value).startswith("lmmr update failed at step 1: " + cause[:66])

    @pytest.mark.parametrize("h,walked", [(0.02, 490), (0.01, 959), (0.005, 1908)])
    def test_the_scalar_benchmark_system_settles_at_its_pinned_step(self, monkeypatch, h,
                                                                     walked):
        # A = -1, B = C = R = 1, P0 = 2 over a horizon of 20: the walked KL
        # updates before the settle, 3357 over the three step sizes
        updates = TestSettledCovariance._count_calls(monkeypatch, filtering._UPDATES, "lmmr")
        steps = round(20.0 / h)
        run = run_filter(SCALAR_SYS, SCALAR_MEAS, scalar_gaussian(0.0, 2.0),
                         np.zeros((steps, 1)), StepConfig(h=h, steps=steps))
        assert len(updates) == walked
        assert run.covs[walked] is run.covs[-1]
        assert run.covs[walked - 1].mat.tobytes() == run.covs[walked].mat.tobytes()

    def test_the_walk_reaches_a_bitwise_repeat_on_a_seeded_grid(self):
        # Each rounded operation is monotone, so p -> 1 / (1 / p + h J) is a
        # monotone map of the float p, and so is the exact predict's
        # phi p phi + Q_h: the walk is a monotone sequence of floats, which
        # reaches a fixed point. A form that subtracts (Joseph, the gain
        # form, p / (1 + h p J)) falls into a period-2 orbit on some cases.
        rng = np.random.default_rng(36)
        for case in range(300):
            a, b, c, r, p0 = (10.0 ** rng.uniform(lo, hi)
                              for lo, hi in ((-1, 1), (-1, 1), (-1, 1), (-2, 1), (-3, 3)))
            h = min(10.0 ** rng.uniform(-1.5, -0.5), 0.25 / a)
            cfg = StepConfig(h=h, steps=5000)
            run = run_filter(LinearSystem([[-a]], [[b]]), MeasurementModel([[c]], SpdMatrix(r)),
                             scalar_gaussian(0.0, p0), np.zeros((cfg.steps, 1)), cfg,
                             predict="exact")
            assert run.covs[-1] is run.covs[-2], (case, a, b, c, r, p0, h)

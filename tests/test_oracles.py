import math

import numpy as np
import pytest

from proxflow import (
    DimensionError,
    Gaussian,
    LinearSystem,
    MeasurementModel,
    OracleFailure,
    ProxObjective,
    SpdMatrix,
    ValidationError,
    brute_force_prox,
    exact_cov,
    exact_mean,
    jko_step_symmetric,
    kalman_bucy_run,
    lmmr_update,
    luenberger_run,
    prox_objective_value,
    wasserstein_update,
)
from proxflow import oracles
from proxflow.matrices import max_abs
from proxflow.oracles import _closed_form_cov, _rk4_cov
from support import random_spd, random_system

SCALAR_SYS = LinearSystem([[-1.0]], [[1.0]])
SCALAR_MEAS = MeasurementModel([[1.0]], SpdMatrix(1.0))


class TestExactMean:
    def test_time_zero(self):
        assert exact_mean(SCALAR_SYS, [2.0], 0.0)[0] == 2.0

    def test_scalar_decay(self):
        assert exact_mean(SCALAR_SYS, [2.0], 0.2)[0] == pytest.approx(2.0 * math.exp(-0.2))

    def test_zero_state(self):
        assert max_abs(exact_mean(SCALAR_SYS, [0.0], 1.7)) == 0.0


class TestExactCov:
    def test_time_zero(self):
        p0 = SpdMatrix(2.0)
        assert exact_cov(SCALAR_SYS, p0, 0.0) is p0

    def test_scalar_closed_form(self):
        got = exact_cov(SCALAR_SYS, SpdMatrix(2.0), 0.1).mat[0, 0]
        assert got == pytest.approx(1.0 + math.exp(-0.2), abs=1e-13)

    def test_stationary_limit(self):
        got = exact_cov(SCALAR_SYS, SpdMatrix(2.0), 20.0).mat[0, 0]
        assert abs(got - 1.0) < 1e-8

    def test_closed_form_matches_rk4(self):
        rng = np.random.default_rng(31)
        gamma = random_spd(rng, 3)
        beta = 1.7
        sys = LinearSystem(-gamma.mat, math.sqrt(1.0 / beta) * np.eye(3))
        p0 = random_spd(rng, 3)
        closed = _closed_form_cov(sys, p0, 0.5, 1.0 / beta)
        rk4 = _rk4_cov(sys, p0, 0.5, 1e-3)
        assert max_abs(closed.mat - rk4.mat) < 1e-9

    def test_rk4_self_consistency(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sys = LinearSystem(a, np.eye(2))
        p0 = SpdMatrix([[2.0, 0.5], [0.5, 1.5]])
        coarse = _rk4_cov(sys, p0, 1.0, 1e-2)
        fine = _rk4_cov(sys, p0, 1.0, 5e-3)
        assert max_abs(coarse.mat - fine.mat) < 1e-8

    def test_method_follows_system(self):
        # closed form for a symmetric drift with isotropic noise, else RK4
        substep = 0.25
        p0 = SpdMatrix(2.0)
        closed = _closed_form_cov(SCALAR_SYS, p0, 0.5, 1.0)
        assert np.array_equal(exact_cov(SCALAR_SYS, p0, 0.5, substep).mat, closed.mat)
        sys = LinearSystem([[-1.0, 2.0], [0.0, -3.0]], np.eye(2))
        p0 = SpdMatrix([[2.0, 0.5], [0.5, 1.5]])
        rk4 = _rk4_cov(sys, p0, 0.5, substep)
        assert np.array_equal(exact_cov(sys, p0, 0.5, substep).mat, rk4.mat)


class TestKalmanBucyRun:
    def test_noise_free_consistent_data(self):
        # increments equal the noise-free integral of C mu(t) dt with the
        # correct initial mean, so the filter mean tracks e^{At} mu0
        h, steps = 0.01, 100
        mu0 = 2.0
        t = np.arange(steps + 1) * h
        dz = (mu0 * (np.exp(-t[:-1]) - np.exp(-t[1:]))).reshape(-1, 1)
        g0 = Gaussian([mu0], SpdMatrix(1.0))
        out = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)
        want = mu0 * math.exp(-1.0)
        assert out[-1].mean[0] == pytest.approx(want, abs=2e-3)

    def test_scalar_riccati_steady_state(self):
        h = 0.01
        steps = 2000
        dz = np.zeros((steps, 1))
        g0 = Gaussian([0.0], SpdMatrix(2.0))
        out = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)
        assert abs(out[-1].cov.mat[0, 0] - (-1.0 + math.sqrt(3.0))) < 1e-6

    def test_no_information_reduces_to_propagation(self):
        meas = MeasurementModel([[0.0]], SpdMatrix(1.0))
        h, steps = 0.01, 50
        dz = np.zeros((steps, 1))
        g0 = Gaussian([1.0], SpdMatrix(2.0))
        out = kalman_bucy_run(SCALAR_SYS, meas, g0, dz, h)
        want = exact_cov(SCALAR_SYS, g0.cov, h * steps).mat[0, 0]
        assert abs(out[-1].cov.mat[0, 0] - want) < 1e-8

    def test_covariance_path_independent_of_data(self):
        rng = np.random.default_rng(32)
        h, steps = 0.02, 40
        g0 = Gaussian([0.0], SpdMatrix(1.0))
        a = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, rng.normal(size=(steps, 1)), h)
        b = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, rng.normal(size=(steps, 1)), h)
        for ga, gb in zip(a, b):
            assert max_abs(ga.cov.mat - gb.cov.mat) == 0.0

    def test_riccati_monotone_from_both_sides(self):
        h, steps = 0.01, 1000
        dz = np.zeros((steps, 1))
        for p0, sign in ((2.0, -1.0), (0.1, 1.0)):
            out = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, Gaussian([0.0], SpdMatrix(p0)), dz, h)
            path = np.array([g.cov.mat[0, 0] for g in out])
            assert np.all(sign * np.diff(path) > -1e-12)


class TestLuenbergerRun:
    def test_scalar_steady_state(self):
        h, steps = 0.01, 2000
        dz = np.zeros((steps, 1))
        g0 = Gaussian([0.0], SpdMatrix(2.0))
        out = luenberger_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)
        assert abs(out[-1].cov.mat[0, 0] - 0.5) < 1e-6

    def test_no_information_reduces_to_propagation(self):
        meas = MeasurementModel([[0.0]], SpdMatrix(1.0))
        h, steps = 0.01, 50
        dz = np.zeros((steps, 1))
        g0 = Gaussian([1.0], SpdMatrix(2.0))
        out = luenberger_run(SCALAR_SYS, meas, g0, dz, h)
        want = exact_cov(SCALAR_SYS, g0.cov, h * steps).mat[0, 0]
        assert abs(out[-1].cov.mat[0, 0] - want) < 1e-8

    def test_self_assessed_covariance_below_optimal_filter(self):
        # The static-gain observer reports a smaller covariance (0.5) than
        # the optimal filter (sqrt(3) - 1) on this benchmark even though it
        # is worse in realized error; recorded as a comparison, the RMSE
        # ordering is asserted in the filtering tests.
        h, steps = 0.01, 2000
        dz = np.zeros((steps, 1))
        g0 = Gaussian([0.0], SpdMatrix(2.0))
        lue = luenberger_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)[-1].cov.mat[0, 0]
        kb = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)[-1].cov.mat[0, 0]
        assert lue < kb


def _rk4(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("kind", ["kalman-bucy", "luenberger"])
def test_reference_runs_match_substep_loop_bitwise(kind, n):
    # Both reference runs against their substep recursions written out here:
    # per substep an Euler mean step with the gain from the pre-step P, an
    # RK4 covariance step, then symmetrization; 20 substeps per data step.
    rng = np.random.default_rng(40 + n)
    m = max(1, n // 2)
    sys = random_system(rng, n)
    meas = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    h, steps, substeps = 0.02, 12, 20
    dz = 0.1 * rng.normal(size=(steps, m))
    a, c = sys.a, meas.c
    forcing = 2.0 * sys.b @ sys.b.T
    ct_rinv = c.T @ meas.rinv
    if kind == "kalman-bucy":
        out = kalman_bucy_run(sys, meas, g0, dz, h)

        def gain_of(p):
            return p @ ct_rinv

        def rate(p):
            gain = p @ ct_rinv
            return a @ p + p @ a.T + forcing - gain @ meas.r.mat @ gain.T
    else:
        out = luenberger_run(sys, meas, g0, dz, h)
        closed = a - ct_rinv @ c

        def gain_of(p):
            return ct_rinv

        def rate(p):
            return closed @ p + p @ closed.T + forcing
    assert len(out) == steps + 1 and out[0] is g0
    dt = h / substeps
    mu, p = g0.mean.copy(), g0.cov.mat.copy()
    for k in range(steps):
        y = dz[k] / h
        for _ in range(substeps):
            mu = mu + dt * (a @ mu + gain_of(p) @ (y - c @ mu))
            p = _rk4(rate, p, dt)
            p = 0.5 * (p + p.T)
        assert np.array_equal(out[k + 1].mean, mu)
        assert np.array_equal(out[k + 1].cov.mat, p)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_reference_run_batch_equals_one_path_runs_bitwise(run, n):
    rng = np.random.default_rng(50 + n)
    m = max(1, n // 2)
    sys = random_system(rng, n)
    meas = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    h, steps = 0.02, 6
    dz = 0.1 * rng.normal(size=(3, steps, m))
    batch = run(sys, meas, g0, dz, h)
    singles = [run(sys, meas, g0, path, h) for path in dz]
    assert len(batch) == steps + 1
    for k, g in enumerate(batch):
        assert g.mean.shape == (3, n)
        assert np.array_equal(g.mean, np.stack([single[k].mean for single in singles]))
        assert np.array_equal(g.cov.mat, singles[0][k].cov.mat)
    for shape in [(1, 3, steps, m), (3, steps, m + 1), (steps, m + 1)]:
        with pytest.raises(DimensionError):
            run(sys, meas, g0, np.zeros(shape), h)


class TestProxObjective:
    def test_requires_kind_parameters(self):
        anchor = Gaussian([0.0], SpdMatrix(1.0))
        with pytest.raises(ValidationError):
            ProxObjective("jko-free-energy", anchor)
        with pytest.raises(ValidationError):
            ProxObjective("lmmr-kl", anchor, c=[[1.0]])
        with pytest.raises(ValidationError):
            ProxObjective("heat-flow", anchor)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_beta(self, beta):
        anchor = Gaussian([0.0], SpdMatrix(1.0))
        with pytest.raises(ValidationError, match="beta must be positive"):
            ProxObjective("jko-free-energy", anchor, gamma=SpdMatrix(1.0), beta=beta)

    def test_rejects_non_finite_observation_matrix(self):
        anchor = Gaussian([0.0], SpdMatrix(1.0))
        with pytest.raises(ValidationError, match="non-finite"):
            ProxObjective("lmmr-kl", anchor, c=[[math.nan]], r=SpdMatrix(1.0), y=[0.0])


class TestBruteForceProx:
    def test_zero_step_returns_anchor(self):
        anchor = Gaussian([0.7], SpdMatrix(1.3))
        obj = ProxObjective("jko-free-energy", anchor, gamma=SpdMatrix(1.0), beta=1.0)
        g, val = brute_force_prox(obj, 0.0)
        assert g is anchor
        assert val == 0.0

    def test_jko_matches_closed_form(self):
        anchor = Gaussian([2.0], SpdMatrix(2.0))
        gamma = SpdMatrix(1.0)
        obj = ProxObjective("jko-free-energy", anchor, gamma=gamma, beta=1.0)
        g, val = brute_force_prox(obj, 0.1)
        assert g.mean[0] == pytest.approx(2.0 / 1.1, abs=1e-4)
        z = 5.0 * (-1.0 + math.sqrt(1.22))
        assert g.cov.mat[0, 0] == pytest.approx(1.0 / (2 * z * z), abs=1e-4)

    def test_lmmr_worked_example(self):
        anchor = Gaussian([0.0], SpdMatrix(1.0))
        obj = ProxObjective("lmmr-kl", anchor, c=[[1.0]], r=SpdMatrix(1.0), y=[1.0])
        g, val = brute_force_prox(obj, 0.1)
        assert g.mean[0] == pytest.approx(0.1 / 1.1, abs=1e-4)
        assert g.cov.mat[0, 0] == pytest.approx(1.0 / 1.1, abs=1e-4)

    def test_matches_all_three_closed_forms_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            mu0 = float(rng.uniform(-2, 2))
            p0 = float(rng.uniform(0.3, 3.0))
            anchor = Gaussian([mu0], SpdMatrix(p0))
            h = float(rng.uniform(0.01, 0.15))
            gamma = SpdMatrix(float(rng.uniform(0.3, 3.0)))
            beta = float(rng.uniform(0.3, 3.0))
            cc = float(rng.uniform(0.5, 2.0))
            rr = float(rng.uniform(0.5, 2.0))
            yy = float(rng.uniform(-2.0, 2.0))
            meas = MeasurementModel([[cc]], SpdMatrix(rr))
            cases = [
                (
                    ProxObjective("jko-free-energy", anchor, gamma=gamma, beta=beta),
                    jko_step_symmetric(anchor, gamma, beta, h),
                ),
                (
                    ProxObjective("lmmr-kl", anchor, c=[[cc]], r=SpdMatrix(rr), y=[yy]),
                    lmmr_update(anchor, meas, [yy], h),
                ),
                (
                    ProxObjective("wasserstein-filter", anchor, c=[[cc]], r=SpdMatrix(rr), y=[yy]),
                    wasserstein_update(anchor, meas, [yy], h),
                ),
            ]
            for obj, closed in cases:
                g, val = brute_force_prox(obj, h)
                assert abs(g.mean[0] - closed.mean[0]) < 1e-4
                assert abs(g.cov.mat[0, 0] - closed.cov.mat[0, 0]) < 1e-4
                assert prox_objective_value(obj, closed, h) <= val + 1e-6

    def test_two_dimensional_descent(self):
        rng = np.random.default_rng(34)
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        anchor = Gaussian(rng.normal(size=2), SpdMatrix(q @ np.diag([0.8, 1.7]) @ q.T))
        gamma = SpdMatrix(q @ np.diag([0.5, 1.2]) @ q.T)
        h = 0.05
        obj = ProxObjective("jko-free-energy", anchor, gamma=gamma, beta=1.3)
        closed = jko_step_symmetric(anchor, gamma, 1.3, h)
        g, val = brute_force_prox(obj, h)
        assert max_abs(g.mean - closed.mean) < 1e-4
        assert max_abs(g.cov.mat - closed.cov.mat) < 1e-4

    def test_two_dimensional_lmmr_descent(self):
        rng = np.random.default_rng(35)
        anchor = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        c = np.array([[1.0, 0.4]])
        r = SpdMatrix(0.9)
        y = [0.3]
        h = 0.08
        obj = ProxObjective("lmmr-kl", anchor, c=c, r=r, y=y)
        meas = MeasurementModel(c, r)
        closed = lmmr_update(anchor, meas, y, h)
        g, val = brute_force_prox(obj, h)
        assert max_abs(g.mean - closed.mean) < 1e-4
        assert max_abs(g.cov.mat - closed.cov.mat) < 1e-4

    def test_rejects_large_dimension(self):
        anchor = Gaussian(np.zeros(3), SpdMatrix(np.eye(3)))
        obj = ProxObjective("jko-free-energy", anchor, gamma=SpdMatrix(np.eye(3)), beta=1.0)
        with pytest.raises(ValidationError):
            brute_force_prox(obj, 0.1)

    def test_descent_budget_exhaustion_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(oracles, "DESCENT_MAX_ITERATIONS", 1)
        monkeypatch.setattr(oracles, "DESCENT_GRADIENT_TOL", 1e-16)
        anchor = Gaussian(np.zeros(2), SpdMatrix(np.eye(2)))
        obj = ProxObjective("jko-free-energy", anchor, gamma=SpdMatrix(2.0 * np.eye(2)), beta=1.0)
        with pytest.raises(OracleFailure):
            brute_force_prox(obj, 0.1)


def test_zero_innovation_mean_follows_flow():
    # same consistency statement for the observer with static gain
    h, steps = 0.01, 100
    mu0 = 2.0
    t = np.arange(steps + 1) * h
    dz = (mu0 * (np.exp(-t[:-1]) - np.exp(-t[1:]))).reshape(-1, 1)
    g0 = Gaussian([mu0], SpdMatrix(1.0))
    out = luenberger_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)
    assert out[-1].mean[0] == pytest.approx(mu0 * math.exp(-1.0), abs=2e-3)

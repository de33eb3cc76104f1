import json
import math
import pathlib
import types
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
    OracleFailure,
    ProxObjective,
    SpdMatrix,
    StabilityError,
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
from proxflow.config import parse_config
from proxflow.experiments import converge_propagation
from proxflow.matrices import max_abs
from proxflow.propagation import MAX_STEPS
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

    @pytest.mark.parametrize("t", [-2.0, math.nan, math.inf])
    def test_time_must_be_nonnegative_and_finite(self, t):
        # as exact_cov: a negative time would run the state backwards
        with pytest.raises(ValidationError, match="time must be nonnegative and finite"):
            exact_mean(SCALAR_SYS, [1.0], t)


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
        assert out.terminal.mean[0] == pytest.approx(want, abs=2e-3)

    def test_scalar_riccati_steady_state(self):
        h = 0.01
        steps = 2000
        dz = np.zeros((steps, 1))
        g0 = Gaussian([0.0], SpdMatrix(2.0))
        out = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)
        assert abs(out.terminal.cov.mat[0, 0] - (-1.0 + math.sqrt(3.0))) < 1e-6

    def test_no_information_reduces_to_propagation(self):
        meas = MeasurementModel([[0.0]], SpdMatrix(1.0))
        h, steps = 0.01, 50
        dz = np.zeros((steps, 1))
        g0 = Gaussian([1.0], SpdMatrix(2.0))
        out = kalman_bucy_run(SCALAR_SYS, meas, g0, dz, h)
        want = exact_cov(SCALAR_SYS, g0.cov, h * steps).mat[0, 0]
        assert abs(out.terminal.cov.mat[0, 0] - want) < 1e-8

    def test_covariance_path_independent_of_data(self):
        rng = np.random.default_rng(32)
        h, steps = 0.02, 40
        g0 = Gaussian([0.0], SpdMatrix(1.0))
        a = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, rng.normal(size=(steps, 1)), h)
        b = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, rng.normal(size=(steps, 1)), h)
        assert len(a.covs) == len(b.covs) == steps + 1
        for pa, pb in zip(a.covs, b.covs):
            assert max_abs(pa.mat - pb.mat) == 0.0

    def test_riccati_monotone_from_both_sides(self):
        h, steps = 0.01, 1000
        dz = np.zeros((steps, 1))
        for p0, sign in ((2.0, -1.0), (0.1, 1.0)):
            out = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, Gaussian([0.0], SpdMatrix(p0)), dz, h)
            path = np.array([cov.mat[0, 0] for cov in out.covs])
            assert np.all(sign * np.diff(path) > -1e-12)


class TestLuenbergerRun:
    def test_scalar_steady_state(self):
        h, steps = 0.01, 2000
        dz = np.zeros((steps, 1))
        g0 = Gaussian([0.0], SpdMatrix(2.0))
        out = luenberger_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h)
        assert abs(out.terminal.cov.mat[0, 0] - 0.5) < 1e-6

    def test_no_information_reduces_to_propagation(self):
        meas = MeasurementModel([[0.0]], SpdMatrix(1.0))
        h, steps = 0.01, 50
        dz = np.zeros((steps, 1))
        g0 = Gaussian([1.0], SpdMatrix(2.0))
        out = luenberger_run(SCALAR_SYS, meas, g0, dz, h)
        want = exact_cov(SCALAR_SYS, g0.cov, h * steps).mat[0, 0]
        assert abs(out.terminal.cov.mat[0, 0] - want) < 1e-8

    def test_self_assessed_covariance_below_optimal_filter(self):
        # The static-gain observer reports a smaller covariance (0.5) than
        # the optimal filter (sqrt(3) - 1) on this benchmark even though it
        # is worse in realized error; recorded as a comparison, the RMSE
        # ordering is asserted in the filtering tests.
        h, steps = 0.01, 2000
        dz = np.zeros((steps, 1))
        g0 = Gaussian([0.0], SpdMatrix(2.0))
        lue = luenberger_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h).terminal.cov.mat[0, 0]
        kb = kalman_bucy_run(SCALAR_SYS, SCALAR_MEAS, g0, dz, h).terminal.cov.mat[0, 0]
        assert lue < kb


def _rk4(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# (n, intervals, drift shift) of a random system, or the scalar benchmark
# system for n = None. The last two run past the substep at which the RK4
# step first returns P bit for bit; the others end before it.
LOOP_CASES = {
    "1": (1, 12, 0.0),
    "3": (3, 12, 0.0),
    "8": (8, 12, 0.0),
    "1x2": (1, 12, 0.0),
    "scalar-500": (None, 500, 0.0),
    "3-400": (3, 400, 2.0),
}
# Sensor counts other than max(1, n // 2). "1" and the scalar cases step P
# in Python floats; "1x2", one state seen by two sensors, keeps the matrix
# loop.
LOOP_SENSORS = {"1x2": 2}


@pytest.mark.parametrize("case", list(LOOP_CASES))
@pytest.mark.parametrize("kind", ["kalman-bucy", "luenberger"])
def test_reference_runs_match_substep_loop_bitwise(monkeypatch, kind, case):
    # Both reference runs against their substep recursions written out here:
    # per substep an Euler mean step with the gain from the pre-step P, an
    # RK4 covariance step, then symmetrization; 20 substeps per data step.
    # The loop here steps P every substep; the run stops stepping it once a
    # step returns it bit for bit, after settle + 1 RK4 steps.
    n, steps, shift = LOOP_CASES[case]
    rng = np.random.default_rng(40 + (n or 1))
    m = LOOP_SENSORS.get(case, max(1, (n or 1) // 2))
    if n is None:
        sys, meas, g0 = SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(2.0))
    else:
        sys = random_system(rng, n)
        sys = LinearSystem(sys.a - shift * np.eye(n), sys.b)
        meas = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
        g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    h, substeps = 0.02, 20
    dz = 0.1 * rng.normal(size=(steps, m))
    calls = _count_rk4_steps(monkeypatch)
    a, c = sys.a, meas.c
    forcing = 2.0 * sys.b @ sys.b.T
    ct_rinv = c.T @ meas.rinv
    if kind == "kalman-bucy":
        out = kalman_bucy_run(sys, meas, g0, dz, h)

        def gain_of(p):
            return p @ ct_rinv

        def rate(p):
            ap = a @ p
            return ap + ap.T + forcing - p @ (ct_rinv @ c) @ p
    else:
        out = luenberger_run(sys, meas, g0, dz, h)
        closed = a - ct_rinv @ c

        def gain_of(p):
            return ct_rinv

        def rate(p):
            return closed @ p + p @ closed.T + forcing
    assert len(out.covs) == steps + 1 and out.covs[0] is g0.cov
    assert out.means().shape == (steps + 1, g0.dim)
    assert out.means()[0].tobytes() == g0.mean.tobytes()
    dt = h / substeps
    mu, p = g0.mean.copy(), g0.cov.mat.copy()
    settle = None
    for k in range(steps):
        y = dz[k] / h
        for i in range(substeps):
            mu = mu + dt * (a @ mu + gain_of(p) @ (y - c @ mu))
            q = _rk4(rate, p, dt)
            q = 0.5 * (q + q.T)
            if settle is None and q.tobytes() == p.tobytes():
                settle = k * substeps + i
            p = q
        assert np.array_equal(out.means()[k + 1], mu)
        assert np.array_equal(out.covs[k + 1].mat, p)
    assert (settle is None) == (steps == 12)  # the short cases end before P settles
    assert len(calls) == (steps * substeps if settle is None else settle + 1)


@pytest.mark.parametrize("m,stepped", [(1, float), (2, np.ndarray)], ids=["1x1", "1x2"])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_only_one_state_and_one_sensor_step_p_as_a_float(monkeypatch, run, m, stepped):
    # A 1 x 1 product is one rounded multiply, so a one-state, one-sensor run
    # steps P in Python floats. With two sensors C^T R^-1 C sums two products,
    # which a float would not reproduce bitwise: the matrix loop runs.
    seen = []
    real = oracles.rk4_step

    def spied(f, y, dt):
        seen.append(type(y))
        return real(f, y, dt)

    monkeypatch.setattr(oracles, "rk4_step", spied)
    meas = MeasurementModel(np.ones((m, 1)), SpdMatrix(np.eye(m)))
    out = run(SCALAR_SYS, meas, Gaussian([0.5], SpdMatrix(2.0)), np.zeros((3, 2, m)), 0.02)
    assert set(seen) == {stepped} and len(seen) == 40
    assert out.terminal.mean.shape == (3, 1) and out.terminal.cov.mat.shape == (1, 1)


@pytest.mark.parametrize("a,c,mean,sign", [
    (-1.0, 0.0, -0.0, -1.0),
    (-1e-300, 0.0, -0.0, -1.0),
    (-0.5, 0.0, -0.0, -0.0),
    (-2.0, -3.0, -0.0, -0.0),
    (-1.0, 1.0, 1e-320, 1.0),
], ids=["c0", "c0-tiny-a", "c0-negzero-data", "negzero-data", "subnormal-mean"])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_scalar_loop_keeps_the_matrix_loops_signed_zeros(monkeypatch, run, a, c, mean, sign):
    # numpy adds a 1 x 1 product to +0.0, a float product keeps a -0.0: the
    # -0.0 prior means, zero C and zero or negative data make such zeros, and
    # the float loop still gives the matrix loop's bits, for two seeds' numpy
    # means and for one seed's float mean. (A >= 0, where a -0.0 mean would
    # keep its sign, is not Hurwitz.)
    sys = LinearSystem([[a]], [[1.0]])
    meas = MeasurementModel([[c]], SpdMatrix(1.0))
    g0 = Gaussian([mean], SpdMatrix(1.0))
    dz = sign * np.abs(0.1 * np.random.default_rng(5).normal(size=(2, 30, 1)))
    for paths in (dz, dz[0]):
        runs = [run(sys, meas, g0, paths, 0.02)]
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_scalar_substeps", oracles._matrix_substeps)
            runs.append(run(sys, meas, g0, paths, 0.02))
        for out in runs:
            assert len(out.covs) == 31 and out.means().shape == paths.shape[:-2] + (31, 1)
        fast, matrix = runs
        assert fast.means().tobytes() == matrix.means().tobytes()
        for p_fast, p_matrix in zip(fast.covs, matrix.covs):
            assert p_fast.mat.tobytes() == p_matrix.mat.tobytes()
    with pytest.raises(StabilityError):
        LinearSystem([[0.0]], [[1.0]])


@pytest.mark.parametrize("mean", [0.5, -0.0], ids=["mean", "negzero-mean"])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_one_seed_float_mean_is_the_first_seed_of_a_batch_bitwise(run, mean):
    # One seed's mean steps in Python floats, a batch's means as one numpy
    # array: elementwise, the same IEEE operations in the same order. The
    # 500 intervals run past the substep at which P settles; the first seed's
    # data start with -0.0.
    g0 = Gaussian([mean], SpdMatrix(2.0))
    dz = 0.1 * np.random.default_rng(8).normal(size=(3, 500, 1))
    dz[0, :5] = -0.0
    batch = run(SCALAR_SYS, SCALAR_MEAS, g0, dz, 0.02)
    for paths in (dz[0], dz[:1]):
        one = run(SCALAR_SYS, SCALAR_MEAS, g0, paths, 0.02)
        assert len(one.covs) == len(batch.covs) == 501
        assert one.means().shape == paths.shape[:-2] + (501, 1)
        assert one.means().tobytes() == batch.means()[0].tobytes()
        for p, pb in zip(one.covs, batch.covs):
            assert p.mat.tobytes() == pb.mat.tobytes()


@pytest.mark.parametrize(
    "run,name", [(kalman_bucy_run, "Kalman-Bucy"), (luenberger_run, "Luenberger")],
    ids=["kalman-bucy", "luenberger"],
)
def test_one_seed_mean_overflow_names_the_interval(run, name):
    # dz / h overflows to inf with P = 1: a float mean does not raise, so the
    # inf (then nan) runs to the interval's end, where _observer_run refuses
    # the non-finite row. A batch's numpy mean raises at the division instead.
    g0 = Gaussian([0.0], SpdMatrix(1.0))
    dz = np.full((3, 1), 1e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericFailure, match=rf"^{name} reference run failed at interval 1: "
                           r"mean has non-finite entries$"):
            run(SCALAR_SYS, SCALAR_MEAS, g0, dz, 0.01)
        with pytest.raises(NumericFailure, match=rf"^{name} reference run failed at interval 1: "
                           r"overflow encountered in divide$"):
            run(SCALAR_SYS, SCALAR_MEAS, g0, np.stack([dz, dz]), 0.01)


@pytest.mark.parametrize("case", ["scalar", "scalar-batch", "2"])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_reference_run_builds_one_spd_matrix_per_distinct_covariance(monkeypatch, run, case):
    # Once P settles the loop yields the same P, and the run shares the one
    # SpdMatrix built for it with every later interval. The 500 intervals run
    # past the interval at which P first repeats.
    rng = np.random.default_rng(60)
    if case == "2":
        sys = random_system(rng, 2)
        sys = LinearSystem(sys.a - 2.0 * np.eye(2), sys.b)
        meas = MeasurementModel(rng.normal(size=(1, 2)), random_spd(rng, 1))
        g0 = Gaussian(rng.normal(size=2), random_spd(rng, 2))
    else:
        sys, meas, g0 = SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(2.0))
    paths = (3,) if case == "scalar-batch" else ()
    dz = 0.1 * rng.normal(size=(*paths, 500, 1))
    builds = []
    real = SpdMatrix.__init__

    def counted(self, mat):
        builds.append(mat)
        real(self, mat)

    monkeypatch.setattr(SpdMatrix, "__init__", counted)
    covs = run(sys, meas, g0, dz, 0.02).covs
    mats = [cov.mat.tobytes() for cov in covs]
    repeat = next(k for k in range(1, len(mats)) if mats[k] == mats[k - 1])
    assert len(builds) <= repeat + 1
    assert len(builds) == len({id(cov) for cov in covs[1:]})
    assert all(cov is covs[repeat] for cov in covs[repeat:])


@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_a_one_seed_scalar_run_checks_its_means_without_numpy(monkeypatch, run):
    # One seed's float mean is checked by math.isfinite where the loop yields
    # it; a batch's numpy means take one np.isfinite per interval. P settles
    # at interval 457 (Kalman-Bucy) or 404 (Luenberger): the counts cover
    # the loop before and after it.
    g0 = Gaussian([0.5], SpdMatrix(2.0))
    dz = 0.1 * np.random.default_rng(9).normal(size=(2, 1000, 1))
    real = np.isfinite
    calls = []
    monkeypatch.setattr(np, "isfinite", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    counts = {}
    for paths in (dz[0], dz):
        for intervals in (300, 1000):
            calls.clear()
            run(SCALAR_SYS, SCALAR_MEAS, g0, paths[..., :intervals, :], 0.02)
            counts[paths.ndim, intervals] = len(calls)
    assert counts[2, 300] == counts[2, 1000]
    assert counts[3, 1000] - counts[3, 300] == 700


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
    assert len(batch.covs) == steps + 1 and batch.means().shape == (3, steps + 1, n)
    assert np.array_equal(batch.means(), np.stack([single.means() for single in singles]))
    for k, cov in enumerate(batch.covs):
        assert np.array_equal(cov.mat, singles[0].covs[k].mat)
    for shape in [(1, 3, steps, m), (3, steps, m + 1), (steps, m + 1)]:
        with pytest.raises(DimensionError):
            run(sys, meas, g0, np.zeros(shape), h)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
def test_reference_runs_build_no_gaussian(monkeypatch, run, n):
    # The oracles step plain arrays from g0's mean and covariance, so they
    # do not lean on the batched Gaussian of the filters they check.
    rng = np.random.default_rng(70 + n)
    sys = random_system(rng, n)
    meas = MeasurementModel(rng.normal(size=(1, n)), SpdMatrix(1.0))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    dz = 0.1 * rng.normal(size=(3, 20, 1))
    built = []
    post_init = Gaussian.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Gaussian, "__post_init__", counted)
    out = run(sys, meas, g0, dz, 0.02)
    assert built == []
    assert out.means().shape == (3, 21, n) and len(out.covs) == 21
    assert {name for name in dir(out) if not name.startswith("_")} == {
        "mean_path", "covs", "means", "terminal"}


def _kalman_bucy_gain_form(sys, meas, g0, dz, h):
    """The Kalman-Bucy substep loop with the Riccati term written as K R K^T,
    K = P C^T R^-1, and P A^T formed as its own product."""
    a, c = sys.a, meas.c
    forcing = 2.0 * sys.b @ sys.b.T
    ct_rinv = c.T @ meas.rinv

    def rate(p):
        gain = p @ ct_rinv
        return a @ p + p @ a.T + forcing - gain @ meas.r.mat @ gain.T

    dt = h / 20
    mu, p = g0.mean.copy(), g0.cov.mat.copy()
    means, covs = [mu], [p]
    for k in range(dz.shape[0]):
        y = dz[k] / h
        for _ in range(20):
            mu = mu + dt * (a @ mu + (p @ ct_rinv) @ (y - c @ mu))
            p = _rk4(rate, p, dt)
            p = 0.5 * (p + p.T)
        means.append(mu)
        covs.append(p)
    return np.array(means), np.array(covs)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_kalman_bucy_information_form_matches_gain_form(n):
    # The run's Riccati rate forms P (C^T R^-1 C) P; K R K^T is the same
    # matrix, so 500 intervals agree to rounding, and exactly when C = R = 1.
    rng = np.random.default_rng(60 + n)
    m = max(1, n // 2)
    sys = random_system(rng, n)
    meas = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    h, steps = 0.02, 500
    dz = 0.1 * rng.normal(size=(steps, m))
    cases = [(sys, meas, g0, dz, 1e-13)]
    if n == 1:
        cases.append((SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(2.0)), dz[:, :1], 0.0))
    for sys, meas, g0, dz, rtol in cases:
        out = kalman_bucy_run(sys, meas, g0, dz, h)
        got_means = out.means()
        got_covs = np.array([cov.mat for cov in out.covs])
        want_means, want_covs = _kalman_bucy_gain_form(sys, meas, g0, dz, h)
        assert max_abs(got_means - want_means) <= rtol * max_abs(want_means)
        assert max_abs(got_covs - want_covs) <= rtol * max_abs(want_covs)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_rk4_cov_matches_two_product_form_bitwise(n):
    # _rk4_cov forms P A^T as (A P)^T; for the symmetric stages that is the
    # same bits as the separate product.
    rng = np.random.default_rng(70 + n)
    sys = random_system(rng, n)
    p0 = random_spd(rng, n)
    t, substep = 0.5, 1e-3
    forcing = 2.0 * sys.b @ sys.b.T

    def rate(p):
        return sys.a @ p + p @ sys.a.T + forcing

    count = math.ceil(t / substep - 1e-12)
    p = p0.mat
    for _ in range(count):
        p = _rk4(rate, p, t / count)
    assert np.array_equal(_rk4_cov(sys, p0, t, substep).mat, 0.5 * (p + p.T))


@pytest.mark.parametrize(
    "run,name", [(kalman_bucy_run, "Kalman-Bucy"), (luenberger_run, "Luenberger")],
    ids=["kalman-bucy", "luenberger"],
)
def test_stiff_reference_run_raises_numeric_failure(run, name):
    # A prior of 8e307 overflows at the first RK4 stage; the run names itself
    # and the interval instead of warning and handing on a non-finite matrix.
    stiff = LinearSystem([[-10000.0]], [[1.0]])
    g0 = Gaussian([0.0], SpdMatrix(8e307))
    with pytest.raises(NumericFailure, match=rf"^{name} reference run failed at interval \d+: "
                       r"SPD matrix has non-finite entries$"):
        run(stiff, SCALAR_MEAS, g0, np.zeros((20, 1)), 0.01)


@pytest.mark.parametrize(
    "run,name", [(kalman_bucy_run, "Kalman-Bucy"), (luenberger_run, "Luenberger")],
    ids=["kalman-bucy", "luenberger"],
)
def test_step_count_past_the_float_range_is_refused_naming_the_run(run, name):
    # 2 rho(F) h / RK4_STABLE overflows to inf, which has no integer ceiling
    sys = LinearSystem([[-1e308]], [[1.0]])
    g0 = Gaussian([0.0], SpdMatrix(1.0))
    with pytest.raises(NumericFailure, match=rf"^{name} reference run needs inf RK4 steps, "
                       r"more than 20000000 \(rho\(F\) = 1e\+308\)$"):
        run(sys, SCALAR_MEAS, g0, np.zeros((2, 1)), 1.0)


@pytest.mark.parametrize("p0,r", [(1.0, 1e-6), (1e300, 1e-10)], ids=["riccati", "gain"])
def test_information_term_divergence_raises_numeric_failure(p0, r):
    # The step-count rule reads rho(A) only: a large C^T R^-1 C makes -P J P
    # stiff, and the Kalman-Bucy run overflows in its first interval, naming
    # it, with no RuntimeWarning. With P0 = 1e300 the first gain
    # P C^T R^-1 overflows already, before the zero innovation it multiplies.
    # Either overflow runs on in floats to the interval's end, where
    # SpdMatrix refuses the covariance.
    meas = MeasurementModel([[1.0]], SpdMatrix(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericFailure, match=r"^Kalman-Bucy reference run failed at "
                           r"interval 1: SPD matrix has non-finite entries$"):
            kalman_bucy_run(SCALAR_SYS, meas, Gaussian([0.0], SpdMatrix(p0)),
                            np.zeros((10, 1)), 0.01)


@pytest.mark.parametrize("run,steady,substeps,drift,info", [
    (luenberger_run, 1.0 / 10001.0, 81, -10001.0, 0.0),
    (kalman_bucy_run, 2.0 / (math.sqrt(1e8 + 2.0) + 1e4), 80, -10000.0, 1.0),
], ids=["luenberger", "kalman-bucy"])
def test_stiff_reference_runs_reach_their_steady_state(
    monkeypatch, run, steady, substeps, drift, info
):
    # (h / 20) |2F| = 10 lies outside RK4's stability region; the run takes
    # ceil(2 rho(F) h / RK4_STABLE) substeps per interval instead, with
    # F = A - C^T R^-1 C = -10001 for Luenberger and F = A for Kalman-Bucy.
    # It stops stepping P once a step returns it bit for bit, which the
    # scalar loop here finds at substep settle.
    calls = _count_rk4_steps(monkeypatch)
    stiff = LinearSystem([[-10000.0]], [[1.0]])
    out = run(stiff, SCALAR_MEAS, Gaussian([0.0], SpdMatrix(1.0)), np.zeros((20, 1)), 0.01)
    assert out.terminal.cov.mat[0, 0] == pytest.approx(steady, rel=1e-12)
    assert set(calls) == {0.01 / substeps}

    def rate(p):
        return 2.0 * drift * p + 2.0 - info * p * p

    p = 1.0
    for settle in range(20 * substeps):
        q = _rk4(rate, p, 0.01 / substeps)
        if q == p:
            break
        p = q
    assert q == p and len(calls) == settle + 1


def test_rk4_cov_on_a_stiff_drift_matches_van_loan():
    # The default substep 1e-3 puts dt |2 lambda| = 20 outside RK4's region.
    sys = LinearSystem([[-10000.0, 1.0], [0.0, -1.0]], np.eye(2))
    block = np.block([[-sys.a, sys.diffusion()], [np.zeros((2, 2)), sys.a.T]])
    van_loan = scipy.linalg.expm(0.02 * block)
    phi = van_loan[2:, 2:].T
    want = phi @ phi.T + phi @ van_loan[:2, 2:]
    got = exact_cov(sys, SpdMatrix(np.eye(2)), 0.02).mat
    assert max_abs(got - want) <= 1e-12 * max_abs(want)


def test_rk4_stable_half_disc_lies_inside_the_stability_region():
    # By the maximum modulus principle |R(z)| is largest on the boundary of
    # the half-disc |z| <= RK4_STABLE, Re z <= 0. On its arc R is read off
    # rk4_step itself, on y' = z y over a unit step; on the imaginary axis
    # |R(iy)|^2 = 1 - y^6 / 72 + y^8 / 576 <= 1 exactly while y^2 <= 8.
    radius = oracles.RK4_STABLE
    z = radius * np.exp(1j * np.linspace(0.5 * np.pi, 1.5 * np.pi, 2001))
    growth = np.abs(oracles.rk4_step(lambda y: z * y, np.ones_like(z), 1.0))
    assert growth.max() == pytest.approx(0.873, abs=1e-3)
    assert radius ** 2 <= 8.0


def test_rk4_cov_overflow_raises_numeric_failure():
    sys = LinearSystem([[-3.0, 0.5], [-0.5, -3.0]], np.eye(2))
    with pytest.raises(NumericFailure, match=r"^exact covariance: RK4 step 1 of 200: overflow"):
        exact_cov(sys, SpdMatrix(8e307 * np.eye(2)), 0.2, 1e-3)


class _Integrating(Exception):
    """Raised by a stub rk4_step: the integral passed its step budget check."""


def test_rk4_budget_covers_a_config_at_max_steps(monkeypatch):
    assert oracles.RK4_MAX_STEPS == oracles.REFERENCE_SUBSTEPS * MAX_STEPS == 20_000_000
    # converge-propagation integrates its reference at a substep of h / 20;
    # at MAX_STEPS steps of h that integral is the budget, and is accepted
    config = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"
    payload = json.loads((config / "propagation_general_2d.json").read_text())
    payload["steps"]["h"] = [payload["steps"]["horizon"] / MAX_STEPS]
    cfg = parse_config(json.dumps(payload))
    assert cfg.steps_for(cfg.h_values[0]) == MAX_STEPS
    counts, count = [], oracles._rk4_count

    def counted(*args):
        counts.append(count(*args))
        return counts[-1]

    def integrate(f, y, dt):
        raise _Integrating

    monkeypatch.setattr(oracles, "_rk4_count", counted)
    monkeypatch.setattr(oracles, "rk4_step", integrate)
    with pytest.raises(_Integrating):
        converge_propagation(cfg)
    assert counts == [oracles.RK4_MAX_STEPS]


def _count_rk4_steps(monkeypatch):
    calls = []
    real = oracles.rk4_step

    def counted(f, y, dt):
        calls.append(dt)
        return real(f, y, dt)

    monkeypatch.setattr(oracles, "rk4_step", counted)
    return calls


@pytest.mark.parametrize("intervals", [1, 7])
@pytest.mark.parametrize(
    "run", [kalman_bucy_run, luenberger_run], ids=["kalman-bucy", "luenberger"]
)
@pytest.mark.parametrize("shape", [(), (3,)], ids=["one-path", "batch"])
def test_reference_runs_take_20_rk4_steps_per_interval(monkeypatch, run, intervals, shape):
    # The benchmark's oracles.rk4_steps count stays comparable across
    # changes only while these counts hold; a batch steps its shared
    # covariance once.
    calls = _count_rk4_steps(monkeypatch)
    run(SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(2.0)),
        np.zeros(shape + (intervals, 1)), 0.02)
    assert len(calls) == 20 * intervals
    assert set(calls) == {0.02 / 20}


def test_exact_cov_takes_20_rk4_steps_over_one_filter_step(monkeypatch):
    calls = _count_rk4_steps(monkeypatch)
    p0 = SpdMatrix(np.eye(2))
    exact_cov(LinearSystem([[-1.0, 0.0], [0.0, -2.0]], np.eye(2)), p0, 0.02)
    assert calls == []  # symmetric drift, isotropic noise: the closed form
    exact_cov(LinearSystem([[-1.0, 0.5], [-0.5, -1.0]], np.eye(2)), p0, 0.02)
    assert len(calls) == 20


def test_oracles_stay_independent_of_the_code_they_check():
    # A reference must not run through the recursion it checks: the oracle
    # module takes the system type from propagation and nothing else from
    # propagation or filtering.
    def origin(value):
        if isinstance(value, types.ModuleType):
            return value.__name__
        return getattr(value, "__module__", None)

    borrowed = {name: value for name, value in vars(oracles).items()
                if origin(value) in ("proxflow.filtering", "proxflow.propagation")}
    assert borrowed == {"LinearSystem": LinearSystem}


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

    @pytest.mark.parametrize("dim,h", [(1, 1e200), (1, 1e308), (2, 1e308)])
    def test_an_objective_past_float_range_fails_the_search(self, dim, h):
        # SciPy steps past an inf or nan trial value; the search then fails as OracleFailure
        anchor = Gaussian(np.zeros(dim), SpdMatrix(np.eye(dim)))
        obj = (ProxObjective("lmmr-kl", anchor, c=[[1.0]], r=SpdMatrix(1.0), y=[0.0]) if dim == 1
               else ProxObjective("jko-free-energy", anchor, gamma=SpdMatrix(np.eye(2)), beta=1.0))
        with pytest.raises(OracleFailure, match="^brute-force search failed: "):
            brute_force_prox(obj, h)

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
    assert out.terminal.mean[0] == pytest.approx(mu0 * math.exp(-1.0), abs=2e-3)

"""End-to-end acceptance checks with pinned tolerances.

Each test covers one criterion, prints a single PASS/FAIL line (visible with
pytest -s), and asserts both the numeric tolerance and the runtime budget.
"""

import json
import math
import time

import numpy as np

from proxflow import (
    Gaussian,
    LinearSystem,
    MeasurementModel,
    ProxObjective,
    SpdMatrix,
    StepConfig,
    brute_force_prox,
    exact_cov,
    exact_mean,
    jko_step_symmetric,
    kalman_bucy_run,
    lmmr_update,
    lyapunov_solve,
    make_equipartition,
    propagate,
    prox_objective_value,
    quadratic_matrix_solve,
    run_filter,
    simulate,
    symmetrized_pair,
    wasserstein_update,
)
from proxflow.cli import main as cli_main
from proxflow.geometry_checks import (
    check_trace_inequality,
    check_trace_projection,
    check_transport_identities,
    check_w2_gradient,
)
from proxflow.matrices import max_abs
from support import random_spd

MASTER_SEED = 20240811


def report(criterion, ok, detail, elapsed, budget):
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(f"[{status}] {criterion}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"{criterion}: {detail}"
    assert within, f"{criterion}: runtime {elapsed:.2f}s exceeded {budget}s"


def test_c01_gibbs_fixed_point():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        gamma = random_spd(rng, n, eig_low=0.2, eig_high=5.0)
        beta = float(rng.uniform(0.1, 10.0))
        h = float(rng.uniform(1e-3, 0.1))
        cov = SpdMatrix(gamma.map_eigenvalues(lambda w: 1.0 / (beta * w)))
        out = jko_step_symmetric(Gaussian(np.zeros(n), cov), gamma, beta, h)
        worst = max(worst, max_abs(out.cov.mat - cov.mat), max_abs(out.mean))
    report(
        "criterion 1, stationary density is an exact fixed point",
        worst < 1e-10,
        f"worst deviation {worst:.2e} < 1e-10 over 100 draws",
        time.perf_counter() - start,
        5.0,
    )


def test_c02_symmetric_propagation_order():
    start = time.perf_counter()
    sys1 = LinearSystem([[-1.0]], [[1.0]])
    g0 = Gaussian([2.0], SpdMatrix(2.0))
    ref_mean = exact_mean(sys1, g0.mean, 1.0)
    ref_cov = exact_cov(sys1, g0.cov, 1.0)
    mean_err, cov_err = [], []
    for h in (0.04, 0.02, 0.01, 0.005):
        cfg = StepConfig(h=h, steps=round(1.0 / h), beta=1.0)
        _, g = propagate(sys1, g0, cfg, "symmetric-exact")[-1]
        mean_err.append(max_abs(g.mean - ref_mean))
        cov_err.append(max_abs(g.cov.mat - ref_cov.mat))
    ratios = [a / b for a, b in zip(mean_err, mean_err[1:])]
    ratios += [a / b for a, b in zip(cov_err, cov_err[1:])]
    ok = all(1.7 < r < 2.3 for r in ratios)
    report(
        "criterion 2, symmetric-case propagation is first order",
        ok,
        "error ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " all in [1.7, 2.3]",
        time.perf_counter() - start,
        1.0,
    )


def test_c03_general_case_order_and_frame():
    start = time.perf_counter()
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    sys2 = LinearSystem(a, np.eye(2))
    g0 = Gaussian([2.0, 1.0], SpdMatrix([[2.0, 0.5], [0.5, 1.5]]))
    ref_mean = exact_mean(sys2, g0.mean, 1.0)
    ref_cov = exact_cov(sys2, g0.cov, 1.0, 2.5e-4)
    sweep = (0.04, 0.02, 0.01, 0.005)
    mean_err, cov_err = [], []
    for h in sweep:
        cfg = StepConfig(h=h, steps=round(1.0 / h))
        _, g = propagate(sys2, g0, cfg, "general-first-order")[-1]
        mean_err.append(max_abs(g.mean - ref_mean))
        cov_err.append(max_abs(g.cov.mat - ref_cov.mat))
    ratios = [a_ / b for a_, b in zip(mean_err, mean_err[1:])]
    ratios += [a_ / b for a_, b in zip(cov_err, cov_err[1:])]
    order_ok = all(1.7 < r < 2.3 for r in ratios)

    frame = make_equipartition(sys2)
    worst = 0.0
    for h in sweep:
        for k in range(round(1.0 / h) + 1):
            f, g_noise = symmetrized_pair(frame, k * h)
            worst = max(worst, max_abs(g_noise @ g_noise.T + f))
            worst = max(worst, float(np.max(np.linalg.eigvalsh(f))))
            res = f * frame.theta + frame.theta * f + 2.0 * frame.theta * g_noise @ g_noise.T
            worst = max(worst, max_abs(res))
    frame_ok = worst < 1e-9
    report(
        "criterion 3, general-case recursions are first order with valid frames",
        order_ok and frame_ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios) + f"; worst frame residual {worst:.2e}",
        time.perf_counter() - start,
        5.0,
    )


def test_c04_quadratic_matrix_equation():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        c = float(rng.uniform(0.1, 50.0))
        rhs = random_spd(rng, n, eig_low=0.1, eig_high=5.0)
        z = quadratic_matrix_solve(c, rhs)
        assert z.eigenvalues[0] > 0.0
        worst = max(worst, max_abs(z.mat @ z.mat + c * z.mat - c * rhs.mat))
    report(
        "criterion 4, quadratic matrix equation solver",
        worst < 1e-10,
        f"worst residual {worst:.2e} < 1e-10 over 500 instances",
        time.perf_counter() - start,
        2.0,
    )


def test_c05_geometry_identity_suite():
    start = time.perf_counter()
    dims = (1, 2, 3, 4, 5)
    trace = check_trace_inequality(1000, dims, np.random.default_rng(105))
    transport = check_transport_identities(200, dims, np.random.default_rng(106))
    gradient = check_w2_gradient(200, dims, np.random.default_rng(107))
    projection = check_trace_projection(200, dims, np.random.default_rng(108))
    ok = (
        trace.worst >= -1e-12
        and transport.failures == 0
        and transport.worst < 1e-10
        and gradient.failures == 0
        and gradient.worst < 1e-6
        and projection.failures == 0
        and projection.worst < 1e-10
    )
    report(
        "criterion 5, trace inequality / transport / gradient / projection",
        ok,
        f"trace slack {trace.worst:.2e}, transport {transport.worst:.2e}, "
        f"gradient rel {gradient.worst:.2e}, projection {projection.worst:.2e}",
        time.perf_counter() - start,
        10.0,
    )


def test_c06_brute_force_prox_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst_param = 0.0
    worst_gap = -np.inf
    for _ in range(100):
        anchor = Gaussian([float(rng.uniform(-2, 2))], SpdMatrix(float(rng.uniform(0.3, 3.0))))
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
            worst_param = max(
                worst_param,
                abs(g.mean[0] - closed.mean[0]),
                abs(g.cov.mat[0, 0] - closed.cov.mat[0, 0]),
            )
            worst_gap = max(worst_gap, prox_objective_value(obj, closed, h) - val)
    ok = worst_param < 1e-4 and worst_gap <= 1e-6
    report(
        "criterion 6, closed-form steps match the brute-force minimizer",
        ok,
        f"worst parameter gap {worst_param:.2e} < 1e-4, "
        f"worst objective excess {worst_gap:.2e} <= 1e-6 over 100 instances x 3 objectives",
        time.perf_counter() - start,
        60.0,
    )


def _filter_benchmark_errors(update, reference_value):
    sys1 = LinearSystem([[-1.0]], [[1.0]])
    meas = MeasurementModel([[1.0]], SpdMatrix(1.0))
    g0 = Gaussian([0.0], SpdMatrix(2.0))
    h_min = 0.005
    steps = round(20.0 / h_min)
    _, master = simulate(sys1, meas, g0, StepConfig(h=h_min, steps=steps), [MASTER_SEED])
    runs = {}
    cov_errors = []
    for h in (0.02, 0.01, 0.005):
        factor = round(h / h_min)
        grouped = master[0].reshape(steps // factor, factor, 1).sum(axis=1)
        run = run_filter(
            sys1, meas, g0, grouped, StepConfig(h=h, steps=steps // factor), update=update
        )
        runs[h] = run
        cov_errors.append(abs(run.terminal.cov.mat[0, 0] - reference_value))
    return sys1, meas, g0, master, runs, cov_errors


def test_c07_kalman_bucy_limit():
    start = time.perf_counter()
    steady = math.sqrt(3.0) - 1.0
    sys1, meas, g0, master, runs, cov_errors = _filter_benchmark_errors("lmmr", steady)
    ratios = [a / b for a, b in zip(cov_errors, cov_errors[1:])]
    cov_ok = all(1.6 < r < 2.4 for r in ratios)

    h_min = 0.005
    reference = kalman_bucy_run(sys1, meas, g0, master[0], h_min)
    ref_means = reference.means()[:, 0]
    mean_errors = []
    for h in (0.02, 0.01, 0.005):
        factor = round(h / h_min)
        diff = runs[h].means()[:, 0] - ref_means[::factor]
        mean_errors.append(float(np.sqrt(np.mean(diff ** 2))))
    mean_ok = mean_errors[0] > mean_errors[1] > mean_errors[2]
    report(
        "criterion 7, KL-proximal filter approaches the optimal filter",
        cov_ok and mean_ok,
        "cov error ratios " + ", ".join(f"{r:.2f}" for r in ratios)
        + "; mean path errors " + ", ".join(f"{e:.4f}" for e in mean_errors)
        + " strictly decreasing",
        time.perf_counter() - start,
        30.0,
    )


def test_c08_static_gain_observer_limit():
    start = time.perf_counter()
    _, _, _, _, _, cov_errors = _filter_benchmark_errors("wasserstein", 0.5)
    ratios = [a / b for a, b in zip(cov_errors, cov_errors[1:])]
    ok = all(1.6 < r < 2.4 for r in ratios)
    report(
        "criterion 8, transport-proximal filter approaches the static-gain observer",
        ok,
        "cov error ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " in [1.6, 2.4]",
        time.perf_counter() - start,
        30.0,
    )


def test_c09_information_monotonicity():
    # Monotonicity of the covariance update is a theorem for the KL-proximal
    # update in any dimension and for the transport-proximal update on the
    # commuting (scalar) class, which is what the random instances cover; the
    # known multivariate counterexample for the latter is pinned in
    # tests/test_filtering.py.
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(1000):
        prior = Gaussian([rng.normal()], SpdMatrix(float(rng.uniform(0.2, 3.0))))
        meas = MeasurementModel(
            [[float(rng.uniform(0.2, 2.0))]], SpdMatrix(float(rng.uniform(0.2, 2.0)))
        )
        y = [float(rng.normal())]
        h = float(rng.uniform(0.01, 0.5))
        for update in (lmmr_update, wasserstein_update):
            out = update(prior, meas, y, h)
            worst = min(worst, prior.cov.mat[0, 0] - out.cov.mat[0, 0])

        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        prior_n = Gaussian(rng.normal(size=n), random_spd(rng, n))
        meas_n = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
        out_n = lmmr_update(prior_n, meas_n, rng.normal(size=m), h)
        worst = min(worst, float(np.min(np.linalg.eigvalsh(prior_n.cov.mat - out_n.cov.mat))))
    report(
        "criterion 9, measurement updates never inflate the covariance",
        worst >= -1e-12,
        f"smallest eigenvalue of (prior - posterior) {worst:.2e} >= -1e-12 over 1000 instances",
        time.perf_counter() - start,
        5.0,
    )


def test_c10_simulator_statistics():
    start = time.perf_counter()
    sys1 = LinearSystem([[-1.0]], [[1.0]])
    meas = MeasurementModel([[1.0]], SpdMatrix(1.0))
    g0 = Gaussian([0.0], SpdMatrix(1.0))
    n_steps = 100_000
    h = 0.01
    states, increments = simulate(sys1, meas, g0, StepConfig(h=h, steps=n_steps), [424242])
    pinf = lyapunov_solve(sys1.a, sys1.diffusion())[0, 0]
    sample_var = float(np.var(states[0, :, 0]))
    rho = math.exp(-h)
    n_eff = n_steps / ((1.0 + rho) / (1.0 - rho))
    var_dev = abs(sample_var - pinf)
    var_bound = 3.0 * pinf * math.sqrt(2.0 / n_eff)

    resid = increments[0, :, 0] - h * states[0, :-1, 0]
    resid_dev = abs(float(np.var(resid)) - h)
    resid_bound = 3.0 * h * math.sqrt(2.0 / n_steps)
    ok = var_dev < var_bound and resid_dev < resid_bound
    report(
        "criterion 10, simulated paths match stationary and increment statistics",
        ok,
        f"stationary variance off by {var_dev:.3f} (< {var_bound:.3f}); "
        f"increment variance off by {resid_dev:.2e} (< {resid_bound:.2e})",
        time.perf_counter() - start,
        10.0,
    )


def test_c11_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = {
        "system": {"A": [[-1.0]], "B": [[1.0]]},
        "initial": {"mean": [2.0], "cov": [[2.0]]},
        "steps": {"h": [0.04, 0.02, 0.01, 0.005], "horizon": 1.0, "beta": 1.0},
        "seeds": [],
        "mode": {"task": "propagation", "propagation": "symmetric-exact"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = cli_main(["converge-propagation", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = cli_main(["converge-propagation", "--config", str(cfg_path), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report(
        "criterion 11, repeated CLI runs are byte-identical",
        rc1 == 0 and rc2 == 0 and identical,
        f"exit codes {rc1}/{rc2}, {len(out1.read_bytes())} bytes identical",
        time.perf_counter() - start,
        5.0,
    )

"""Shared preconditions: every public entry point reports a dimension
mismatch as DimensionError, matrices and increment paths must be 2-D and
square matrices non-empty, and every run rejects non-finite measurement
increments before its first step."""

import math

import numpy as np
import pytest

from proxflow import (
    DimensionError,
    Gaussian,
    LinearSystem,
    MeasurementModel,
    SpdMatrix,
    StepConfig,
    ValidationError,
    energy_quadratic,
    exact_cov,
    expm,
    grad_w2_cross,
    jko_step_general_cov,
    jko_step_symmetric,
    kalman_bucy_run,
    lmmr_update,
    luenberger_run,
    lyapunov_solve,
    propagate,
    run_filter,
    simulate,
    w2_gaussian,
    wasserstein_update,
)
from proxflow import oracles, propagation

SYS2 = LinearSystem(-np.eye(2), np.eye(2))
MEAS1 = MeasurementModel([[1.0]], SpdMatrix(1.0))
MEAS2 = MeasurementModel(np.ones((1, 2)), SpdMatrix(1.0))
G1 = Gaussian([0.0], SpdMatrix(1.0))
G2 = Gaussian(np.zeros(2), SpdMatrix(np.eye(2)))
CFG = StepConfig(h=0.1, steps=2)
DZ = np.zeros((2, 1))

MISMATCHES = {
    "jko_step_symmetric": lambda: jko_step_symmetric(G1, SpdMatrix(np.eye(2)), 1.0, 0.1),
    "jko_step_general_cov": lambda: jko_step_general_cov(SpdMatrix(1.0), SYS2, 0.1),
    "propagate": lambda: propagate(SYS2, G1, CFG, "general-first-order"),
    "exact_cov": lambda: exact_cov(SYS2, SpdMatrix(1.0), 0.1),
    "lmmr_update": lambda: lmmr_update(G1, MEAS2, [0.0], 0.1),
    "wasserstein_update": lambda: wasserstein_update(G1, MEAS2, [0.0], 0.1),
    "run_filter": lambda: run_filter(SYS2, MEAS1, G2, DZ, CFG),
    "kalman_bucy_run": lambda: kalman_bucy_run(SYS2, MEAS1, G2, DZ, 0.1),
    "luenberger_run": lambda: luenberger_run(SYS2, MEAS1, G2, DZ, 0.1),
    "luenberger_run-wider-measurement": lambda: luenberger_run(
        SYS2, MeasurementModel(np.ones((1, 3)), SpdMatrix(1.0)), G2, DZ, 0.1
    ),
    "simulate-measurement": lambda: simulate(SYS2, MEAS1, G2, CFG, [0]),
    "simulate-x0": lambda: simulate(SYS2, MEAS2, G1, CFG, [0]),
    "Gaussian": lambda: Gaussian(np.zeros(2), SpdMatrix(1.0)),
    "w2_gaussian": lambda: w2_gaussian(G1, G2),
    "energy_quadratic": lambda: energy_quadratic(G1, SpdMatrix(np.eye(2))),
    "grad_w2_cross": lambda: grad_w2_cross(SpdMatrix(1.0), SpdMatrix(np.eye(2))),
    "MeasurementModel": lambda: MeasurementModel(np.ones((2, 2)), SpdMatrix(1.0)),
}


@pytest.mark.parametrize("call", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_dimension_mismatch_raises_dimension_error(call):
    with pytest.raises(DimensionError, match="dimensions disagree"):
        call()


@pytest.mark.parametrize("width", [1, 3])
def test_reference_runs_refuse_a_c_of_the_wrong_width_alike(width):
    # both runs check their inputs in _observer_run, before A - C^T R^-1 C
    meas = MeasurementModel(np.ones((1, width)), SpdMatrix(1.0))
    messages = set()
    for run in (kalman_bucy_run, luenberger_run):
        with pytest.raises(DimensionError) as info:
            run(SYS2, meas, G2, DZ, 0.1)
        messages.add(str(info.value))
    want = f"system, measurement model and prior dimensions disagree: 2 vs {width} vs 2"
    assert messages == {want}


NOT_A_PATH = "increments must be a matrix or a 3-D array"
ONE_DIMENSIONAL = {
    "B": (lambda: LinearSystem(-np.eye(2), np.ones(2)), "must be a matrix"),
    "C": (lambda: MeasurementModel(np.ones(2), SpdMatrix(1.0)), "must be a matrix"),
    "square": (lambda: expm(np.array([0.5])), "must be a matrix"),
    "spd": (lambda: SpdMatrix(np.array([2.0])), "must be a matrix"),
    "run_filter-increments": (lambda: run_filter(SYS2, MEAS2, G2, np.zeros(2), CFG), NOT_A_PATH),
    "kalman_bucy_run-increments": (
        lambda: kalman_bucy_run(SYS2, MEAS2, G2, np.zeros(2), 0.1), NOT_A_PATH
    ),
    "luenberger_run-increments": (
        lambda: luenberger_run(SYS2, MEAS2, G2, np.zeros(2), 0.1), NOT_A_PATH
    ),
}


@pytest.mark.parametrize("call,match", ONE_DIMENSIONAL.values(), ids=ONE_DIMENSIONAL.keys())
def test_one_dimensional_matrix_raises_dimension_error(call, match):
    with pytest.raises(DimensionError, match=match):
        call()


EMPTY = {
    "SpdMatrix": (lambda: SpdMatrix(np.zeros((0, 0))), "SPD matrix"),
    "LinearSystem": (lambda: LinearSystem(np.zeros((0, 0)), np.zeros((0, 1))), "A"),
    "lyapunov_solve": (lambda: lyapunov_solve(np.zeros((0, 0)), np.zeros((0, 0))), "A"),
    "expm": (lambda: expm(np.zeros((0, 0))), "exponent matrix"),
}


@pytest.mark.parametrize("call,name", EMPTY.values(), ids=EMPTY.keys())
def test_empty_matrix_raises_dimension_error(call, name):
    with pytest.raises(DimensionError) as exc:
        call()
    assert type(exc.value) is DimensionError
    assert str(exc.value) == f"{name} must be non-empty, got shape (0, 0)"


def _stepping_forbidden(*args, **kwargs):
    raise AssertionError("a step ran before the increments were checked")


RUNS = {
    "run_filter": lambda dz: run_filter(
        SYS2, MEAS2, G2, dz, StepConfig(h=0.1, steps=dz.shape[-2])
    ),
    "kalman_bucy_run": lambda dz: kalman_bucy_run(SYS2, MEAS2, G2, dz, 0.1),
    "luenberger_run": lambda dz: luenberger_run(SYS2, MEAS2, G2, dz, 0.1),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("batch", [False, True], ids=["one-path", "batch"])
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_non_finite_increments_rejected_before_the_first_step(run, batch, bad, monkeypatch):
    monkeypatch.setattr(propagation, "jko_step_general_cov", _stepping_forbidden)
    monkeypatch.setattr(oracles, "rk4_step", _stepping_forbidden)
    dz = np.zeros((3, 4, 1) if batch else (4, 1))
    dz[..., 3, 0] = bad
    with pytest.raises(ValidationError, match="increments"):
        run(dz)

"""Shared preconditions: every public entry point reports a dimension
mismatch as DimensionError, and every run rejects non-finite measurement
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
    "simulate-measurement": lambda: simulate(SYS2, MEAS1, np.zeros(2), CFG, 0),
    "simulate-x0": lambda: simulate(SYS2, MEAS2, G1, CFG, 0),
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


ONE_DIMENSIONAL = {
    "B": lambda: LinearSystem(-np.eye(2), np.ones(2)),
    "C": lambda: MeasurementModel(np.ones(2), SpdMatrix(1.0)),
    "square": lambda: expm(np.array([0.5])),
}


@pytest.mark.parametrize("call", ONE_DIMENSIONAL.values(), ids=ONE_DIMENSIONAL.keys())
def test_one_dimensional_matrix_raises_dimension_error(call):
    with pytest.raises(DimensionError, match="must be a matrix"):
        call()


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

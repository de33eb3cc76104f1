"""One input rule: every public entry point, handed a value that is not the
number or array it takes, returns normally or raises a ProxflowError, and a
refusal (ValidationError) names the argument. A NumericFailure, a
SingularityError or a StepSizeError is what a computation on an accepted
value gave, and may name the computation instead. Warnings are errors in
this suite, so a numpy warning counts as an escape."""

import json
import math
import re

import numpy as np
import pytest

from proxflow import (
    AffineMap,
    ConfigError,
    Gaussian,
    GaussianStream,
    LinearSystem,
    MeasurementModel,
    NumericFailure,
    ProxflowError,
    ProxObjective,
    SpdMatrix,
    StepConfig,
    ValidationError,
    brute_force_prox,
    coarsen,
    error_metrics,
    exact_cov,
    exact_mean,
    expm,
    free_energy,
    general_mean_map,
    jko_step_general_cov,
    jko_step_general_mean,
    jko_step_symmetric,
    kalman_bucy_run,
    lmmr_update,
    luenberger_run,
    lyapunov_solve,
    make_equipartition,
    phi_expectation,
    propagate,
    prox_objective_value,
    quadratic_matrix_solve,
    run_filter,
    simulate,
    sym_skew_split,
    symmetrized_pair,
    trace_projection,
    wasserstein_update,
)
from proxflow.config import parse_config
from proxflow.experiments import lemma_checks

P1 = SpdMatrix(1.0)
P2 = SpdMatrix(np.eye(2))
SYS2 = LinearSystem(-np.eye(2), np.eye(2))
MEAS2 = MeasurementModel(np.ones((1, 2)), P1)
G1 = Gaussian([0.0], P1)
G2 = Gaussian(np.zeros(2), P2)
FRAME = make_equipartition(SYS2)
CFG = StepConfig(h=0.1, steps=2)
DZ = np.zeros((2, 1))
RUN = run_filter(SYS2, MEAS2, G2, DZ, CFG)
OBJ = ProxObjective("lmmr-kl", G1, c=[[1.0]], r=P1, y=[0.0])

# entry point and argument: (what a refusal calls the argument, a regex; the call)
SLOTS = {
    "SpdMatrix.mat": ("SPD matrix", lambda v: SpdMatrix(v)),
    "expm.a": ("exponent matrix", lambda v: expm(v)),
    "expm.t": ("time", lambda v: expm([[1.0]], v)),
    "lyapunov_solve.a": ("A", lambda v: lyapunov_solve(v, np.eye(2))),
    "lyapunov_solve.qrhs": ("Qrhs", lambda v: lyapunov_solve(-np.eye(2), v)),
    "quadratic_matrix_solve.c": ("coefficient", lambda v: quadratic_matrix_solve(v, P2)),
    "sym_skew_split.a": ("matrix", lambda v: sym_skew_split(v)),
    "AffineMap.linear": ("linear part", lambda v: AffineMap(v, [0.0])),
    "AffineMap.offset": ("offset", lambda v: AffineMap([[1.0]], v)),
    "Gaussian.mean": ("mean", lambda v: Gaussian(v, P1)),
    "free_energy.beta": ("beta", lambda v: free_energy(G2, P2, v)),
    "phi_expectation.c": ("observation matrix", lambda v: phi_expectation(G2, v, P1, [0.0])),
    "phi_expectation.y": ("measurement", lambda v: phi_expectation(G2, np.ones((1, 2)), P1, v)),
    "trace_projection.mu": ("target mean", lambda v: trace_projection(G2, v, 1.0)),
    "trace_projection.tau": ("target trace", lambda v: trace_projection(G2, [0.0, 0.0], v)),
    "LinearSystem.a": ("A", lambda v: LinearSystem(v, [[1.0]])),
    "LinearSystem.b": ("B", lambda v: LinearSystem([[-1.0]], v)),
    "StepConfig.h": ("step size", lambda v: StepConfig(h=v, steps=1)),
    "StepConfig.steps": ("step count", lambda v: StepConfig(h=0.1, steps=v)),
    "StepConfig.beta": ("beta", lambda v: StepConfig(h=0.1, steps=1, beta=v)),
    "general_mean_map.h": ("step size", lambda v: general_mean_map(FRAME, v)),
    "jko_step_general_cov.h": ("step size", lambda v: jko_step_general_cov(P2, SYS2, v)),
    "jko_step_general_mean.mu_prev": ("mean", lambda v: jko_step_general_mean(v, np.eye(2))),
    "jko_step_symmetric.beta": ("beta", lambda v: jko_step_symmetric(G2, P2, v, 0.1)),
    "jko_step_symmetric.h": ("step size", lambda v: jko_step_symmetric(G2, P2, 1.0, v)),
    "propagate.mode": ("propagation mode", lambda v: propagate(SYS2, G2, CFG, v)),
    "symmetrized_pair.t": ("time", lambda v: symmetrized_pair(FRAME, v)),
    "exact_mean.mu0": ("initial mean", lambda v: exact_mean(SYS2, v, 0.1)),
    "exact_mean.t": ("time", lambda v: exact_mean(SYS2, [0.0, 0.0], v)),
    "exact_cov.t": ("time", lambda v: exact_cov(SYS2, P2, v)),
    "exact_cov.substep": ("substep", lambda v: exact_cov(SYS2, P2, 0.1, v)),
    "kalman_bucy_run.dz": ("increments", lambda v: kalman_bucy_run(SYS2, MEAS2, G2, v, 0.1)),
    "kalman_bucy_run.h": ("step size", lambda v: kalman_bucy_run(SYS2, MEAS2, G2, DZ, v)),
    "luenberger_run.dz": ("increments", lambda v: luenberger_run(SYS2, MEAS2, G2, v, 0.1)),
    "ProxObjective.kind": ("objective kind", lambda v: ProxObjective(v, G2, gamma=P2, beta=1.0)),
    "ProxObjective.beta": ("beta",
                           lambda v: ProxObjective("jko-free-energy", G2, gamma=P2, beta=v)),
    "ProxObjective.c": ("c|observation matrix",
                        lambda v: ProxObjective("lmmr-kl", G2, c=v, r=P1, y=[0.0])),
    "ProxObjective.y": ("y", lambda v: ProxObjective("lmmr-kl", G2, c=np.ones((1, 2)), r=P1, y=v)),
    "prox_objective_value.h": ("step size", lambda v: prox_objective_value(OBJ, G1, v)),
    "brute_force_prox.h": ("step size", lambda v: brute_force_prox(OBJ, v)),
    "MeasurementModel.c": ("C", lambda v: MeasurementModel(v, P1)),
    "error_metrics.truth_states": ("truth path", lambda v: error_metrics(RUN, v)),
    "lmmr_update.y": ("measurement", lambda v: lmmr_update(G2, MEAS2, v, 0.1)),
    "lmmr_update.h": ("step size", lambda v: lmmr_update(G2, MEAS2, [0.0], v)),
    "wasserstein_update.y": ("measurement", lambda v: wasserstein_update(G2, MEAS2, v, 0.1)),
    "wasserstein_update.h": ("step size", lambda v: wasserstein_update(G2, MEAS2, [0.0], v)),
    "run_filter.dz": ("increments", lambda v: run_filter(SYS2, MEAS2, G2, v, CFG)),
    "run_filter.update": ("update kind", lambda v: run_filter(SYS2, MEAS2, G2, DZ, CFG, update=v)),
    "run_filter.predict": ("predict kind",
                           lambda v: run_filter(SYS2, MEAS2, G2, DZ, CFG, predict=v)),
    "coarsen.increments": ("increments", lambda v: coarsen(v, 1)),
    "coarsen.factor": ("factor", lambda v: coarsen(np.zeros((1, 2, 1)), v)),
    "simulate.seeds": ("seeds?", lambda v: simulate(SYS2, MEAS2, G2, CFG, v)),
    "GaussianStream.seed": ("seed", lambda v: GaussianStream(v)),
    "lemma_checks.trials": ("trials", lambda v: lemma_checks(v, [1], 0)),
    "lemma_checks.dims": ("dims", lambda v: lemma_checks(1, v, 0)),
    "lemma_checks.seed": ("seed", lambda v: lemma_checks(1, [1], v)),
}

VALUES = {
    "True": True,
    "'x'": "x",
    "None": None,
    "nan": math.nan,
    "inf": math.inf,
    "10**400": 10**400,
    "-1": -1,
    "0": 0,
    "1.5": 1.5,
    "ragged": [[1.0], [1.0, 2.0]],
    "3-D": np.zeros((1, 1, 1)),
    "[]": [],
    "1e308": 1e308,
    "5e-324": 5e-324,
}


@pytest.mark.parametrize("name,call", SLOTS.values(), ids=SLOTS.keys())
def test_a_bad_value_is_refused_by_name_or_computed(name, call):
    escapes = []
    for label, value in VALUES.items():
        try:
            call(value)
        except ValidationError as exc:
            if not re.search(rf"(?<!\w)(?:{name})(?!\w)", str(exc)):
                escapes.append(f"{label}: unnamed {type(exc).__name__}: {exc}")
        except ProxflowError:
            pass
        except Exception as exc:  # noqa: BLE001 - anything else escapes the rule
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert escapes == []


KINDS = {
    "propagate.mode": ("unknown propagation mode", lambda v: propagate(SYS2, G2, CFG, v)),
    "run_filter.update": ("unknown update kind",
                          lambda v: run_filter(SYS2, MEAS2, G2, DZ, CFG, update=v)),
    "run_filter.predict": ("unknown predict kind",
                           lambda v: run_filter(SYS2, MEAS2, G2, DZ, CFG, predict=v)),
    "ProxObjective.kind": ("unknown objective kind",
                           lambda v: ProxObjective(v, G2, gamma=P2, beta=1.0)),
}


@pytest.mark.parametrize("text,call", KINDS.values(), ids=KINDS.keys())
@pytest.mark.parametrize("kind", [np.array([1, 2]), ["lmmr"], 1], ids=["array", "list", "int"])
def test_a_kind_that_is_not_a_string_is_unknown(text, call, kind):
    with pytest.raises(ValidationError) as info:
        call(kind)
    assert str(info.value) == f"{text} {kind!r}"


@pytest.mark.parametrize("value,message", [
    ("x", "SPD matrix must be an array of real numbers"),
    ([[1.0], [1.0, 2.0]], "SPD matrix must be an array of real numbers"),
    ([[10**400]], "SPD matrix must be an array of real numbers"),
    ([[None]], "SPD matrix has non-finite entries"),
    (np.zeros((1, 1, 1)), "SPD matrix must be a matrix, got shape (1, 1, 1)"),
    ([], "SPD matrix must be a matrix, got shape (0,)"),
])
def test_as_array_texts(value, message):
    with pytest.raises(ValidationError) as info:
        SpdMatrix(value)
    assert str(info.value) == message


@pytest.mark.parametrize("trials,dims,message", [
    (True, [1], "trials must be a positive integer, got True"),
    (2.5, [1], "trials must be a positive integer, got 2.5"),
    (0, [1], "trials must be a positive integer, got 0"),
    (2, [1.7], "each entry of dims must be a positive integer, got 1.7"),
    (2, [True], "each entry of dims must be a positive integer, got True"),
    (2, [], "dims must be a non-empty sequence of dimensions, got []"),
    (2, 5, "dims must be a non-empty sequence of dimensions, got 5"),
    (2, [[1]], "each entry of dims must be a positive integer, got [1]"),
    (10_001, [1], "trials must be at most 10000, got 10001"),
    (2, [1, 17], "each entry of dims must be at most 16, got 17"),
    ("2", [1], "trials must be a positive integer, got '2'"),
    (2, [np.float64(1.5)], "each entry of dims must be a positive integer, got 1.5"),
])
def test_lemma_checks_counts_follow_the_count_rule(trials, dims, message):
    with pytest.raises(ValidationError) as info:
        lemma_checks(trials, dims, 0)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"], ids=repr)
def test_lemma_checks_seed_follows_the_seed_rule(seed):
    with pytest.raises(ValidationError) as info:
        lemma_checks(1, [1], seed)
    assert str(info.value) == f"seed must be an integer in [0, 2**64), got {seed!r}"


def test_lemma_checks_takes_an_integral_float_count():
    assert lemma_checks(2.0, [1.0], 0).rows == lemma_checks(2, [1], 0).rows


CONFIG = {
    "system": {"A": [[-1.0]], "B": [[1.0]]},
    "initial": {"mean": [0.0], "cov": [[1.0]]},
    "steps": {"h": [0.1], "horizon": 1.0},
}


@pytest.mark.parametrize("section,field,value,message", [
    ("system", "A", [[-1.0], [1.0, 2.0]], "system.A: not a numeric array"),
    ("system", "A", [["-1"]], "system.A: not a numeric array"),
    ("system", "B", [[1.0, "x"]], "system.B: not a numeric array"),
    ("system", "A", [[True]], "system.A: not a numeric array"),
    ("system", "B", [[10**400]], "system.B: not a numeric array"),
    ("system", "A", [-1.0], "system.A: A must be a matrix, got shape (1,)"),
    ("system", "B", [[1e999]], "system.B: B has non-finite entries"),
    ("initial", "mean", [[0.0]], "initial.mean: mean must be a vector, got shape (1, 1)"),
    ("steps", "h", 0.1, "steps.h: h must be a vector, got shape ()"),
])
def test_config_array_refused_under_its_field(section, field, value, message):
    payload = json.loads(json.dumps(CONFIG))
    payload[section][field] = value
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(payload))
    assert str(info.value) == message


@pytest.mark.parametrize("t", ["x", None, True, 10**400, np.array([1.0, 2.0])], ids=repr)
def test_expm_time_must_be_a_finite_number(t):
    with pytest.raises(ValidationError, match="^time must be finite$"):
        expm([[1.0]], t)


@pytest.mark.parametrize("call,message", [
    (lambda: expm([[1e308]]), "matrix exponential overflowed"),
    (lambda: quadratic_matrix_solve(5e-324, P2),
     "eigendecomposition produced non-finite eigenvalues"),
    # h C^T R^-1 C overflows the information matrix's eigenvalues: named, as its floor is
    (lambda: lmmr_update(G2, MEAS2, [0.0], 1e308),
     "information matrix (P-)^-1 + h C^T R^-1 C: eigendecomposition produced non-finite "
     "eigenvalues"),
    # h C^T R^-1 C itself overflows (3 * 3 * 1e308): named, with no warning, at n = 1 and 2
    (lambda: lmmr_update(G1, MeasurementModel([[3.0]], P1), [0.0], 1e308),
     "information matrix (P-)^-1 + h C^T R^-1 C: h C^T R^-1 C overflows"),
    (lambda: wasserstein_update(G1, MeasurementModel([[3.0]], P1), [0.0], 1e308),
     "I + h C^T R^-1 C: h C^T R^-1 C overflows"),
    (lambda: lmmr_update(G2, MeasurementModel([[3.0, 0.0]], P1), [0.0], 1e308),
     "information matrix (P-)^-1 + h C^T R^-1 C: h C^T R^-1 C overflows"),
    (lambda: wasserstein_update(G2, MeasurementModel([[3.0, 0.0]], P1), [0.0], 1e308),
     "I + h C^T R^-1 C: h C^T R^-1 C overflows"),
], ids=["expm", "quadratic_matrix_solve", "lmmr_update", "lmmr_update-overflow-1",
        "wasserstein_update-overflow-1", "lmmr_update-overflow-2",
        "wasserstein_update-overflow-2"])
def test_an_overflow_is_a_numeric_failure_not_a_warning(call, message):
    with pytest.raises(NumericFailure) as info:
        call()
    assert str(info.value) == message

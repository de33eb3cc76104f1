"""Experiment configuration: JSON file schema, validation, and hashing.

The config is a single JSON document; matrices are row-major nested arrays
of decimals. Validation errors name the offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProxflowError, ValidationError
from .filtering import PREDICT_KINDS, UPDATE_KINDS, MeasurementModel
from .gaussians import Gaussian
from .matrices import SpdMatrix, as_array, require_positive
from .propagation import MAX_DIM, MAX_STEPS, MODE_GENERAL, MODE_SYMMETRIC, LinearSystem
from .rng import check_seed

TASKS = ("propagation", "filter", "compare")
CONFIG_LIMIT = 2**20  # characters read at most; a longer file (e.g. /dev/zero) is refused


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description plus the hash of its source text."""

    task: str
    system: LinearSystem
    measurement: MeasurementModel | None
    initial: Gaussian
    h_values: tuple
    horizon: float
    beta: float | None
    seeds: tuple
    propagation_mode: str
    update_kind: str
    predict_kind: str
    out_csv: str | None
    out_json: str | None
    config_hash: str

    def steps_for(self, h: float) -> int:
        ratio = self.horizon / h
        if not ratio <= MAX_STEPS:
            raise ConfigError(f"steps.h: horizon {self.horizon} / {h} exceeds {MAX_STEPS} steps")
        steps = round(ratio)
        if steps < 1 or abs(steps * h - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ConfigError(f"steps.h: horizon {self.horizon} is not a multiple of {h}")
        return steps


def _require(raw: dict, field: str, path: str):
    if field not in raw:
        raise ConfigError(f"{path}{field}: missing required field")
    return raw[field]


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    return value


def _array(value, path: str, ndim: int) -> np.ndarray:
    """as_array of rank ndim, a flat array of decimals (1) or a row-major nested array of
    rows (2), refused under the path; true, false and strings are not numbers here."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = None
    if a is None or a.dtype.kind not in "iuf":
        raise ConfigError(f"{path}: not a numeric array")
    return _build(path, lambda: as_array(a, path.rsplit(".", 1)[-1], (ndim,)))


def _positive(value, path: str) -> float:
    """A finite positive number as matrices.require_positive reads one, refused under the path."""
    return _build(path, lambda: require_positive(value, path.rsplit(".", 1)[-1]))


def _seed(value, path: str) -> int:
    """A seed under rng.check_seed; an integral float is its int, or refused as written."""
    try:
        return check_seed(int(value) if isinstance(value, float) and value.is_integer() else value)
    except ValidationError:
        return _build(path, lambda: check_seed(value))


def _choice(mode: dict, key: str, choices: tuple, default: str) -> str:
    value = mode.get(key, default)
    if value not in choices:
        raise ConfigError(f"mode.{key}: must be one of {choices}, got {value!r}")
    return value


def _output_path(value, path: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string or null")
    return value


def _build(path: str, make):
    """Run a constructor on parsed fields, reporting its validation error
    under the section path."""
    try:
        return make()
    except ProxflowError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    mode = _object(raw.get("mode", {}), "mode")
    task = _choice(mode, "task", TASKS, "propagation")

    sys_raw = _object(_require(raw, "system", ""), "system")
    a = _array(_require(sys_raw, "A", "system."), "system.A", 2)
    if max(a.shape) > MAX_DIM:
        raise ConfigError(f"system.A: at most {MAX_DIM} states, got shape {a.shape}")
    b = _array(_require(sys_raw, "B", "system."), "system.B", 2)
    system = _build("system", lambda: LinearSystem(a, b))

    measurement = None
    if task in ("filter", "compare"):
        meas_raw = _object(_require(raw, "measurement", ""), "measurement")
        c = _array(_require(meas_raw, "C", "measurement."), "measurement.C", 2)
        r = _array(_require(meas_raw, "R", "measurement."), "measurement.R", 2)
        measurement = _build("measurement", lambda: MeasurementModel(c, SpdMatrix(r)))
        if measurement.state_dim != system.dim:
            raise ConfigError(
                f"measurement.C: acts on dim {measurement.state_dim}, system has dim {system.dim}"
            )

    init_raw = _object(_require(raw, "initial", ""), "initial")
    mean = _array(_require(init_raw, "mean", "initial."), "initial.mean", 1)
    cov = _array(_require(init_raw, "cov", "initial."), "initial.cov", 2)
    initial = _build("initial", lambda: Gaussian(mean, SpdMatrix(cov)))
    if initial.dim != system.dim:
        raise ConfigError(f"initial.mean: dim {initial.dim} does not match system {system.dim}")

    steps_raw = _object(_require(raw, "steps", ""), "steps")
    h_array = _array(_require(steps_raw, "h", "steps."), "steps.h", 1)
    h_values = tuple(_positive(float(h), "steps.h") for h in h_array)
    if not h_values:
        raise ConfigError("steps.h: need at least one positive step size")
    if len(set(h_values)) != len(h_values):
        raise ConfigError("steps.h: step sizes must be distinct")
    if task == "compare" and len(h_values) > 1:
        raise ConfigError(f"steps.h: a compare task takes one step size, got {len(h_values)}")
    horizon = _positive(_require(steps_raw, "horizon", "steps."), "steps.horizon")
    beta = steps_raw.get("beta")
    if beta is not None:
        beta = _positive(beta, "steps.beta")

    seeds = raw.get("seeds", [])
    if not isinstance(seeds, list):
        raise ConfigError("seeds: must be a list of integers")
    seeds = tuple(_seed(seed, f"seeds[{i}]") for i, seed in enumerate(seeds))
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: seeds must be distinct")
    if task in ("filter", "compare") and not seeds:
        raise ConfigError("seeds: at least one seed is required for filter tasks")

    propagation_mode = _choice(mode, "propagation", (MODE_SYMMETRIC, MODE_GENERAL), MODE_SYMMETRIC)
    update_kind = _choice(mode, "update", UPDATE_KINDS, "lmmr")
    predict_kind = _choice(mode, "predict", PREDICT_KINDS, "jko")

    output = _object(raw.get("output", {}), "output")
    out_csv = _output_path(output.get("csv"), "output.csv")
    out_json = _output_path(output.get("json"), "output.json")

    cfg = ExperimentConfig(
        task=task,
        system=system,
        measurement=measurement,
        initial=initial,
        h_values=h_values,
        horizon=horizon,
        beta=beta,
        seeds=seeds,
        propagation_mode=propagation_mode,
        update_kind=update_kind,
        predict_kind=predict_kind,
        out_csv=out_csv,
        out_json=out_json,
        config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
    for h in h_values:
        cfg.steps_for(h)
    if task == "filter":
        h_min = min(h_values)
        for h in h_values:
            ratio = h / h_min
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(
                    f"steps.h: {h} is not an integer multiple of the finest step {h_min}"
                )
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(CONFIG_LIMIT + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text ({exc})") from exc
    if len(text) > CONFIG_LIMIT:
        raise ConfigError(f"cannot read config {path}: longer than {CONFIG_LIMIT} characters")
    return parse_config(text)

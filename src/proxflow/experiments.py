"""Experiment runners behind the CLI: convergence studies, filter
comparisons, and the randomized geometry report, all emitting deterministic
result tables."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, NumericFailure, ValidationError
from .filtering import UPDATE_KINDS, error_metrics, run_filter
from .geometry_checks import run_all_checks
from .matrices import max_abs
from .oracles import exact_cov, exact_mean, kalman_bucy_run, luenberger_run
from .propagation import StepConfig, propagate
from .simulate import coarsen, simulate


@dataclass(frozen=True)
class ResultRow:
    h: float | None
    seed: int | None
    metric: str
    value: float


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Deterministically ordered result rows plus provenance metadata.

    config_hash describes the config file; overrides, when set, names the
    command-line values that replaced parts of it (e.g. "seed:7"). Every
    value must be finite: a non-finite one raises NumericFailure.
    """

    rows: tuple
    config_hash: str
    overrides: str | None = None

    def __post_init__(self):
        for row in self.rows:
            if not np.isfinite(row.value):
                raise NumericFailure(
                    f"{row.metric} is {row.value} at h={row.h}, seed={row.seed}"
                )

    @staticmethod
    def _key(row: ResultRow):
        return (
            row.h is not None,
            row.h if row.h is not None else 0.0,
            row.seed is not None,
            row.seed if row.seed is not None else 0,
            row.metric,
        )

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=self._key)

    def to_csv(self) -> str:
        lines = [f"# config_hash={self.config_hash}", f"# tool_version={__version__}"]
        if self.overrides:
            lines.append(f"# overrides={self.overrides}")
        lines.append("h,seed,metric,value")
        for row in self.sorted_rows():
            h = repr(row.h) if row.h is not None else ""
            seed = str(row.seed) if row.seed is not None else ""
            lines.append(f"{h},{seed},{row.metric},{row.value!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "tool_version": __version__,
            "rows": [
                {"h": r.h, "seed": r.seed, "metric": r.metric, "value": r.value}
                for r in self.sorted_rows()
            ],
        }
        if self.overrides:
            payload["overrides"] = self.overrides
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def write(self, csv_path: str | None, json_path: str | None = None) -> None:
        for path, render in ((csv_path, self.to_csv), (json_path, self.to_json)):
            if not path:
                continue
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(render())
            except OSError as exc:
                raise ValidationError(f"cannot write {path}: {exc}") from exc


def _ratio_rows(rows_by_h, metric: str, seed=None):
    """Consecutive-h error ratios err(2h)/err(h), attached to the smaller h."""
    out = []
    hs = sorted(rows_by_h, reverse=True)
    for coarse, fine in zip(hs, hs[1:]):
        denom = rows_by_h[fine]
        if denom > 0:
            out.append(ResultRow(fine, seed, f"{metric}_ratio", rows_by_h[coarse] / denom))
    return out


def converge_propagation(cfg: ExperimentConfig) -> ResultTable:
    """Terminal mean/covariance errors of the proximal propagation against
    the exact references, per step size, with consecutive-h ratios."""
    if cfg.task != "propagation":
        raise ConfigError(f"mode.task: expected 'propagation', got {cfg.task!r}")
    ref_mean = exact_mean(cfg.system, cfg.initial.mean, cfg.horizon)
    ref_cov = exact_cov(cfg.system, cfg.initial.cov, cfg.horizon, min(cfg.h_values) / 20.0)
    rows = []
    mean_errors = {}
    cov_errors = {}
    for h in sorted(cfg.h_values, reverse=True):
        step_cfg = StepConfig(h=h, steps=cfg.steps_for(h), beta=cfg.beta)
        terminal = propagate(cfg.system, cfg.initial, step_cfg, cfg.propagation_mode)[-1][1]
        mean_errors[h] = max_abs(terminal.mean - ref_mean)
        cov_errors[h] = max_abs(terminal.cov.mat - ref_cov.mat)
        rows.append(ResultRow(h, None, "terminal_mean_error", mean_errors[h]))
        rows.append(ResultRow(h, None, "terminal_cov_error", cov_errors[h]))
    rows.extend(_ratio_rows(mean_errors, "terminal_mean_error"))
    rows.extend(_ratio_rows(cov_errors, "terminal_cov_error"))
    return ResultTable(tuple(rows), cfg.config_hash)


def converge_filter(cfg: ExperimentConfig) -> ResultTable:
    """Per-step-size filter error against the continuous-time reference run
    on a shared noise realization per seed (coarse increments are partial
    sums of the finest path's increments). All seeds run as one batch: one
    simulation, one reference run, and one filter run per step size."""
    if cfg.task != "filter":
        raise ConfigError(f"mode.task: expected 'filter', got {cfg.task!r}")
    h_min = min(cfg.h_values)
    reference_run = kalman_bucy_run if cfg.update_kind == "lmmr" else luenberger_run
    fine = StepConfig(h=h_min, steps=cfg.steps_for(h_min))
    master = simulate(cfg.system, cfg.measurement, cfg.initial, fine, cfg.seeds)
    reference = reference_run(cfg.system, cfg.measurement, cfg.initial, master.increments, h_min)
    ref_cov = reference[-1].cov.mat
    ref_means = np.stack([g.mean for g in reference], axis=-2)
    rows = []
    cov_errors = {}
    for h in sorted(cfg.h_values, reverse=True):
        factor = round(h / h_min)
        path = coarsen(master, factor)
        run = run_filter(
            cfg.system,
            cfg.measurement,
            cfg.initial,
            path.increments,
            StepConfig(h=h, steps=path.steps),
            update=cfg.update_kind,
            predict=cfg.predict_kind,
        )
        cov_errors[h] = max_abs(run.terminal.cov.mat - ref_cov)
        mean_rmse = error_metrics(run, ref_means[:, ::factor]).path_rmse
        for seed, value in zip(cfg.seeds, mean_rmse.tolist()):
            rows.append(ResultRow(h, seed, "terminal_cov_error", cov_errors[h]))
            rows.append(ResultRow(h, seed, "mean_path_rmse_vs_reference", value))
    for seed in cfg.seeds:
        rows.extend(_ratio_rows(cov_errors, "terminal_cov_error", seed=seed))
    return ResultTable(tuple(rows), cfg.config_hash)


def compare_filters(cfg: ExperimentConfig) -> ResultTable:
    """Monte Carlo comparison of the two proximal filters on shared paths:
    truth-based terminal errors per seed, aggregate RMSE, and each filter's
    self-assessed terminal covariance. Each filter runs once over all seeds'
    increments as one batch."""
    if cfg.task != "compare":
        raise ConfigError(f"mode.task: expected 'compare', got {cfg.task!r}")
    h = cfg.h_values[0]
    step_cfg = StepConfig(h=h, steps=cfg.steps_for(h))
    paths = simulate(cfg.system, cfg.measurement, cfg.initial, step_cfg, cfg.seeds)
    rows = []
    for kind in UPDATE_KINDS:
        run = run_filter(
            cfg.system,
            cfg.measurement,
            cfg.initial,
            paths.increments,
            step_cfg,
            update=kind,
            predict=cfg.predict_kind,
        )
        terminal_sq = error_metrics(run, paths.states).terminal_squared
        for seed, value in zip(cfg.seeds, terminal_sq.tolist()):
            rows.append(ResultRow(h, seed, f"terminal_sq_error_{kind}", value))
        rows.append(ResultRow(h, None, f"rmse_{kind}", float(np.sqrt(np.mean(terminal_sq)))))
        rows.append(ResultRow(h, None, f"terminal_cov_trace_{kind}", run.terminal.cov.trace()))
    return ResultTable(tuple(rows), cfg.config_hash)


def lemma_checks(trials: int, dims, seed: int) -> ResultTable:
    """Randomized geometry identity report: per suite, the trial count,
    failure count, and worst slack/residual."""
    if trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {trials}")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ConfigError(f"dims: every entry must be a positive integer, got {dims}")
    descriptor = json.dumps({"trials": trials, "dims": list(dims), "seed": seed}, sort_keys=True)
    config_hash = hashlib.sha256(descriptor.encode("utf-8")).hexdigest()
    rows = []
    for result in run_all_checks(trials, dims, seed):
        rows.append(ResultRow(None, seed, f"{result.name}_trials", float(result.trials)))
        rows.append(ResultRow(None, seed, f"{result.name}_failures", float(result.failures)))
        rows.append(ResultRow(None, seed, f"{result.name}_worst", result.worst))
    return ResultTable(tuple(rows), config_hash)

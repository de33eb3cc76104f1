"""Proximal measurement updates and their composition into discrete filters.

Two update rules act on a Gaussian prior given one noisy measurement: the
KL-proximal update (information-form covariance shrinkage, whose small-step
limit is the optimal filter) and the transport-proximal update (static-gain
mean correction, whose small-step limit is the static-gain observer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .gaussians import Gaussian, as_vectors, batch_prior
from .matrices import SpdMatrix, as_matrix, inv_spd, matvec, require_positive, require_same_dim
from .oracles import exact_cov, exact_mean
from .propagation import LinearSystem, StepConfig, general_step


class MeasurementModel:
    """Linear observation dz = C x dt + dv with noise intensity R."""

    __slots__ = ("c", "r", "rinv", "_info")

    def __init__(self, c, r: SpdMatrix):
        cm = np.array(as_matrix(c, "C"))  # own copy before freezing
        require_same_dim("C rows and R", cm.shape[0], r.dim)
        cm.flags.writeable = False
        self.c = cm
        self.r = r
        self.rinv = inv_spd(r).mat
        self._info = cm.T @ self.rinv @ cm
        self._info.flags.writeable = False

    @property
    def obs_dim(self) -> int:
        return self.c.shape[0]

    @property
    def state_dim(self) -> int:
        return self.c.shape[1]

    def information_matrix(self) -> np.ndarray:
        """C^T R^-1 C (read-only, formed once)."""
        return self._info


def _check_update_inputs(g_prior: Gaussian, meas: MeasurementModel, y, h: float):
    require_same_dim("prior and measurement model", g_prior.dim, meas.state_dim)
    require_positive(h, "step size")
    y = as_vectors(y, dim=meas.obs_dim, name="measurement")
    if y.shape[:-1] != g_prior.mean.shape[:-1]:
        raise DimensionError(
            f"measurements have shape {y.shape}, prior means {g_prior.mean.shape}"
        )
    return y


def lmmr_update(g_prior: Gaussian, meas: MeasurementModel, y, h: float) -> Gaussian:
    """KL-proximal measurement update.

    Mean solves (I + h P- C' R^-1 C) mu+ = mu- + h P- C' R^-1 y exactly;
    covariance updates in information form (P+)^-1 = (P-)^-1 + h C' R^-1 C,
    so P+ <= P- always. The prior mean and y may be batches (S, n), (S, m)
    sharing the covariance.
    """
    y = _check_update_inputs(g_prior, meas, y, h)
    p_prior = g_prior.cov.mat
    info = meas.information_matrix()
    lhs = np.eye(g_prior.dim) + h * p_prior @ info
    rhs = g_prior.mean + matvec(h * p_prior @ meas.c.T @ meas.rinv, y)
    mean = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    post_info = inv_spd(g_prior.cov).mat + h * info
    cov = inv_spd(SpdMatrix(post_info))
    return Gaussian(mean, cov)


def wasserstein_update(g_prior: Gaussian, meas: MeasurementModel, y, h: float) -> Gaussian:
    """Transport-proximal measurement update.

    Mean solves (I + h C' R^-1 C) mu+ = mu- + h C' R^-1 y; covariance obeys
    (P+)^-1 = (I + h C' R^-1 C) (P-)^-1 (I + h C' R^-1 C). The prior mean
    and y may be batches (S, n), (S, m) sharing the covariance.
    """
    y = _check_update_inputs(g_prior, meas, y, h)
    info = meas.information_matrix()
    scaled = np.eye(g_prior.dim) + h * info
    rhs = g_prior.mean + matvec(h * meas.c.T @ meas.rinv, y)
    mean = np.linalg.solve(scaled, rhs[..., None])[..., 0]
    half = np.linalg.solve(scaled, g_prior.cov.mat)
    cov = np.linalg.solve(scaled, half.T).T
    return Gaussian(mean, SpdMatrix(0.5 * (cov + cov.T)))


_UPDATES = {"lmmr": lmmr_update, "wasserstein": wasserstein_update}
UPDATE_KINDS = tuple(_UPDATES)
PREDICT_KINDS = ("jko", "exact")


@dataclass(frozen=True, eq=False)
class FilterRun:
    """Posterior path of one filter run, g0 first.

    For a batch of S measurement paths each posterior holds S means, shape
    (S, n).
    """

    posteriors: tuple

    @property
    def terminal(self) -> Gaussian:
        return self.posteriors[-1]

    def means(self) -> np.ndarray:
        """Posterior means, shape (steps + 1, n), or (S, steps + 1, n) for a batch."""
        return np.stack([g.mean for g in self.posteriors], axis=-2)


def run_filter(
    sys: LinearSystem,
    meas: MeasurementModel,
    g0: Gaussian,
    dz,
    cfg: StepConfig,
    update: str = "lmmr",
    predict: str = "jko",
) -> FilterRun:
    """Alternate prediction and proximal measurement updates over the data.

    dz holds cfg.steps measurement increments, shape (steps, m), or one such
    path per seed, shape (S, steps, m); the per-step measurement is
    y_k = dz_k / h, computed internally. The covariances do not depend on the
    data, so a batch computes them once and advances S means from g0's mean,
    each bit for bit as its one-path run. predict "jko" is propagate's
    general-first-order step, "exact" the closed-form/ODE propagation.
    """
    if update not in UPDATE_KINDS:
        raise ValidationError(f"unknown update kind {update!r}")
    if predict not in PREDICT_KINDS:
        raise ValidationError(f"unknown predict kind {predict!r}")
    require_same_dim("system, measurement model and prior", sys.dim, meas.state_dim, g0.dim)
    g0, dz = batch_prior(g0, dz, meas.obs_dim, cfg.steps)
    update_fn = _UPDATES[update]
    h = cfg.h
    if predict == "jko":
        predict_step = general_step(sys, h)
    else:
        predict_step = lambda g: Gaussian(exact_mean(sys, g.mean, h), exact_cov(sys, g.cov, h))
    posteriors = [g0]
    g = g0
    for k in range(cfg.steps):
        g = update_fn(predict_step(g), meas, dz[..., k, :] / h, h)
        posteriors.append(g)
    return FilterRun(tuple(posteriors))


@dataclass(frozen=True, eq=False)
class ErrorSummary:
    """Squared estimation errors of one run against the true state path.

    For a batched run both fields are (S,) arrays, one entry per seed; for one
    path they are numpy floats.
    """

    terminal_squared: float | np.ndarray
    path_rmse: float | np.ndarray


def error_metrics(run: FilterRun, truth_states) -> ErrorSummary:
    """Terminal squared error and path RMSE of the posterior means vs truth,
    per seed for a batched run (truth then has shape (S, steps + 1, n))."""
    truth = np.asarray(truth_states, dtype=float)
    if truth.ndim == 1:
        truth = truth.reshape(-1, 1)
    means = run.means()
    if truth.shape != means.shape:
        raise DimensionError(
            f"truth path has shape {truth.shape}, run has {means.shape}"
        )
    with np.errstate(over="ignore"):  # ResultTable turns a non-finite error into exit 2
        sq = np.sum((means - truth) ** 2, axis=-1)
    return ErrorSummary(
        terminal_squared=sq[..., -1],
        path_rmse=np.sqrt(np.mean(sq, axis=-1)),
    )

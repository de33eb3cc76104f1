"""Proximal measurement updates and their composition into discrete filters.

Two update rules act on a Gaussian prior given one noisy measurement: the
KL-proximal update (information-form covariance shrinkage, whose small-step
limit is the optimal filter) and the transport-proximal update (static-gain
mean correction, whose small-step limit is the static-gain observer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError, named_failures
from .gaussians import FilterRun, Gaussian, as_vectors, batch_prior
from .matrices import (
    POSITIVITY_RTOL,
    SpdMatrix,
    as_matrix,
    frozen,
    inv_spd,
    matvec,
    max_abs,
    require_positive,
    require_same_dim,
    solve,
)
from .oracles import exact_cov, exact_mean
from .propagation import LinearSystem, StepConfig, general_step


class MeasurementModel:
    """Linear observation dz = C x dt + dv with noise intensity R."""

    __slots__ = ("c", "r", "rinv", "_info")

    def __init__(self, c, r: SpdMatrix):
        cm = frozen(as_matrix(c, "C"))
        require_same_dim("C rows and R", cm.shape[0], r.dim)
        self.c = cm
        self.r = r
        self.rinv = inv_spd(r).mat
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected just below
            self._info = frozen(cm.T @ self.rinv @ cm)
        if not np.all(np.isfinite(self._info)):
            raise ValidationError("C is too large: C^T R^-1 C overflows")

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


def _lmmr_gain(p_prior: SpdMatrix, meas: MeasurementModel, h: float):
    """The lmmr mean solve's covariance-dependent parts (lhs, gain)."""
    p = p_prior.mat
    return np.eye(p_prior.dim) + h * p @ meas.information_matrix(), h * p @ meas.c.T @ meas.rinv


def lmmr_update(g_prior: Gaussian, meas: MeasurementModel, y, h: float, half=None) -> Gaussian:
    """KL-proximal measurement update.

    Mean solves (I + h P- C' R^-1 C) mu+ = mu- + h P- C' R^-1 y exactly;
    covariance updates in information form (P+)^-1 = (P-)^-1 + h C' R^-1 C,
    so P+ <= P- always. The prior mean and y may be batches (S, n), (S, m)
    sharing the covariance. half, if given, is (lhs, gain, P+) as an update
    of the same prior covariance formed them; only the mean is then solved.
    """
    y = _check_update_inputs(g_prior, meas, y, h)
    lhs, gain, cov = half or _lmmr_gain(g_prior.cov, meas, h) + (None,)
    rhs = g_prior.mean + matvec(gain, y)
    mean = solve(lhs, rhs[..., None], "the mean solve failed")[..., 0]
    if cov is None:
        cov = inv_spd(SpdMatrix(inv_spd(g_prior.cov).mat + h * meas.information_matrix()))
    return Gaussian(mean, cov)


def _wasserstein_gain(p_prior: SpdMatrix, meas: MeasurementModel, h: float):
    """The transport mean solve's parts (I + h C' R^-1 C, gain), both free of P-."""
    return np.eye(meas.state_dim) + h * meas.information_matrix(), h * meas.c.T @ meas.rinv


def wasserstein_update(g_prior: Gaussian, meas: MeasurementModel, y, h: float,
                       half=None) -> Gaussian:
    """Transport-proximal measurement update.

    Mean solves (I + h C' R^-1 C) mu+ = mu- + h C' R^-1 y; covariance obeys
    (P+)^-1 = (I + h C' R^-1 C) (P-)^-1 (I + h C' R^-1 C). The prior mean
    and y may be batches (S, n), (S, m) sharing the covariance. half is as
    in lmmr_update, with I + h C' R^-1 C as its lhs.
    """
    y = _check_update_inputs(g_prior, meas, y, h)
    scaled, gain, cov = half or _wasserstein_gain(g_prior.cov, meas, h) + (None,)
    rhs = g_prior.mean + matvec(gain, y)
    failure = "a solve failed"
    mean = solve(scaled, rhs[..., None], failure)[..., 0]
    if cov is None:
        cov = solve(scaled, solve(scaled, g_prior.cov.mat, failure).T, failure).T
    return Gaussian(mean, cov if half else SpdMatrix(cov))


_UPDATES = {"lmmr": lmmr_update, "wasserstein": wasserstein_update}
_GAINS = {"lmmr": _lmmr_gain, "wasserstein": _wasserstein_gain}
UPDATE_KINDS = tuple(_UPDATES)
PREDICT_KINDS = ("jko", "exact")
_PROBE_FLOOR = 100 * POSITIVITY_RTOL


def _exact_step(sys: LinearSystem, h: float):
    """The exact predict g -> (Phi mu, Phi P Phi^T + Q_h), with Phi = e^(A h)
    and Q_h the covariance the noise adds over one step, both read off the
    oracle once: Phi from exact_mean on the basis vectors, and Q_h as the
    offset of the affine covariance map at the probe P = s I. The probe sits
    at the noise scale s ~ |Q_h|, so the subtraction loses digits only at
    Q_h's own scale however small the noise; s stays high enough that
    s Phi Phi^T, and so the oracle's output, clears the SPD floor. A Q_h read
    that fails keeps its error class and names the exact predict."""
    n = sys.dim
    phi = exact_mean(sys, np.eye(n), h).T
    shrink = np.linalg.svd(phi, compute_uv=False)[-1] ** 2
    s = max(h * max_abs(sys.diffusion()), _PROBE_FLOOR / shrink)
    with named_failures(lambda: f"exact predict: cannot read Q_h off the oracle at h={h}"):
        q_h = exact_cov(sys, SpdMatrix(s * np.eye(n)), h).mat - s * (phi @ phi.T)

    def step(g, cov=None):
        return Gaussian(matvec(phi, g.mean), cov or SpdMatrix(phi @ g.cov.mat @ phi.T + q_h))

    return step


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
    each bit for bit as its one-path run. Each covariance map is a function
    of P's bits, so once a posterior covariance repeats the one before it bit
    for bit, later steps reuse that step's predicted P and update half (see
    lmmr_update) and step only the means. predict "jko" is propagate's
    general-first-order step. predict "exact" is the exact transition, the
    same affine map P -> Phi P Phi^T + Q_h at every step, with Phi = e^(A h):
    Phi and Q_h are read off exact_mean and exact_cov once per run, Q_h at a
    probe scaled to the noise. Over 300 steps it stays within 2e-12,
    relative to the largest entry, of applying the oracle at every step
    (n up to 16, h = 0.02, B from unit scale down to 1e-5 of it).
    A step that fails keeps its error class (NumericFailure for an overflow)
    and reads "<stage> failed at step k: <cause>", where the stage is
    "<predict> predict" or "<update> update".
    """
    if update not in UPDATE_KINDS:
        raise ValidationError(f"unknown update kind {update!r}")
    if predict not in PREDICT_KINDS:
        raise ValidationError(f"unknown predict kind {predict!r}")
    g0, dz = batch_prior(sys, meas, g0, dz, cfg.steps)
    update_fn = _UPDATES[update]
    h = cfg.h
    predict_step = general_step(sys, h) if predict == "jko" else _exact_step(sys, h)
    posteriors = [g0]
    predicting, updating = f"{predict} predict", f"{update} update"
    cov = half = last = None
    with named_failures(lambda: f"{stage} failed at step {len(posteriors)}"):
        for k in range(cfg.steps):
            stage = predicting
            prior = predict_step(posteriors[-1], cov)
            stage = updating
            posteriors.append(update_fn(prior, meas, dz[..., k, :] / h, h, half))
            if half is None:
                key, last = last, posteriors[-1].cov.mat.tobytes()
                if key == last:  # P+ repeats, so the next predicted P and update half do
                    cov = prior.cov
                    half = _GAINS[update](cov, meas, h) + (posteriors[-1].cov,)
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

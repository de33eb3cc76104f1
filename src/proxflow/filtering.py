"""Proximal measurement updates and their composition into discrete filters.

Two update rules act on a Gaussian prior given one noisy measurement: the
KL-proximal update (information-form covariance shrinkage, evaluated in gain
form at n >= 2, whose small-step limit is the optimal filter) and the
transport-proximal update (static-gain mean correction, whose small-step
limit is the static-gain observer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericFailure,
    ValidationError,
    named_failures,
)
from .gaussians import FilterRun, Gaussian, as_vectors, batch_prior, require_finite_mean
from .matrices import (
    POSITIVITY_RTOL,
    SpdMatrix,
    as_array,
    as_matrix,
    float_path,
    frozen,
    inv_spd,
    matvec,
    max_abs,
    require_choice,
    require_positive,
    require_same_dim,
    solve,
)
from .oracles import exact_cov, exact_mean
from .propagation import LinearSystem, StepConfig, general_step

_OVERFLOW = "h C^T R^-1 C overflows"  # the cause both updates name for it
# How far the KL update's gain form may sit from its information form, K and
# P+ each relative to its largest entry, for n up to 16, cond(P-) up to 1e6, R
# scaled 1e-4 to 1e4 and h in [1e-3, 1]; tests/test_filtering.py checks it.
GAIN_FORM_RTOL = 1e-8


class MeasurementModel:
    """Linear observation dz = C x dt + dv with noise intensity R."""

    __slots__ = ("c", "r", "rinv", "_info", "_transport")

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
        self._transport = None

    @property
    def obs_dim(self) -> int:
        return self.c.shape[0]

    @property
    def state_dim(self) -> int:
        return self.c.shape[1]

    def information_matrix(self) -> np.ndarray:
        """C^T R^-1 C (read-only, formed once)."""
        return self._info

    def transport_terms(self, h: float):
        """(S, gain) = (I + h C^T R^-1 C, h S^-1 C^T R^-1), the P-free part of
        the transport update at step size h. Kept for the last h whose terms
        are finite, so a run at one h forms them once. An S or an h C^T R^-1
        that overflows is refused as NumericFailure naming it, with no
        floating-point warning."""
        if self._transport is None or self._transport[0] != h:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                scaled = np.eye(self.state_dim) + h * self._info
                rhs = h * self.c.T @ self.rinv
            if not np.isfinite(scaled).all():
                raise NumericFailure(f"I + h C^T R^-1 C: {_OVERFLOW}")
            if not np.isfinite(rhs).all():
                raise NumericFailure("transport gain h S^-1 C^T R^-1: h C^T R^-1 overflows")
            gain = solve(scaled, rhs, "a solve failed")
            if not np.isfinite(gain).all():
                return scaled, gain
            self._transport = (h, scaled, gain)
        return self._transport[1:]


def _innovate(mean, c, gain, y):
    """mu- + gain (y - C mu-): both updates and run_filter's settled steps
    move the means this way."""
    return mean + matvec(gain, y - matvec(c, mean))


def _update(half, g_prior: Gaussian, meas: MeasurementModel, y, h: float) -> Gaussian:
    """The body both public updates share: check y (one vector per prior mean) and h,
    take (gain, P+) from the covariance half, and move the means by _innovate."""
    require_same_dim("prior and measurement model", g_prior.dim, meas.state_dim)
    h = require_positive(h, "step size")
    y = as_vectors(y, dim=meas.obs_dim, name="measurement")
    if y.shape[:-1] != g_prior.mean.shape[:-1]:
        raise DimensionError(
            f"measurements have shape {y.shape}, prior means {g_prior.mean.shape}"
        )
    gain, cov = half(g_prior.cov, meas, h)
    return Gaussian._fresh(require_finite_mean(_innovate(g_prior.mean, meas.c, gain, y)), cov)


def _lmmr_half(p_prior: SpdMatrix, meas: MeasurementModel, h: float):
    """The KL update's (gain, P+). At n >= 2 it takes the gain form of the
    information form (P+)^-1 = (P-)^-1 + h C' R^-1 C, equal to it by the matrix
    inversion lemma: with W = C P- and S = R + h W C', K = h (S^-1 W)' and
    P+ = P- - K W, so no eigendecomposition runs. It agrees with the
    information form within GAIN_FORM_RTOL, relative to the largest entry.
    An h C P- C' that overflows is refused as NumericFailure naming it, with
    no floating-point warning; a P+ below the floor as SingularityError
    naming P+.
    At 1 x 1 it is the information form in floats, P+ = SpdMatrix(1 / (1 / p
    + h J)), J = C' R^-1 C, with the matrix inverses' bits: a sum that
    overflows is refused by name, and only P+ is floored, so a diffuse prior
    runs. Each rounded operation is monotone, and so is this map of p: after
    a monotone predict (the exact one) a run's walk reaches a bitwise repeat.
    The gain at n = m = 1 is 0.0 + h p c r, as numpy adds each 1 x 1 product
    to +0.0; one that is not finite is formed as matrices, which raise under
    a run's guard."""
    if p_prior.dim > 1:
        return _gain_form(p_prior.mat, meas, h)
    info = 1.0 / p_prior.mat.item() + h * meas.information_matrix().item()
    if not math.isfinite(info):
        raise NumericFailure(f"information matrix (P-)^-1 + h C^T R^-1 C: {_OVERFLOW}")
    cov = SpdMatrix(1.0 / info, "posterior covariance ((P-)^-1 + h C^T R^-1 C)^-1")
    if meas.c.size == 1:
        gain = 0.0 + h * cov.mat.item() * meas.c.item() * meas.rinv.item()
        if math.isfinite(gain):
            return np.array([[gain]]), cov
    return h * cov.mat @ meas.c.T @ meas.rinv, cov


def _gain_form(p: np.ndarray, meas: MeasurementModel, h: float):
    """(K, P+) = (h (S^-1 W)', SpdMatrix(P- - K W)), W = C P-, S = R + h W C'."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        w = meas.c @ p
        s = meas.r.mat + h * (w @ meas.c.T)
        if not np.isfinite(s).all():
            raise NumericFailure("innovation covariance R + h C P- C^T: h C P- C^T overflows")
        gain = h * solve(s, w, "innovation covariance R + h C P- C^T is singular").T
        cov = p - gain @ w
        # K W = h W' S^-1 W is symmetric but for rounding, which grows with
        # cond(S): keep it out of SpdMatrix's asymmetry check (same bits)
        cov = 0.5 * (cov + cov.T)
    name = "posterior covariance P- - K C P-"
    if not np.isfinite(cov).all():
        raise NumericFailure(f"{name}: K C P- overflows")
    return gain, SpdMatrix(cov, name)


def lmmr_update(g_prior: Gaussian, meas: MeasurementModel, y, h: float) -> Gaussian:
    """KL-proximal measurement update.

    Covariance in information form (P+)^-1 = (P-)^-1 + h C' R^-1 C, so
    P+ <= P- always; mean mu+ = mu- + h P+ C' R^-1 (y - C mu-), the solution
    of (I + h P- C' R^-1 C) mu+ = mu- + h P- C' R^-1 y. At n >= 2 both are
    evaluated in the equal gain form, K = h P- C' (R + h C P- C')^-1 and
    P+ = P- - K C P-, within GAIN_FORM_RTOL of the information form (see
    _lmmr_half). The prior mean and y may be batches (S, n), (S, m) sharing
    the covariance.
    """
    return _update(_lmmr_half, g_prior, meas, y, h)


def _wasserstein_half(p_prior: SpdMatrix, meas: MeasurementModel, h: float):
    """The transport update's (gain, P+): h S^-1 C' R^-1 and S^-1 P- S^-T,
    with S and the gain from meas.transport_terms; at 1 x 1 P+ is the float
    (p / s) / s, the two solves' bits."""
    scaled, gain = meas.transport_terms(h)
    if p_prior.dim == 1:
        s = scaled.item()
        return gain, SpdMatrix(p_prior.mat.item() / s / s)
    failure = "a solve failed"
    cov = solve(scaled, solve(scaled, p_prior.mat, failure).T, failure).T
    return gain, SpdMatrix(cov)


def wasserstein_update(g_prior: Gaussian, meas: MeasurementModel, y, h: float) -> Gaussian:
    """Transport-proximal measurement update.

    Covariance (P+)^-1 = S (P-)^-1 S with S = I + h C' R^-1 C; mean
    mu+ = mu- + h S^-1 C' R^-1 (y - C mu-), the solution of
    S mu+ = mu- + h C' R^-1 y: a static gain, free of P-. Batches are as in
    lmmr_update.
    """
    return _update(_wasserstein_half, g_prior, meas, y, h)


_UPDATES = {"lmmr": lmmr_update, "wasserstein": wasserstein_update}
_HALVES = {"lmmr": _lmmr_half, "wasserstein": _wasserstein_half}
UPDATE_KINDS = tuple(_UPDATES)
PREDICT_KINDS = ("jko", "exact")
_PROBE_FLOOR = 100 * POSITIVITY_RTOL


def _exact_step(sys: LinearSystem, h: float):
    """The exact predict g -> (Phi mu, Phi P Phi^T + Q_h), returned as
    (Phi, step), with Phi = e^(A h) and Q_h the covariance the noise adds
    over one step, both read off the oracle once: Phi from exact_mean on the
    basis vectors, and Q_h as the offset of the affine covariance map at the
    probe P = s I. The probe sits at the noise scale s ~ |Q_h|, so the
    subtraction loses digits only at Q_h's own scale however small the
    noise; s stays high enough that s Phi Phi^T, and so the oracle's output,
    clears the SPD floor. A Q_h read that fails keeps its error class and
    names the exact predict. step runs only under run_filter's named_failures
    guard, which raises on every overflow, so Phi mu of a checked mean is
    finite and the step builds its Gaussian with no check of its own."""
    n = sys.dim
    phi = exact_mean(sys, np.eye(n), h).T
    shrink = np.linalg.svd(phi, compute_uv=False)[-1] ** 2
    s = max(h * max_abs(sys.diffusion()), _PROBE_FLOOR / shrink)
    with named_failures(lambda: f"exact predict: cannot read Q_h off the oracle at h={h}"):
        q_h = exact_cov(sys, SpdMatrix(s * np.eye(n)), h).mat - s * (phi @ phi.T)
    return phi, lambda g: Gaussian._fresh(
        matvec(phi, g.mean), SpdMatrix(phi @ g.cov.mat @ phi.T + q_h)
    )


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
    general-first-order step, mu -> M_h mu. predict "exact" is the exact
    transition, the same affine map P -> Phi P Phi^T + Q_h at every step,
    with mu -> Phi mu and Phi = e^(A h): Phi and Q_h are read off exact_mean
    and exact_cov once per run, Q_h at a probe scaled to the noise. Over 300
    steps it stays within 2e-12, relative to the largest entry, of applying
    the oracle at every step (n up to 16, h = 0.02, B from unit scale down
    to 1e-5 of it).

    The run walks the predict and the update step by step until a posterior
    covariance repeats the one before it bit for bit. Each covariance map is
    a function of P's bits, so from then on every prior P, gain K and P+
    repeat too (the steady-state gain of the Riccati recursion), and the
    settled tail steps only the means, mu <- M mu, mu <- mu + K (y - C mu),
    with M = M_h or Phi: the arithmetic the walk's steps do, bit for bit.
    One path of one state and one sensor steps its tail in Python floats,
    x <- 0.0 + m x, then x <- x + k (d / h - c x) per increment d, with the
    array loop's bits: numpy adds each 1 x 1 product to +0.0, as the first
    step does, so that x is never -0.0, and a zero's sign in c x or
    k (...), where floats and numpy may differ, is lost when added to x. If
    float_path finds the last mean not finite, the array loop reruns the
    tail and raises as below.
    A step that fails, in the walk or the tail, keeps its error class
    (NumericFailure for an overflow) and reads "<stage> failed at step k:
    <cause>", where the stage is "<predict> predict" or "<update> update".
    """
    require_choice(update, UPDATE_KINDS, "update kind")
    require_choice(predict, PREDICT_KINDS, "predict kind")
    mean0, dz = batch_prior(sys, meas, g0, dz, cfg.steps)
    update_fn = _UPDATES[update]
    h, steps = cfg.h, cfg.steps
    mean_map, predict_step = (general_step if predict == "jko" else _exact_step)(sys, h)
    means = np.empty(dz.shape[:-2] + (steps + 1, g0.dim))
    means[..., 0, :] = mean0
    covs = [g0.cov]
    predicting, updating = f"{predict} predict", f"{update} update"
    g, last, settled = Gaussian(mean0, g0.cov), None, steps
    with named_failures(lambda: f"{stage} failed at step {k + 1}"):
        for k in range(steps):
            stage = predicting
            prior = predict_step(g)
            stage = updating
            g = update_fn(prior, meas, dz[..., k, :] / h, h)
            means[..., k + 1, :] = g.mean
            covs.append(g.cov)
            key, last = last, g.cov.mat.tobytes()
            if key == last:  # P+ repeats, so every later prior P, gain and P+ do
                settled, gain = k + 1, _HALVES[update](prior.cov, meas, h)[0]
                break
        mu = g.mean
        if settled < steps and mu.size == meas.c.size == 1:
            m, c, kf = mean_map.item(), meas.c.item(), gain.item()
            tail = float_path(lambda x, d: (x := 0.0 + m * x) + kf * (d / h - c * x),
                              mu.item(), dz[..., settled:, 0].ravel().tolist())
            if tail:
                means[..., settled:, 0], settled = tail, steps
        for k in range(settled, steps):  # a batch, or the replay of a float tail that overflowed
            stage = predicting
            mu = matvec(mean_map, mu)
            stage = updating
            mu = _innovate(mu, meas.c, gain, dz[..., k, :] / h)
            means[..., k + 1, :] = mu
    return FilterRun(means, tuple(covs + covs[-1:] * (steps + 1 - len(covs))))


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
    means = run.means()
    truth = as_array(truth_states, "truth path", (means.ndim,))
    if truth.shape != means.shape:
        raise DimensionError(f"truth path has shape {truth.shape}, run has {means.shape}")
    with np.errstate(over="ignore"):  # ResultTable turns a non-finite error into exit 2
        sq = np.sum((means - truth) ** 2, axis=-1)
    return ErrorSummary(
        terminal_squared=sq[..., -1],
        path_rmse=np.sqrt(np.mean(sq, axis=-1)),
    )

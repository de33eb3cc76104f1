"""Reference solutions the recursions are tested against.

Closed-form/ODE propagation of the exact mean and covariance, fixed-substep
integration of the optimal filter and of the static-gain observer, and a
brute-force numeric minimizer for the three proximal objectives. These are
deliberately independent implementations: the brute-force minimizer never
calls the closed-form steps it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleFailure, ValidationError
from .gaussians import (
    Gaussian,
    as_vector,
    as_vectors,
    batch_prior,
    free_energy,
    kl_gaussian,
    phi_expectation,
    w2_gaussian,
)
from .matrices import (
    SpdMatrix,
    as_matrix,
    expm,
    inv_spd,
    is_isotropic,
    is_symmetric,
    matvec,
    require_positive,
    require_same_dim,
)
from .propagation import LinearSystem

LOG_TWO_PI = math.log(2.0 * math.pi)
REFERENCE_SUBSTEPS = 20  # per data interval of the reference runs


def rk4_step(f, y, dt: float):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(f, y0, horizon: float, substep: float):
    """Integrate y' = f(y) over [0, horizon] with equal steps near substep."""
    if horizon == 0.0:
        return y0
    n = max(1, int(math.ceil(horizon / substep - 1e-12)))
    dt = horizon / n
    y = y0
    for _ in range(n):
        y = rk4_step(f, y, dt)
    return y


def exact_mean(sys: LinearSystem, mu0, t: float) -> np.ndarray:
    """Mean of the state at time t: e^(A t) mu0, for one mean (n,) or a
    batch (S, n)."""
    mu = as_vectors(mu0, dim=sys.dim, name="initial mean")
    if t == 0.0:
        return mu.copy()
    return matvec(expm(sys.a, t), mu)


def _isotropic_level(sys: LinearSystem) -> float | None:
    """Return q with B B^T = q I if the noise is isotropic, else None."""
    bbt = sys.b @ sys.b.T
    q = float(np.trace(bbt)) / sys.dim
    return q if is_isotropic(bbt, q) else None


def exact_cov(
    sys: LinearSystem, p0: SpdMatrix, t: float, substep: float | None = None
) -> SpdMatrix:
    """Covariance of the state at time t.

    For a symmetric drift -Gamma with isotropic noise B B^T = q I the
    closed form is used; otherwise the covariance ODE is integrated with
    fixed-substep RK4 (default substep min(1e-3, t/10)).
    """
    require_same_dim("covariance and system", sys.dim, p0.dim)
    require_positive(t, "time", zero_ok=True)
    if substep is not None:
        require_positive(substep, "substep")
    if t == 0.0:
        return p0
    iso = _isotropic_level(sys)
    if is_symmetric(sys.a) and iso is not None:
        return _closed_form_cov(sys, p0, t, iso)
    return _rk4_cov(sys, p0, t, substep or min(1e-3, t / 10.0))


def _closed_form_cov(sys: LinearSystem, p0: SpdMatrix, t: float, iso: float) -> SpdMatrix:
    """Gamma^-1 (I - e^(-2 Gamma t)) q + e^(-Gamma t) P0 e^(-Gamma t) for the
    symmetric drift -Gamma and isotropic noise B B^T = q I."""
    gamma = SpdMatrix(-sys.a)
    decay = gamma.map_eigenvalues(lambda w: np.exp(-w * t))
    settled = gamma.map_eigenvalues(lambda w: 2.0 * iso * (1.0 - np.exp(-2.0 * w * t)) / (2.0 * w))
    return SpdMatrix(settled + decay @ p0.mat @ decay)


def _rk4_cov(sys: LinearSystem, p0: SpdMatrix, t: float, substep: float) -> SpdMatrix:
    """RK4 integral of the covariance ODE P' = A P + P A^T + 2 B B^T."""
    forcing = sys.diffusion()

    def rate(p):
        return sys.a @ p + p @ sys.a.T + forcing

    final = rk4_integrate(rate, p0.mat, t, substep)
    return SpdMatrix(0.5 * (final + final.T))


def _observer_run(sys, meas, g0, dz, h, gain_of, rate) -> list[Gaussian]:
    """Shared input checks and substep loop of the two reference runs. Per
    substep: an Euler mean step with the gain from the pre-step covariance,
    gain_of(P), against the piecewise-constant data rate dz_k / h; an RK4
    covariance step of P' = rate(P); symmetrization. dz is (steps, m), or
    (S, steps, m) for S paths that share the covariance path. The means are
    held as columns, (n, 1) or (S, n, 1), so a batch does each seed's
    arithmetic as its one-path run does. Returns the filter state at the
    interval boundaries (length steps + 1), with means (n,) or (S, n)."""
    require_same_dim("system, measurement model and prior", sys.dim, meas.state_dim, g0.dim)
    require_positive(h, "step size")
    g0, dz = batch_prior(g0, dz, meas.obs_dim)
    dt = h / REFERENCE_SUBSTEPS
    c = meas.c
    mu = g0.mean[..., None]
    p = g0.cov.mat.copy()
    out = [g0]
    for k in range(dz.shape[-2]):
        y = dz[..., k, :, None] / h
        for _ in range(REFERENCE_SUBSTEPS):
            gain = gain_of(p)
            mu = mu + dt * (sys.a @ mu + gain @ (y - c @ mu))
            p = rk4_step(rate, p, dt)
            p = 0.5 * (p + p.T)
        out.append(Gaussian(mu[..., 0], SpdMatrix(p)))
    return out


def kalman_bucy_run(sys: LinearSystem, meas, g0: Gaussian, dz, h: float) -> list[Gaussian]:
    """Integrate the optimal continuous-time filter across the data intervals.

    Covariance follows the Riccati ODE
    P' = A P + P A^T + 2 B B^T - P C^T R^-1 C P; the mean uses the gain
    K = P C^T R^-1. Returns the states at the interval boundaries.
    """
    forcing = sys.diffusion()
    ct_rinv = meas.c.T @ meas.rinv

    def gain_of(p):
        return p @ ct_rinv

    def riccati(p):
        gain = gain_of(p)
        return sys.a @ p + p @ sys.a.T + forcing - gain @ meas.r.mat @ gain.T

    return _observer_run(sys, meas, g0, dz, h, gain_of, riccati)


def luenberger_run(sys: LinearSystem, meas, g0: Gaussian, dz, h: float) -> list[Gaussian]:
    """Integrate the static-gain observer with injection L = C^T R^-1.

    The covariance follows the Lyapunov ODE
    P' = (A - L C) P + P (A - L C)^T + 2 B B^T, decoupled from the gain.
    """
    forcing = sys.diffusion()
    gain = meas.c.T @ meas.rinv
    closed = sys.a - gain @ meas.c

    def lyapunov(p):
        return closed @ p + p @ closed.T + forcing

    return _observer_run(sys, meas, g0, dz, h, lambda p: gain, lyapunov)


KIND_JKO = "jko-free-energy"
KIND_LMMR = "lmmr-kl"
KIND_WFILTER = "wasserstein-filter"


@dataclass(frozen=True, eq=False)
class ProxObjective:
    """One proximal objective: distance-to-anchor term plus h times a functional.

    kind "jko-free-energy" needs (gamma, beta); "lmmr-kl" and
    "wasserstein-filter" need (c, r, y).
    """

    kind: str
    anchor: Gaussian
    gamma: SpdMatrix | None = None
    beta: float | None = None
    c: np.ndarray | None = None
    r: SpdMatrix | None = None
    y: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == KIND_JKO:
            if self.gamma is None or self.beta is None:
                raise ValidationError("jko-free-energy objective needs gamma and beta")
            require_same_dim("anchor and potential", self.anchor.dim, self.gamma.dim)
            require_positive(self.beta, "beta")
        elif self.kind in (KIND_LMMR, KIND_WFILTER):
            if self.c is None or self.r is None or self.y is None:
                raise ValidationError(f"{self.kind} objective needs c, r, and y")
            c = as_matrix(self.c, "c")
            require_same_dim("anchor and observation matrix", self.anchor.dim, c.shape[1])
            require_same_dim("observation matrix and R", c.shape[0], self.r.dim)
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "y", as_vector(self.y, dim=c.shape[0], name="y"))
        else:
            raise ValidationError(f"unknown objective kind {self.kind!r}")


def prox_objective_value(obj: ProxObjective, g: Gaussian, h: float) -> float:
    """Evaluate the proximal objective at a candidate Gaussian."""
    if obj.kind == KIND_JKO:
        return 0.5 * w2_gaussian(g, obj.anchor) ** 2 + h * free_energy(
            g, obj.gamma, obj.beta
        )
    misfit = phi_expectation(g, obj.c, inv_spd(obj.r), obj.y)
    if obj.kind == KIND_LMMR:
        return kl_gaussian(g, obj.anchor) + h * misfit
    return 0.5 * w2_gaussian(g, obj.anchor) ** 2 + h * misfit


# Brute-force search settings: a refined grid for n = 1, descent for n = 2.
GRID_POINTS = 200
GRID_REFINEMENTS = 3
DESCENT_MAX_ITERATIONS = 5000
DESCENT_GRADIENT_TOL = 1e-7


def _scalar_objective_grid(obj: ProxObjective, h: float, mu, p):
    """Vectorized scalar objective on broadcastable (mu, p) grids.

    Written against the scalar closed forms directly so the search stays
    independent of the matrix-valued implementations it is used to check.
    """
    mu0 = float(obj.anchor.mean[0])
    p0 = float(obj.anchor.cov.mat[0, 0])
    if obj.kind == KIND_JKO:
        gam = float(obj.gamma.mat[0, 0])
        w2sq = (mu - mu0) ** 2 + (np.sqrt(p) - np.sqrt(p0)) ** 2
        energy = 0.5 * (gam * mu ** 2 + gam * p)
        entropy = -0.5 * (1.0 + LOG_TWO_PI + np.log(p))
        return 0.5 * w2sq + h * (energy + entropy / obj.beta)
    cc = float(obj.c[0, 0])
    rr = float(obj.r.mat[0, 0])
    yy = float(obj.y[0])
    misfit = 0.5 * ((yy - cc * mu) ** 2 / rr + cc * cc * p / rr)
    if obj.kind == KIND_LMMR:
        kl = 0.5 * (p / p0 + (mu0 - mu) ** 2 / p0 - 1.0 - np.log(p / p0))
        return kl + h * misfit
    w2sq = (mu - mu0) ** 2 + (np.sqrt(p) - np.sqrt(p0)) ** 2
    return 0.5 * w2sq + h * misfit


def _grid_search_scalar(obj: ProxObjective, h: float):
    mu0 = float(obj.anchor.mean[0])
    p0 = float(obj.anchor.cov.mat[0, 0])
    span_mu = 3.0 + 2.0 * math.sqrt(p0)
    mu_lo, mu_hi = mu0 - span_mu, mu0 + span_mu
    p_lo, p_hi = max(1e-8, 0.05 * p0), 4.0 * p0 + 4.0 * h * (
        1.0 / obj.beta if obj.kind == KIND_JKO else 1.0
    )
    npts = GRID_POINTS
    best_mu = best_p = best_val = None
    for stage in range(GRID_REFINEMENTS + 1):
        mu_axis = np.linspace(mu_lo, mu_hi, npts)
        p_axis = np.linspace(p_lo, p_hi, npts)
        vals = _scalar_objective_grid(obj, h, mu_axis[:, None], p_axis[None, :])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if stage == 0 and (i in (0, npts - 1) or j in (0, npts - 1)):
            raise OracleFailure("grid minimizer landed on the search boundary")
        best_mu, best_p, best_val = mu_axis[i], p_axis[j], float(vals[i, j])
        d_mu = mu_axis[1] - mu_axis[0]
        d_p = p_axis[1] - p_axis[0]
        mu_lo, mu_hi = best_mu - 2.0 * d_mu, best_mu + 2.0 * d_mu
        p_lo, p_hi = max(1e-10, best_p - 2.0 * d_p), best_p + 2.0 * d_p
    g = Gaussian(np.array([best_mu]), SpdMatrix(np.array([[best_p]])))
    return g, best_val


def _pack_cholesky(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    ell = np.linalg.cholesky(cov)
    return np.array([mean[0], mean[1], ell[0, 0], ell[1, 0], ell[1, 1]])


def _unpack_cholesky(theta: np.ndarray):
    mean = theta[:2]
    ell = np.array([[theta[2], 0.0], [theta[3], theta[4]]])
    return mean, ell @ ell.T


def _descent_2d(obj: ProxObjective, h: float):
    def value(theta):
        if theta[2] <= 1e-8 or theta[4] <= 1e-8:
            return np.inf
        mean, cov = _unpack_cholesky(theta)
        return prox_objective_value(obj, Gaussian(mean, SpdMatrix(cov)), h)

    def gradient(theta):
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            delta = 1e-6 * max(1.0, abs(theta[i]))
            up = theta.copy()
            up[i] += delta
            dn = theta.copy()
            dn[i] -= delta
            grad[i] = (value(up) - value(dn)) / (2.0 * delta)
        return grad

    theta = _pack_cholesky(obj.anchor.mean, obj.anchor.cov.mat)
    f0 = value(theta)
    for _ in range(DESCENT_MAX_ITERATIONS):
        grad = gradient(theta)
        gmax = float(np.max(np.abs(grad)))
        if gmax < DESCENT_GRADIENT_TOL:
            mean, cov = _unpack_cholesky(theta)
            return Gaussian(mean, SpdMatrix(cov)), f0
        step = 1.0
        improved = False
        for _ in range(60):
            cand = theta - step * grad
            fc = value(cand)
            if fc <= f0 - 1e-4 * step * float(grad @ grad):
                theta, f0 = cand, fc
                improved = True
                break
            step *= 0.5
        if not improved:
            # line search stalled at numeric noise: accept if gradient is small
            if gmax < 1e2 * DESCENT_GRADIENT_TOL:
                mean, cov = _unpack_cholesky(theta)
                return Gaussian(mean, SpdMatrix(cov)), f0
            raise OracleFailure(
                f"descent stalled with gradient max-abs {gmax:.3e}"
            )
    raise OracleFailure("descent did not converge within the iteration budget")


def brute_force_prox(obj: ProxObjective, h: float) -> tuple[Gaussian, float]:
    """Numerically minimize the proximal objective over (mu, P), for n <= 2.

    n = 1 uses a two-stage refined grid; n = 2 uses gradient descent with
    numeric gradients and backtracking. Raises OracleFailure rather than
    returning a dubious minimizer.
    """
    require_positive(h, "step size", zero_ok=True)
    if h == 0.0:
        return obj.anchor, 0.0
    if obj.anchor.dim == 1:
        return _grid_search_scalar(obj, h)
    if obj.anchor.dim == 2:
        return _descent_2d(obj, h)
    raise ValidationError("brute-force search supports dimensions 1 and 2 only")

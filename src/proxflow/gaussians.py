"""Gaussian densities and the geometry the proximal recursions live in.

Covers the quadratic-cost transport distance between Gaussians, the optimal
affine transport map, KL divergence, entropy/energy/free-energy functionals,
the measurement-misfit functional, the matrix derivative of the transport
cross term, and the trace-constrained transport projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericFailure, ValidationError
from .matrices import (
    SpdMatrix,
    all_finite,
    as_array,
    as_matrix,
    frozen,
    inv_spd,
    inv_sqrt_spd,
    require_positive,
    require_same_dim,
    sqrt_spd,
)

LOG_TWO_PI = math.log(2.0 * math.pi)


def as_vectors(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """One vector, shape (n,), or a batch of S vectors, shape (S, n); a scalar is (1,)."""
    v = as_array(x, name, (0, 1, 2))
    v = v.reshape(1) if v.ndim == 0 else v
    if dim is not None and v.shape[-1] != dim:
        raise DimensionError(f"{name} has length {v.shape[-1]}, expected {dim}")
    return v


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Mean vector plus SPD covariance.

    A mean of shape (S, n) stands for S densities sharing the one covariance:
    run_filter's walk steps such a batch over S measurement paths. The
    single-density functionals below reject it.
    """

    mean: np.ndarray
    cov: SpdMatrix

    def __post_init__(self):
        object.__setattr__(self, "mean", frozen(as_vectors(self.mean, name="mean")))
        require_same_dim("mean and covariance", self.cov.dim, self.mean.shape[-1])

    @classmethod
    def _fresh(cls, mean: np.ndarray, cov: SpdMatrix) -> Gaussian:
        """A density whose mean a library step has just computed from checked
        inputs: a float array of shape ([S,] cov.dim) that nothing else holds.
        It is frozen in place; none of __post_init__'s reading, copy or
        dimension check runs, since the as_array rule is for arrays from outside."""
        mean.setflags(write=False)
        g = object.__new__(cls)
        g.__dict__.update(mean=mean, cov=cov)
        return g

    @property
    def dim(self) -> int:
        return self.cov.dim


def require_finite_mean(mean: np.ndarray) -> np.ndarray:
    """mean, a step's computed float array, refused as Gaussian refuses a
    non-finite mean: the one check a public step makes on its own output."""
    if not all_finite(mean):
        raise ValidationError("mean has non-finite entries")
    return mean


def require_single(*gs: Gaussian) -> None:
    """Reject a batched mean where one density is meant."""
    for g in gs:
        if g.mean.ndim != 1:
            raise DimensionError(
                f"expected a single density, got a batch of {g.mean.shape[0]} means"
            )


def batch_prior(sys, meas, g0: Gaussian, dz, steps: int | None = None):
    """Check the inputs of a run: system, measurement model and prior g0 agree
    in dimension, and the measurement increments dz have shape ([S,] steps, m).
    Returns (mean0, dz), with mean0 g0's mean broadcast to shape ([S,] n)."""
    require_same_dim("system, measurement model and prior", sys.dim, meas.state_dim, g0.dim)
    require_single(g0)
    dz = as_array(dz, "increments", (2, 3))
    if dz.shape[-1] != meas.obs_dim or steps not in (None, dz.shape[-2]):
        expected = "steps" if steps is None else steps
        raise DimensionError(
            f"increments have shape {dz.shape}, expected ([S,] {expected}, {meas.obs_dim})"
        )
    return np.broadcast_to(g0.mean, dz.shape[:-2] + (g0.dim,)), dz


@dataclass(frozen=True, eq=False)
class FilterRun:
    """Path of a filter or reference run, g0 first: the posterior means,
    shape ([S,] steps + 1, n) for S measurement paths, the steps + 1
    covariances they share, and terminal, the last posterior, built on read."""

    mean_path: np.ndarray
    covs: tuple

    def __post_init__(self):
        object.__setattr__(self, "mean_path", frozen(self.mean_path))

    @property
    def terminal(self) -> Gaussian:
        return Gaussian(self.mean_path[..., -1, :], self.covs[-1])

    def means(self) -> np.ndarray:
        """Posterior means, shape (steps + 1, n), or (S, steps + 1, n) for a batch."""
        return self.mean_path


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> linear @ x + offset."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", frozen(as_matrix(self.linear, "linear part")))
        object.__setattr__(self, "offset", frozen(as_array(self.offset, "offset", (1,))))
        require_same_dim("linear part and offset", self.offset.shape[0], *self.linear.shape)

    def __call__(self, x) -> np.ndarray:
        x = as_array(x, "point", (1,))
        require_same_dim("map and point", self.offset.shape[0], x.shape[0])
        return self.linear @ x + self.offset


def _same_dim(g1: Gaussian, g2: Gaussian) -> int:
    require_single(g1, g2)
    return require_same_dim("density", g1.dim, g2.dim)


def w2_gaussian(g1: Gaussian, g2: Gaussian) -> float:
    """Quadratic-cost transport distance between two Gaussians.

    Squared value is |mu1 - mu2|^2 + tr(P1 + P2 - 2 (P2^(1/2) P1 P2^(1/2))^(1/2)).
    """
    _same_dim(g1, g2)
    dm = g1.mean - g2.mean
    s2 = sqrt_spd(g2.cov).mat
    cross = sqrt_spd(SpdMatrix(s2 @ g1.cov.mat @ s2))
    sq = float(dm @ dm + g1.cov.trace() + g2.cov.trace() - 2.0 * cross.trace())
    return math.sqrt(max(sq, 0.0))


def transport_map(g_from: Gaussian, g_to: Gaussian) -> AffineMap:
    """Optimal affine map pushing g_from onto g_to.

    Linear part M = P^(1/2) (P^(1/2) P0 P^(1/2))^(-1/2) P^(1/2) with
    P0 = g_from.cov, P = g_to.cov; the offset makes the push-forward mean
    land exactly on g_to.mean.
    """
    _same_dim(g_from, g_to)
    s = sqrt_spd(g_to.cov).mat
    mid = inv_sqrt_spd(SpdMatrix(s @ g_from.cov.mat @ s)).mat
    linear = s @ mid @ s
    linear = 0.5 * (linear + linear.T)
    offset = g_to.mean - linear @ g_from.mean
    return AffineMap(linear, offset)


def kl_gaussian(g1: Gaussian, g2: Gaussian) -> float:
    """KL divergence of g1 from g2 in closed information form."""
    n = _same_dim(g1, g2)
    pinv2 = inv_spd(g2.cov).mat
    d = g2.mean - g1.mean
    return 0.5 * float(
        np.trace(pinv2 @ g1.cov.mat)
        + d @ pinv2 @ d
        - n
        - (g1.cov.logdet() - g2.cov.logdet())
    )


def neg_entropy(g: Gaussian) -> float:
    """Negative differential entropy: -(n + n log(2 pi) + log det P)/2."""
    n = g.dim
    return -0.5 * (n + n * LOG_TWO_PI + g.cov.logdet())


def energy_quadratic(g: Gaussian, gamma: SpdMatrix) -> float:
    """Expected quadratic potential (mu' Gamma mu + tr(Gamma P))/2."""
    require_single(g)
    require_same_dim("density and potential", g.dim, gamma.dim)
    return 0.5 * float(g.mean @ gamma.mat @ g.mean + np.trace(gamma.mat @ g.cov.mat))


def free_energy(g: Gaussian, gamma: SpdMatrix, beta: float) -> float:
    """Quadratic energy plus beta^-1 times negative entropy."""
    require_positive(beta, "beta")
    return energy_quadratic(g, gamma) + neg_entropy(g) / beta


def phi_expectation(g: Gaussian, c, rinv: SpdMatrix, y) -> float:
    """Expected measurement misfit ((y - C mu)' R^-1 (y - C mu) + tr(C' R^-1 C P))/2.

    Takes the inverse noise covariance directly.
    """
    require_single(g)
    cm = as_matrix(c, "observation matrix")
    yv = as_array(y, "measurement", (1,))
    require_same_dim("density and observation matrix", g.dim, cm.shape[1])
    require_same_dim("observation matrix, R^-1 and measurement", cm.shape[0], rinv.dim, yv.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # inf where the misfit overflows
        resid = yv - cm @ g.mean
        spread = np.trace(rinv.mat @ cm @ g.cov.mat @ cm.T)
        return 0.5 * float(resid @ rinv.mat @ resid + spread)


def grad_w2_cross(p: SpdMatrix, p0: SpdMatrix) -> np.ndarray:
    """Derivative of tr((P0^(1/2) P P0^(1/2))^(1/2)) with respect to P.

    Equals P0^(1/2) (P0^(-1/2) P^-1 P0^(-1/2))^(1/2) P0^(1/2) / 2; defined on
    the symmetric cone, returned as a plain symmetric array.
    """
    require_same_dim("covariance", p.dim, p0.dim)
    s0 = sqrt_spd(p0).mat
    i0 = inv_sqrt_spd(p0).mat
    mid = sqrt_spd(SpdMatrix(i0 @ inv_spd(p).mat @ i0)).mat
    out = 0.5 * s0 @ mid @ s0
    return 0.5 * (out + out.T)


def trace_projection(g0: Gaussian, mu, tau: float) -> tuple[float, Gaussian]:
    """Closest density (in transport distance) with mean mu and covariance trace tau.

    The minimizer over that set is the dilation with covariance (tau/tau0) P0,
    and the optimal distance satisfies w2^2 = (sqrt(tau) - sqrt(tau0))^2 + |mu - mu0|^2.
    Returns (w2, minimizer). A dilation that overflows is a NumericFailure; it
    and one that SpdMatrix refuses name tau.
    """
    require_single(g0)
    require_positive(tau, "target trace")
    mu_v = as_array(mu, "target mean", (1,))
    require_same_dim("density and target mean", g0.dim, mu_v.shape[0])
    tau0 = g0.cov.trace()
    name = f"dilated covariance at target trace {tau}"
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, refused just below
        dilated = (tau / tau0) * g0.cov.mat
    if not all_finite(dilated):
        raise NumericFailure(f"{name}: (tau / tau0) P0 overflows")
    g = Gaussian(mu_v, SpdMatrix(dilated, name))
    shift = mu_v - g0.mean
    w2 = math.sqrt((math.sqrt(tau) - math.sqrt(tau0)) ** 2 + float(shift @ shift))
    return w2, g

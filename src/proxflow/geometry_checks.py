"""Randomized identity suites for the Gaussian-geometry layer.

Each check runs a batch of random instances and reports the count of
failures together with the worst-case slack or residual, so the same code
backs both the test suite and the CLI report.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .gaussians import (
    Gaussian,
    grad_w2_cross,
    trace_projection,
    transport_map,
    w2_gaussian,
)
from .matrices import SpdMatrix, max_abs, sqrt_spd

TRACE_SLACK_TOL = -1e-12
TRANSPORT_RESIDUAL_TOL = 1e-10
GRADIENT_REL_TOL = 1e-6
PROJECTION_RESIDUAL_TOL = 1e-10
FD_STEP = 1e-5


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(
    rng: np.random.Generator, n: int, eig_low: float = 0.3, eig_high: float = 3.0
) -> SpdMatrix:
    q = random_orthogonal(rng, n)
    eigs = rng.uniform(eig_low, eig_high, size=n)
    return SpdMatrix((q * eigs) @ q.T)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one randomized identity suite."""

    name: str
    trials: int
    failures: int
    worst: float


def _residual_suite(name: str, trials: int, dims, rng, residual, tol: float) -> CheckResult:
    """Run residual(rng, n) once per trial, n cycling through dims; a trial fails
    when its residual exceeds tol, and worst is the largest (-inf for none)."""
    dims = list(dims)
    worst = -math.inf
    failures = 0
    for i in range(trials):
        resid = residual(rng, dims[i % len(dims)])
        worst = max(worst, resid)
        if resid > tol:
            failures += 1
    return CheckResult(name, trials, failures, worst)


def check_trace_inequality(trials: int, dims, rng: np.random.Generator) -> CheckResult:
    """tr((X^(1/2) Y X^(1/2))^(1/2)) <= sqrt(tr X tr Y) for SPD X, Y.

    Reports the worst (most negative) slack; a trial fails when the slack
    drops below -1e-12.
    """
    def residual(rng: np.random.Generator, n: int) -> float:
        x = random_spd(rng, n)
        y = random_spd(rng, n)
        sx = sqrt_spd(x).mat
        inner = sqrt_spd(SpdMatrix(sx @ y.mat @ sx)).trace()
        # minus the slack, not inner - bound: a slack of exactly +0.0 must stay +0.0
        return -(math.sqrt(x.trace() * y.trace()) - inner)
    result = _residual_suite("trace_inequality", trials, dims, rng, residual, -TRACE_SLACK_TOL)
    return dataclasses.replace(result, worst=-result.worst)


def check_transport_identities(trials: int, dims, rng: np.random.Generator) -> CheckResult:
    """Push-forward moment identities of the optimal affine map, plus
    agreement of the closed-moment transport cost with the distance."""
    def residual(rng: np.random.Generator, n: int) -> float:
        g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
        g1 = Gaussian(rng.normal(size=n), random_spd(rng, n))
        t = transport_map(g0, g1)
        mean_resid = max_abs(t(g0.mean) - g1.mean)
        cov_resid = max_abs(t.linear @ g0.cov.mat @ t.linear.T - g1.cov.mat)
        # E |x - T(x)|^2 under g0, in closed moment form
        shift = (np.eye(n) - t.linear) @ g0.mean - t.offset
        spread = (np.eye(n) - t.linear) @ g0.cov.mat @ (np.eye(n) - t.linear).T
        cost = float(shift @ shift + np.trace(spread))
        w2_resid = abs(cost - w2_gaussian(g0, g1) ** 2)
        return max(mean_resid, cov_resid, w2_resid)
    return _residual_suite("transport_map", trials, dims, rng, residual, TRANSPORT_RESIDUAL_TOL)


def _trace_sqrt_cross(p_mat: np.ndarray, s0: np.ndarray) -> float:
    return sqrt_spd(SpdMatrix(s0 @ p_mat @ s0)).trace()


def check_w2_gradient(trials: int, dims, rng: np.random.Generator) -> CheckResult:
    """Analytic derivative of the transport cross term against central
    finite differences over symmetric perturbations."""
    def residual(rng: np.random.Generator, n: int) -> float:
        p = random_spd(rng, n)
        p0 = random_spd(rng, n)
        s0 = sqrt_spd(p0).mat
        grad = grad_w2_cross(p, p0)
        fd = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                pert = np.zeros((n, n))
                pert[i, j] = 1.0
                pert[j, i] = 1.0
                up = _trace_sqrt_cross(p.mat + FD_STEP * pert, s0)
                dn = _trace_sqrt_cross(p.mat - FD_STEP * pert, s0)
                fd[i, j] = fd[j, i] = (up - dn) / (2.0 * FD_STEP)
        # diagonal perturbation moves one entry, off-diagonal moves two
        analytic = 2.0 * grad - np.diag(np.diag(grad))
        return max_abs(fd - analytic) / max(1.0, max_abs(analytic))
    return _residual_suite("w2_gradient", trials, dims, rng, residual, GRADIENT_REL_TOL)


def check_trace_projection(trials: int, dims, rng: np.random.Generator) -> CheckResult:
    """Dilation formula for the trace-constrained projection against the
    transport distance computed from the returned Gaussian."""
    def residual(rng: np.random.Generator, n: int) -> float:
        g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
        mu = rng.normal(size=n)
        tau = float(rng.uniform(0.5, 4.0) * g0.cov.trace())
        w2, g = trace_projection(g0, mu, tau)
        return abs(w2 - w2_gaussian(g, g0))
    return _residual_suite(
        "trace_projection", trials, dims, rng, residual, PROJECTION_RESIDUAL_TOL
    )


def run_all_checks(trials: int, dims, seed: int) -> list[CheckResult]:
    """Run every suite on its own deterministic substream."""
    results = []
    for offset, check in enumerate(
        (
            check_trace_inequality,
            check_transport_identities,
            check_w2_gradient,
            check_trace_projection,
        )
    ):
        rng = np.random.default_rng(seed + offset)
        results.append(check(trials, dims, rng))
    return results

"""Seeded Euler-Maruyama simulation of the state SDE and observation increments.

One pseudorandom stream per path (never shared); per step the process draws
come first, then the measurement draws, so paths are a pure function of
(inputs, seed).
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeError, ValidationError, named_failures
from .filtering import MeasurementModel
from .gaussians import Gaussian, require_single
from .matrices import as_array, frozen, matvec, require_count, require_same_dim, sqrt_spd
from .propagation import LinearSystem, StepConfig
from .rng import GaussianStream


def simulate(
    sys: LinearSystem,
    meas: MeasurementModel,
    g0: Gaussian,
    cfg: StepConfig,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate x_{k+1} = x_k + h A x_k + sqrt(2h) B xi_k and
    dz_k = h C x_k + sqrt(h) R^(1/2) eta_k for each of S seeds.

    The step must decay: a spectral radius of I + h A at or above 1 raises
    StepSizeError before anything is drawn.

    Each path starts from one draw of the prior g0. Returns read-only states
    (S, steps + 1, n) and increments (S, steps, m); each seed's path is bit
    for bit its own run. An overflow raises NumericFailure naming the simulation.

    Each seed's normals come from one draw, in step order: the initial state's,
    then per step p process draws and m measurement draws. Only the state
    recursion loops, over all seeds at once.
    """
    require_same_dim("system and measurement model", sys.dim, meas.state_dim)
    if not isinstance(g0, Gaussian):
        raise ValidationError(f"g0 must be a Gaussian prior, got {type(g0).__name__}")
    require_same_dim("system and initial Gaussian", sys.dim, g0.dim)
    require_single(g0)
    if np.ndim(np.asarray(seeds, dtype=object)) != 1:
        raise ValidationError(f"seeds must be a 1-D sequence of seeds, got {seeds!r}")
    if not len(seeds):
        raise ValidationError("seeds must not be empty")
    h = cfg.h
    factor = float(np.max(np.abs(np.linalg.eigvals(np.eye(sys.dim) + h * sys.a))))
    if factor >= 1.0:
        raise StepSizeError(
            f"Euler-Maruyama step h={h} does not decay: the spectral radius of I + h A "
            f"is {factor:.6g} >= 1; use a smaller step"
        )
    n, p, m = sys.dim, sys.noise_dim, meas.obs_dim
    draws = np.stack([GaussianStream(s).draw(n + cfg.steps * (p + m)) for s in seeds])
    noise = draws[:, n:].reshape(len(seeds), cfg.steps, p + m)
    states = np.empty((len(seeds), cfg.steps + 1, n))
    with named_failures(lambda: "simulation overflowed"):
        x = g0.mean + matvec(sqrt_spd(g0.cov).mat, draws[:, :n])
        process = np.sqrt(2.0 * h) * matvec(sys.b, noise[..., :p])
        sensor = np.sqrt(h) * matvec(sqrt_spd(meas.r).mat, noise[..., p:])
        states[:, 0] = x
        for k in range(cfg.steps):
            x = x + h * matvec(sys.a, x) + process[:, k]
            states[:, k + 1] = x
        increments = h * matvec(meas.c, states[:, :-1]) + sensor
    states.flags.writeable = increments.flags.writeable = False
    return states, increments


def coarsen(increments, factor: int) -> np.ndarray:
    """Regroup fine increments (S, steps, m) onto step factor*h: a read-only
    (S, steps // factor, m) array of its own, each entry the exact sum of
    factor consecutive fine ones, so every step size sees the same noise."""
    factor = require_count(factor, "factor")
    increments = as_array(increments, "increments", (3,))
    s, steps, m = increments.shape
    if steps % factor != 0:
        raise ValidationError(f"{steps} steps cannot be regrouped by a factor of {factor}")
    return frozen(increments.reshape(s, steps // factor, factor, m).sum(axis=-2))

"""Seeded Euler-Maruyama simulation of the state SDE and observation increments.

One pseudorandom stream per path (never shared); per step the process draws
come first, then the measurement draws, so paths are a pure function of
(inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .filtering import MeasurementModel
from .gaussians import Gaussian, as_vector, require_single
from .matrices import matvec, require_same_dim, sqrt_spd
from .propagation import LinearSystem, StepConfig
from .rng import GaussianStream


@dataclass(frozen=True, eq=False)
class SimPath:
    """True state path plus measurement increments for one realization, or for S."""

    states: np.ndarray  # ([S,] steps + 1, n)
    increments: np.ndarray  # ([S,] steps, m)
    h: float
    seed: int | tuple

    def __post_init__(self):
        if self.states.shape[-2] != self.increments.shape[-2] + 1:
            raise ValidationError(
                f"{self.states.shape[-2]} states require "
                f"{self.states.shape[-2] - 1} increments, got {self.increments.shape[-2]}"
            )

    @property
    def steps(self) -> int:
        return self.increments.shape[-2]


def simulate(
    sys: LinearSystem,
    meas: MeasurementModel,
    x0,
    cfg: StepConfig,
    seed,
) -> SimPath:
    """Simulate x_{k+1} = x_k + h A x_k + sqrt(2h) B xi_k and
    dz_k = h C x_k + sqrt(h) R^(1/2) eta_k.

    x0 is either an exact state vector or a Gaussian to draw the initial
    state from (one draw). A sequence of S seeds gives states (S, steps + 1, n)
    and increments (S, steps, m), each seed's path bit for bit its own run.

    Each seed's normals come from one draw, in step order: the initial state's,
    then per step p process draws and m measurement draws. Only the state
    recursion loops, over all seeds at once.
    """
    require_same_dim("system and measurement model", sys.dim, meas.state_dim)
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if not seeds:
        raise ValidationError("seeds must not be empty")
    p = sys.noise_dim
    m = meas.obs_dim
    lead = 0
    if isinstance(x0, Gaussian):
        require_same_dim("system and initial Gaussian", sys.dim, x0.dim)
        require_single(x0)
        lead = sys.dim
    else:
        x = as_vector(x0, dim=sys.dim, name="initial state")
    draws = np.stack([GaussianStream(s).draw(lead + cfg.steps * (p + m)) for s in seeds])
    if lead:
        x = x0.mean + matvec(sqrt_spd(x0.cov).mat, draws[:, :lead])
    noise = draws[:, lead:].reshape(len(seeds), cfg.steps, p + m)
    h = cfg.h
    r_half = sqrt_spd(meas.r).mat
    process = np.sqrt(2.0 * h) * matvec(sys.b, noise[..., :p])
    sensor = np.sqrt(h) * matvec(r_half, noise[..., p:])
    states = np.empty((len(seeds), cfg.steps + 1, sys.dim))
    states[:, 0] = x
    for k in range(cfg.steps):
        x = x + h * matvec(sys.a, x) + process[:, k]
        states[:, k + 1] = x
    increments = h * matvec(meas.c, states[:, :-1]) + sensor
    states.flags.writeable = False
    increments.flags.writeable = False
    if np.ndim(seed) == 0:
        return SimPath(states=states[0], increments=increments[0], h=h, seed=seed)
    return SimPath(states=states, increments=increments, h=h, seed=tuple(seeds))


def coarsen(path: SimPath, factor: int) -> SimPath:
    """Regroup a fine path, or a batch of them, onto step factor*h:
    increments are exact partial sums of the fine increments, states are
    subsampled, so every step size sees the same underlying noise realization."""
    if int(factor) != factor or factor < 1:
        raise ValidationError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if path.steps % factor != 0:
        raise ValidationError(
            f"{path.steps} steps cannot be regrouped by a factor of {factor}"
        )
    lead = path.increments.shape[:-2]
    grouped = path.increments.reshape(*lead, path.steps // factor, factor, -1).sum(axis=-2)
    return SimPath(
        states=path.states[..., ::factor, :],
        increments=grouped,
        h=path.h * factor,
        seed=path.seed,
    )

"""Random instance generators for property suites and benchmarks."""

from __future__ import annotations

import numpy as np

from .errors import ControllabilityError
from .matrices import SpdMatrix, spectral_abscissa
from .propagation import LinearSystem


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(
    rng: np.random.Generator, n: int, eig_low: float = 0.3, eig_high: float = 3.0
) -> SpdMatrix:
    q = random_orthogonal(rng, n)
    eigs = rng.uniform(eig_low, eig_high, size=n)
    return SpdMatrix((q * eigs) @ q.T)


HURWITZ_MARGIN = 0.3


def random_hurwitz(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a - (spectral_abscissa(a) + HURWITZ_MARGIN) * np.eye(n)


def random_system(
    rng: np.random.Generator, n: int, noise_dim: int | None = None
) -> LinearSystem:
    noise_dim = noise_dim or n
    for _ in range(50):
        try:
            return LinearSystem(
                random_hurwitz(rng, n), rng.normal(size=(n, noise_dim))
            )
        except ControllabilityError:  # pragma: no cover - generic draws pass
            continue
    raise ControllabilityError("could not draw a controllable system")

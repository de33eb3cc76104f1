"""Shared helpers for the test suite."""

import importlib.util
import pathlib

import numpy as np

from proxflow.errors import ControllabilityError
from proxflow.geometry_checks import random_orthogonal, random_spd
from proxflow.matrices import spectral_abscissa
from proxflow.propagation import LinearSystem

__all__ = [
    "count_eigh",
    "load_bench_module",
    "random_hurwitz",
    "random_orthogonal",
    "random_spd",
    "random_system",
    "spd_from",
]

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
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


def count_eigh(monkeypatch) -> list:
    """A list that np.linalg.eigh appends to on every call from now on."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    return calls


def spd_from(entries):
    from proxflow import SpdMatrix

    return SpdMatrix(np.asarray(entries, dtype=float))


def load_bench_module(name):
    """Load benchmarks/<name>.py by path, read-only, as module bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

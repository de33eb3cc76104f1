"""Shared helpers for the test suite."""

import importlib.util
import pathlib

import numpy as np

from proxflow.sampling import random_hurwitz, random_orthogonal, random_spd, random_system

__all__ = [
    "load_bench_module",
    "random_hurwitz",
    "random_orthogonal",
    "random_spd",
    "random_system",
    "spd_from",
]

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def spd_from(entries):
    from proxflow import SpdMatrix

    return SpdMatrix(np.asarray(entries, dtype=float))


def load_bench_module(name):
    """Load benchmarks/<name>.py by path, read-only, as module bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

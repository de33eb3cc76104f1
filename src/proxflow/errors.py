"""Exception taxonomy shared across the package.

Validation-type errors mean the caller handed us something structurally
wrong (shapes, symmetry, stability, configuration); numeric-type errors mean
a computation could not be completed at the required quality.
"""

from contextlib import contextmanager

import numpy as np


class ProxflowError(Exception):
    """Base class for all package errors."""


class ValidationError(ProxflowError):
    """Input violates a structural precondition (shape, symmetry, range)."""


class DimensionError(ValidationError):
    """Operands have incompatible dimensions."""


class StabilityError(ValidationError):
    """Drift matrix is not Hurwitz."""


class ControllabilityError(StabilityError):
    """(A, B) is not a controllable pair."""


class ModeMismatchError(ValidationError):
    """Requested mode's structural assumptions do not hold for the system."""


class ConfigError(ValidationError):
    """Experiment configuration failed validation; message names the field."""


class SingularityError(ProxflowError):
    """Matrix eigenvalue fell below the positivity floor."""


class NumericFailure(ProxflowError):
    """A numerical routine produced non-finite or unusable output."""


class StepSizeError(ProxflowError):
    """Discrete step destroyed positive-definiteness or does not decay; use a smaller step."""


class OracleFailure(ProxflowError):
    """Brute-force reference minimizer failed to converge."""


@contextmanager
def named_failures(where):
    """Run a block with floating-point faults raised. A FloatingPointError or
    a ValidationError (a run checks its inputs first, so what is refused in
    here was computed) leaves as NumericFailure, any other ProxflowError as
    its own class, each as f"{where()}: {exc}"; where is read on failure."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, ValidationError) as exc:
        raise NumericFailure(f"{where()}: {exc}") from exc
    except ProxflowError as exc:
        raise type(exc)(f"{where()}: {exc}") from exc

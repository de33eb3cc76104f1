"""The one failure guard: errors.named_failures traps floating-point faults
and names what failed, and no other module writes its own trap."""

import pathlib

import numpy as np
import pytest

from proxflow.errors import NumericFailure, SingularityError, StepSizeError, named_failures

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "proxflow"


def test_floating_point_fault_leaves_as_numeric_failure():
    with pytest.raises(NumericFailure, match=r"^step 3: overflow encountered") as info:
        with named_failures(lambda: "step 3"):
            np.array([1e308]) * 10.0
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("error", [NumericFailure, SingularityError, StepSizeError])
def test_package_error_keeps_its_class(error):
    with pytest.raises(error, match=r"^stage failed at step 2: cause$") as info:
        with named_failures(lambda: "stage failed at step 2"):
            raise error("cause")
    assert type(info.value) is error


def test_where_is_read_at_failure_time():
    steps = []
    with pytest.raises(NumericFailure, match=r"^failed at step 2: "):
        with named_failures(lambda: f"failed at step {len(steps)}"):
            for _ in range(3):
                steps.append(None)
                if len(steps) == 2:
                    np.log(np.zeros(1))


def test_other_errors_pass_through_unnamed():
    with pytest.raises(KeyError):
        with named_failures(lambda: "unused"):
            raise KeyError("x")
    assert np.geterr()["over"] != "raise"


def test_only_errors_py_traps_floating_point_faults():
    # one guard for every run loop: a module that raises its own faults
    # would fork the naming rule again
    sites = [path.name for path in sorted(SRC.glob("*.py"))
             if path.name != "errors.py" and 'over="raise"' in path.read_text()]
    assert sites == []

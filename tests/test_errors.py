"""The one failure guard: errors.named_failures traps floating-point faults
and names what failed, and no other module writes its own trap."""

import ast
import pathlib

import numpy as np
import pytest

from proxflow import errors
from proxflow.errors import (
    ConfigError,
    DimensionError,
    NumericFailure,
    ProxflowError,
    SingularityError,
    StepSizeError,
    ValidationError,
    named_failures,
)

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


@pytest.mark.parametrize("error", [ValidationError, DimensionError, ConfigError])
def test_validation_error_under_the_guard_leaves_as_numeric_failure(error):
    # a run checks its inputs before its guard, so what a record refuses
    # inside it was computed: the failure is numeric, with the same text
    with pytest.raises(NumericFailure, match=r"^stage failed at step 2: cause$") as info:
        with named_failures(lambda: "stage failed at step 2"):
            raise error("cause")
    assert type(info.value) is NumericFailure
    assert type(info.value.__cause__) is error


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


def _scipy_imports(node, function=None):
    """(enclosing function or None, module) for each import of scipy under
    node; an import outside every function runs when the module loads."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(child, child.name)
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            modules = [child.module]
        else:
            modules = []
        yield from ((function, m) for m in modules if m.split(".")[0] == "scipy")
        yield from _scipy_imports(child, function)


def test_no_module_imports_scipy_when_it_loads():
    # scipy.linalg costs a scalar run's start about 0.25 s and 28 MiB, and
    # scipy.optimize most of a second, so each loads on first use only
    found = {(path.name, function, module) for path in sorted(SRC.glob("*.py"))
             for function, module in _scipy_imports(ast.parse(path.read_text()))}
    assert {site for site in found if site[1] is None} == set()
    assert found == {("matrices.py", "expm", "scipy.linalg"),
                     ("oracles.py", "_search", "scipy.optimize")}


def _sites(match):
    """(module, enclosing def) for each node in src/proxflow that match
    accepts; the def is dotted as Class.method, and None at module level."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((path.name, where))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where is None else f"{where}.{child.name}"
            walk(child, inner)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), None)
    return found


def test_only_matrices_turns_a_linalg_error_into_numeric_failure():
    # every failed solve goes through matrices.solve, which names it
    found = _sites(lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
                   and "LinAlgError" in ast.unparse(node.type))
    assert sorted(found) == [("matrices.py", "SpdMatrix.__init__"), ("matrices.py", "solve")]


def _catches_a_proxflow_error(node):
    """Whether node is an except handler naming a class of proxflow.errors."""
    return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
        isinstance(name, ast.Name) and isinstance(getattr(errors, name.id, None), type)
        and issubclass(getattr(errors, name.id), ProxflowError) for name in ast.walk(node.type))


def test_no_matrix_caller_renames_a_refusal():
    # SpdMatrix and _map take the name of the matrix they check, so no caller
    # catches a refusal to put the name in front; what is left changes the
    # class or names a block of several steps
    found = _sites(_catches_a_proxflow_error)
    assert sorted(found) == [
        ("cli.py", "main"), ("cli.py", "main"), ("cli.py", "seed"),
        ("config.py", "_build"), ("config.py", "_seed"),
        ("errors.py", "named_failures"), ("errors.py", "named_failures"),
        ("experiments.py", "converge_propagation"),
        ("propagation.py", "jko_step_general_cov"),
    ]


def test_only_rng_compares_a_seed_with_its_limit():
    # config and the --seed flag call rng.check_seed rather than restate the range
    found = _sites(lambda node: isinstance(node, ast.Compare)
                   and "SEED_LIMIT" in ast.unparse(node))
    assert found == [("rng.py", "check_seed")]


def test_log_two_pi_is_assigned_once():
    found = _sites(lambda node: isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "LOG_TWO_PI" for target in node.targets))
    assert found == [("gaussians.py", None)]

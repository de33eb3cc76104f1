"""scripts/bench.py summarizes each per-layer metric over its traced runs and
refuses traced runs whose call counts disagree."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(calls, self_s):
    return {"metrics": {"filtering.run_filter.calls": {"value": calls, "unit": "count"},
                        "filtering.run_filter.self_s": {"value": self_s, "unit": "s"}}}


def test_per_layer_metrics_are_summarized_over_the_traced_runs():
    bench = _bench()
    layers = bench._per_layer("mc_scalar", [_traced(8, s) for s in (0.3, 0.1, 0.2)])
    assert layers["filtering.run_filter.self_s"]["median"] == 0.2
    assert layers["filtering.run_filter.self_s"]["runs"] == [0.3, 0.1, 0.2]
    assert layers["filtering.run_filter.self_s"]["unit"] == "s"
    assert layers["filtering.run_filter.calls"]["median"] == 8


def test_call_counts_that_differ_between_traced_runs_exit_1():
    bench = _bench()
    with pytest.raises(SystemExit, match=r"run_filter\.calls differs between traced runs"):
        bench._per_layer("mc_scalar", [_traced(8, 0.1), _traced(9, 0.1), _traced(8, 0.1)])

"""scripts/bench.py summarizes each per-layer metric over its traced runs,
refuses traced runs whose call counts disagree and keeps the paired block
scripts/pairs.py --record wrote."""

import importlib.util
import json
import pathlib
import sys

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


def test_a_rewritten_record_keeps_its_paired_block(monkeypatch, tmp_path):
    bench = _bench()
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    spec["workloads"] = spec["workloads"][:1]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    paired = {"mc_scalar": {"1": {"pairs": 10}}}
    (tmp_path / "BENCH_5.json").write_text(json.dumps({"pr": 4, "paired": paired}))
    provenance = dict.fromkeys(["git_sha", "src_sha256", "python", "numpy", "scipy", "blas",
                                "nproc"], "-")
    result = {"correct": True, "failed": 0, "attempted": 1, "metrics": {
        row["name"]: {"value": 1.0, "unit": row["unit"]} for row in spec["end_to_end"]}}
    monkeypatch.setattr(bench, "_run", lambda *args: (provenance, result))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "5"])
    assert bench.main() == 0
    out = json.loads((tmp_path / "BENCH_5.json").read_text())
    assert out["pr"] == 5 and out["paired"] == paired
    assert set(out["workloads"]) == {spec["workloads"][0]["name"]}

"""scripts/bench.py summarizes each per-layer metric over its traced runs,
refuses traced runs whose call counts disagree and keeps the paired block
scripts/pairs.py --record wrote; --chain multiplies the recorded paired
ratios in PR order and refuses a malformed record by name."""

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


SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "steps_per_s", "unit": "steps/s", "better": "higher"}]}


def _record(pr, median, paired=None):
    out = {"pr": pr, "workloads": {"w": {"end_to_end": {"steps_per_s": {"median": median}}}}}
    if paired is not None:
        out["paired"] = {"w": {seed: {"metrics": {"steps_per_s": {"ratio": ratio}}}
                               for seed, ratio in paired.items()}}
    return out


def _write(root, records):
    for pr, record in records.items():
        (root / f"BENCH_{pr}.json").write_text(json.dumps(record))


def test_chain_multiplies_the_paired_ratios_in_pr_order(tmp_path):
    bench = _bench()
    _write(tmp_path, {
        10: _record(10, 300.0, {"1": 1.5}),
        9: _record(9, 250.0),
        11: _record(11, 280.0, {"1": 2.0, "2": 8.0}),
        12: _record(12, 400.0, {"1": None}),
        13: _record(13, 450.0, {"2": 0.5}),
    })
    (tmp_path / "BENCH_notes.json").write_text("not a record")
    found = bench.records(tmp_path)
    assert [n for n, _ in found] == [9, 10, 11, 12, 13]
    lines = bench.chain(found, SPEC)
    assert lines[0] == "w steps_per_s (steps/s, higher is better)"
    rows = [line.split() for line in lines[1:]]
    assert [row[:3] for row in rows] == [
        ["BENCH_9", "median", "250"], ["BENCH_10", "median", "300"],
        ["BENCH_11", "median", "280"], ["BENCH_12", "median", "400"],
        ["BENCH_13", "median", "450"]]
    # the paired ratio (a geometric mean over two seeds), then the product so far
    assert [" ".join(row[3:]) for row in rows] == [
        "paired — chain —",
        "paired x1.500 (seed 1) chain x1.500",
        "paired x4.000 (seeds 1, 2) chain x6.000",
        "paired — chain x6.000",
        "paired x0.500 (seed 2) chain x3.000"]


@pytest.mark.parametrize("record,message", [
    ("{", r"^BENCH_4\.json: not JSON: "),
    ({"pr": 5}, r"^BENCH_4\.json: its pr is 5$"),
    ({"paired": {}}, r"^BENCH_4\.json: no entry pr$"),
    ({"pr": 4, "workloads": {}}, r"^BENCH_4\.json: no entry workloads\.w\.end_to_end"
                                 r"\.steps_per_s\.median$"),
    (_record(4, "fast"), r"^BENCH_4\.json: w steps_per_s median is not a number: 'fast'$"),
    (_record(4, 1.0, {"1": "x2"}),
     r"^BENCH_4\.json: paired w seed 1 steps_per_s ratio is not a positive number: 'x2'$"),
    (_record(4, 1.0, {"1": 0.0}), r"ratio is not a positive number: 0\.0$"),
    ({**_record(4, 1.0), "paired": {"w": {"1": {"metrics": {}}}}},
     r"^BENCH_4\.json: no entry paired\.w\.1\.metrics\.steps_per_s\.ratio$"),
    ({**_record(4, 1.0), "paired": {"w": [1.5]}},
     r"^BENCH_4\.json: paired is not a mapping of workloads to seeds$"),
], ids=["json", "pr", "no-pr", "no-median", "median", "ratio", "zero-ratio", "no-ratio",
        "paired-list"])
def test_chain_refuses_a_malformed_record_by_name(tmp_path, record, message):
    bench = _bench()
    text = record if isinstance(record, str) else json.dumps(record)
    (tmp_path / "BENCH_4.json").write_text(text)
    _write(tmp_path, {3: _record(3, 1.0)})
    with pytest.raises(SystemExit, match=message):
        bench.chain(bench.records(tmp_path), SPEC)


def test_chain_reads_the_committed_records(monkeypatch, capsys):
    # what CI runs: every committed record is well formed, and nothing is run
    bench = _bench()
    monkeypatch.setattr(bench, "_run", None)
    monkeypatch.setattr(sys, "argv", ["bench.py", "--chain"])
    assert bench.main() == 0
    out = capsys.readouterr().out
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            assert f"{workload['name']} {metric['name']} (" in out

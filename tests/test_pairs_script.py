"""scripts/pairs.py's gain rule: on at least ten pairs, the change wins at
least 9 of 10 and its median beats the parent's by more than the parent's
IQR; its no-regression rule against an end-to-end metric's bound; and the
paired block --record writes into a BENCH_<N>.json."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "pairs.py"


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_a_clear_gain_holds():
    v = _pairs().verdict(PARENT, [2.0 * p for p in PARENT], "higher")
    assert v["wins"] == 10 and v["gain_holds"]
    assert v["parent"]["median"] == 100.0 and v["change"]["median"] == 200.0


def test_nine_wins_are_enough_and_eight_are_not():
    pairs = _pairs()
    change = [150.0] * 10
    change[0] = 50.0
    assert pairs.verdict(PARENT, change, "higher")["gain_holds"]
    change[1] = 50.0
    v = pairs.verdict(PARENT, change, "higher")
    assert v["wins"] == 8 and not v["gain_holds"]


def test_a_median_gain_inside_the_parents_iqr_does_not_hold():
    # Every pair won by 1, but the parent's runs spread over an IQR of 2.
    v = _pairs().verdict(PARENT, [p + 1.0 for p in PARENT], "higher")
    assert v["wins"] == 10 and v["parent"]["q3"] - v["parent"]["q1"] > 1.0
    assert not v["gain_holds"]


def test_fewer_than_ten_pairs_hold_no_gain():
    # 4 of 4 pairs won at twice the parent: too few pairs to grant a gain
    v = _pairs().verdict(PARENT[:4], [2.0 * p for p in PARENT[:4]], "higher")
    assert v["wins"] == 4 and not v["gain_holds"]


def test_lower_is_better_counts_the_other_way():
    pairs = _pairs()
    halved = [0.5 * p for p in PARENT]
    assert pairs.verdict(PARENT, halved, "lower")["gain_holds"]
    v = pairs.verdict(PARENT, halved, "higher")
    assert v["wins"] == 0 and not v["gain_holds"]


def test_ties_are_not_wins():
    v = _pairs().verdict(PARENT, list(PARENT), "higher")
    assert v["wins"] == 0 and not v["gain_holds"]


@pytest.mark.parametrize("parent,change", [([1.0], [2.0]), ([1.0, 2.0], [1.0, 2.0, 3.0])])
def test_needs_two_or_more_matched_pairs(parent, change):
    with pytest.raises(ValueError, match="two or more pairs"):
        _pairs().verdict(parent, change, "higher")


def _results(**per_run):
    """Result lines, one per run: per_run maps a metric name to its values."""
    count = len(next(iter(per_run.values())))
    return [{"metrics": {name: {"value": values[i], "unit": "s"}
                         for name, values in per_run.items()}}
            for i in range(count)]


LAYERS = [{"name": "oracles.reference_run.calls", "better": "lower"},
          {"name": "oracles.reference_run.self_s", "better": "lower"}]


def test_per_layer_verdicts_summarize_each_side():
    parent = _results(**{"oracles.reference_run.calls": [1] * 10,
                         "oracles.reference_run.self_s": [0.01 * p for p in PARENT]})
    change = _results(**{"oracles.reference_run.calls": [1] * 10,
                         "oracles.reference_run.self_s": [0.002 * p for p in PARENT]})
    found = _pairs().verdicts("converge_scalar", parent, change, LAYERS)
    calls, self_s = (found[layer["name"]] for layer in LAYERS)
    assert calls["parent"]["median"] == calls["change"]["median"] == 1
    assert calls["wins"] == 0 and not calls["gain_holds"]
    assert self_s["parent"]["median"] == pytest.approx(1.0)
    assert self_s["change"]["median"] == pytest.approx(0.2)
    assert self_s["wins"] == 10 and self_s["gain_holds"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_call_count_that_differs_within_one_side_exits_1(side):
    runs = {s: _results(**{"oracles.reference_run.calls": [1, 1, 1],
                           "oracles.reference_run.self_s": [1.0, 1.1, 0.9]})
            for s in ("parent", "change")}
    runs[side][1]["metrics"]["oracles.reference_run.calls"]["value"] = 2
    with pytest.raises(SystemExit, match=rf"^converge_scalar \({side}\): "
                       r"oracles.reference_run.calls differs between traced runs: \[1, 2, 1\]"):
        _pairs().verdicts("converge_scalar", runs["parent"], runs["change"], LAYERS)


# PARENT's median is 100 and its IQR 2.5: a bound of 0.05 allows a median 5 worse
@pytest.mark.parametrize("better,change,bound,found", [
    ("higher", [p - 6.0 for p in PARENT], 0.05, "worse beyond bound"),
    ("lower", [p + 6.0 for p in PARENT], 0.05, "worse beyond bound"),
    ("higher", [p - 4.0 for p in PARENT], 0.05, "within bound"),
    ("lower", [p + 4.0 for p in PARENT], 0.05, "within bound"),
    ("higher", [p - 1.0 for p in PARENT], 0.02, "unresolved"),  # IQR 2.5 > 2
    ("higher", [p + 1.0 for p in PARENT], 0.02, "unresolved"),  # 98 is not above 103
    ("higher", [104.0] * 10, 0.02, "within bound"),  # every change run beats every parent run
    ("lower", [96.0] * 10, 0.02, "within bound"),
])
def test_regression_verdict_against_the_bound(better, change, bound, found):
    assert _pairs().regression(PARENT, change, better, bound) == found


def test_end_to_end_rows_carry_the_regression_verdict():
    rows = [{"name": "steps_per_s", "better": "higher", "bound": 0.2},
            {"name": "oracles.reference_run.self_s", "better": "lower"}]
    parent = _results(steps_per_s=PARENT, **{"oracles.reference_run.self_s": PARENT})
    change = _results(steps_per_s=[0.7 * p for p in PARENT],
                      **{"oracles.reference_run.self_s": PARENT})
    found = _pairs().verdicts("mc_scalar", parent, change, rows)
    assert found["steps_per_s"]["regression"] == "worse beyond bound"
    assert "regression" not in found["oracles.reference_run.self_s"]


def _canned_main(monkeypatch, tmp_path, argv, values):
    """pairs.py's main over canned runs in tmp_path: values maps "parent"
    and "change" to their steps_per_s runs, in the order they are asked for;
    setup_s and peak_rss_mib read the same on both sides."""
    pairs = _pairs()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    parent_dir = (tmp_path / "parent").resolve()
    left = {side: iter(runs) for side, runs in values.items()}

    def run(workload, seconds, trace, seed, checkout):
        side = "parent" if checkout == parent_dir else "change"
        metrics = {"steps_per_s": next(left[side]), "setup_s": 0.1, "peak_rss_mib": 50.0}
        return ({"git_sha": f"{side} sha", "src_sha256": f"{side} src"},
                {"correct": True,
                 "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})

    monkeypatch.setattr(pairs.bench, "_run", run)
    monkeypatch.setattr(pairs.bench, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["pairs.py", "--parent", str(parent_dir), *argv])
    return pairs.main()


def test_record_writes_the_paired_block_and_keeps_the_rest(monkeypatch, tmp_path, capsys):
    bench_file = tmp_path / "BENCH_7.json"
    kept = {"pr": 7, "workloads": {"mc_scalar": {"failed": [0]}},
            "paired": {"mc_scalar": {"2": {"pairs": 3}}}}
    bench_file.write_text(json.dumps(kept))
    assert _canned_main(monkeypatch, tmp_path, ["--workload", "mc_scalar", "--record", "7"],
                        {"parent": PARENT, "change": [2.0 * p for p in PARENT]}) == 0
    assert "wrote paired.mc_scalar.1 into BENCH_7.json" in capsys.readouterr().out
    out = json.loads(bench_file.read_text())
    assert out["pr"] == 7 and out["workloads"] == kept["workloads"]
    assert out["paired"]["mc_scalar"]["2"] == {"pairs": 3}
    one = out["paired"]["mc_scalar"]["1"]
    assert (one["parent_sha"], one["parent_src_sha256"], one["pairs"]) == (
        "parent sha", "parent src", 10)
    assert one["metrics"]["steps_per_s"] == {
        "parent": {"median": 100.0, "iqr": 2.5}, "change": {"median": 200.0, "iqr": 5.0},
        "ratio": 2.0, "wins": 10, "gain_holds": True, "regression": "within bound"}
    assert one["metrics"]["setup_s"] == {
        "parent": {"median": 0.1, "iqr": 0.0}, "change": {"median": 0.1, "iqr": 0.0},
        "ratio": 1.0, "wins": 0, "gain_holds": False, "regression": "within bound"}
    assert set(one["metrics"]) == {"steps_per_s", "setup_s", "peak_rss_mib"}


def test_record_makes_a_missing_file_and_a_second_seed_keeps_the_first(monkeypatch, tmp_path):
    halved = [0.5 * p for p in PARENT[:4]]
    for seed in ("1", "2"):
        assert _canned_main(monkeypatch, tmp_path, ["--workload", "converge_scalar", "--pairs",
                                                    "4", "--seed", seed, "--record", "9"],
                            {"parent": PARENT[:4], "change": halved}) == 0
    paired = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert set(paired) == {"paired"} and set(paired["paired"]["converge_scalar"]) == {"1", "2"}
    steps = paired["paired"]["converge_scalar"]["2"]["metrics"]["steps_per_s"]
    assert steps["ratio"] == 0.5 and steps["regression"] == "worse beyond bound"
    assert not steps["gain_holds"]


def test_record_refuses_traced_runs(monkeypatch, tmp_path):
    with pytest.raises(SystemExit) as info:
        _canned_main(monkeypatch, tmp_path, ["--workload", "mc_scalar", "--trace", "--record",
                                             "7"], {"parent": [], "change": []})
    assert info.value.code == 2 and not (tmp_path / "BENCH_7.json").exists()

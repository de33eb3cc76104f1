#!/usr/bin/env python3
"""Compare one benchmark workload between a parent checkout and this tree.

    python3 scripts/pairs.py --parent DIR --workload NAME [--pairs 10] [--seed 1] [--trace]
                             [--record N]

Runs benchmarks/run.py (untraced, for the run length BENCHMARK.json fixes)
once in DIR and once in this tree per pair, one process at a time; the side
that runs first alternates, the parent first on odd pairs. Prints every
pair's end-to-end metrics, then per metric the median and quartiles of each
side, the pairs the change wins, and the verdict: a gain holds when at
least ten pairs ran, the change is better in at least 9 of 10 of them and
its median is better than the parent's by more than the parent's
interquartile range. Each metric also gets the no-regression verdict
against its BENCHMARK.json bound (see regression). With --trace the runs
are traced (--trace 1) and the gain verdicts are given per layer metric of
BENCHMARK.json instead. Exits 1 if a run fails or reports an incorrect
output, or, with --trace, if a .calls count differs between the runs of
one side. With --record N (untraced runs only) the summary is also written
into BENCH_<N>.json at the repo root under "paired", keyed by workload and
seed (see record); the rest of the file is left as it is. Each run takes
about 30 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402  (the script next to this one)

WIN_SHARE = 0.9  # pairs the change must win for a gain to hold
MIN_GAIN_PAIRS = 10  # fewer pairs than this never hold a gain


def verdict(parent: list, change: list, better: str) -> dict:
    """The gain rule for one metric over paired runs (parent[i] and
    change[i] are pair i): the change wins a pair when it is strictly
    better; a gain holds when there are at least MIN_GAIN_PAIRS pairs, it
    wins at least WIN_SHARE of them and its median beats the parent's by
    more than the parent's IQR. better is "higher" or "lower"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("verdict needs two or more pairs, one value per side each")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    p, c = bench._summary(parent), bench._summary(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "wins": wins,
        "gain_holds": (len(parent) >= MIN_GAIN_PAIRS and wins >= WIN_SHARE * len(parent)
                       and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]),
    }


def regression(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression rule for one end-to-end metric over paired runs:
    "worse beyond bound" when the change's median is worse than the
    parent's by more than bound, a fraction of the parent's median; else
    "unresolved" when the parent's IQR is wider than that bound and not
    every change run beats every parent run; else "within bound"."""
    sign = {"higher": 1.0, "lower": -1.0}[better]
    p, c = bench._summary(parent), bench._summary(change)
    allowed = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) < -allowed:
        return "worse beyond bound"
    beats_every_run = min(sign * y for y in change) > max(sign * x for x in parent)
    if p["q3"] - p["q1"] > allowed and not beats_every_run:
        return "unresolved"
    return "within bound"


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def verdicts(workload: str, parent: list, change: list, metrics: list) -> dict:
    """verdict per metric row of BENCHMARK.json over paired result lines
    (parent[i] and change[i] are pair i's), plus the regression verdict
    under "regression" for a row with a bound. Each side's .calls counts,
    which traced runs report, must agree run for run, as in scripts/bench.py,
    since the workloads are deterministic: a count that differs exits 1."""
    for side, results in (("parent", parent), ("change", change)):
        bench._per_layer(f"{workload} ({side})", results)
    found = {}
    for m in metrics:
        sides = [_value(r, m["name"]) for r in parent], [_value(r, m["name"]) for r in change]
        found[m["name"]] = verdict(*sides, m["better"])
        if "bound" in m:  # an end-to-end metric
            found[m["name"]]["regression"] = regression(*sides, m["better"], m["bound"])
    return found


def record(path: Path, workload: str, seed: int, parent: dict, found: dict, pairs: int) -> None:
    """Write one pairs run's summary into the JSON file at path (made if it
    is missing) as paired[workload][str(seed)]: the parent's git SHA and
    src/ hash (parent is a parent run's provenance), the pair count and per
    metric both sides' medians and IQRs, the ratio of the medians, the pairs
    the change wins and both verdicts. Every other entry stays as it is."""
    out = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    out.setdefault("paired", {}).setdefault(workload, {})[str(seed)] = {
        "parent_sha": parent["git_sha"],
        "parent_src_sha256": parent["src_sha256"],
        "pairs": pairs,
        "metrics": {name: {
            **{side: {"median": v[side]["median"], "iqr": v[side]["q3"] - v[side]["q1"]}
               for side in ("parent", "change")},
            "ratio": (v["change"]["median"] / v["parent"]["median"]
                      if v["parent"]["median"] else None),
            "wins": v["wins"],
            "gain_holds": v["gain_holds"],
            "regression": v["regression"],
        } for name, v in found.items()},
    }
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--trace", action="store_true", help="compare per-layer metrics")
    parser.add_argument("--record", type=int, metavar="N",
                        help="also write the summary into BENCH_<N>.json under paired")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.trace and args.record is not None:
        parser.error("--record takes untraced runs only")
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    shown = [] if args.trace else [metric["name"] for metric in metrics]
    sides = {"parent": args.parent.resolve(), "change": bench.ROOT}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            provenance, result = bench._run(args.workload, spec["run_seconds"], int(args.trace),
                                            args.seed, sides[side])
            runs[side].append(result)
            if side == "parent":
                parent = provenance
        print(f"pair {i + 1} ({order[0]} first):" + ";".join(
            f" {name} {_value(runs['parent'][-1], name):.6g} -> "
            f"{_value(runs['change'][-1], name):.6g}" for name in shown), flush=True)
    found = verdicts(args.workload, runs["parent"], runs["change"], metrics)
    for metric in metrics:
        v = found[metric["name"]]
        p, c = v["parent"], v["change"]
        ratio = f"x{c['median'] / p['median']:.3f}" if p["median"] else "x-"
        print(f"{args.workload} {metric['name']} ({metric['unit']}, {metric['better']} is "
              f"better): parent {p['median']:.6g} ({p['q1']:.6g}-{p['q3']:.6g}, "
              f"IQR {p['q3'] - p['q1']:.3g}), change {c['median']:.6g} "
              f"({c['q1']:.6g}-{c['q3']:.6g}), {ratio}, "
              f"change better in {v['wins']}/{args.pairs} pairs, "
              f"gain {'holds' if v['gain_holds'] else 'does not hold'}"
              + (f", {v['regression']} (bound {metric['bound']:g})" if "regression" in v else ""))
    if args.record is not None:
        path = bench.ROOT / f"BENCH_{args.record}.json"
        record(path, args.workload, args.seed, parent, found, args.pairs)
        print(f"wrote paired.{args.workload}.{args.seed} into {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

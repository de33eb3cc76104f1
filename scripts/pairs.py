#!/usr/bin/env python3
"""Compare one benchmark workload between a parent checkout and this tree.

    python3 scripts/pairs.py --parent DIR --workload NAME [--pairs 10] [--seed 1]

Runs benchmarks/run.py (untraced, for the run length BENCHMARK.json fixes)
once in DIR and once in this tree per pair, one process at a time; the side
that runs first alternates, the parent first on odd pairs. Prints every
pair's end-to-end metrics, then per metric the median and quartiles of each
side, the pairs the change wins, and the verdict: a gain holds when the
change is better in at least 9 of 10 pairs and its median is better than
the parent's by more than the parent's interquartile range. Exits 1 if a
run fails or reports an incorrect output. Each run takes about 30 s on a
2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402  (the script next to this one)

WIN_SHARE = 0.9  # pairs the change must win for a gain to hold


def verdict(parent: list, change: list, better: str) -> dict:
    """The gain rule for one metric over paired runs (parent[i] and
    change[i] are pair i): the change wins a pair when it is strictly
    better; a gain holds when it wins at least WIN_SHARE of the pairs and
    its median beats the parent's by more than the parent's IQR. better is
    "higher" or "lower"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("verdict needs two or more pairs, one value per side each")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    p, c = bench._summary(parent), bench._summary(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "wins": wins,
        "gain_holds": (wins >= WIN_SHARE * len(parent)
                       and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]
    sides = {"parent": args.parent.resolve(), "change": bench.ROOT}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, result = bench._run(args.workload, spec["run_seconds"], 0, args.seed, sides[side])
            runs[side].append({name: result["metrics"][name]["value"] for name in names})
        print(f"pair {i + 1} ({order[0]} first): " + "; ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
            for name in names), flush=True)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                    metric["better"])
        p, c = v["parent"], v["change"]
        print(f"{args.workload} {name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {p['median']:.6g} ({p['q1']:.6g}-{p['q3']:.6g}, "
              f"IQR {p['q3'] - p['q1']:.3g}), change {c['median']:.6g} "
              f"({c['q1']:.6g}-{c['q3']:.6g}), x{c['median'] / p['median']:.3f}, "
              f"change better in {v['wins']}/{args.pairs} pairs, "
              f"gain {'holds' if v['gain_holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

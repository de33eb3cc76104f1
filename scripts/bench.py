#!/usr/bin/env python3
"""Record the benchmark's metrics for one change in BENCH_<pr>.json.

    python3 scripts/bench.py --pr N
    python3 scripts/bench.py --chain

For every workload in BENCHMARK.json, runs benchmarks/run.py RUNS times with
--trace 0 and TRACED_RUNS times with --trace 1, each at seed SEED and for the
run length BENCHMARK.json fixes, one process at a time. Writes BENCH_<pr>.json
at the repo root: the git SHA and whether src/ differs from it, the hash of
src/, the Python, numpy and scipy versions, nproc, and per workload the
median and quartiles of each end-to-end metric over the untraced runs and of
each per-layer metric over the traced runs (with every run's value), and the
failed-operation counts. A "paired" block that scripts/pairs.py --record
wrote into an existing BENCH_<pr>.json is kept. Exits 1 if a run fails or
reports an incorrect output, or if a per-layer call count differs between
the traced runs. Takes about (RUNS + TRACED_RUNS) x 30 s per workload on a
2-vCPU host.

With --chain it runs nothing: it reads every BENCH_<n>.json at the repo root
in PR order and prints, per workload and end-to-end metric, each record's
median next to the paired ratio it records and the product of the paired
ratios so far, the number to read for a trend (see chain). Exits 1 naming
the file and the entry if a record is malformed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2  # the workload seed every BENCH_<pr>.json is measured at
RUNS = 5  # untraced runs per workload
TRACED_RUNS = 3  # traced runs per workload: one run's self times cannot resolve a 10 % change


def _run(workload: str, seconds: float, trace: int, seed: int = SEED,
         checkout: Path = ROOT) -> tuple[dict, dict]:
    """One benchmarks/run.py invocation in checkout: its provenance and its
    result line."""
    argv = [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}")
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} (trace {trace}): {result['failed']} operations failed")
    return provenance, result


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _per_layer(workload: str, traced: list) -> dict:
    """Each per-layer metric summarized over the traced runs' results; the
    call counts of a deterministic workload must agree run for run."""
    layers = {}
    for name, metric in traced[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in traced]
        if name.endswith(".calls") and len(set(values)) > 1:
            raise SystemExit(f"{workload}: {name} differs between traced runs: {values}")
        layers[name] = dict(unit=metric["unit"], **_summary(values))
    return layers


def _entry(record: dict, where: str, *keys: str):
    """record[keys[0]][keys[1]]..., or exit 1 naming where and the entry."""
    value = record
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            raise SystemExit(f"{where}: no entry {'.'.join(keys)}")
        value = value[key]
    return value


def _number(value, where: str, what: str, positive: bool = False) -> float:
    """value if it is a finite number (> 0 if positive), else exit 1 naming where and what."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)):
        raise SystemExit(f"{where}: {what} is not a {'positive ' * positive}number: {value!r}")
    return value


def records(root: Path) -> list:
    """(n, record) for every BENCH_<n>.json in root, in PR order; a file that
    is not JSON, or whose "pr" is not n, exits 1 naming it."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match is None:
            continue
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise SystemExit(f"{path.name}: not JSON: {exc}") from None
        if _entry(record, path.name, "pr") != int(match[1]):
            raise SystemExit(f"{path.name}: its pr is {record['pr']!r}")
        found.append((int(match[1]), record))
    return sorted(found, key=lambda item: item[0])


def chain(found: list, spec: dict) -> list:
    """The --chain report over found, (n, record) in PR order: per workload
    and end-to-end metric of spec, a header and one line per record with its
    median over the untraced runs, the paired ratio it records (change over
    parent median; the geometric mean over the seeds it records, which it
    names) and the product of the paired ratios up to it. A record with no
    paired ratio for the workload shows "—" and leaves the product as it is;
    so does a ratio of null, which pairs.py writes for a parent median of 0."""
    lines = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lines.append(f"{workload} {name} ({metric['unit']}, {metric['better']} is better)")
            product = None
            for n, record in found:
                where = f"BENCH_{n}.json"
                median = _number(_entry(record, where, "workloads", workload, "end_to_end",
                                        name, "median"), where, f"{workload} {name} median")
                seeds = record.get("paired", {})
                seeds = seeds.get(workload, {}) if isinstance(seeds, dict) else seeds
                if not isinstance(seeds, dict):
                    raise SystemExit(f"{where}: paired is not a mapping of workloads to seeds")
                ratios = {}
                for seed in seeds:
                    ratio = _entry(record, where, "paired", workload, seed, "metrics", name, "ratio")
                    if ratio is not None:
                        ratios[seed] = _number(ratio, where, f"paired {workload} seed {seed} "
                                                             f"{name} ratio", positive=True)
                if ratios:
                    ratio = math.prod(ratios.values()) ** (1.0 / len(ratios))
                    product = ratio * (product or 1.0)
                    paired = f"x{ratio:.3f} (seed{'s' * (len(ratios) > 1)} {', '.join(ratios)})"
                else:
                    paired = "—"
                chained = "—" if product is None else f"x{product:.3f}"
                lines.append(f"  BENCH_{n:<3} median {median:<12.6g} paired {paired:<22} "
                             f"chain {chained}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int, help="number in the file name")
    mode.add_argument("--chain", action="store_true",
                      help="print the recorded medians and chained paired ratios; run nothing")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.chain:
        print("\n".join(chain(records(ROOT), spec)))
        return 0
    seconds = spec["run_seconds"]
    git = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                         capture_output=True, text=True)
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seconds, 0) for _ in range(RUNS)]
        provenance = runs[-1][0]
        runs = [result for _, result in runs]
        traced = [_run(workload, seconds, 1)[1] for _ in range(TRACED_RUNS)]
        workloads[workload] = {
            "end_to_end": {
                metric["name"]: dict(unit=metric["unit"], **_summary(
                    [result["metrics"][metric["name"]]["value"] for result in runs]))
                for metric in spec["end_to_end"]
            },
            "failed": [result["failed"] for result in runs + traced],
            "attempted": [result["attempted"] for result in runs + traced],
            "per_layer": _per_layer(workload, traced),
        }
        print(f"{workload}: " + ", ".join(
            f"{name} {entry['median']:.6g} {entry['unit']}"
            for name, entry in workloads[workload]["end_to_end"].items()), flush=True)
    out = {
        "pr": args.pr,
        "git_sha": provenance["git_sha"],
        "src_differs_from_git_sha": bool(git.stdout.strip()) if git.returncode == 0 else None,
        "src_sha256": provenance["src_sha256"],
        "python": provenance["python"],
        "numpy": provenance["numpy"],
        "scipy": provenance["scipy"],
        "blas": provenance["blas"],
        "nproc": provenance["nproc"],
        "workload_seed": SEED,
        "run_seconds": seconds,
        "untraced_runs": RUNS,
        "traced_runs": TRACED_RUNS,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    if path.exists() and "paired" in (old := json.loads(path.read_text(encoding="utf-8"))):
        out["paired"] = old["paired"]
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""proxflow benchmark: one workload, one workload seed, one measured run.

    python3 benchmarks/run.py --workload mc_scalar --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the checkout's own src/. The
inputs are generated from --seed into .bench_work/, five fresh processes time
the set-up, and one fresh process runs the workload in a closed loop for
--seconds. Its outputs are then checked against an independent
recomputation (reference.py). With --trace 0 the last stdout line reports
the end-to-end metrics; with --trace 1 a separate run reports per-layer
metrics from spans around the calls into each module. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
SPARE_S = 120  # measured run: warm-up round, the round in flight, start-up

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PROXFLOW_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def _child(args, timeout) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed ({' '.join(args[:1])}, exit {proc.returncode})")
    return proc.stdout


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _provenance(args, manifest, samples) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)",
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "steps_per_round": sum(op["steps"] for op in manifest["ops"]),
        "operations_per_round": len(manifest["ops"]),
        "samples": samples,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "proxflow" / "__init__.py").is_file():
        print(f"error: no proxflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import reference

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        manifest = workloads.generate(args.workload, args.seed, work)
        manifest_path = str(work / "manifest.json")
        setup = [json.loads(_child(["setup", manifest_path], SETUP_TIMEOUT_S))
                 for _ in range(0 if args.trace else SETUP_RUNS)]
        spans_path = WORK / f"spans-{args.workload}.json"
        _child(["measure", manifest_path, str(args.seconds), str(args.trace),
                str(work / "result.json"), str(spans_path)], args.seconds + SPARE_S)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        problems = {op["id"]: reference.check_op(manifest, op) for op in manifest["ops"]}

    failed = result["failed"]
    for op_id, problem in problems.items():
        if problem is not None:
            failed += result["matches"][op_id]
            result["errors"].append(f"{op_id}: {problem}")
    attempted = result["attempted"]

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
        samples = {"traced_passes": result["passes"]}
    else:
        rates = result["steps_per_s"]
        setup_s = [s["setup_s"] for s in setup]
        metrics = {
            "steps_per_s": {"value": statistics.median(rates), "unit": "steps/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
        samples = {"steps_per_s": len(rates), "setup_s": len(setup_s), "peak_rss_mib": 1}
    print("provenance " + json.dumps(_provenance(args, manifest, samples), sort_keys=True))
    for error in result["errors"]:
        print(f"failure {error}")
    if not args.trace:
        raw = {"steps_per_s": result["raw_steps_per_s"],
               "setup_s": [s["setup_raw_s"] for s in setup]}
        for name, values in (("steps_per_s", rates), ("setup_s", setup_s)):
            q1, q3 = _quartiles(values)
            print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']} "
                  f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g}; "
                  f"unscaled wall-clock median {statistics.median(raw[name]):.6g})")
        print(f"peak_rss_mib {metrics['peak_rss_mib']['value']:.6g} MiB")
    else:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

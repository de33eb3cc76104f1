"""Child process of the benchmark: one set-up timing or one measured run.

run.py starts it in a fresh interpreter per use, so the set-up time and the
peak resident set belong to one workload:

  worker.py setup MANIFEST                   prints {"setup_s": ..., "setup_raw_s": ...}
  worker.py measure MANIFEST SECONDS TRACE RESULT_JSON SPANS_JSON

The set-up clock starts before anything but the standard library is
imported, and stops once every config is parsed, every system, measurement
model and prior is built, and each general system's equipartition frame
exists: the point where the first step can run. Untraced times are rescaled
to a reference machine speed (speed.py).
"""

import sys
import time

import speed

if __name__ == "__main__":
    speed.pin_to_one_cpu()
    SLOW0 = speed.slowdown_now() if sys.argv[1] == "setup" else []
T0, C0 = time.perf_counter(), time.thread_time()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3


def _import_program(entry: str):
    import proxflow
    import proxflow.config
    import proxflow.propagation

    if entry == "cli":
        import proxflow.cli  # noqa: F401  (pulls in experiments)
    if Path(proxflow.__file__).resolve().parent != ROOT / "src" / "proxflow":
        raise SystemExit(f"proxflow imported from {proxflow.__file__}, not from this checkout")
    return proxflow


class Workload:
    """The manifest's configs and operations, run against the program."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.ops = manifest["ops"]
        self.steps = sum(op["steps"] for op in self.ops)
        self.pf = _import_program(manifest["entry"])

    def setup(self) -> None:
        import numpy as np

        load_config = self.pf.config.load_config
        self.cfgs = {name: load_config(path) for name, path in self.manifest["configs"].items()}
        for name in self.manifest["frames"]:
            self.pf.propagation.make_equipartition(self.cfgs[name].system)
        self.dz = {name: np.load(path) for name, path in self.manifest.get("dz", {}).items()}

    def call(self, op):
        """Run one operation; returns what it produced."""
        pf = self.pf
        if op["kind"] == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                code = pf.cli.main(op["argv"])
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return None
        cfg = self.cfgs[op["config"]]
        h = cfg.h_values[0]
        step_cfg = pf.propagation.StepConfig(h=h, steps=cfg.steps_for(h), beta=cfg.beta)
        if op["kind"] == "filter":
            return pf.filtering.run_filter(
                cfg.system, cfg.measurement, cfg.initial, self.dz[op["config"]], step_cfg,
                update=op["update"], predict=op["predict"])
        return pf.propagation.propagate(cfg.system, cfg.initial, step_cfg, op["mode"])

    def output(self, op, produced) -> dict:
        """The operation's output as named byte strings or arrays."""
        import numpy as np

        if op["kind"] == "cli":
            return {"csv": Path(op["out"]).read_bytes()}
        if op["kind"] == "filter":
            return {"means": produced.means(), "cov": produced.terminal.cov.mat}
        return {"means": np.array([g.mean for _, g in produced]), "cov": produced[-1][1].cov.mat}


def _digest(out: dict) -> str:
    sha = hashlib.sha256()
    for key in sorted(out):
        value = out[key]
        sha.update(value if isinstance(value, bytes) else value.tobytes())
    return sha.hexdigest()


def _save_warm(manifest, op, out):
    import numpy as np

    stem = Path(manifest["warm_dir"]) / op["id"].replace("/", "_")
    if "csv" in out:
        stem.with_suffix(".csv").write_bytes(out["csv"])
    else:
        np.savez(stem.with_suffix(".npz"), **out)


class Tally:
    """Operations attempted and failed, and how many attempts reproduced
    the warm-up output (those inherit its verdict from the output check)."""

    def __init__(self, ops):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.warm = {}
        self.matches = {op["id"]: 0 for op in ops}

    def record(self, op, out, error, warm: bool):
        self.attempted += 1
        if error is None:
            digest = _digest(out)
            if warm:
                self.warm[op["id"]] = digest
            if self.warm.get(op["id"]) == digest:
                self.matches[op["id"]] += 1
                return
            error = "output differs from the warm-up round"
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op['id']}: {error}")


def run_round(work: Workload, tally: Tally, probe=None, warm=False):
    """Run every operation once; returns the wall time spent inside the
    program and, given a probe, that CPU time rescaled to reference speed."""
    clock, cpu_clock = time.perf_counter, time.thread_time
    busy = scaled = 0.0
    for op in work.ops:
        out, error = None, None
        mark = probe.mark() if probe else 0
        start, cpu = clock(), cpu_clock()
        try:
            produced = work.call(op)
            busy += clock() - start
            if probe:
                scaled += (cpu_clock() - cpu) / probe.slowdown(mark)
            out = work.output(op, produced)
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            error = f"{type(exc).__name__}: {exc}"
        if warm and out is not None:
            _save_warm(work.manifest, op, out)
        tally.record(op, out, error, warm)
    return busy, scaled


def measure(work: Workload, seconds: float, tally: Tally) -> dict:
    """Closed loop: one round after another until the time is up."""
    rounds = []
    deadline = time.perf_counter() + seconds
    with speed.Probe() as probe:
        while time.perf_counter() < deadline or len(rounds) < MIN_ROUNDS:
            rounds.append(run_round(work, tally, probe))
    return {"steps_per_s": [work.steps / scaled for _, scaled in rounds],
            "raw_steps_per_s": [work.steps / busy for busy, _ in rounds],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure_traced(work: Workload, seconds: float, tally: Tally, spans_path) -> dict:
    """Alternate untraced and traced passes (set-up plus one round each);
    the difference of their median times is the tracing overhead."""
    from tracing import SPANS, Tracer, check_required

    clock = time.perf_counter
    plain, traced, layers, first = [], [], [], None
    deadline = clock() + seconds
    while clock() < deadline or not traced:
        start = clock()
        work.setup()
        run_round(work, tally)
        plain.append(clock() - start)
        with Tracer() as tracer:
            start = clock()
            work.setup()
            run_round(work, tally)
            traced.append(clock() - start)
        layers.append(tracer.metrics())
        first = first or tracer
        check_required(work.manifest["workload"], layers[-1])
    Path(spans_path).write_text(json.dumps(first.spans()), encoding="utf-8")
    metrics = dict(layers[-1])
    for name in SPANS:
        metrics[f"{name}.self_s"] = statistics.median(m[f"{name}.self_s"] for m in layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"layers": metrics, "passes": len(traced)}


def main(argv) -> int:
    phase, manifest = argv[0], json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if phase == "setup":
        work = Workload(manifest)
        work.setup()
        cpu, wall = time.thread_time() - C0, time.perf_counter() - T0
        slow = statistics.fmean(SLOW0 + speed.slowdown_now())
        print(json.dumps({"setup_s": cpu / slow, "setup_raw_s": wall}))
        return 0
    seconds, trace, result_path = float(argv[2]), argv[3] == "1", argv[4]
    work = Workload(manifest)
    tally = Tally(work.ops)
    work.setup()
    run_round(work, tally, warm=True)
    if trace:
        result = measure_traced(work, seconds, tally, argv[5])
    else:
        result = measure(work, seconds, tally)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                  matches=tally.matches)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

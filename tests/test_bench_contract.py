"""The benchmark's traced call sites stay reachable.

benchmarks/tracing.py wraps proxflow's layer boundaries by rebinding their
module-level names, and fails a workload whose required boundary records no
span. This runs a miniature of each workload under the tracer, so a change
that hides a boundary from it (say, a step function captured in a default
argument) fails here rather than only in a benchmark run.

Every call goes through a proxflow module attribute: a name imported into
this module is not rebound by the tracer.
"""

import json

import numpy as np

import proxflow
import proxflow.cli
import proxflow.config
import proxflow.filtering
import proxflow.propagation
from support import load_bench_module


def _scalar_config(tmp_path, name, h, horizon, mode):
    doc = {
        "system": {"A": [[-1.0]], "B": [[1.0]]},
        "measurement": {"C": [[1.0]], "R": [[1.0]]},
        "initial": {"mean": [0.0], "cov": [[1.0]]},
        "steps": {"h": h, "horizon": horizon},
        "seeds": [1, 2],
        "mode": mode,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _dense_config(tmp_path):
    doc = {
        "system": {"A": [[-1.0, 0.8], [-0.3, -0.7]], "B": [[1.0, 0.0], [0.2, 0.6]]},
        "measurement": {"C": [[1.0, 0.5]], "R": [[0.5]]},
        "initial": {"mean": [0.4, -0.2], "cov": [[1.5, 0.3], [0.3, 0.8]]},
        "steps": {"h": [0.02], "horizon": 0.2},
        "seeds": [3],
        "mode": {"task": "compare", "predict": "jko"},
    }
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_every_workload_records_its_required_spans(tmp_path):
    tracing = load_bench_module("tracing")
    compare = _scalar_config(tmp_path, "compare", [0.02], 0.2,
                             {"task": "compare", "predict": "jko"})
    converge = _scalar_config(tmp_path, "converge", [0.02, 0.01], 0.1,
                              {"task": "filter", "update": "lmmr", "predict": "jko"})
    dense = _dense_config(tmp_path)
    symmetric = proxflow.propagation.LinearSystem(-np.diag([1.0, 2.0]), np.eye(2))
    with tracing.Tracer() as t:
        for command, config in (("compare-filters", compare), ("converge-filter", converge)):
            out = str(tmp_path / f"{command}.csv")
            assert proxflow.cli.main([command, "--config", config, "--out", out]) == 0
        cfg = proxflow.config.load_config(dense)
        step_cfg = proxflow.propagation.StepConfig(h=0.02, steps=10)
        dz = 0.1 * np.random.default_rng(0).normal(size=(10, 1))
        for predict in ("jko", "exact"):
            for update in ("lmmr", "wasserstein"):
                proxflow.filtering.run_filter(cfg.system, cfg.measurement, cfg.initial, dz,
                                              step_cfg, update=update, predict=predict)
        proxflow.propagation.propagate(cfg.system, cfg.initial, step_cfg,
                                       "general-first-order")
        sym_cfg = proxflow.propagation.StepConfig(h=0.02, steps=10, beta=1.0)
        proxflow.propagation.propagate(symmetric, cfg.initial, sym_cfg, "symmetric-exact")
    metrics = t.metrics()
    for workload in tracing.REQUIRED:
        tracing.check_required(workload, metrics)


def test_the_dense_workload_configs_sit_at_the_state_dimension_limit(tmp_path):
    # the config parser refuses a state dimension past MAX_DIM; the
    # benchmark's largest systems are exactly at it and must still parse
    manifest = load_bench_module("workloads").generate("general_dense", 1, tmp_path)
    dims = {name: proxflow.config.load_config(path).system.dim
            for name, path in manifest["configs"].items()}
    assert dims == {"n8": 8, "n16": 16, "sym16": 16}
    assert proxflow.propagation.MAX_DIM == 16

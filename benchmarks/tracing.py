"""Spans around the calls into proxflow's layers, recorded from outside.

The tracer swaps each traced function for a wrapper at every place a caller
looks the name up: the module globals of every loaded proxflow module and
module-level dicts such as filtering._UPDATES. Methods are wrapped once on
their class. A binding the rebinding misses makes install() raise, and a
boundary that records no span on the workload meant to exercise it makes
check_required() raise, so a moved call site fails loudly instead of
reporting zero.

Spans (name, start, end, parent) are kept in memory; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (span name, defining module, attribute, modules whose binding is wrapped;
# None wraps every binding in every loaded proxflow module).
FUNCTIONS = (
    ("matrices.expm", "proxflow.matrices", "expm", None),
    ("matrices.lyapunov_solve", "proxflow.matrices", "lyapunov_solve", None),
    ("propagation.make_equipartition", "proxflow.propagation", "make_equipartition", None),
    ("propagation.step_mean", "proxflow.propagation", "jko_step_general_mean", None),
    ("propagation.step_cov", "proxflow.propagation", "jko_step_general_cov", None),
    ("propagation.step_symmetric", "proxflow.propagation", "jko_step_symmetric", None),
    ("filtering.run_filter", "proxflow.filtering", "run_filter", None),
    ("filtering.update_lmmr", "proxflow.filtering", "lmmr_update", None),
    ("filtering.update_wasserstein", "proxflow.filtering", "wasserstein_update", None),
    # Only the predictor calls from run_filter, not the oracle's own uses.
    ("oracles.exact_predict", "proxflow.oracles", "exact_mean", ("proxflow.filtering",)),
    ("oracles.exact_predict", "proxflow.oracles", "exact_cov", ("proxflow.filtering",)),
    ("oracles.reference_run", "proxflow.oracles", "kalman_bucy_run", None),
    ("oracles.reference_run", "proxflow.oracles", "luenberger_run", None),
    ("simulate.simulate", "proxflow.simulate", "simulate", None),
    ("config.parse", "proxflow.config", "parse_config", None),
    ("cli.main", "proxflow.cli", "main", None),
)
# (span name, defining module, class, method)
METHODS = (
    ("matrices.spd_new", "proxflow.matrices", "SpdMatrix", "__init__"),
    ("rng.draw", "proxflow.rng", "GaussianStream", "draw"),
    ("experiments.write", "proxflow.experiments", "ResultTable", "write"),
)
# Counted without a span: one call per RK4 substep is too fine to time.
RK4 = ("oracles.rk4_steps", "proxflow.oracles", "rk4_step")

SPANS = tuple(dict.fromkeys(row[0] for row in FUNCTIONS + METHODS))
COUNTS = (RK4[0], "rng.normals")
RATIO = "filtering.distinct_cov_ratio"

# Boundaries each workload exists to exercise; each must record a span there.
REQUIRED = {
    "mc_scalar": (
        "matrices.spd_new", "propagation.step_mean", "propagation.step_cov",
        "filtering.run_filter", "filtering.update_lmmr", "filtering.update_wasserstein",
        "simulate.simulate", "rng.draw", "config.parse", "experiments.write", "cli.main",
    ),
    "general_dense": (
        "matrices.spd_new", "matrices.expm", "matrices.lyapunov_solve",
        "propagation.make_equipartition", "propagation.step_mean", "propagation.step_cov",
        "propagation.step_symmetric", "filtering.run_filter", "filtering.update_lmmr",
        "filtering.update_wasserstein", "oracles.exact_predict", "config.parse",
        RK4[0],
    ),
    "converge_scalar": (
        "matrices.spd_new", "filtering.run_filter", "filtering.update_lmmr",
        "oracles.reference_run", "simulate.simulate", "rng.draw", "config.parse",
        "experiments.write", "cli.main", RK4[0],
    ),
}


class BindingError(RuntimeError):
    """A traced name is bound somewhere the tracer did not wrap, or a
    boundary recorded nothing on the workload meant to exercise it."""


def _proxflow_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "proxflow" or name.startswith("proxflow.")}


def _namespaces(modules):
    """Every mapping a caller may look a function up in: module globals,
    module-level dicts, and the dicts of classes defined in proxflow."""
    for mod in modules:
        yield vars(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, dict):
                yield value
            elif isinstance(value, type) and value.__module__.startswith("proxflow"):
                yield value.__dict__


class Tracer:
    """One traced pass: wraps the boundaries, records spans and counts."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.updates = 0
        self._cov_keys = set()
        self._filter_step = 0
        self._undo = []

    def _wrap(self, name, fn, note=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _note_filter(self, args, kwargs):
        self._filter_step = 0

    def _note_update(self, kind):
        def note(args, kwargs):
            self._filter_step += 1
            self.updates += 1
            prior = args[0] if args else kwargs["g_prior"]
            self._cov_keys.add((kind, self._filter_step, prior.cov.mat.tobytes()))
        return note

    def _note_draw(self, args, kwargs):
        self.counts["rng.normals"] += int(args[1] if len(args) > 1 else kwargs["count"])

    def _notes(self):
        return {
            "run_filter": self._note_filter,
            "lmmr_update": self._note_update("lmmr"),
            "wasserstein_update": self._note_update("wasserstein"),
            "draw": self._note_draw,
        }

    def _rebind(self, spaces, original, wrapper) -> int:
        hits = 0
        for space in spaces:
            for key, value in list(space.items()):
                if value is original:
                    if isinstance(space, dict):
                        space[key] = wrapper
                    else:  # class mappingproxy
                        raise BindingError(f"{key} is bound as a class attribute")
                    self._undo.append((space, key, original))
                    hits += 1
        return hits

    def install(self) -> None:
        modules = _proxflow_modules()
        notes = self._notes()
        everywhere = []
        for name, module, attr, scope in FUNCTIONS + (RK4 + (None,),):
            if module not in modules:  # never imported, so nothing can call it
                continue
            original = getattr(modules[module], attr)
            if name == RK4[0]:
                wrapper = self._count(name, original)
            else:
                wrapper = self._wrap(name, original, notes.get(attr))
            targets = modules.values() if scope is None else [modules[m] for m in scope]
            if self._rebind(list(_namespaces(targets)), original, wrapper) == 0:
                raise BindingError(f"{module}.{attr} is bound nowhere the tracer looked")
            if scope is None:
                everywhere.append((name, original))
        for name, module, cls_name, meth in METHODS:
            if module not in modules:
                continue
            cls = getattr(modules[module], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, original, notes.get(meth)))
            self._undo.append((cls, meth, original))
        for space in _namespaces(modules.values()):
            for name, original in everywhere:
                for key, value in space.items():
                    if value is original:
                        raise BindingError(f"{name}: {key} still bound to the unwrapped function")

    def uninstall(self) -> None:
        for space, key, original in reversed(self._undo):
            if isinstance(space, type):
                setattr(space, key, original)
            else:
                space[key] = original
        self._undo.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self) -> dict:
        """Calls and self time per boundary, the counters, and the share of
        update calls whose (kind, step, prior covariance) was new."""
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        out = {}
        names = np.asarray(self.names, dtype=object)
        for name in SPANS:
            mask = names == name
            out[f"{name}.calls"] = int(np.count_nonzero(mask))
            out[f"{name}.self_s"] = float(np.sum(own[mask]))
        out.update(self.counts)
        out[RATIO] = len(self._cov_keys) / self.updates if self.updates else 0.0
        return out

    def spans(self) -> dict:
        index = {name: i for i, name in enumerate(SPANS)}
        rows = [[index[n], s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        return {"names": list(SPANS), "columns": ["name", "start", "end", "parent"],
                "spans": rows}


def check_required(workload: str, metrics: dict) -> None:
    for name in REQUIRED[workload]:
        value = metrics[name] if name in COUNTS else metrics[f"{name}.calls"]
        if value == 0:
            raise BindingError(f"{name} recorded nothing on {workload}; its call site moved")

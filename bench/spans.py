"""Span tracing for the benchmark's traced run.

Each layer is measured from outside: the public functions of ``flowsearch``
are replaced by wrappers that open a span (name, start, end, parent, rows)
around the original call.  A wrapper is installed under every name that
refers to the original in any loaded ``flowsearch`` module, so calls through
``samplers.velocity_at``, ``harness.denoise_interval`` or ``rng.stream``
are all seen.  Spans live in growable typed arrays while the run lasts and are
written out once, after it.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans under one root therefore add up to the
root's duration exactly; the root's own self time is the benchmark's glue.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from flowsearch import engine, samplers

SAMPLER_NAMES = ("bon", "sop", "smc", "code", "svdd", "rbf")

# (span name, module, attribute, position of the argument whose leading axes
# count as rows, or None).  The argument positions follow the signatures in
# ``flowsearch``: velocity_at(gmm, sched, t, x), denoise_interval(plan, x, ...),
# estimate_value(spec, gmm, sched, t, x_t), evaluate_reward(spec, x).
FUNCTION_SPANS = (
    ("analytic_flow.velocity", "analytic_flow", "velocity_at", 3),
    ("analytic_flow.posterior_mean", "analytic_flow", "posterior_mean", 3),
    ("rng.stream", "rng", "stream", None),
    ("engine.denoise_interval", "engine", "denoise_interval", 1),
    ("engine.run_process", "engine", "run_process", 1),
    ("interpolants.scale_time_transform", "interpolants", "scale_time_transform", None),
    ("rewards.estimate_value", "rewards", "estimate_value", 4),
    ("rewards.evaluate_reward", "rewards", "evaluate_reward", 1),
    ("harness.run_experiment", "harness", "run_experiment", None),
    ("harness.diversity_record", "harness", "diversity_record", None),
    ("harness.branched_proposals", "harness", "branched_proposals", None),
    ("harness.load_config", "harness", "load_config", None),
    ("harness.write_csv", "harness", "write_csv", None),
    ("cli.main", "cli", "main", None),
)
ROOT = "bench.body"


def _rows(x) -> int:
    return math.prod(np.shape(x)[:-1])


class Tracer:
    """In-memory span store: one entry per call, parent links by index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Per-sampler NFE ledger: name -> [nfe_used, nfe_budget]
        self.ledger = {name: [0, 0] for name in SAMPLER_NAMES}

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str, rows: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, row_arg: int | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = _rows(args[row_arg]) if row_arg is not None and len(args) > row_arg else 0
            idx = self.open(name, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_sampler(self, name: str, fn):
        """Sampler wrapper that also books the result's NFE ledger."""
        traced = self.wrap(f"samplers.{name}", fn)

        @functools.wraps(fn)
        def booked(plan, gmm, reward, budget, seed, **opts):
            result = traced(plan, gmm, reward, budget, seed, **opts)
            entry = self.ledger[name]
            entry[0] += result.nfe_used
            entry[1] += budget.total_nfe
            return result

        return booked

    def save(self, path: Path) -> None:
        """Write every span to ``path`` (numpy .npz, one array per field)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rows=np.frombuffer(self.rows, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Patches:
    """Install the tracer's wrappers into ``flowsearch`` and undo them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "flowsearch" or n.startswith("flowsearch.")]
        for span, mod_name, attr, row_arg in FUNCTION_SPANS:
            module = sys.modules.get(f"flowsearch.{mod_name}")
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.tracer.wrap(span, original, row_arg)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((setattr, m, name, original))
                        setattr(m, name, wrapper)
        for name, fn in list(samplers.SAMPLERS.items()):
            self._undo.append((dict.__setitem__, samplers.SAMPLERS, name, fn))
            samplers.SAMPLERS[name] = self.tracer.wrap_sampler(name, fn)
        original = engine.StepPlan.__dict__["scale_map"]
        self._undo.append((setattr, engine.StepPlan, "scale_map", original))
        engine.StepPlan.scale_map = self.tracer.wrap("engine.scale_map", original)

    def restore(self) -> None:
        while self._undo:
            setter, target, name, original = self._undo.pop()
            setter(target, name, original)

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def namespace_snapshot() -> dict:
    """Identity of every name the wrappers can replace."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "flowsearch" or mod_name.startswith("flowsearch."):
            snap.update({(mod_name, k): id(v) for k, v in vars(module).items()})
    snap.update({("SAMPLERS", k): id(v) for k, v in samplers.SAMPLERS.items()})
    snap[("StepPlan", "scale_map")] = id(engine.StepPlan.__dict__["scale_map"])
    return snap


def restored(before: dict) -> bool:
    """True when every name in an earlier snapshot is bound as it was."""
    now = namespace_snapshot()
    return all(now.get(k) == v for k, v in before.items())


def layer_table(tracer: Tracer) -> tuple[dict[str, dict], dict[str, int]]:
    """Per span name: calls, rows, self seconds and all durations; plus the
    oracle rows evaluated inside sampler spans (at any depth) and the cache
    misses of ``StepPlan.scale_map`` (transforms computed under it)."""
    n = len(tracer.start)
    ids = {name: i for i, name in enumerate(tracer.names)}
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    rows = np.frombuffer(tracer.rows, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    has_parent = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    table = {}
    for name, i in ids.items():
        sel = name_id == i
        table[name] = {"calls": int(sel.sum()), "rows": int(rows[sel].sum()),
                       "self_s": float(self_time[sel].sum()), "durations": dur[sel]}

    sampler_ids = {ids.get(f"samplers.{s}") for s in SAMPLER_NAMES}
    in_sampler = [False] * n
    for idx, p in enumerate(tracer.parent):  # parents precede children
        in_sampler[idx] = p >= 0 and (in_sampler[p] or tracer.name_id[p] in sampler_ids)
    oracle = np.isin(name_id, [ids.get("analytic_flow.velocity", -1),
                               ids.get("analytic_flow.posterior_mean", -1)])
    transform = has_parent & (name_id == ids.get("interpolants.scale_time_transform", -1))
    derived = {
        "sampler_oracle_rows": int(rows[oracle & np.array(in_sampler, dtype=bool)].sum()),
        "scale_map_misses": int(np.sum(name_id[parent[transform]] == ids.get("engine.scale_map", -1))),
    }
    return table, derived

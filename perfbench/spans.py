"""Span recorder and layer wrappers for the traced benchmark run.

The traced run measures each ``repro.*`` layer from the outside: the
wrappers below replace the layers' public entry points with versions
that open a span around the call, and restore the originals when the
iteration ends.  Nothing under ``src/`` is edited.  A span records its
name, start, end (``perf_counter_ns``), parent span and iteration id;
spans stay in memory and are written as JSONL when the run ends.

Counts come from the objects the layers return (``LitmusResult``,
``ExecutionResult``, ``AppRun``, the coordinator's ``WireStats``), read
after the call returns.  ``MemorySystem.reset`` runs once per simulated
execution, so it is counted but not timed.

This module is also imported inside distributed worker subprocesses by
``hook/sitecustomize.py``, so it depends on nothing but the standard
library and ``repro``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, iteration]``
        self.spans: list[list] = []
        #: ``(iteration, name) -> value``
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.iteration = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.iteration])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[(self.iteration, name)] += value

    def absorb(self, path: str, iteration: int) -> None:
        """Merge a worker's span dump, re-homed onto ``iteration``."""
        offset = len(self.spans)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if row["kind"] == "span":
                    parent = row["parent"]
                    self.spans.append([
                        row["name"], row["start"], row["end"],
                        parent + offset if parent >= 0 else -1, iteration,
                    ])
                else:
                    self.counts[(iteration, row["name"])] += row["value"]

    def dump(self, path: str, process: str = "driver") -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, it) in enumerate(self.spans):
                handle.write(json.dumps({
                    "kind": "span", "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "iteration": it,
                    "process": process,
                }) + "\n")
            for (it, name), value in sorted(self.counts.items()):
                handle.write(json.dumps({
                    "kind": "count", "name": name, "value": value,
                    "iteration": it, "process": process,
                }) + "\n")


# -- wrappers ------------------------------------------------------------
def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(name)
        return fn(*args, **kwargs)

    return wrapper


def _after_litmus(prefix: str):
    def after(rec, _args, result):
        rec.add(f"{prefix}_exec", result.executions)
        rec.add(f"{prefix}_weak", result.weak)

    return after


def _after_engine(rec, _args, result):
    rec.add("engine.ticks", result.ticks)
    rec.add("engine.fences", result.n_fences)
    rec.add("engine.swaps", result.n_swaps)
    rec.add("engine.bypasses", result.n_bypasses)


def _after_app_run(rec, _args, run):
    rec.add("apps.errors", 1 if run.erroneous else 0)


def _after_serve(rec, args, _records):
    coordinator = args[0]
    wire = coordinator.wire
    rec.add("dist.raw_bytes", wire.raw_in + wire.raw_out)
    rec.add("dist.wire_bytes", wire.wire_in + wire.wire_out)
    rec.add("dist.units", len(coordinator.units))


def _functions():
    """(function, span name, after-hook) for module-level entry points."""
    from repro.costs.measure import measure_cost
    from repro.gpu.grid import build_grid
    from repro.gpu.memory import memory_tables
    from repro.litmus.runner import run_litmus
    from repro.litmus.vector import run_litmus_vector
    from repro.reporting.tables import render_table
    from repro.store.resume import submit_units
    from repro.testing.campaign import execute_campaign_unit
    from repro.tuning.access import score_sequences
    from repro.tuning.patches import scan_patches
    from repro.tuning.spread import score_spreads

    return [
        (scan_patches, "tuning.patches", None),
        (score_sequences, "tuning.sequences", None),
        (score_spreads, "tuning.spreads", None),
        (run_litmus, "litmus.direct", _after_litmus("litmus.direct")),
        (run_litmus_vector, "litmus.vector", _after_litmus("litmus.vector")),
        (memory_tables, "memory.tables", None),
        (build_grid, "grid.build", None),
        (execute_campaign_unit, "campaign.unit", None),
        (measure_cost, "costs.measure", None),
        (submit_units, "store.submit", None),
        (render_table, "reporting.render", None),
    ]


def _methods():
    """(class, method, span name, after-hook) for class entry points;
    a span name of None means counted, not timed."""
    from repro.apps.base import ApplicationBatch
    from repro.dist.coordinator import Coordinator
    from repro.dist.submit import DistributedSubmit
    from repro.gpu.engine import Engine
    from repro.gpu.memory import MemorySystem
    from repro.hardening.insertion import EmpiricalFenceInserter
    from repro.store.ledger import LedgerWriter, RunLedger
    from repro.stress import strategies

    builds = [
        (cls, "build", "stress.build", None)
        for cls in vars(strategies).values()
        if isinstance(cls, type)
        and cls.__module__ == strategies.__name__
        and "build" in vars(cls)
    ]
    return builds + [
        (MemorySystem, "reset", None, "memory.resets"),
        (Engine, "run", "engine.run", _after_engine),
        (ApplicationBatch, "__init__", "apps.batch_build", None),
        (ApplicationBatch, "run", "apps.run", _after_app_run),
        (EmpiricalFenceInserter, "check_application", "hardening.check", None),
        (RunLedger, "append", "store.append", None),
        (LedgerWriter, "write", "store.write", None),
        (DistributedSubmit, "__call__", "dist.submit", None),
        (Coordinator, "serve", "dist.serve", _after_serve),
    ]


#: Every layer the table of per-layer metrics names, with the span or
#: count that proves the traced run reached it.
LAYER_EVIDENCE = {
    "repro.tuning": "tuning.patches",
    "repro.litmus": "litmus.direct",
    "repro.litmus.vector": "litmus.vector",
    "repro.stress": "stress.build",
    "repro.gpu.memory": "memory.tables",
    "repro.gpu.engine": "engine.run",
    "repro.gpu.grid": "grid.build",
    "repro.apps": "apps.run",
    "repro.testing": "campaign.unit",
    "repro.hardening": "hardening.check",
    "repro.costs": "costs.measure",
    "repro.store": "store.submit",
    "repro.dist": "dist.serve",
    "repro.reporting": "reporting.render",
}


def _replace_everywhere(old, new, undo: list) -> None:
    """Point every ``repro`` module attribute and module-level dict
    value that holds ``old`` at ``new`` (callers import functions by
    name, and executor/backend registries hold them in dicts)."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                undo.append((namespace, attr, old))
                namespace[attr] = new
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is old:
                        undo.append((value, key, old))
                        value[key] = new


class Installation:
    """The wrappers of one recorder; ``remove`` restores the originals."""

    def __init__(self, rec: Recorder) -> None:
        self._undo: list = []
        for fn, name, after in _functions():
            _replace_everywhere(fn, _timed(rec, name, fn, after), self._undo)
        for cls, attr, name, count in _methods():
            original = vars(cls)[attr]
            if name is None:
                wrapped = _counted(rec, count, original)
            else:
                wrapped = _timed(rec, name, original, count)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._undo = []


# -- summaries -----------------------------------------------------------
def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover
    (children of one process nest strictly, so their sum is exact)."""
    child = [0] * len(spans)
    for _name, start, end, parent, _it in spans:
        if parent >= 0:
            child[parent] += end - start
    return [
        (end - start) - child[i]
        for i, (_n, start, end, _p, _it) in enumerate(spans)
    ]


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: (metric, span name, "s" inclusive seconds | "calls")
_SPAN_METRICS = (
    ("tuning.patches_s", "tuning.patches", "s"),
    ("tuning.sequences_s", "tuning.sequences", "s"),
    ("tuning.spreads_s", "tuning.spreads", "s"),
    ("litmus.direct_calls", "litmus.direct", "calls"),
    ("litmus.direct_s", "litmus.direct", "s"),
    ("litmus.vector_s", "litmus.vector", "s"),
    ("stress.build_calls", "stress.build", "calls"),
    ("stress.build_s", "stress.build", "s"),
    ("memory.tables_calls", "memory.tables", "calls"),
    ("memory.tables_s", "memory.tables", "s"),
    ("engine.run_calls", "engine.run", "calls"),
    ("engine.run_s", "engine.run", "s"),
    ("grid.builds", "grid.build", "calls"),
    ("grid.build_s", "grid.build", "s"),
    ("apps.batch_builds", "apps.batch_build", "calls"),
    ("apps.batch_build_s", "apps.batch_build", "s"),
    ("apps.runs", "apps.run", "calls"),
    ("apps.run_s", "apps.run", "s"),
    ("campaign.units", "campaign.unit", "calls"),
    ("hardening.checks", "hardening.check", "calls"),
    ("hardening.check_s", "hardening.check", "s"),
    ("costs.measures", "costs.measure", "calls"),
    ("costs.measure_s", "costs.measure", "s"),
    ("store.submit_s", "store.submit", "s"),
    ("store.appends", "store.append", "calls"),
    ("store.append_s", "store.append", "s"),
    ("store.writes", "store.write", "calls"),
    ("store.write_s", "store.write", "s"),
    ("dist.serve_s", "dist.serve", "s"),
    ("reporting.render_s", "reporting.render", "s"),
)

#: Counters reported as they are, per iteration.
_COUNT_METRICS = (
    "litmus.direct_exec", "litmus.vector_exec", "memory.resets",
    "engine.ticks", "engine.fences", "engine.swaps", "engine.bypasses",
    "hardening.check_runs", "store.ledger_bytes", "dist.raw_bytes",
    "dist.wire_bytes", "dist.units",
)


def iteration_metrics(rec: Recorder, iteration: int) -> dict[str, float]:
    """Every per-layer metric of one traced iteration."""
    spans = [s for s in rec.spans if s[4] == iteration]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _parent, _it in spans:
        seconds[name] += (end - start) / 1e9
        calls[name] += 1
        durations[name].append((end - start) / 1e9)
    out: dict[str, float] = {}
    for metric, span, kind in _SPAN_METRICS:
        out[metric] = seconds[span] if kind == "s" else calls[span]
    counts = {
        name: v for (it, name), v in rec.counts.items() if it == iteration
    }
    for metric in _COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    direct = counts.get("litmus.direct_exec", 0)
    out["litmus.weak_ratio"] = (
        counts.get("litmus.direct_weak", 0) / direct if direct else 0.0
    )
    runs = calls["apps.run"]
    out["apps.error_ratio"] = (
        counts.get("apps.errors", 0) / runs if runs else 0.0
    )
    ticks = counts.get("engine.ticks", 0)
    out["engine.host_ns_per_tick"] = (
        seconds["engine.run"] * 1e9 / ticks if ticks else 0.0
    )
    units = durations["campaign.unit"]
    out["campaign.unit_s_p50"] = statistics.median(units) if units else 0.0
    out["campaign.unit_s_p90"] = _pct(units, 0.9)
    # Spawn: entering the distributed submit until the coordinator
    # serves (worker processes are launched in between); teardown: the
    # coordinator finished until the submit returns (workers stopped).
    spawn = teardown = 0.0
    for name, start, end, parent, it in rec.spans:
        if it == iteration and name == "dist.serve" and parent >= 0:
            outer = rec.spans[parent]
            if outer[0] == "dist.submit":
                spawn += (start - outer[1]) / 1e9
                teardown += (outer[2] - end) / 1e9
    out["dist.spawn_s"] = spawn
    out["dist.teardown_s"] = teardown
    return out


def _unit(metric: str) -> str:
    if metric.endswith(("_s", "_p50", "_p90")):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "fraction"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_per_tick"):
        return "ns/tick"
    if metric.endswith("slowdown"):
        return "x"
    return "count"


#: Every per-layer metric the traced run reports, with its unit and the
#: direction that is better; ``BENCHMARK.json`` lists the same.
PER_LAYER = {
    metric: (_unit(metric), "higher" if metric.endswith("_ratio") else "lower")
    for metric in (
        [m for m, _span, _kind in _SPAN_METRICS]
        + list(_COUNT_METRICS)
        + [
            "litmus.weak_ratio", "apps.error_ratio",
            "engine.host_ns_per_tick", "campaign.unit_s_p50",
            "campaign.unit_s_p90", "dist.spawn_s", "dist.teardown_s",
            "trace.overhead_frac", "host.slowdown", "host.raw_wall_s",
        ]
    )
}


def layer_table(
    rec: Recorder, iterations: list[int], wall_s: float
) -> list[dict]:
    """Per span name over the traced iterations: calls, inclusive and
    self seconds per iteration, and self time as a share of ``wall_s``."""
    selfs = self_times(rec.spans)
    rows: dict[str, dict] = {}
    chosen = set(iterations)
    n = max(1, len(iterations))
    for i, (name, start, end, _parent, it) in enumerate(rec.spans):
        if it not in chosen:
            continue
        row = rows.setdefault(
            name, {"span": name, "calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["incl_s"] += (end - start) / 1e9
        row["self_s"] += selfs[i] / 1e9
    table = []
    for row in sorted(rows.values(), key=lambda r: -r["self_s"]):
        row = {
            "span": row["span"],
            "calls": row["calls"] / n,
            "incl_s": row["incl_s"] / n,
            "self_s": row["self_s"] / n,
        }
        row["self_share_of_wall"] = row["self_s"] / wall_s if wall_s else 0.0
        table.append(row)
    return table


def covered_layers(rec: Recorder) -> set[str]:
    """Layers of :data:`LAYER_EVIDENCE` the recorded spans reached."""
    names = {s[0] for s in rec.spans}
    return {layer for layer, span in LAYER_EVIDENCE.items() if span in names}

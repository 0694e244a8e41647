"""The backend-neutral work-plan layer.

Every grid the experiment harness fans out — campaign run ranges,
tuning grid points, survey cells — reduces to the same currency: a
:class:`WorkUnit`, a fully self-describing, JSON-safe spec of one piece
of work whose result is exactly one ledger
:class:`~repro.store.records.RunRecord` under a deterministic content
key.  Because a unit carries *names and plain data* (chip short names,
test names, serialised stress specs, seeds) rather than live objects,
it can be executed anywhere — in-process, in a local worker pool, or on
a remote machine reached over the :mod:`repro.dist` wire — and the
global-index seeding contract guarantees the result is identical
wherever it runs.

Execution backends consume units through one shape::

    submit(units, config, on_record) -> list[RunRecord]   # unit order

:func:`run_units` is the local backend (a thin adapter over
:func:`~repro.parallel.executor.parallel_map`); the distributed
coordinator (:mod:`repro.dist.coordinator`) is another.  Executors for
each unit kind are registered lazily by the module that owns the domain
logic, so this layer stays import-cycle free and a fresh worker process
(or remote machine) materialises the right executor simply by decoding
the unit.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..errors import ReproError
from .executor import SERIAL, ParallelConfig, parallel_map


@dataclass(frozen=True)
class WorkUnit:
    """One location-independent piece of work.

    * ``kind`` — the ledger record kind the unit produces (also selects
      the executor, e.g. ``campaign-shard`` or ``litmus``);
    * ``key`` — the deterministic content key of the result;
    * ``spec`` — JSON-safe data fully describing the work (names,
      seeds, serialised stress specs — never live objects).
    """

    kind: str
    key: str
    spec: dict

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "key": self.key, "spec": self.spec}

    @classmethod
    def from_json(cls, obj: object) -> "WorkUnit":
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("kind"), str)
            or not isinstance(obj.get("key"), str)
            or not isinstance(obj.get("spec"), dict)
        ):
            raise ReproError(f"malformed work unit: {obj!r}")
        return cls(kind=obj["kind"], key=obj["key"], spec=obj["spec"])


#: kind -> module that registers the executor for that kind on import.
#: Kept as dotted names (not imports) so the plan layer depends on no
#: domain module and worker processes resolve executors on demand.
_EXECUTOR_MODULES = {
    "campaign-shard": "repro.testing.campaign",
    "litmus": "repro.litmus.units",
}

_EXECUTORS: dict[str, Callable[[WorkUnit], Any]] = {}


def register_executor(kind: str, fn: Callable[[WorkUnit], Any]) -> None:
    """Register the executor for one unit kind (idempotent)."""
    _EXECUTORS[kind] = fn


def execute_unit(unit: WorkUnit):
    """Run one unit, returning its :class:`RunRecord`.

    Executors resolve lazily: the first unit of a kind imports the
    owning domain module, which registers itself via
    :func:`register_executor`.  This is what lets a fresh worker
    process — local pool child or remote machine — execute any unit it
    is handed with no setup beyond having the library importable.

    Fault site ``unit.execute`` (token: the unit's content key, so a
    poison unit fails identically on *every* process that tries it):
    ``raise`` throws :class:`~repro.errors.FaultInjected`, ``hang``
    sleeps ``hang_s`` before executing (long enough to expire a
    lease), ``exit`` kills the process without cleanup (the worker
    crash path).
    """
    from ..faults.runtime import fault_at

    event = fault_at("unit.execute", token=unit.key)
    if event is not None:
        if event.kind == "exit":
            import os

            os._exit(int(event.param("exit_code", 41)))
        if event.kind == "hang":
            import time

            time.sleep(float(event.param("hang_s", 60.0)))
        else:
            from ..errors import FaultInjected

            raise FaultInjected("unit.execute", unit.key, event.kind)
    fn = _EXECUTORS.get(unit.kind)
    if fn is None:
        module = _EXECUTOR_MODULES.get(unit.kind)
        if module is not None:
            importlib.import_module(module)
            fn = _EXECUTORS.get(unit.kind)
        if fn is None:
            raise ReproError(
                f"no executor for work-unit kind {unit.kind!r}; "
                f"known kinds: {', '.join(sorted(_EXECUTOR_MODULES))}"
            )
    record = fn(unit)
    if record.key != unit.key:
        raise ReproError(
            f"unit executor for kind {unit.kind!r} returned record key "
            f"{record.key!r} for unit key {unit.key!r}"
        )
    return record


def run_units(
    units: Sequence[WorkUnit],
    config: ParallelConfig = SERIAL,
    on_record: Callable[[int, Any], None] | None = None,
    pool=None,
) -> list:
    """The local execution backend: units through the process pool.

    ``on_record(index, record)`` streams each completed record back in
    completion order (the checkpointing hook).  ``pool`` is the
    :class:`~concurrent.futures.ProcessPoolExecutor` to run in, by
    default :func:`~repro.parallel.executor.shared_pool`'s, so
    successive grids pay the pool spawn cost once.
    """
    return parallel_map(
        execute_unit, list(units), config, on_result=on_record, pool=pool
    )

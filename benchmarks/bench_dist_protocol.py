"""Distributed protocol A/B: synchronous leasing vs pipelined+adaptive.

Lease pipelining plus adaptive lease sizing take the coordinator
round-trip off the worker's critical path: instead of *blocking* on a
request/lease exchange before every unit (one unit per lease, nothing
prefetched: the worst case), a worker prefetches its next lease while
the current one executes and the coordinator batches units toward a
target lease duration.  The synchronous side is the same worker with
every prefetch skipped through the ``worker.prefetch``/``skip`` fault
site and the coordinator fixed at one unit per lease.

This benchmark measures that directly, without needing a second
machine or even a second CPU: the coordinator runs in a thread, the
worker runs in-process via :func:`repro.dist.run_worker`, and wire
latency is injected deterministically with the fault runtime
(``socket.send``/``delay`` on every frame, both directions — the same
production code path chaos testing uses).  Both sides execute the
identical unit grid; the records must match exactly (the byte-identity
contract).  Recorded per side: wall-clock, blocking lease round trips
(:class:`~repro.dist.WorkerStats`), and raw-vs-wire bytes
(:class:`~repro.dist.WireStats`)::

    REPRO_BENCH_JSON=BENCH_throughput.json \
        pytest benchmarks/bench_dist_protocol.py -s

The acceptance floor: the pipelined+adaptive run completes the grid
with at least :data:`_MIN_RT_RATIO` x fewer blocking round trips than
the synchronous one-unit-per-lease run.

Round-trip counts cannot show a stall that both sides pay per unit,
so a second record, ``dist_loopback``, runs the same grid over plain
loopback TCP with no fault plan (adaptive leases) and
compares its wall clock per unit with executing the same units
in-process.  Its ceiling, :data:`_MAX_LOOPBACK_MS_PER_UNIT`, catches a
stalled wire: a Nagle/delayed-ACK stall alone costs tens of
milliseconds per unit.

A third record, ``worker_startup``, is the median wall clock of
:data:`_STARTUP_CALLS` ``DistributedSubmit(workers=1)`` calls that each
serve one tiny unit: a spawned worker's interpreter start-up and
imports, its hello, one unit and the teardown.  It has no bound; it
tracks what every ``--dist`` call pays before any unit can run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

from repro.dist import (
    Coordinator,
    DistributedSubmit,
    WorkerStats,
    run_worker,
    worker_command,
)
from repro.faults import FaultPlan, FaultSpec, install, uninstall
from repro.litmus.units import litmus_unit
from repro.parallel import run_units
from repro.store import litmus_key
from repro.stress.strategies import NoStress

#: Work units in the A/B grid (cycled over the litmus family, unique
#: seeds, tiny execution counts — the wire, not the simulator, is what
#: this benchmark exercises).
_UNITS = int(os.environ.get("REPRO_BENCH_DIST_UNITS", "24"))
_EXECUTIONS = 8
#: Injected one-way per-frame latency (seconds).
_DELAY_S = float(os.environ.get("REPRO_BENCH_DIST_DELAY_S", "0.003"))
#: Acceptance floor: sync blocking round trips / pipelined ones.
_MIN_RT_RATIO = 5.0
#: Acceptance ceiling on the loopback wire: wall clock per unit (ms).
#: The grid executes in about 2 ms per unit in-process.
_MAX_LOOPBACK_MS_PER_UNIT = 10.0
#: Calls the ``worker_startup`` record takes the median of.
_STARTUP_CALLS = 5

_TESTS = ["MP", "SB", "LB", "CoRR", "R", "S", "WRC", "IRIW"]


def _grid(n=_UNITS):
    units = []
    for i in range(n):
        test = _TESTS[i % len(_TESTS)]
        key = litmus_key("K20", test, "no-str", 64, _EXECUTIONS, i)
        units.append(
            litmus_unit(
                key, "K20", test, 64, NoStress(), _EXECUTIONS, seed=i
            )
        )
    return units


def _latency_plan(skip_prefetch=False):
    """Delay every frame; with ``skip_prefetch`` also skip every
    pipelined request, so the worker blocks on each grant."""
    specs = [
        FaultSpec("socket.send", "delay", params={"delay_s": _DELAY_S})
    ]
    if skip_prefetch:
        specs.append(FaultSpec("worker.prefetch", "skip"))
    return FaultPlan(name="bench-wire-latency", seed=1, specs=tuple(specs))


def _run_side(units, units_per_lease, plan=None):
    """One full campaign: coordinator thread + in-process worker, with
    the fault ``plan`` installed for its duration when one is given.

    Returns (wall_s, records, worker_stats, coordinator_wire).
    """
    coordinator = Coordinator(
        units, units_per_lease=units_per_lease, lease_timeout=30.0
    )
    host, port = coordinator.bind()
    box = {}

    def serve():
        box["records"] = coordinator.serve()

    if plan is not None:
        install(plan)
    try:
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        stats = WorkerStats()
        start = time.perf_counter()
        run_worker(host, port, name="bench", stats=stats)
        wall = time.perf_counter() - start
        thread.join(timeout=60)
    finally:
        uninstall()
    assert "records" in box, "coordinator did not finish"
    return wall, box["records"], stats, coordinator.wire


def _blocking_round_trips(stats):
    """Lease-acquisition round trips the worker *waited* on: blocking
    grant requests plus empty-handed wait/retry sleeps.  Prefetched
    grants are excluded by construction — their latency overlapped
    execution."""
    return stats.blocking_grants + stats.wait_sleeps


def test_dist_protocol_ab(bench_json):
    units = _grid()
    # A: one unit per lease, every prefetch skipped — every unit pays a
    # blocking request/lease exchange.
    sync_wall, sync_records, sync_stats, sync_wire = _run_side(
        units, units_per_lease=1, plan=_latency_plan(skip_prefetch=True)
    )
    # B: adaptive lease sizing and pipelined prefetch, as shipped.
    pipe_wall, pipe_records, pipe_stats, pipe_wire = _run_side(
        units, units_per_lease=None, plan=_latency_plan()
    )

    # Byte-identity first: the optimisation must change nothing.
    assert [r.key for r in sync_records] == [r.key for r in pipe_records]
    assert [r.to_json() for r in sync_records] == [
        r.to_json() for r in pipe_records
    ]
    assert sync_stats.executed == pipe_stats.executed == len(units)

    sync_rt = _blocking_round_trips(sync_stats)
    pipe_rt = _blocking_round_trips(pipe_stats)
    ratio = sync_rt / max(1, pipe_rt)

    def side(wall, stats, wire, round_trips):
        return {
            "wall_s": round(wall, 3),
            "blocking_round_trips": round_trips,
            "blocking_grants": stats.blocking_grants,
            "prefetched_grants": stats.prefetched_grants,
            "wait_sleeps": stats.wait_sleeps,
            "leases_served": stats.leases_served,
            "result_parts_streamed": stats.parts_sent,
            "coordinator_raw_bytes": wire.raw_out + wire.raw_in,
            "coordinator_wire_bytes": wire.wire_out + wire.wire_in,
            "compressed_frames": (
                wire.compressed_out + wire.compressed_in
            ),
        }

    bench_json["dist_protocol_ab"] = {
        "units": len(units),
        "injected_delay_ms_per_frame": _DELAY_S * 1000.0,
        "sync_one_unit_leases": side(
            sync_wall, sync_stats, sync_wire, sync_rt
        ),
        "pipelined_adaptive": side(
            pipe_wall, pipe_stats, pipe_wire, pipe_rt
        ),
        "blocking_round_trip_ratio": round(ratio, 1),
        "min_ratio_floor": _MIN_RT_RATIO,
    }

    assert ratio >= _MIN_RT_RATIO, (
        f"pipelined+adaptive still blocked on {pipe_rt} lease round "
        f"trip(s) vs {sync_rt} sync — ratio {ratio:.1f}x is under the "
        f"{_MIN_RT_RATIO:.0f}x floor"
    )
    # Compression must never inflate the wire.
    pipe_total = bench_json["dist_protocol_ab"]["pipelined_adaptive"]
    assert (
        pipe_total["coordinator_wire_bytes"]
        <= pipe_total["coordinator_raw_bytes"]
        + 4 * (pipe_wire.frames_out + pipe_wire.frames_in)
    )
    print(
        f"\ndist protocol A/B ({len(units)} units, "
        f"{_DELAY_S * 1000:.0f}ms/frame injected): "
        f"sync {sync_rt} blocking round trips / {sync_wall:.2f}s, "
        f"pipelined {pipe_rt} / {pipe_wall:.2f}s "
        f"({ratio:.1f}x fewer, {pipe_stats.prefetched_grants} "
        f"prefetched lease(s), "
        f"{pipe_wire.compressed_out + pipe_wire.compressed_in} "
        f"compressed frame(s))"
    )


def test_dist_loopback(bench_json):
    """The same grid over real loopback TCP, no injected latency: what
    one unit costs end to end against executing it in-process."""
    units = _grid()
    reference = run_units(units)  # also warms the memo tables
    started = time.perf_counter()
    run_units(units)
    execute_s = time.perf_counter() - started
    wall, records, stats, wire = _run_side(units, units_per_lease=None)
    assert [r.to_json() for r in records] == [
        r.to_json() for r in reference
    ]
    assert stats.executed == len(units)

    ms_per_unit = wall * 1000.0 / len(units)
    bench_json["dist_loopback"] = {
        "units": len(units),
        "wall_s": round(wall, 3),
        "ms_per_unit": round(ms_per_unit, 2),
        "execute_ms_per_unit": round(execute_s * 1000.0 / len(units), 2),
        "blocking_grants": stats.blocking_grants,
        "prefetched_grants": stats.prefetched_grants,
        "wait_sleeps": stats.wait_sleeps,
        "leases_served": stats.leases_served,
        "coordinator_wire_bytes": wire.wire_out + wire.wire_in,
        "max_ms_per_unit": _MAX_LOOPBACK_MS_PER_UNIT,
    }
    print(f"\ndist loopback: {bench_json['dist_loopback']}")
    assert ms_per_unit < _MAX_LOOPBACK_MS_PER_UNIT, (
        f"loopback wire costs {ms_per_unit:.1f} ms per unit against "
        f"{execute_s * 1000.0 / len(units):.1f} ms in-process; over the "
        f"{_MAX_LOOPBACK_MS_PER_UNIT:.0f} ms ceiling"
    )


def test_worker_startup(bench_json):
    """One spawned worker serving one tiny unit, start to reap."""
    unit = _grid(1)[0]
    walls = []
    for _ in range(_STARTUP_CALLS):
        submit = DistributedSubmit(workers=1)
        started = time.perf_counter()
        records = submit([unit], None, None)
        walls.append(time.perf_counter() - started)
        assert [r.key for r in records] == [unit.key]
        assert [proc.returncode for proc in submit.procs] == [0]
    bench_json["worker_startup"] = {
        "entry": " ".join(worker_command("127.0.0.1", 0, "w")[1:3]),
        "calls": _STARTUP_CALLS,
        "median_s": round(statistics.median(walls), 3),
        "min_s": round(min(walls), 3),
        "max_s": round(max(walls), 3),
    }
    print(f"\nworker start-up: {bench_json['worker_startup']}")

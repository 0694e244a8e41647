"""Table 5: testing-environment effectiveness (Sec. 4).

Runs a reduced campaign — one Kepler chip, all ten applications, four of
the eight environments — and checks the paper's headline findings:

* sys-str+ observes errors in more applications than any
  straightforward environment;
* sdk-red and cub-scan (whose fences are sufficient) never err;
* ls-bh errs even with its fences.

The full 7 x 8 grid is available via
``gpu-wmm experiment table5 --scale default`` (slow).

Set ``REPRO_BENCH_JOBS=N`` to shard the campaign across N worker
processes; the grid statistics (and these assertions) are identical at
any job count.

``test_table5_dist_scaling`` additionally A/Bs the same campaign
through the distributed backend at one vs two socket workers, in
``_DIST_ROUNDS`` alternating rounds, and records each round's wall
clocks and worker CPU seconds plus the median speedup into
``REPRO_BENCH_JSON``.  On single-CPU hosts the A/B is skipped (two
workers time-slicing one core cannot speed anything up) with the reason
logged into the same record.
"""

import os
import resource
import statistics
import time

import pytest

from repro.chips import get_chip
from repro.dist import DistributedSubmit
from repro.reporting.tables import render_table
from repro.testing import run_campaign, table5_summary
from repro.testing.summary import most_capable_environment

ENVS = ("no-str-", "sys-str+", "rand-str-", "cache-str+")

#: Alternating one-worker/two-worker rounds of the dist A/B.
_DIST_ROUNDS = 3


def _campaign(scale, parallel):
    chip = get_chip("K20")
    return run_campaign([chip], environments=list(ENVS), scale=scale,
                        seed=4, parallel=parallel)


def test_table5_k20(benchmark, bench_scale, bench_parallel):
    cells = benchmark.pedantic(
        _campaign, args=(bench_scale, bench_parallel),
        rounds=1, iterations=1,
    )
    table = table5_summary(cells)
    rows = [
        {
            "chip": "K20",
            **{
                env: str(table[("K20", env)])
                for env in ENVS
            },
        }
    ]
    print()
    print(render_table(rows, title="Table 5 (K20 row, 4 environments)"))
    by_app = {
        (c.app, c.environment): c for c in cells
    }
    sys_cell = table[("K20", "sys-str+")]
    print("apps with observed errors under sys-str+:",
          sys_cell.observed_apps)

    assert sys_cell.observed >= 4
    assert most_capable_environment(table, "K20") == "sys-str+"
    for env in ("no-str-", "rand-str-", "cache-str+"):
        assert table[("K20", env)].observed <= sys_cell.observed
    # Fence-sufficient applications never err (paper Sec. 4.3).
    for app in ("sdk-red", "cub-scan"):
        assert by_app[(app, "sys-str+")].errors == 0


def _children_cpu_s() -> float:
    """CPU seconds of this process's finished children (the workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_table5_dist_scaling(bench_scale, bench_json):
    """One vs two distributed workers over the same campaign grid.

    The two halves alternate ``_DIST_ROUNDS`` times so host drift moves
    both alike; the median of the per-round speedups must reach 1.6x.
    Each round records both halves' wall clocks and the CPU seconds
    their workers spent; the byte-identity of every run is asserted as
    a side effect.  The A/B only applies on multi-core hosts — a single
    CPU time-slicing two worker processes proves coordination
    correctness but not throughput, so it is skipped there with the
    reason logged into the JSON artefact.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        reason = (
            f"dist A/B needs >= 2 CPUs for a meaningful speedup; "
            f"host has {cpus}"
        )
        bench_json["dist_table5_ab"] = {
            "skipped": True,
            "reason": reason,
            "cpus": cpus,
        }
        print(f"\ndist A/B skipped: {reason}")
        pytest.skip(reason)

    chip = get_chip("K20")
    args = dict(
        chips=[chip], environments=list(ENVS), scale=bench_scale, seed=4
    )
    reference = None
    rounds = []
    for _ in range(_DIST_ROUNDS):
        wall: dict[int, float] = {}
        cpu: dict[int, float] = {}
        for workers in (1, 2):
            cpu_before = _children_cpu_s()
            started = time.perf_counter()
            cells = run_campaign(
                **args, submit=DistributedSubmit(workers=workers)
            )
            wall[workers] = time.perf_counter() - started
            cpu[workers] = _children_cpu_s() - cpu_before
            if reference is None:
                reference = cells
            assert cells == reference  # worker count never changes results
        rounds.append({
            "wall_s": {str(w): round(wall[w], 3) for w in wall},
            "worker_cpu_s": {str(w): round(cpu[w], 3) for w in cpu},
            "speedup": round(wall[1] / wall[2], 3),
        })

    n_cells = len(reference)
    speedup = statistics.median(r["speedup"] for r in rounds)
    record = {
        "cells": n_cells,
        "cpus": cpus,
        "rounds": rounds,
        "speedup_2_workers": round(speedup, 3),
        "scaling_efficiency": round(speedup / 2, 3),
    }
    bench_json["dist_table5_ab"] = record
    print(f"\ndist A/B: {record}")
    assert speedup >= 1.6

"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one table or figure of the paper
(see docs/ARCHITECTURE.md's per-experiment index) at a reduced scale and
times the underlying computation with pytest-benchmark.  The regenerated
artefact is printed, so running with ``-s`` shows the paper-shaped
output::

    pytest benchmarks/ --benchmark-only -s

Set ``REPRO_BENCH_JOBS=N`` to shard the run loops across N worker
processes (0 = one per CPU).  The regenerated artefacts — and hence
every benchmark assertion — are identical at any job count; only the
timed wall-clock changes, e.g.::

    REPRO_BENCH_JOBS=4 pytest benchmarks/bench_table5_campaign.py -s
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.parallel import ParallelConfig
from repro.scale import SMOKE

try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    # Without the pytest-benchmark plugin (e.g. the minimal CI
    # environment) the artefact checks still matter; substitute a
    # fixture that runs the workload once, untimed.
    class _BenchmarkShim:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1,
                     iterations=1, **_ignored):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _BenchmarkShim()


@pytest.fixture(scope="session")
def bench_json():
    """Session-wide JSON record emitter.

    Benchmarks deposit structured measurements into the yielded dict
    (``bench_json["name"] = {...}``); at session end the collected
    records are written to the path named by ``REPRO_BENCH_JSON`` (e.g.
    ``REPRO_BENCH_JSON=BENCH_throughput.json``).  Without the variable
    the records are simply discarded, so the benchmarks run unchanged
    in plain interactive use.

    An existing file is merged into, not overwritten, so separate
    benchmark invocations (e.g. the throughput and dist-scaling CI
    steps) can deposit into one artefact; records from this session win
    on key collisions.
    """
    records: dict[str, object] = {}
    yield records
    path = os.environ.get("REPRO_BENCH_JSON")
    if path and records:
        merged: dict[str, object] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if isinstance(existing, dict):
                merged.update(existing)
        except (OSError, ValueError):
            pass
        merged.update(records)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")


@pytest.fixture
def bench_jobs():
    """Worker processes for the benchmark run loops (REPRO_BENCH_JOBS)."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture
def bench_parallel(bench_jobs):
    """ParallelConfig shared by every benchmark harness."""
    return ParallelConfig(jobs=bench_jobs)


@pytest.fixture
def bench_scale():
    """Scale used by the benchmark harness (kept small; the CLI can
    regenerate any artefact at ``default`` or ``paper`` scale)."""
    return SMOKE


@pytest.fixture
def tiny_scale():
    """Extra-small grids for the heaviest pipelines."""
    return dataclasses.replace(
        SMOKE,
        max_distance=192,
        distance_step=32,
        max_location=160,
        location_step=16,
        executions=40,
        seq_distance_step=64,
        seq_executions=48,
        max_sequence_length=4,
        spread_distance_step=32,
        spread_executions=96,
        max_spread=12,
        campaign_runs=12,
        stability_runs=60,
    )

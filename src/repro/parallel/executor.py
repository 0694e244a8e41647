"""The process-pool executor and work-sharding helpers.

``parallel_map`` is deliberately minimal: ordered results, chunked
submission, and a serial fast path that never touches multiprocessing.
Harness code stays correct-by-construction because per-item seeds are
derived from global indices (see the package docstring), so the only
job of this module is to move picklable work specs to workers and bring
shard records back.
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from ..errors import ReproError, ResultHookError

#: Target number of work batches per worker: more batches smooth load
#: imbalance, fewer reduce dispatch overhead.  Chunking never affects
#: results (the determinism contract), only wall-clock.
CHUNKS_PER_JOB = 4


@dataclass(frozen=True)
class ParallelConfig:
    """Worker-pool knobs shared by every parallel harness.

    * ``jobs`` — worker processes; ``1`` means serial in-process
      execution (the default everywhere), ``0`` means one per CPU.
    """

    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ReproError(
                f"jobs must be >= 0 (0 = one per CPU), got {self.jobs}"
            )

    def resolve_jobs(self) -> int:
        """The concrete worker count (``0`` resolved to the CPU count)."""
        if self.jobs == 0:
            return os.cpu_count() or 1
        return self.jobs

    @property
    def serial(self) -> bool:
        """True when execution stays in-process."""
        return self.resolve_jobs() <= 1


#: The default configuration: everything runs in-process.
SERIAL = ParallelConfig(jobs=1)


def jobs_arg(value: str) -> int:
    """argparse type for a ``--jobs`` option: a worker count as
    :class:`ParallelConfig` reads it (``0`` = one per CPU)."""
    import argparse

    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}"
        ) from None
    if n < 0:
        raise argparse.ArgumentTypeError(
            "jobs must be >= 0 (0 = one per CPU)"
        )
    return n


def resolve_config(parallel: ParallelConfig | None, scale=None) -> ParallelConfig:
    """Effective configuration for a harness call.

    An explicit ``parallel`` argument wins; otherwise the ``jobs`` knob
    of the supplied :class:`~repro.scale.Scale` (when present) is used,
    falling back to serial execution.
    """
    if parallel is not None:
        return parallel
    jobs = getattr(scale, "jobs", 1) if scale is not None else 1
    return SERIAL if jobs == 1 else ParallelConfig(jobs=jobs)


def shard_ranges(
    n: int, config: ParallelConfig
) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``(start, stop)`` shards.

    Serial configurations get a single shard.  Parallel configurations
    get about :data:`CHUNKS_PER_JOB` shards per worker (never more than
    ``n``), sized within one item of each other.  Shard boundaries are a
    pure function of ``(n, config)`` but, by the determinism contract,
    results must not depend on them anyway.
    """
    if n < 0:
        raise ReproError(f"cannot shard a negative range ({n})")
    if n == 0:
        return []
    if config.serial:
        return [(0, n)]
    n_shards = min(n, config.resolve_jobs() * CHUNKS_PER_JOB)
    base, extra = divmod(n, n_shards)
    ranges = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


#: Long-lived pools shared across grid submissions, keyed by worker
#: count.  A campaign or tuning pipeline issues many parallel maps in
#: sequence (one per grid, one per resumed run range); re-spawning a
#: process pool for each costs a measurable fraction of small cells, so
#: the grid layers reuse one pool per worker count instead.
_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}


def shared_pool(config: ParallelConfig) -> ProcessPoolExecutor | None:
    """A lazily created, cached pool for ``config`` (None when serial).

    The pool persists across calls (closed at interpreter exit or via
    :func:`close_shared_pools`); pass it to :func:`parallel_map`'s
    ``pool`` argument.  Results never depend on pool reuse — only the
    spawn overhead changes.
    """
    if config.serial:
        return None
    workers = config.resolve_jobs()
    pool = _SHARED_POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _SHARED_POOLS[workers] = pool
    return pool


def close_shared_pools() -> None:
    """Shut down every cached shared pool (tests; interpreter exit)."""
    pools = list(_SHARED_POOLS.values())
    _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(close_shared_pools)


def _report(
    on_result: Callable[[int, object], None], index: int, result: object
) -> None:
    """Invoke the streaming hook, converting failures to a typed error.

    The hook is the ledger's checkpoint path; a bare exception from it
    would surface as an anonymous traceback mid-campaign.  Instead it
    aborts as :class:`~repro.errors.ResultHookError` carrying the work
    item's index (hooks that know their content key raise
    ``ResultHookError`` themselves and pass through untouched).
    """
    try:
        on_result(index, result)
    except ResultHookError:
        raise
    except Exception as exc:
        raise ResultHookError(index=index, detail=str(exc)) from exc


def parallel_map(
    fn: Callable,
    items: Iterable,
    config: ParallelConfig = SERIAL,
    on_result: Callable[[int, object], None] | None = None,
    pool: ProcessPoolExecutor | None = None,
) -> list:
    """Apply ``fn`` to every item, preserving input order.

    With a serial configuration (or at most one item) this is a plain
    in-process loop — no pool, no pickling.  Otherwise items are
    dispatched to a process pool in chunks; ``fn`` must be defined at
    module level and every item must be picklable (pass registry-backed
    specs, not live engines).

    ``on_result(index, result)`` is invoked in the parent process as
    each result becomes available — the hook the run ledger uses to
    checkpoint completed shards before the full map finishes.  Under a
    serial configuration the callback fires in input order; under a
    process pool it fires per completed *chunk* in completion order
    (never input order), so a slow early chunk cannot delay the
    checkpointing of finished later ones.  The callback cannot alter
    the returned results; an exception it raises aborts the map as a
    typed :class:`~repro.errors.ResultHookError` naming the work item
    (results already reported stay reported, which is exactly the
    at-least-this-much durability a checkpoint stream wants).

    ``pool`` optionally supplies an existing
    :class:`~concurrent.futures.ProcessPoolExecutor` to dispatch into
    (see :func:`shared_pool`); without it the call spawns and tears
    down its own pool, exactly as before.
    """
    work: Sequence = items if isinstance(items, Sequence) else list(items)
    if config.serial or len(work) <= 1:
        out = []
        for index, item in enumerate(work):
            result = fn(item)
            if on_result is not None:
                _report(on_result, index, result)
            out.append(result)
        return out
    workers = min(config.resolve_jobs(), len(work))
    chunksize = max(1, len(work) // (workers * CHUNKS_PER_JOB))
    if pool is not None:
        return _pooled_map(fn, work, chunksize, on_result, pool)
    with ProcessPoolExecutor(max_workers=workers) as own_pool:
        return _pooled_map(fn, work, chunksize, on_result, own_pool)


def _pooled_map(
    fn: Callable,
    work: Sequence,
    chunksize: int,
    on_result: Callable[[int, object], None] | None,
    pool: ProcessPoolExecutor,
) -> list:
    """Dispatch chunks of ``work`` into ``pool`` (order-preserving)."""
    out: list = [None] * len(work)
    futures = {
        pool.submit(_apply_chunk, fn, work[start:start + chunksize]):
            start
        for start in range(0, len(work), chunksize)
    }
    for future in as_completed(futures):
        start = futures[future]
        for offset, result in enumerate(future.result()):
            if on_result is not None:
                _report(on_result, start + offset, result)
            out[start + offset] = result
    return out


def _apply_chunk(fn: Callable, chunk: Sequence) -> list:
    """Worker-side body of one :func:`parallel_map` chunk."""
    return [fn(item) for item in chunk]

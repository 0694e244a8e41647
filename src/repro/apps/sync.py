"""Device-side synchronisation primitives used by the case studies.

These mirror the custom spinlocks of the paper's applications (e.g. the
``lock``/``unlock`` of CUDA by Example, paper Fig. 1).  Note that, as in
CUDA, atomics are *not* fences: without an explicit ``__threadfence``
the critical section's ordinary stores can still be buffered when the
releasing ``atomicExch`` becomes visible — that is precisely the weak
memory bug these applications exhibit.

All functions are device generators spanning one or more operations:
call them with ``yield from``.  Each memory access inside is one plain
``yield`` of the op a :class:`ThreadContext` constructor builds.
"""

from __future__ import annotations

from ..gpu.addresses import Buffer
from ..gpu.thread import ThreadContext

#: Spin back-off between lock attempts, in compute cycles.
_BACKOFF_CYCLES = 2


def lock(ctx: ThreadContext, mutex: Buffer, idx: int = 0):
    """Acquire a spinlock: ``while (atomicCAS(mutex, 0, 1) != 0);``."""
    while True:
        old = yield ctx.atomic_cas(mutex, idx, 0, 1)
        if old == 0:
            return
        yield from ctx.compute(_BACKOFF_CYCLES)


def unlock(ctx: ThreadContext, mutex: Buffer, idx: int = 0):
    """Release a spinlock: ``atomicExch(mutex, 0)``."""
    yield ctx.atomic_exch(mutex, idx, 0)


def spin_until_equal(ctx: ThreadContext, flag: Buffer, idx: int,
                     value, site: str | None = None):
    """Poll a flag until it holds ``value`` (MP-style handshake read)."""
    while True:
        seen = yield ctx.load(flag, idx, site=site)
        if seen == value:
            return
        yield from ctx.compute(_BACKOFF_CYCLES)


def spin_until_at_least(ctx: ThreadContext, counter: Buffer, idx: int,
                        value, site: str | None = None):
    """Poll a counter until it reaches at least ``value``."""
    while True:
        seen = yield ctx.load(counter, idx, site=site)
        if seen >= value:
            return
        yield from ctx.compute(_BACKOFF_CYCLES)

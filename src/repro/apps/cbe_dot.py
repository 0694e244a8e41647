"""cbe-dot: the dot product of CUDA by Example (paper Fig. 1).

Each block accumulates a partial dot product (the book does this in
shared memory; we model the block-local reduction with an atomic into a
per-block cell, which has the same — safe — semantics), then the block
leader adds the partial into the global result ``*c`` inside a critical
section guarded by a custom spinlock.

The weak memory bug: the store to ``*c`` can still be buffered when the
releasing ``atomicExch`` becomes visible, so the next lock holder reads
a stale ``*c`` and the update is lost.  The fix the paper's empirical
fence insertion finds is a single ``__threadfence`` after the critical
store (equivalently, at the start of ``unlock``).

Fence sites follow the four global memory accesses of the original
kernel: the two input loads and the critical-section load/store of
``*c`` (shared-memory accesses take no device fences).
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch
from .sync import lock, unlock

#: Problem size and launch geometry (small enough to simulate quickly,
#: large enough for real inter-block contention on the lock).
N = 1536
GRID_DIM = 12
BLOCK_DIM = 16
WARP_SIZE = 8

SITE_LOAD_A = "cbe-dot:load-a"
SITE_LOAD_B = "cbe-dot:load-b"
SITE_LOAD_C = "cbe-dot:load-c"
SITE_STORE_C = "cbe-dot:store-c"


def dot_kernel(ctx: ThreadContext, a, b, c, mutex, blocksum, n):
    """The ``dot`` kernel of the paper's Fig. 1."""
    tid = ctx.global_tid()
    temp = 0
    while tid < n:
        av = yield ctx.load(a, tid, site=SITE_LOAD_A)
        bv = yield ctx.load(b, tid, site=SITE_LOAD_B)
        temp += av * bv
        tid += ctx.n_threads
    # Block-local reduction (shared memory in the original).
    yield ctx.atomic_add(blocksum, ctx.block_id, temp)
    yield ctx.syncthreads()
    if ctx.tid == 0:
        partial = yield ctx.load(blocksum, ctx.block_id)
        yield from lock(ctx, mutex)
        current = yield ctx.load(c, 0, site=SITE_LOAD_C)
        yield ctx.store(c, 0, current + partial, site=SITE_STORE_C)
        yield from unlock(ctx, mutex)


class CbeDot(Application):
    """The cbe-dot case study."""

    name = "cbe-dot"
    description = "Dot product routine from the book CUDA by Example"
    communication = (
        "Global final reduction across blocks protected by a custom mutex"
    )
    postcondition = "GPU result matches a CPU reference result"
    base_fences = frozenset()

    def sites(self) -> tuple[str, ...]:
        return (SITE_LOAD_A, SITE_LOAD_B, SITE_LOAD_C, SITE_STORE_C)

    def required_sites(self) -> frozenset[str]:
        return frozenset({SITE_STORE_C})

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        a = space.alloc("a", N)
        b = space.alloc("b", N)
        c = space.alloc("c", 1)
        mutex = space.alloc("mutex", 1)
        blocksum = space.alloc("blocksum", GRID_DIM)

        a_vals = [(i % 7) + 1 for i in range(N)]
        b_vals = [(i % 5) + 1 for i in range(N)]
        mem.host_fill(a, a_vals)
        mem.host_fill(b, b_vals)
        mem.host_write(c, 0, 0)
        mem.host_write(mutex, 0, 0)
        mem.host_fill(blocksum, [0] * GRID_DIM)

        expected = sum(x * y for x, y in zip(a_vals, b_vals))
        kernel = Kernel(
            name="dot", fn=dot_kernel, args=(a, b, c, mutex, blocksum, N)
        )
        config = LaunchConfig(
            grid_dim=GRID_DIM, block_dim=BLOCK_DIM, warp_size=WARP_SIZE
        )

        def check(memory: MemorySystem) -> bool:
            return memory.host_read(c, 0) == expected

        return [(kernel, config)], check

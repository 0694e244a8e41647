"""sdk-red: the threadfence reduction of the CUDA SDK (Tab. 4).

Every block reduces its slice, stores the partial result to global
memory, and bumps an atomic counter; the block that sees the counter
reach ``gridDim - 1`` is last and combines all partials.  The SDK sample
places a ``__threadfence`` between the partial store and the counter
increment; without it (the ``sdk-red-nf`` variant) the increment can
overtake the buffered partial store, so the last block reads a stale
partial and produces a wrong total.

The paper observed no errors for sdk-red (its fence is sufficient) and
errors for sdk-red-nf under tuned stress.
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch

N = 1024
GRID_DIM = 8
BLOCK_DIM = 16
WARP_SIZE = 8

SITE_LOAD_IN = "sdk-red:load-in"
SITE_STORE_PARTIAL = "sdk-red:store-partial"
SITE_LOAD_PARTIAL = "sdk-red:load-partial"
SITE_STORE_OUT = "sdk-red:store-out"


def reduce_kernel(ctx: ThreadContext, data, partial, counter, out,
                  blocksum, n):
    """Two-phase reduction with a last-block atomic counter."""
    tid = ctx.global_tid()
    acc = 0
    while tid < n:
        v = yield ctx.load(data, tid, site=SITE_LOAD_IN)
        acc += v
        tid += ctx.n_threads
    # Block-local reduction (shared memory in the SDK sample).
    yield ctx.atomic_add(blocksum, ctx.block_id, acc)
    yield ctx.syncthreads()
    if ctx.tid != 0:
        return
    mine = yield ctx.load(blocksum, ctx.block_id)
    yield ctx.store(partial, ctx.block_id, mine, site=SITE_STORE_PARTIAL)
    old = yield ctx.atomic_add(counter, 0, 1)
    if old == ctx.grid_dim - 1:
        total = 0
        for b in range(ctx.grid_dim):
            p = yield ctx.load(partial, b, site=SITE_LOAD_PARTIAL)
            total += p
        yield ctx.store(out, 0, total, site=SITE_STORE_OUT)


class SdkRed(Application):
    """The sdk-red case study (pass ``with_fences=False`` for -nf)."""

    description = "Reduction routine from the CUDA 7 SDK"
    communication = (
        "Last block (via atomic counter) combines block-local results"
    )
    postcondition = "GPU result matches a CPU reference result"

    def __init__(self, with_fences: bool = True):
        self.with_fences = with_fences
        self.name = "sdk-red" if with_fences else "sdk-red-nf"
        self.base_fences = (
            frozenset({SITE_STORE_PARTIAL}) if with_fences else frozenset()
        )

    def sites(self) -> tuple[str, ...]:
        return (
            SITE_LOAD_IN,
            SITE_STORE_PARTIAL,
            SITE_LOAD_PARTIAL,
            SITE_STORE_OUT,
        )

    def required_sites(self) -> frozenset[str]:
        return frozenset({SITE_STORE_PARTIAL})

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        data = space.alloc("data", N)
        partial = space.alloc("partial", GRID_DIM)
        counter = space.alloc("counter", 1)
        out = space.alloc("out", 1)
        blocksum = space.alloc("blocksum", GRID_DIM)

        values = [(i % 11) + 1 for i in range(N)]
        mem.host_fill(data, values)
        mem.host_fill(partial, [0] * GRID_DIM)
        mem.host_write(counter, 0, 0)
        mem.host_write(out, 0, -1)
        mem.host_fill(blocksum, [0] * GRID_DIM)
        expected = sum(values)

        kernel = Kernel(
            name="reduce",
            fn=reduce_kernel,
            args=(data, partial, counter, out, blocksum, N),
        )
        config = LaunchConfig(
            grid_dim=GRID_DIM, block_dim=BLOCK_DIM, warp_size=WARP_SIZE
        )

        def check(memory: MemorySystem) -> bool:
            return memory.host_read(out, 0) == expected

        return [(kernel, config)], check

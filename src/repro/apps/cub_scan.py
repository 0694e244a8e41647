"""cub-scan: prefix scan with decoupled lookback (CUB library, Tab. 4).

Blocks communicate partial results through two MP-style handshakes:

1. every block publishes its local *aggregate*, then sets an aggregate
   flag;
2. every block waits for its predecessor's flags, computes its exclusive
   prefix as ``prefix[b-1] + aggregate[b-1]``, publishes it, then sets a
   prefix flag.

CUB guards each publish with a ``__threadfence``; the ``cub-scan-nf``
variant removes both.  Without them the flag store can drain before the
published value, so the successor block reads a stale aggregate or
prefix and the scan is wrong.  The paper found exactly these two fences
by empirical insertion on the fence-free variant, and no errors in the
fenced original.
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch
from .sync import spin_until_equal

N = 1024
GRID_DIM = 12
BLOCK_DIM = 16
WARP_SIZE = 8

SITE_LOAD_IN = "cub-scan:load-in"
SITE_STORE_AGG = "cub-scan:store-aggregate"
SITE_STORE_FLAG_A = "cub-scan:store-flag-a"
SITE_LOAD_FLAG_A = "cub-scan:load-flag-a"
SITE_LOAD_AGG = "cub-scan:load-aggregate"
SITE_STORE_PREFIX = "cub-scan:store-prefix"
SITE_STORE_FLAG_P = "cub-scan:store-flag-p"
SITE_LOAD_FLAG_P = "cub-scan:load-flag-p"
SITE_LOAD_PREFIX = "cub-scan:load-prefix"
SITE_STORE_OUT = "cub-scan:store-out"


def scan_kernel(ctx: ThreadContext, data, agg, flag_a, prefix, flag_p,
                out, blocksum, n):
    """Decoupled-lookback exclusive scan over block aggregates."""
    tid = ctx.global_tid()
    acc = 0
    while tid < n:
        v = yield ctx.load(data, tid, site=SITE_LOAD_IN)
        acc += v
        tid += ctx.n_threads
    yield ctx.atomic_add(blocksum, ctx.block_id, acc)
    yield ctx.syncthreads()
    b = ctx.block_id
    if ctx.tid == 0:
        # Handshake 1: thread 0 publishes the block aggregate.
        local = yield ctx.load(blocksum, b)
        yield ctx.store(agg, b, local, site=SITE_STORE_AGG)
        yield ctx.store(flag_a, b, 1, site=SITE_STORE_FLAG_A)
        return
    if ctx.tid != 1:
        return
    # Handshake 2: thread 1 performs the lookback (CUB splits the
    # publish and lookback roles across threads of the block), consuming
    # the predecessor's aggregate as soon as its flag appears, then
    # chaining the exclusive prefix.
    if b == 0:
        excl = 0
    else:
        yield from spin_until_equal(ctx, flag_a, b - 1, 1,
                                    site=SITE_LOAD_FLAG_A)
        prev_agg = yield ctx.load(agg, b - 1, site=SITE_LOAD_AGG)
        yield from spin_until_equal(ctx, flag_p, b - 1, 1,
                                    site=SITE_LOAD_FLAG_P)
        prev_prefix = yield ctx.load(prefix, b - 1,
                                          site=SITE_LOAD_PREFIX)
        excl = prev_prefix + prev_agg
    yield ctx.store(prefix, b, excl, site=SITE_STORE_PREFIX)
    yield ctx.store(flag_p, b, 1, site=SITE_STORE_FLAG_P)
    yield ctx.store(out, b, excl, site=SITE_STORE_OUT)


class CubScan(Application):
    """The cub-scan case study (pass ``with_fences=False`` for -nf)."""

    description = "Prefix scan from the CUB GPU library"
    communication = (
        "Blocks communicate partial results using MP-style handshake"
    )
    postcondition = "GPU result matches a CPU reference result"

    def __init__(self, with_fences: bool = True):
        self.with_fences = with_fences
        self.name = "cub-scan" if with_fences else "cub-scan-nf"
        self.base_fences = (
            frozenset({SITE_STORE_AGG, SITE_STORE_PREFIX})
            if with_fences
            else frozenset()
        )

    def sites(self) -> tuple[str, ...]:
        return (
            SITE_LOAD_IN,
            SITE_STORE_AGG,
            SITE_STORE_FLAG_A,
            SITE_LOAD_FLAG_P,
            SITE_LOAD_PREFIX,
            SITE_LOAD_FLAG_A,
            SITE_LOAD_AGG,
            SITE_STORE_PREFIX,
            SITE_STORE_FLAG_P,
            SITE_STORE_OUT,
        )

    def required_sites(self) -> frozenset[str]:
        return frozenset({SITE_STORE_AGG, SITE_STORE_PREFIX})

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        data = space.alloc("data", N)
        agg = space.alloc("aggregate", GRID_DIM)
        flag_a = space.alloc("flag-a", GRID_DIM)
        prefix = space.alloc("prefix", GRID_DIM)
        flag_p = space.alloc("flag-p", GRID_DIM)
        out = space.alloc("out", GRID_DIM)
        blocksum = space.alloc("blocksum", GRID_DIM)

        values = [(i % 9) + 1 for i in range(N)]
        mem.host_fill(data, values)
        for buf in (agg, flag_a, prefix, flag_p, blocksum):
            mem.host_fill(buf, [0] * GRID_DIM)
        mem.host_fill(out, [-1] * GRID_DIM)

        # Reference: with a grid-stride loop of stride n_threads, block b
        # accumulates exactly its strided slice; compute it faithfully.
        block_sums = [0] * GRID_DIM
        n_threads = GRID_DIM * BLOCK_DIM
        for i, v in enumerate(values):
            block_sums[(i % n_threads) // BLOCK_DIM] += v
        expected = [0] * GRID_DIM
        for b in range(1, GRID_DIM):
            expected[b] = expected[b - 1] + block_sums[b - 1]

        kernel = Kernel(
            name="scan",
            fn=scan_kernel,
            args=(data, agg, flag_a, prefix, flag_p, out, blocksum, N),
        )
        config = LaunchConfig(
            grid_dim=GRID_DIM, block_dim=BLOCK_DIM, warp_size=WARP_SIZE
        )

        def check(memory: MemorySystem) -> bool:
            got = [memory.host_read(out, b) for b in range(GRID_DIM)]
            return got == expected

        return [(kernel, config)], check

"""cbe-ht: the concurrent hashtable of CUDA by Example (Tab. 4).

Threads insert keys into chained buckets, each bucket guarded by a
custom spinlock.  The weak memory bug mirrors cbe-dot's: the releasing
``atomicExch`` can overtake the buffered bucket-head store, so the next
inserter reads a stale head and one of the two entries is lost from the
chain — violating the post-condition that every inserted element is in
the final table.

A single fence after the bucket-head store (covering, by the fence's
drain semantics, the entry stores before it) hardens the application —
the paper's empirical insertion likewise reduced cbe-ht to one fence.
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch
from .sync import lock, unlock

N_KEYS = 96
N_BUCKETS = 8
GRID_DIM = 12
BLOCK_DIM = 8
WARP_SIZE = 8
#: Sentinel for "end of chain" (entry indices are stored +1).
NIL = 0

SITE_STORE_KEY = "cbe-ht:store-key"
SITE_LOAD_HEAD = "cbe-ht:load-head"
SITE_STORE_NEXT = "cbe-ht:store-next"
SITE_STORE_HEAD = "cbe-ht:store-head"


def hashtable_kernel(ctx: ThreadContext, keys, nxt, buckets, mutexes,
                     alloc, n):
    """Each thread inserts key ``global_tid`` into the hashtable."""
    gtid = ctx.global_tid()
    if gtid >= n:
        return
    key = gtid
    bucket = key % N_BUCKETS
    entry = yield ctx.atomic_add(alloc, 0, 1)
    yield ctx.store(keys, entry, key, site=SITE_STORE_KEY)
    yield from lock(ctx, mutexes, bucket)
    head = yield ctx.load(buckets, bucket, site=SITE_LOAD_HEAD)
    yield ctx.store(nxt, entry, head, site=SITE_STORE_NEXT)
    yield ctx.store(buckets, bucket, entry + 1, site=SITE_STORE_HEAD)
    yield from unlock(ctx, mutexes, bucket)


class CbeHt(Application):
    """The cbe-ht case study."""

    name = "cbe-ht"
    description = "Concurrent hashtable from the book CUDA by Example"
    communication = (
        "Concurrent hashtable insertion protected by custom mutexes"
    )
    postcondition = (
        "All elements inserted into the hashtable are in the final "
        "hashtable"
    )
    base_fences = frozenset()

    def sites(self) -> tuple[str, ...]:
        return (
            SITE_STORE_KEY,
            SITE_LOAD_HEAD,
            SITE_STORE_NEXT,
            SITE_STORE_HEAD,
        )

    def required_sites(self) -> frozenset[str]:
        return frozenset({SITE_STORE_HEAD})

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        keys = space.alloc("keys", N_KEYS)
        nxt = space.alloc("next", N_KEYS)
        buckets = space.alloc("buckets", N_BUCKETS)
        mutexes = space.alloc("mutexes", N_BUCKETS)
        alloc = space.alloc("alloc", 1)

        mem.host_fill(keys, [-1] * N_KEYS)
        mem.host_fill(nxt, [NIL] * N_KEYS)
        mem.host_fill(buckets, [NIL] * N_BUCKETS)
        mem.host_fill(mutexes, [0] * N_BUCKETS)
        mem.host_write(alloc, 0, 0)

        kernel = Kernel(
            name="hashtable-insert",
            fn=hashtable_kernel,
            args=(keys, nxt, buckets, mutexes, alloc, N_KEYS),
        )
        config = LaunchConfig(
            grid_dim=GRID_DIM, block_dim=BLOCK_DIM, warp_size=WARP_SIZE
        )

        def check(memory: MemorySystem) -> bool:
            found: set[int] = set()
            for b in range(N_BUCKETS):
                cursor = memory.host_read(buckets, b)
                steps = 0
                while cursor != NIL:
                    steps += 1
                    if steps > N_KEYS:  # corrupted chain (cycle)
                        return False
                    entry = cursor - 1
                    if not 0 <= entry < N_KEYS:
                        return False
                    key = memory.host_read(keys, entry)
                    if key in found:
                        return False
                    found.add(key)
                    cursor = memory.host_read(nxt, entry)
            return found == set(range(N_KEYS))

        return [(kernel, config)], check

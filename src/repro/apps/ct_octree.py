"""ct-octree: octree partitioning with non-blocking queues (Tab. 4).

Worker blocks partition particles into per-octant queues: a slot is
claimed with an atomic tail increment, the particle is written into the
slot with a plain store, and completion is signalled through an atomic
``done`` counter.  A builder block (in the same kernel, as in the
Cederman-Tsigas design where blocks consume each other's queues) waits
for all enqueues and assembles the octree nodes from the queues.

The weak memory bug: the slot's publishing ``atomicExch`` on the ready
flag can overtake the buffered particle store, so the builder — which
consumes the queues concurrently, as the worker blocks of the original
do — observes a published slot but reads a stale (empty) item, and the
particle is lost from the octree.  One fence after the item store
hardens the application — matching the paper's single-fence reduction
for ct-octree.

(The paper also found non-weak-memory bugs in this application —
improper memory initialisation and out-of-bounds queue accesses — and
patched them before the study; our implementation is the patched shape:
queues are initialised and slot indices bounds-checked by construction.)
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch

N_PARTICLES = 64
N_OCTANTS = 4
GRID_DIM = 9  # 8 worker blocks + 1 builder block
BLOCK_DIM = 8
WARP_SIZE = 8
#: Particle ids are stored +1 so that 0 means "empty slot".
EMPTY = 0

SITE_STORE_ITEM = "ct-octree:store-item"
SITE_LOAD_ITEM = "ct-octree:load-item"
SITE_STORE_NODE = "ct-octree:store-node"


def _octant(x: int, y: int) -> int:
    return (2 if y >= 8 else 0) + (1 if x >= 8 else 0)


def octree_kernel(ctx: ThreadContext, px, py, q_items, q_flags, q_tail,
                  octree, n):
    """Workers enqueue particles per octant; a builder block consumes
    the queues concurrently, slot by slot, as slots are published."""
    if ctx.block_id == ctx.grid_dim - 1:
        # Builder block: every thread consumes a strided slice of the
        # queue slots as they are published, so published items are
        # read promptly (the original's worker blocks likewise consume
        # the queues while they are being filled).
        consumed: set[int] = set()
        while True:
            tails = []
            for quad in range(N_OCTANTS):
                t = yield ctx.load(q_tail, quad)
                tails.append(min(t, n))
            pending = False
            for quad in range(N_OCTANTS):
                for slot in range(ctx.tid, tails[quad], ctx.block_dim):
                    j = quad * n + slot
                    if j in consumed:
                        continue
                    ready = yield ctx.load(q_flags, j)
                    if ready != 1:
                        pending = True
                        continue
                    item = yield ctx.load(
                        q_items, j, site=SITE_LOAD_ITEM
                    )
                    yield ctx.store(
                        octree, j, item, site=SITE_STORE_NODE
                    )
                    consumed.add(j)
            if sum(tails) >= n and not pending:
                return

    worker_threads = (ctx.grid_dim - 1) * ctx.block_dim
    tid = ctx.global_tid()
    p = tid
    while p < n:
        x = yield ctx.load(px, p)
        y = yield ctx.load(py, p)
        quad = _octant(x, y)
        slot = yield ctx.atomic_add(q_tail, quad, 1)
        yield ctx.store(
            q_items, quad * n + slot, p + 1, site=SITE_STORE_ITEM
        )
        # Publish the slot (atomics are not fences: this can overtake
        # the item store above).
        yield ctx.atomic_exch(q_flags, quad * n + slot, 1)
        p += worker_threads


class CtOctree(Application):
    """The ct-octree case study."""

    name = "ct-octree"
    description = (
        "Octree partitioning routine by Cederman and Tsigas"
    )
    communication = "Concurrent access to non-blocking queues"
    postcondition = "All original particles are in final octree"
    base_fences = frozenset()

    def sites(self) -> tuple[str, ...]:
        return (SITE_STORE_ITEM, SITE_LOAD_ITEM, SITE_STORE_NODE)

    def required_sites(self) -> frozenset[str]:
        return frozenset({SITE_STORE_ITEM})

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        px = space.alloc("px", N_PARTICLES)
        py = space.alloc("py", N_PARTICLES)
        q_items = space.alloc("q-items", N_OCTANTS * N_PARTICLES)
        q_flags = space.alloc("q-flags", N_OCTANTS * N_PARTICLES)
        q_tail = space.alloc("q-tail", N_OCTANTS)
        octree = space.alloc("octree", N_OCTANTS * N_PARTICLES)

        xs = [(i * 5) % 16 for i in range(N_PARTICLES)]
        ys = [(i * 3) % 16 for i in range(N_PARTICLES)]
        mem.host_fill(px, xs)
        mem.host_fill(py, ys)
        mem.host_fill(q_items, [EMPTY] * (N_OCTANTS * N_PARTICLES))
        mem.host_fill(q_flags, [0] * (N_OCTANTS * N_PARTICLES))
        mem.host_fill(q_tail, [0] * N_OCTANTS)
        mem.host_fill(octree, [EMPTY] * (N_OCTANTS * N_PARTICLES))

        by_octant: dict[int, set[int]] = {q: set() for q in range(N_OCTANTS)}
        for i, (x, y) in enumerate(zip(xs, ys)):
            by_octant[_octant(x, y)].add(i + 1)

        kernel = Kernel(
            name="octree-partition",
            fn=octree_kernel,
            args=(px, py, q_items, q_flags, q_tail, octree, N_PARTICLES),
        )
        config = LaunchConfig(
            grid_dim=GRID_DIM, block_dim=BLOCK_DIM, warp_size=WARP_SIZE
        )

        def check(memory: MemorySystem) -> bool:
            for quad in range(N_OCTANTS):
                got = set()
                for slot in range(N_PARTICLES):
                    item = memory.host_read(octree, quad * N_PARTICLES + slot)
                    if item != EMPTY:
                        got.add(item)
                if got != by_octant[quad]:
                    return False
            return True

        return [(kernel, config)], check

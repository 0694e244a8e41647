"""ls-bh: Barnes-Hut N-body from the Lonestar GPU benchmarks (Tab. 4).

Three kernels, with fine-grained inter-block communication in each of
the first two ("various instances across three kernels", Tab. 4):

1. **Tree build** — cells are created on demand: a worker initialises the
   cell's node data with plain stores and *publishes* the cell with an
   ``atomicCAS`` on the cell slot (idiom 1: node-init).  Every body then
   reads its cell's node data and records its assignment, signalling
   completion through an atomic counter (idiom 2: cell-assign).  A
   summary block consumes the assignments in-kernel.
2. **Force computation** — mass blocks publish per-cell mass sums and
   bump a phase counter (idiom 3: mass-store); force blocks consume the
   sums, store per-body forces and bump a done counter (idiom 4:
   force-store); a mover block consumes the forces and writes updated
   positions.
3. **Checksum** — reduces the new positions (no cross-block races).

The original ls-bh carries fences for idioms 1, 3 and 4 but *not* for
idiom 2 — the paper found errors in ls-bh even with its fences, and the
fences inserted for ls-bh-nf were a superset of the originals.  Our
required set is the four idiom sites; the shipped set omits cell-assign.
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch
from .sync import spin_until_at_least

N_BODIES = 32
N_CELLS = 4
BLOCK_DIM = 8
WARP_SIZE = 8
#: Node data value for cell q (0 means "uninitialised" — stale reads of
#: a published but undrained node observe 0).
def _node_tag(quad: int) -> int:
    return quad + 100


SITE_NODE_INIT = "ls-bh:node-init"
SITE_LOAD_NODE = "ls-bh:load-node"
SITE_CELL_ASSIGN = "ls-bh:cell-assign"
SITE_LOAD_ASSIGN = "ls-bh:load-assign"
SITE_STORE_SUMMARY = "ls-bh:store-summary"
SITE_MASS_STORE = "ls-bh:mass-store"
SITE_LOAD_MASS = "ls-bh:load-mass"
SITE_FORCE_STORE = "ls-bh:force-store"
SITE_LOAD_FORCE = "ls-bh:load-force"
SITE_STORE_POS = "ls-bh:store-pos"


def _quadrant(x: int, y: int) -> int:
    return (2 if y >= 8 else 0) + (1 if x >= 8 else 0)


def build_kernel(ctx: ThreadContext, px, py, cell_slot, node_qid, assign,
                 assign_flag, summary, n):
    """Kernel 1: on-demand cell creation and body assignment.

    The summary block consumes assignments concurrently, as soon as each
    body's flag is published — the flag's ``atomicExch`` can overtake
    the buffered assignment store (idiom 2).
    """
    if ctx.block_id == ctx.grid_dim - 1:
        # Summary block: every thread promptly consumes a strided slice
        # of the assignments as their flags are published.
        copied: set[int] = set()
        mine = list(range(ctx.tid, n, ctx.block_dim))
        while len(copied) < len(mine):
            for i in mine:
                if i in copied:
                    continue
                ready = yield ctx.load(assign_flag, i)
                if ready != 1:
                    continue
                a = yield ctx.load(assign, i, site=SITE_LOAD_ASSIGN)
                yield ctx.store(summary, i, a, site=SITE_STORE_SUMMARY)
                copied.add(i)
        return

    worker_threads = (ctx.grid_dim - 1) * ctx.block_dim
    i = ctx.global_tid()
    while i < n:
        x = yield ctx.load(px, i)
        y = yield ctx.load(py, i)
        quad = _quadrant(x, y)
        slot = yield ctx.load(cell_slot, quad)
        if slot == 0:
            # Create the cell: initialise node data, then publish.
            yield ctx.store(
                node_qid, quad, _node_tag(quad), site=SITE_NODE_INIT
            )
            yield ctx.atomic_cas(cell_slot, quad, 0, quad + 1)
        while True:
            slot = yield ctx.load(cell_slot, quad)
            if slot != 0:
                break
            yield from ctx.compute(2)
        tag = yield ctx.load(node_qid, quad, site=SITE_LOAD_NODE)
        yield ctx.store(assign, i, tag, site=SITE_CELL_ASSIGN)
        yield ctx.atomic_exch(assign_flag, i, 1)
        i += worker_threads


def force_kernel(ctx: ThreadContext, assign, mass, cell_sum, force,
                 force_flag, px_new, px, k2phase, n):
    """Kernel 2: per-cell mass sums, then per-body forces, then moves."""
    b = ctx.block_id
    if b < N_CELLS:
        if ctx.tid != 0:
            return
        total = 0
        for i in range(n):
            a = yield ctx.load(assign, i)
            if a == _node_tag(b):
                m = yield ctx.load(mass, i)
                total += m
        yield ctx.store(cell_sum, b, total, site=SITE_MASS_STORE)
        yield ctx.atomic_add(k2phase, 0, 1)
        return
    if b < 2 * N_CELLS:
        quad = b - N_CELLS
        if ctx.tid != 0:
            return
        yield from spin_until_at_least(ctx, k2phase, 0, N_CELLS)
        for i in range(quad, n, N_CELLS):
            a = yield ctx.load(assign, i)
            f = 0
            for q in range(N_CELLS):
                s = yield ctx.load(cell_sum, q, site=SITE_LOAD_MASS)
                if _node_tag(q) != a:
                    f += s
            yield ctx.store(force, i, f, site=SITE_FORCE_STORE)
            yield ctx.atomic_exch(force_flag, i, 1)
        return
    # Mover block: every thread integrates a strided slice of bodies,
    # promptly, as each body's force is published.
    moved: set[int] = set()
    mine = list(range(ctx.tid, n, ctx.block_dim))
    while len(moved) < len(mine):
        for i in mine:
            if i in moved:
                continue
            ready = yield ctx.load(force_flag, i)
            if ready != 1:
                continue
            f = yield ctx.load(force, i, site=SITE_LOAD_FORCE)
            x = yield ctx.load(px, i)
            yield ctx.store(px_new, i, x + f, site=SITE_STORE_POS)
            moved.add(i)


def checksum_kernel(ctx: ThreadContext, px_new, chk, n):
    """Kernel 3: reduce the new positions (committed data; race free)."""
    i = ctx.global_tid()
    while i < n:
        v = yield ctx.load(px_new, i)
        yield ctx.atomic_add(chk, 0, v)
        i += ctx.n_threads


class LsBh(Application):
    """The ls-bh case study (pass ``with_fences=False`` for -nf)."""

    description = "Barnes-Hut N-body simulation from the Lonestar GPU suite"
    communication = "Various instances across three kernels"
    postcondition = (
        "Final particle positions match results from reference "
        "implementation"
    )

    def __init__(self, with_fences: bool = True):
        self.with_fences = with_fences
        self.name = "ls-bh" if with_fences else "ls-bh-nf"
        # The original's fences cover three of the four idioms; the
        # missing cell-assign fence is why ls-bh errors even as shipped.
        self.base_fences = (
            frozenset({SITE_NODE_INIT, SITE_MASS_STORE, SITE_FORCE_STORE})
            if with_fences
            else frozenset()
        )

    def sites(self) -> tuple[str, ...]:
        return (
            SITE_NODE_INIT,
            SITE_LOAD_NODE,
            SITE_CELL_ASSIGN,
            SITE_LOAD_ASSIGN,
            SITE_STORE_SUMMARY,
            SITE_MASS_STORE,
            SITE_LOAD_MASS,
            SITE_FORCE_STORE,
            SITE_LOAD_FORCE,
            SITE_STORE_POS,
        )

    def required_sites(self) -> frozenset[str]:
        return frozenset(
            {SITE_NODE_INIT, SITE_CELL_ASSIGN, SITE_MASS_STORE,
             SITE_FORCE_STORE}
        )

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        n = N_BODIES
        px = space.alloc("px", n)
        py = space.alloc("py", n)
        mass = space.alloc("mass", n)
        cell_slot = space.alloc("cell-slot", N_CELLS)
        node_qid = space.alloc("node-qid", N_CELLS)
        assign = space.alloc("assign", n)
        assign_flag = space.alloc("assign-flag", n)
        summary = space.alloc("summary", n)
        cell_sum = space.alloc("cell-sum", N_CELLS)
        force = space.alloc("force", n)
        px_new = space.alloc("px-new", n)
        k2phase = space.alloc("k2phase", 1)
        force_flag = space.alloc("force-flag", n)
        chk = space.alloc("chk", 1)

        xs = [(i * 7) % 16 for i in range(n)]
        ys = [(i * 5) % 16 for i in range(n)]
        ms = [(i % 4) + 1 for i in range(n)]
        mem.host_fill(px, xs)
        mem.host_fill(py, ys)
        mem.host_fill(mass, ms)
        mem.host_fill(cell_slot, [0] * N_CELLS)
        mem.host_fill(node_qid, [0] * N_CELLS)
        mem.host_fill(assign, [-1] * n)
        mem.host_fill(assign_flag, [0] * n)
        mem.host_fill(summary, [-1] * n)
        mem.host_fill(cell_sum, [0] * N_CELLS)
        mem.host_fill(force, [-1] * n)
        mem.host_fill(px_new, [-1] * n)
        mem.host_fill(force_flag, [0] * n)
        for buf in (k2phase, chk):
            mem.host_write(buf, 0, 0)

        # Pure-Python reference (the paper uses the conservatively fenced
        # variant as the reference for ls-bh).
        ref_assign = [_node_tag(_quadrant(x, y)) for x, y in zip(xs, ys)]
        ref_cell = [
            sum(m for m, a in zip(ms, ref_assign) if a == _node_tag(q))
            for q in range(N_CELLS)
        ]
        ref_force = [
            sum(s for q, s in enumerate(ref_cell) if _node_tag(q) != a)
            for a in ref_assign
        ]
        ref_pos = [x + f for x, f in zip(xs, ref_force)]
        ref_chk = sum(ref_pos)

        launches = [
            (
                Kernel(
                    "bh-build",
                    build_kernel,
                    (px, py, cell_slot, node_qid, assign, assign_flag,
                     summary, n),
                ),
                LaunchConfig(grid_dim=5, block_dim=BLOCK_DIM,
                             warp_size=WARP_SIZE),
            ),
            (
                Kernel(
                    "bh-force",
                    force_kernel,
                    (assign, mass, cell_sum, force, force_flag, px_new, px,
                     k2phase, n),
                ),
                LaunchConfig(grid_dim=2 * N_CELLS + 1, block_dim=BLOCK_DIM,
                             warp_size=WARP_SIZE),
            ),
            (
                Kernel("bh-checksum", checksum_kernel, (px_new, chk, n)),
                LaunchConfig(grid_dim=2, block_dim=BLOCK_DIM,
                             warp_size=WARP_SIZE),
            ),
        ]

        def check(memory: MemorySystem) -> bool:
            if any(
                memory.host_read(summary, i) != ref_assign[i]
                for i in range(n)
            ):
                return False
            if any(
                memory.host_read(px_new, i) != ref_pos[i] for i in range(n)
            ):
                return False
            return memory.host_read(chk, 0) == ref_chk

        return launches, check

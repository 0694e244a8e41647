"""tpo-tm: the Tzeng-Patney-Owens task management framework (Tab. 4).

A shared task queue is guarded by a custom spinlock: workers dequeue a
task by reading the head index, loading the task, and storing the
incremented head before releasing the lock.  Each dequeued task is
"executed" by bumping its per-task execution count.

The weak memory bug: the releasing ``atomicExch`` can overtake the
buffered head store, so the next worker (on another SM) reads a stale
head and dequeues the *same* task again — one task is executed twice and,
because workers exit after the expected total number of executions,
another task is never executed.  The post-condition (every task executed
exactly once) catches both the duplicate and the omission.  One fence
after the head store hardens the application — the paper's insertion
likewise reduced tpo-tm to a single fence.
"""

from __future__ import annotations

from ..gpu.addresses import AddressSpace
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..gpu.thread import ThreadContext
from .base import Application, Checker, Launch
from .sync import lock, unlock

N_TASKS = 48
GRID_DIM = 8
BLOCK_DIM = 8
WARP_SIZE = 8

SITE_LOAD_HEAD = "tpo-tm:load-head"
SITE_LOAD_ITEM = "tpo-tm:load-item"
SITE_STORE_HEAD = "tpo-tm:store-head"
SITE_LOAD_DONE = "tpo-tm:load-done"


def task_kernel(ctx: ThreadContext, items, head, mutex, counts, ndone, n):
    """Workers drain the task queue until all tasks are executed."""
    if ctx.tid != 0:
        return  # one worker per block, as in the original's task donation
    while True:
        finished = yield ctx.load(ndone, 0, site=SITE_LOAD_DONE)
        if finished >= n:
            return
        yield from lock(ctx, mutex)
        h = yield ctx.load(head, 0, site=SITE_LOAD_HEAD)
        if h >= n:
            yield from unlock(ctx, mutex)
            continue
        task = yield ctx.load(items, h, site=SITE_LOAD_ITEM)
        yield ctx.store(head, 0, h + 1, site=SITE_STORE_HEAD)
        yield from unlock(ctx, mutex)
        if 0 <= task < n:
            yield ctx.atomic_add(counts, task, 1)
        yield ctx.atomic_add(ndone, 0, 1)


class TpoTm(Application):
    """The tpo-tm case study."""

    name = "tpo-tm"
    description = (
        "Dynamic task management framework by Tzeng, Patney, and Owens"
    )
    communication = "Concurrent access to queues protected by custom mutexes"
    postcondition = "Expected number of tasks are executed"
    base_fences = frozenset()

    def sites(self) -> tuple[str, ...]:
        return (
            SITE_LOAD_DONE,
            SITE_LOAD_HEAD,
            SITE_LOAD_ITEM,
            SITE_STORE_HEAD,
        )

    def required_sites(self) -> frozenset[str]:
        return frozenset({SITE_STORE_HEAD})

    def setup(
        self, space: AddressSpace, mem: MemorySystem
    ) -> tuple[list[Launch], Checker]:
        items = space.alloc("items", N_TASKS)
        head = space.alloc("head", 1)
        mutex = space.alloc("mutex", 1)
        counts = space.alloc("counts", N_TASKS)
        ndone = space.alloc("ndone", 1)

        mem.host_fill(items, list(range(N_TASKS)))
        mem.host_write(head, 0, 0)
        mem.host_write(mutex, 0, 0)
        mem.host_fill(counts, [0] * N_TASKS)
        mem.host_write(ndone, 0, 0)

        kernel = Kernel(
            name="task-manager",
            fn=task_kernel,
            args=(items, head, mutex, counts, ndone, N_TASKS),
        )
        config = LaunchConfig(
            grid_dim=GRID_DIM, block_dim=BLOCK_DIM, warp_size=WARP_SIZE
        )

        def check(memory: MemorySystem) -> bool:
            return all(
                memory.host_read(counts, t) == 1 for t in range(N_TASKS)
            )

        return [(kernel, config)], check

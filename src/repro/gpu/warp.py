"""Runtime thread and warp structures.

A :class:`SimThread` owns one kernel coroutine plus the small amount of
state the engine needs to drive it (pending operation, sticky per-op
scratch, atomic issue latency, barrier/done flags).  A :class:`Warp`
groups threads that advance together: when the scheduler picks a warp,
every active thread in it attempts one operation — the simulator's
rendering of SIMT lock-step.

Hot-path bookkeeping: each thread stores its SM (assigned per launch,
replacing a per-run key->SM dict) and a back-reference to its warp, and
each warp maintains an ``n_active`` counter so runnability is an O(1)
attribute read instead of an O(warp-size) scan per scheduler pick.  The
engine owns the counter transitions (thread finished, thread parked at a
barrier, barrier released); the scheduler just reads it.
"""

from __future__ import annotations

from .thread import ThreadContext


class SimThread:
    """One simulated GPU thread."""

    __slots__ = (
        "key",
        "ctx",
        "gen",
        "sm",
        "warp",
        "op",
        "op_state",
        "to_send",
        "done",
        "at_barrier",
        "sleep_until",
        "latency",
    )

    def __init__(self, key: int, ctx: ThreadContext):
        self.key = key
        self.ctx = ctx
        # Per-run fields from here on (set by Grid.relaunch).
        self.gen = None
        self.sm = 0
        self.warp: "Warp | None" = None
        self.op: tuple | None = None
        self.op_state: dict = {}
        self.to_send: object = None
        self.done = False
        self.at_barrier = False
        self.sleep_until = 0
        self.latency = 0


class Warp:
    """A set of threads that advance together (lock-step)."""

    __slots__ = ("block_id", "warp_id", "index", "threads", "n_active")

    def __init__(self, block_id: int, warp_id: int, threads: list[SimThread]):
        self.block_id = block_id
        self.warp_id = warp_id
        #: Position in the grid's flat warp list (set by :class:`Grid`);
        #: the scheduler keeps its runnable list in this order.
        self.index = 0
        self.threads = threads
        #: Threads that are neither done nor parked at a barrier, i.e.
        #: ``sum(not (t.done or t.at_barrier) for t in threads)``; the
        #: engine updates it on each of those thread transitions.
        self.n_active = len(threads)
        for thread in threads:
            thread.warp = self

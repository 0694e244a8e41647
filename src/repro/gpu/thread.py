"""Thread context: the CUDA-like surface kernels program against.

Kernels are generator functions taking a :class:`ThreadContext` first,
e.g.::

    def dot_kernel(ctx, a, b, c, mutex, n):
        tid = ctx.global_tid()
        acc = 0.0
        while tid < n:
            av = yield ctx.load(a, tid)
            bv = yield ctx.load(b, tid)
            acc += av * bv
            tid += ctx.n_threads
        ...

Every memory operation is one plain ``yield`` of an op tuple, so the
engine can interleave warps at memory-operation granularity: the
context's access methods are op *constructors* that bounds-check the
index and return the tuple (formats in :mod:`repro.gpu.events`), and
the engine sends the op's result back as the value of the ``yield``.
Device functions that span several operations (locks, spins,
``compute``) are generators invoked with ``yield from``, mirroring CUDA
``__device__`` functions.

Fence *sites*: a load or store can carry a ``site`` label.  If the label
is in the context's active ``fence_sites`` set, the op's fence flag is
set and the engine runs a device fence right after the access — the
instrumentation used by empirical fence insertion (paper Sec. 5), whose
starting point is "a fence after every memory access".
"""

from __future__ import annotations

from .addresses import Buffer
from .events import (
    FENCE,
    OP_BARRIER,
    OP_ISSUE,
    OP_LOAD,
    OP_NOOP,
    OP_POLL,
    OP_RMW,
    OP_STORE,
)

_BARRIER = (OP_BARRIER,)
_NOOP = (OP_NOOP,)


class ThreadContext:
    """Per-thread view of the launch: ids, dims and memory operations."""

    __slots__ = (
        "tid",
        "block_id",
        "block_dim",
        "grid_dim",
        "n_threads",
        "fence_sites",
    )

    def __init__(
        self,
        tid: int,
        block_id: int,
        block_dim: int,
        grid_dim: int,
        fence_sites: frozenset[str] = frozenset(),
    ):
        self.tid = tid
        self.block_id = block_id
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        #: Total threads in the grid.
        self.n_threads = block_dim * grid_dim
        self.fence_sites = fence_sites

    def global_tid(self) -> int:
        """``threadIdx.x + blockIdx.x * blockDim.x``."""
        return self.tid + self.block_id * self.block_dim

    # ------------------------------------------------------------------
    # memory operations (op constructors; use with a plain ``yield``)
    # ------------------------------------------------------------------
    def load(self, buf: Buffer, idx: int, site: str | None = None):
        """Global load; the engine sends back the loaded value."""
        if 0 <= idx < buf.size:
            return (OP_LOAD, buf.base + idx, site in self.fence_sites)
        raise buf.index_error(idx)

    def store(self, buf: Buffer, idx: int, val, site: str | None = None):
        """Global store (buffered; becomes visible when it drains)."""
        if 0 <= idx < buf.size:
            return (OP_STORE, buf.base + idx, val, site in self.fence_sites)
        raise buf.index_error(idx)

    def issue_load(self, buf: Buffer, idx: int):
        """Issue a deferred load; the engine sends a handle for ``await_load``.

        The issue/resolve split mirrors how generated litmus kernels
        only read their registers at the very end of the test, so the
        load may resolve after program-order-later operations — the
        LB-shaped reordering (see :class:`repro.gpu.memory.DeferredLoad`).
        """
        if 0 <= idx < buf.size:
            return (OP_ISSUE, buf.base + idx)
        raise buf.index_error(idx)

    def await_load(self, handle):
        """Block until a deferred load resolves; the engine sends its value."""
        return (OP_POLL, handle)

    def atomic_cas(self, buf: Buffer, idx: int, compare, val):
        """``atomicCAS``: the engine sends back the old value."""
        if 0 <= idx < buf.size:
            return (
                OP_RMW,
                buf.base + idx,
                lambda cur: val if cur == compare else cur,
            )
        raise buf.index_error(idx)

    def atomic_exch(self, buf: Buffer, idx: int, val):
        """``atomicExch``: the engine sends back the old value."""
        if 0 <= idx < buf.size:
            return (OP_RMW, buf.base + idx, lambda _cur: val)
        raise buf.index_error(idx)

    def atomic_add(self, buf: Buffer, idx: int, delta):
        """``atomicAdd``: the engine sends back the old value."""
        if 0 <= idx < buf.size:
            return (OP_RMW, buf.base + idx, lambda cur: cur + delta)
        raise buf.index_error(idx)

    def atomic_inc_mod(self, buf: Buffer, idx: int, limit: int):
        """``atomicInc``: old value; wraps to 0 when old == limit."""
        if 0 <= idx < buf.size:
            return (
                OP_RMW,
                buf.base + idx,
                lambda cur: 0 if cur >= limit else cur + 1,
            )
        raise buf.index_error(idx)

    # ------------------------------------------------------------------
    # ordering operations
    # ------------------------------------------------------------------
    def fence_device(self):
        """``__threadfence()``: order prior accesses device-wide."""
        return FENCE

    def syncthreads(self):
        """``__syncthreads()``: block barrier with memory consistency."""
        return _BARRIER

    def compute(self, cycles: int = 1):
        """Model ``cycles`` of pure computation (no memory traffic)."""
        for _ in range(cycles):
            yield _NOOP

"""Thread context: the CUDA-like surface kernels program against.

Kernels are generator functions taking a :class:`ThreadContext` first,
e.g.::

    def dot_kernel(ctx, a, b, c, mutex, n):
        tid = ctx.global_tid()
        acc = 0.0
        while tid < n:
            av = yield from ctx.load(a, tid)
            bv = yield from ctx.load(b, tid)
            acc += av * bv
            tid += ctx.block_dim * ctx.grid_dim
        ...

Every memory operation is a ``yield from`` so the engine can interleave
warps at memory-operation granularity.  Device helper functions (locks,
queue operations) are themselves generators invoked with ``yield from``,
mirroring CUDA ``__device__`` functions.

Fence *sites*: each memory access in an application can carry a ``site``
label.  If the label is in the context's active ``fence_sites`` set, a
device fence is executed immediately after the access — this is the
instrumentation used by empirical fence insertion (paper Sec. 5), whose
starting point is "a fence after every memory access".
"""

from __future__ import annotations

from .addresses import Buffer
from .events import (
    FENCE_DEVICE,
    OP_BARRIER,
    OP_FENCE,
    OP_ISSUE,
    OP_LOAD,
    OP_NOOP,
    OP_POLL,
    OP_RMW,
    OP_STORE,
)


#: Issue latency of atomic read-modify-writes, in cycles.  GPU atomics
#: are considerably slower than plain accesses; the latency also gives
#: program-order-earlier buffered stores a head start on draining, which
#: is why unlock races are rare natively.
_ATOMIC_LATENCY = 2


class ThreadContext:
    """Per-thread view of the launch: ids, dims and memory operations."""

    __slots__ = (
        "tid",
        "block_id",
        "block_dim",
        "grid_dim",
        "warp_size",
        "fence_sites",
    )

    def __init__(
        self,
        tid: int,
        block_id: int,
        block_dim: int,
        grid_dim: int,
        warp_size: int,
        fence_sites: frozenset[str] = frozenset(),
    ):
        self.tid = tid
        self.block_id = block_id
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.warp_size = warp_size
        self.fence_sites = fence_sites

    # ------------------------------------------------------------------
    # id helpers (CUDA primitives)
    # ------------------------------------------------------------------
    def global_tid(self) -> int:
        """``threadIdx.x + blockIdx.x * blockDim.x``."""
        return self.tid + self.block_id * self.block_dim

    @property
    def warp_id(self) -> int:
        """Warp index of this thread within its block."""
        return self.tid // self.warp_size

    @property
    def lane(self) -> int:
        """Lane index of this thread within its warp."""
        return self.tid % self.warp_size

    @property
    def n_threads(self) -> int:
        """Total threads in the grid."""
        return self.block_dim * self.grid_dim

    # ------------------------------------------------------------------
    # memory operations (generators; use with ``yield from``)
    # ------------------------------------------------------------------
    # Site fences are expanded inline (``site in self.fence_sites``
    # followed by a plain ``yield``) rather than via a helper generator:
    # every memory access would otherwise build and exhaust one
    # sub-generator per operation, a measurable cost in campaign-scale
    # runs.  The yielded op stream is identical either way.

    def load(self, buf: Buffer, idx: int, site: str | None = None):
        """Global load; returns the loaded value."""
        value = yield (OP_LOAD, buf.addr(idx))
        if site is not None and site in self.fence_sites:
            yield (OP_FENCE, FENCE_DEVICE)
        return value

    def store(self, buf: Buffer, idx: int, val, site: str | None = None):
        """Global store (buffered; becomes visible when it drains)."""
        yield (OP_STORE, buf.addr(idx), val)
        if site is not None and site in self.fence_sites:
            yield (OP_FENCE, FENCE_DEVICE)

    def issue_load(self, buf: Buffer, idx: int):
        """Issue a deferred load; returns a handle for ``await_load``.

        The issue/resolve split mirrors how generated litmus kernels
        only read their registers at the very end of the test, so the
        load may resolve after program-order-later operations — the
        LB-shaped reordering (see :class:`repro.gpu.memory.DeferredLoad`).
        """
        handle = yield (OP_ISSUE, buf.addr(idx))
        return handle

    def await_load(self, handle):
        """Block until a deferred load resolves; returns its value."""
        value = yield (OP_POLL, handle)
        return value

    def atomic_cas(
        self, buf: Buffer, idx: int, compare, val, site: str | None = None
    ):
        """``atomicCAS``: returns the old value."""
        for _ in range(_ATOMIC_LATENCY):
            yield (OP_NOOP,)
        old = yield (
            OP_RMW,
            buf.addr(idx),
            lambda cur: val if cur == compare else cur,
        )
        if site is not None and site in self.fence_sites:
            yield (OP_FENCE, FENCE_DEVICE)
        return old

    def atomic_exch(self, buf: Buffer, idx: int, val, site: str | None = None):
        """``atomicExch``: returns the old value."""
        for _ in range(_ATOMIC_LATENCY):
            yield (OP_NOOP,)
        old = yield (OP_RMW, buf.addr(idx), lambda _cur: val)
        if site is not None and site in self.fence_sites:
            yield (OP_FENCE, FENCE_DEVICE)
        return old

    def atomic_add(self, buf: Buffer, idx: int, delta, site: str | None = None):
        """``atomicAdd``: returns the old value."""
        for _ in range(_ATOMIC_LATENCY):
            yield (OP_NOOP,)
        old = yield (OP_RMW, buf.addr(idx), lambda cur: cur + delta)
        if site is not None and site in self.fence_sites:
            yield (OP_FENCE, FENCE_DEVICE)
        return old

    def atomic_inc_mod(
        self, buf: Buffer, idx: int, limit: int, site: str | None = None
    ):
        """``atomicInc``: old value; wraps to 0 when old == limit."""
        for _ in range(_ATOMIC_LATENCY):
            yield (OP_NOOP,)
        old = yield (
            OP_RMW,
            buf.addr(idx),
            lambda cur: 0 if cur >= limit else cur + 1,
        )
        if site is not None and site in self.fence_sites:
            yield (OP_FENCE, FENCE_DEVICE)
        return old

    # ------------------------------------------------------------------
    # ordering operations
    # ------------------------------------------------------------------
    def fence_device(self):
        """``__threadfence()``: order prior accesses device-wide."""
        yield (OP_FENCE, FENCE_DEVICE)

    def syncthreads(self):
        """``__syncthreads()``: block barrier with memory consistency."""
        yield (OP_BARRIER,)

    def compute(self, cycles: int = 1):
        """Model ``cycles`` of pure computation (no memory traffic)."""
        for _ in range(cycles):
            yield (OP_NOOP,)

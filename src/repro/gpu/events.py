"""Operation kinds exchanged between kernel coroutines and the engine.

Kernel code never constructs these directly; the :class:`ThreadContext`
methods yield them.  They are plain tuples for speed — the first element
is one of the ``OP_*`` constants below — since the engine processes
millions of them in a large campaign.

Formats::

    (OP_LOAD,  addr)                 -> engine sends the loaded value
    (OP_STORE, addr, value)          -> acknowledged when buffered
    (OP_RMW,   addr, fn)             -> engine sends the old value;
                                        fn(old) returns the new value
    (OP_FENCE, level)                -> level is "device"
    (OP_BARRIER,)                    -> block-wide barrier
    (OP_NOOP,)                       -> one cycle of compute
    (OP_ISSUE, addr)                 -> engine sends a DeferredLoad
                                        handle (issue/resolve split)
    (OP_POLL,  handle)               -> engine sends the value once the
                                        deferred load has resolved

The issue/poll pair is how compiled litmus kernels observe LB-shaped
reordering on the engine backend: real litmus tests only inspect their
registers at the end, so their loads may resolve late.
"""

from __future__ import annotations

OP_LOAD = "ld"
OP_STORE = "st"
OP_RMW = "rmw"
OP_FENCE = "fence"
OP_BARRIER = "bar"
OP_NOOP = "noop"
OP_ISSUE = "issue"
OP_POLL = "poll"

FENCE_DEVICE = "device"

#: Sentinel returned by the memory system when an operation cannot
#: complete this tick and must be retried (buffer full, fence pending,
#: same-channel ordering stall).
STALL = object()

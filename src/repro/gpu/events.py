"""Operation kinds exchanged between kernel coroutines and the engine.

Kernel code never builds these by hand: the :class:`ThreadContext`
methods construct them and the kernel yields each one with a plain
``yield``.  They are plain tuples for speed — the first element is one
of the ``OP_*`` constants below — since the engine processes millions
of them in a large campaign.

Formats::

    (OP_LOAD,  addr, fence)          -> engine sends the loaded value
    (OP_STORE, addr, value, fence)   -> acknowledged when buffered
    (OP_RMW,   addr, fn)             -> engine sends the old value;
                                        fn(old) returns the new value
    (OP_FENCE, send)                 -> device fence; engine sends
                                        ``send`` once it completes
    (OP_BARRIER,)                    -> block-wide barrier
    (OP_NOOP,)                       -> one cycle of compute
    (OP_ISSUE, addr)                 -> engine sends a DeferredLoad
                                        handle (issue/resolve split)
    (OP_POLL,  handle)               -> engine sends the value once the
                                        deferred load has resolved

``fence`` is the access's site-fence flag (its site is in the thread's
active fence set).  When a flagged load or store completes, the engine
runs a device fence in the next burst slot and only then sends the
value on.  Before an atomic's read-modify-write, the engine spends
``_ATOMIC_LATENCY`` issue-latency slots of one cycle each.

The issue/poll pair is how compiled litmus kernels observe LB-shaped
reordering on the engine backend: real litmus tests only inspect their
registers at the end, so their loads may resolve late.

The kinds are multi-character strings, so an op passed to ``yield from``
by mistake reaches the engine as its kind string and fails as unknown.
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

#: A device fence that sends None on: ``fence_device()``, and the site
#: fence after a flagged store.
FENCE = (OP_FENCE, None)

#: Sentinel returned by the memory system when an operation cannot
#: complete this tick and must be retried (buffer full, fence pending,
#: same-channel ordering stall).
STALL = object()

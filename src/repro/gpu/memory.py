"""The weak memory subsystem.

Operational model (see DESIGN.md Sec. 4 for the rationale):

* Global memory is a flat word-addressed store.
* Each SM owns a bounded store buffer.  A store enters its SM's buffer
  and becomes visible to other SMs only when it *drains*.  Threads on the
  same SM see buffered stores early (forwarding), which keeps intra-block
  communication strong — matching real GPUs, where the paper found only
  *inter*-block idioms at risk.
* Entries to the same channel (and a fortiori the same address) drain in
  FIFO order; entries to different channels may swap with a probability
  that grows with stress pressure on the older entry's channel.  This is
  the MP-shaped write reordering.  Swaps are additionally gated on the
  two addresses being at least ``store_store_min_distance`` words apart
  (write-combining within a cache line), which is why the paper sees no
  weak behaviour for distances below the critical patch size.
* A load first forwards from its own SM's buffer.  If the loading thread
  itself has unrelated stores buffered, the load normally waits for them
  (program order); with a pressure-dependent probability it *bypasses*
  them instead — the SB-shaped reordering.
* Deferred loads (issue/resolve split, used by the litmus runner the way
  real litmus tests only inspect registers at the end) may resolve late,
  after program-order-later stores have drained — the LB-shaped
  reordering.
* Atomic read-modify-writes act on global memory immediately and are
  **not** fences: program-order-earlier buffered stores can still be
  pending when the RMW becomes visible.  This reproduces, e.g., the
  cbe-dot spinlock bug of the paper's Fig. 1.
* A device fence drains the issuing thread's stores and resolves its
  deferred loads, charging the chip's fence stall cost.

All probabilistic decisions flow from the chip profile and the stress
field; on the ``sc-ref`` chip every probability is zero and the subsystem
is sequentially consistent.

Hot-path notes (see docs/ARCHITECTURE.md "Hot path & determinism"):

* The per-channel probability tables are pure functions of
  ``(chip, pressure vector, turbulence, weak_scale)`` and are memoized
  in a module-level LRU — a tuning grid or campaign revisits the same
  handful of pressure shapes millions of times.  An entry holds the
  tables as packed C doubles; the plain Python lists a memory system
  indexes (scalar indexing is ~4x cheaper than numpy element access)
  are unpacked on first use and shared between instances; never
  mutate them.
* Each SM's buffer list is the only record of the stores it holds.
  The buffers stay short — under a campaign load an SM's buffer holds
  0.28 entries on average (at most 14), and under tuning at most one —
  so ``read``/``issue_load`` answer forwarding, the SB bypass candidate
  and same-channel FIFO with one reversed pass over the buffer, and
  the other membership questions scan it too; per-thread or
  per-address count mirrors cost more to keep than these scans do.
  Two counters remain because they let the drain pump skip work
  without touching any buffer: ``_n_buffered`` (stores buffered in
  total, so an idle tick costs one test) and ``_nonempty`` (the SMs
  holding any, so a tick steps only those, and a single busy SM
  without a sort).  Every removal is a single-pass rewrite, never a
  quadratic ``buf.remove(entry)``.
* :meth:`MemorySystem.reset` restores the pristine post-construction
  state so one instance can serve an entire batch of executions.
* ``repro/gpu/memsys.h`` reimplements this class draw for draw in C,
  once for both native cores: the litmus kernel
  ``repro/litmus/native.c`` and the engine core ``repro/gpu/engine.c``
  include it.  The two implementations change together;
  ``tests/test_native_litmus.py`` and ``tests/test_engine_core.py``
  hold them equal.  The cores read :attr:`MemoryTables.packed` and the
  constants of :func:`native_chip` or :func:`core_words`; the engine
  core works on ``mem`` in place.

None of this changes a single random draw: every decision consumes the
same generator stream, in the same order, as the original scan-based
implementation (the golden-statistics tests pin this).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Callable
from functools import cached_property, lru_cache

import numpy as np

from ..chips.profile import HardwareProfile
from ..errors import InvalidAccessError
from ..rng import BufferedRNG
from .events import STALL
from .pressure import StressField, lru_get

#: Probability ceiling for any single reordering decision.
_P_MAX = 0.45
#: Baseline drain latency in ticks (natively a store drains almost
#: immediately once eligible — native weak behaviours are rare).
_BASE_LATENCY = 0.05
#: Stores younger than this many ticks are not eligible to drain.
_MIN_AGE = 1
#: Base per-tick resolution probability of a slow (delayed) load;
#: pressure on the load's channel slows resolution further.
_SLOW_RESOLVE_P = 0.25
#: SB-shaped bypass is easier than store-store swaps on real silicon
#: (plain store buffering); boost relative to the chip's reorder gain.
_BYPASS_BOOST = 2.2
#: Entries the drain loop may commit per SM per tick.
_DRAIN_WIDTH = 8

#: Drain-probability multiplier for a parked store.  A store that has
#: been overtaken (by a cross-channel swap or an atomic bypass) was
#: sitting in a congested queue; it keeps draining slowly, which is what
#: gives consumers a realistic window to observe the stale value.
_PARKED_DRAIN = 0.2

# Store-buffer entry field indices (plain lists for speed).
_E_THREAD = 0
_E_ADDR = 1
_E_VAL = 2
_E_CH = 3
_E_TICK = 4
_E_PARKED = 5

#: LRU of precomputed probability tables, keyed by
#: ``(chip cache token, pressure bytes, turbulence, weak_scale)``.
_TABLE_CACHE: OrderedDict[tuple, MemoryTables] = OrderedDict()
_TABLE_CACHE_MAX = 512


@lru_cache(maxsize=64)
def _bleed_matrix(n: int) -> np.ndarray:
    """Ring-topology pressure bleed between channels (shared arbitration:
    stress on a channel acts mildly on its neighbours, which is what
    gives the paper's Fig. 3 its patches of *varying* height)."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, n - dist)
    bleed = np.where(dist == 0, 1.0, np.where(dist == 1, 0.35, 0.08))
    bleed.setflags(write=False)
    return bleed


class MemoryTables:
    """The per-channel probability tables of one (chip, field, scale).

    ``packed`` holds them as C doubles in the native cores' order:
    ``drain_p``, ``bypass_p``, ``slow_p``, ``resolve_p``, then
    ``swap_p`` row by row (see ``ms_bind`` in ``memsys.h``).  ``lists``
    unpacks them, on first use, into ``(drain_p, swap_p, bypass_p,
    slow_p, resolve_p)`` as plain lists (``swap_p`` a list of rows) for
    the Python paths, so a cache entry only the kernel reads holds no
    lists."""

    def __init__(self, n_channels: int, packed: bytes):
        self.n_channels = n_channels
        self.packed = packed

    @cached_property
    def lists(self) -> tuple[list, list, list, list, list]:
        n = self.n_channels
        flat = array("d", self.packed).tolist()
        drain_p, bypass_p, slow_p, resolve_p = (
            flat[k * n:(k + 1) * n] for k in range(4)
        )
        swap_p = [flat[(4 + r) * n:(5 + r) * n] for r in range(n)]
        return drain_p, swap_p, bypass_p, slow_p, resolve_p


def native_chip(profile: HardwareProfile, addrs) -> tuple[bytes, bytes]:
    """The native litmus kernel's chip words and factors for locations at
    ``addrs`` (see ``repro/litmus/native.c``): the first five of
    :func:`core_words`, then the channel of every location."""
    words, factors = core_words(profile)
    chip = array("q", (*words[:5], *map(profile.channel, addrs)))
    return chip.tobytes(), array("d", factors).tobytes()


def core_words(profile: HardwareProfile) -> tuple[tuple, tuple]:
    """The constants the store-buffer and deferred-load steps below read
    off the profile and this module, as the native cores take them:
    words (channel count, store-buffer capacity, swap minimum distance,
    minimum drain age, drain width, then for ``repro/gpu/engine.c`` the
    SM count, channel shift (-1 for none), channel mask and patch size)
    and factors (``store_swap_leak``, the parked-drain factor)."""
    shift = profile.channel_shift
    return (
        profile.n_channels,
        profile.store_buffer_capacity * 8,  # MemorySystem._buf_cap
        profile.store_store_min_distance,
        _MIN_AGE,
        _DRAIN_WIDTH,
        profile.n_sms,
        -1 if shift is None else shift,
        profile.channel_mask or 0,
        profile.patch_size,
    ), (profile.store_swap_leak, _PARKED_DRAIN)


def memory_tables(
    profile: HardwareProfile, stress: StressField, weak_scale: float
) -> MemoryTables:
    """Per-channel probability tables for one (chip, field, scale), as
    a :class:`MemoryTables`.

    The tables are deterministic functions of the key, so memoization is
    invisible to the statistics; they are shared between memory systems
    and must not be mutated.
    """
    key = (
        profile.cache_token,
        stress.press_bytes,
        stress.turbulence,
        weak_scale,
    )
    return lru_get(
        _TABLE_CACHE,
        key,
        lambda: _compute_tables(profile, stress, weak_scale),
        _TABLE_CACHE_MAX,
    )


def _compute_tables(
    profile: HardwareProfile, stress: StressField, weak_scale: float
) -> MemoryTables:
    prof, scale = profile, weak_scale
    n = prof.n_channels
    turb = stress.turbulence
    sens = prof.sensitivity
    press = stress.press

    # Effective pressure per channel: stress on a channel acts with
    # that channel's sensitivity and bleeds onto neighbouring channels.
    eff = _bleed_matrix(n) @ (press * sens)

    # Drain probability per tick for a store on channel ch.  The
    # slowdown, like the reordering probabilities, works through the
    # chip's channel sensitivity and the turbulence of the field —
    # diffuse or uniform stress barely delays any one line, which is
    # why rand-str and cache-str are weak (paper Tab. 5).
    drain_p = 1.0 / (
        1.0
        + _BASE_LATENCY
        + prof.latency_gain * press * sens * turb * scale
    )
    # Cross-channel store-store swap probability matrix
    # [older channel, younger channel].
    pair = eff[:, None] + prof.cross_channel_weight * eff[None, :]
    swap = prof.reorder_base + prof.reorder_gain * pair * turb
    swap_p = np.minimum(swap * scale + prof.store_swap_leak, _P_MAX)
    # Store-load bypass probability (SB) keyed by the *store*'s channel.
    bypass = (
        prof.reorder_base
        + _BYPASS_BOOST * prof.reorder_gain * eff * turb
    )
    bypass_p = np.minimum(bypass * scale, _P_MAX)
    # Slow-load probability (LB) keyed by the load's channel.
    slow = prof.load_delay_base + prof.load_delay_gain * eff * turb
    slow_p = np.minimum(slow * scale, _P_MAX)
    # Slow loads resolve more slowly on pressured channels.
    resolve_p = _SLOW_RESOLVE_P / (
        1.0 + prof.latency_gain * press * sens * turb * scale
    )
    assert drain_p.shape == (n,)

    return MemoryTables(n, np.concatenate(
        (drain_p, bypass_p, slow_p, resolve_p, swap_p.ravel()),
        dtype=np.float64,
    ).tobytes())


class DeferredLoad:
    """A load that has been issued but whose value may resolve later.

    ``block_mode`` carries the program-order constraint the load picked
    up at issue time:

    * ``None`` — unconstrained (resolves immediately, or randomly late
      when ``slow`` — the LB-shaped delay);
    * ``("channel", ch)`` — must wait for the issuing thread's pending
      stores on channel ``ch`` (same-channel FIFO);
    * ``("stores", None)`` — must wait for all of the issuing thread's
      pending stores (a failed SB bypass);
    * ``("load", handle)`` — must wait for an earlier load by the same
      thread on the same channel (loads within a channel stay ordered,
      so MP-shaped read reordering needs distinct channels).
    """

    __slots__ = (
        "thread",
        "sm",
        "addr",
        "ch",
        "slow",
        "block_mode",
        "resolved",
        "value",
    )

    def __init__(
        self,
        thread: int,
        sm: int,
        addr: int,
        ch: int,
        slow: bool,
        block_mode: tuple | None = None,
    ):
        self.thread = thread
        self.sm = sm
        self.addr = addr
        self.ch = ch
        self.slow = slow
        self.block_mode = block_mode
        self.resolved = False
        self.value: object = None


class MemorySystem:
    """Weak global memory shared by all SMs of one simulated chip."""

    def __init__(
        self,
        profile: HardwareProfile,
        stress: StressField | None = None,
        rng: np.random.Generator | None = None,
        weak_scale: float = 1.0,
    ):
        self.profile = profile
        self.stress = stress if stress is not None else StressField.zero(profile)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # Hot paths draw scalars straight from a BufferedRNG's pre-draw
        # block (see repro.rng) instead of through a method call.
        self._fast_rng = self.rng if isinstance(self.rng, BufferedRNG) else None
        self.weak_scale = weak_scale

        self.mem: dict[int, object] = {}
        self.sm_buffers: list[list[list]] = [[] for _ in range(profile.n_sms)]
        self.tick = 0
        self._fencing: set[int] = set()
        self._deferred: list[DeferredLoad] = []

        # Drain-pump counters (see module docstring): stores buffered in
        # total, and the SMs whose buffers hold any.
        self._n_buffered = 0
        self._nonempty: set[int] = set()

        # Hot-path constants hoisted off the profile.
        self._buf_cap = profile.store_buffer_capacity * 8
        self._ch_shift = profile.channel_shift
        self._ch_mask = profile.channel_mask

        # Statistics (consumed by tests and the cost model).
        self.n_drains = 0
        self.n_swaps = 0
        self.n_bypasses = 0
        self.n_slow_loads = 0

        self._precompute()

    # ------------------------------------------------------------------
    # precomputed per-channel probabilities (the stress field is static)
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        self.tables = memory_tables(self.profile, self.stress, self.weak_scale)
        (
            self.drain_p,
            self.swap_p,
            self.bypass_p,
            self.slow_p,
            self.resolve_p,
        ) = self.tables.lists

    def set_stress(self, stress: StressField) -> None:
        """Swap the stress field (e.g. once a scratchpad is allocated)."""
        self.stress = stress
        self._precompute()

    def reset(
        self,
        stress: StressField | None = None,
        rng: np.random.Generator | None = None,
        weak_scale: float | None = None,
    ) -> None:
        """Return to the pristine post-construction state.

        Optionally swaps the stress field, generator and weak scale so
        one instance can serve a whole batch of executions — the
        execution loop's allocation cost collapses to a few ``clear()``
        calls plus (usually cached) table lookups.
        """
        self.mem.clear()
        if self._n_buffered:
            for sm in self._nonempty:
                self.sm_buffers[sm].clear()
            self._nonempty.clear()
            self._n_buffered = 0
        self.tick = 0
        if self._fencing:
            self._fencing.clear()
        if self._deferred:
            self._deferred = []
        self.n_drains = 0
        self.n_swaps = 0
        self.n_bypasses = 0
        self.n_slow_loads = 0
        if rng is not None:
            self.rng = rng
            self._fast_rng = rng if isinstance(rng, BufferedRNG) else None
        stale = False
        if weak_scale is not None and weak_scale != self.weak_scale:
            self.weak_scale = weak_scale
            stale = True
        if stress is not None and stress is not self.stress:
            self.stress = stress
            stale = True
        if stale:
            self._precompute()

    # ------------------------------------------------------------------
    # thread-facing operations
    # ------------------------------------------------------------------
    def read(
        self, sm: int, thread: int, addr: int, op_state: dict | None = None
    ) -> object:
        """Blocking load.  Returns the value, or ``STALL`` to retry.

        ``op_state`` is per-operation scratch owned by the engine; it
        makes the bypass decision sticky across retries so that a stalled
        load does not re-roll the dice every tick.
        """
        buf = self.sm_buffers[sm]
        if buf:
            own_pending = None
            same_ch = False
            for entry in reversed(buf):
                if entry[_E_ADDR] == addr:
                    return entry[_E_VAL]  # SM-local forwarding
                if entry[_E_THREAD] == thread:
                    if own_pending is None:
                        own_pending = entry
                        load_ch = self.profile.channel(addr)
                    if entry[_E_CH] == load_ch:
                        same_ch = True
            if own_pending is not None:
                if same_ch:
                    # Same-channel FIFO: the load waits for the store to
                    # drain.  This is why SB-shaped weak behaviour needs
                    # the two communication locations in different
                    # patches.
                    return STALL
                if op_state is not None and op_state.get("waiting"):
                    return STALL
                p = self.bypass_p[own_pending[_E_CH]]
                fr = self._fast_rng
                if fr is not None and fr._i < fr._n:
                    i = fr._i
                    fr._i = i + 1
                    roll = fr._dbuf[i]
                else:
                    roll = self.rng.random()
                if roll >= p:
                    if op_state is not None:
                        op_state["waiting"] = True
                    return STALL
                self.n_bypasses += 1
        return self.mem.get(addr, 0)

    def write(self, sm: int, thread: int, addr: int, val: object) -> bool:
        """Buffered store.  Returns False when the buffer is full."""
        buf = self.sm_buffers[sm]
        if len(buf) >= self._buf_cap:
            return False
        shift = self._ch_shift
        if shift is not None:
            ch = (addr >> shift) & self._ch_mask
        else:
            ch = self.profile.channel(addr)
        # Program order, same address: an earlier deferred load by this
        # thread must see the pre-store value.
        if self._deferred:
            self._resolve_matching(thread, addr)
        entry = [thread, addr, val, ch, self.tick, False]
        buf.append(entry)
        self._n_buffered += 1
        self._nonempty.add(sm)
        return True

    def rmw(
        self,
        sm: int,
        thread: int,
        addr: int,
        fn: Callable[[object], object],
        op_state: dict | None = None,
    ) -> object:
        """Atomic read-modify-write.  Returns the old value or ``STALL``.

        Atomics act on global memory through the atomic pipeline, so
        they are *not* ordered against the issuing thread's buffered
        stores by the channel FIFO; but neither are they fences.  The
        atomic normally waits for the thread's earlier stores to drain;
        with a pressure-dependent probability it overtakes them instead
        — this is the store/atomic reordering behind the paper's
        unlock-before-critical-store bugs (Fig. 1) and the stale-partial
        bugs of sdk-red and ct-octree.
        """
        buf = self.sm_buffers[sm]
        own_pending = None
        same_addr = False
        for entry in reversed(buf):
            if entry[_E_ADDR] == addr:
                same_addr = True
            elif own_pending is None and entry[_E_THREAD] == thread:
                own_pending = entry
        if own_pending is not None:
            if op_state is not None and op_state.get("waiting"):
                return STALL
            if self.rng.random() >= self.bypass_p[own_pending[_E_CH]]:
                if op_state is not None:
                    op_state["waiting"] = True
                return STALL
            self.n_bypasses += 1
            # The atomic jumped this thread's queued stores; they stay
            # parked in the congested write queue.
            for entry in buf:
                if entry[_E_THREAD] == thread:
                    entry[_E_PARKED] = True
        # Coherence: same-address buffered stores on this SM are ordered
        # before the atomic; commit them now (in order).
        if same_addr:
            self._commit_out(
                sm, buf,
                [e for e in buf if e[_E_ADDR] == addr],
                [e for e in buf if e[_E_ADDR] != addr],
            )
        old = self.mem.get(addr, 0)
        self.mem[addr] = fn(old)
        return old

    def issue_load(self, sm: int, thread: int, addr: int) -> DeferredLoad:
        """Issue a deferred load; resolve time depends on pressure.

        Applies the same program-order constraints as a blocking
        :meth:`read` — forwarding, same-channel FIFO, and the SB bypass
        roll against the thread's own buffered stores — but without
        blocking the caller: constrained loads park on the deferred list
        and resolve when their blocking stores drain.
        """
        shift = self._ch_shift
        if shift is not None:
            ch = (addr >> shift) & self._ch_mask
        else:
            ch = self.profile.channel(addr)
        buf = self.sm_buffers[sm]
        if self._deferred:
            # Loads within a channel stay ordered, as do loads closer
            # than the chip's reorder distance threshold (on Maxwell
            # this is what pushes observable MP read reordering out to
            # d >= 256): chain behind an earlier unresolved load by this
            # thread.
            min_dist = self.profile.store_store_min_distance
            for earlier in self._deferred:
                if (
                    not earlier.resolved
                    and earlier.thread == thread
                    and (
                        earlier.ch == ch
                        or abs(earlier.addr - addr) < min_dist
                    )
                ):
                    handle = DeferredLoad(
                        thread, sm, addr, ch, slow=False,
                        block_mode=("load", earlier),
                    )
                    self._deferred.append(handle)
                    return handle
        own_pending = None
        same_ch = False
        for entry in reversed(buf):
            if entry[_E_ADDR] == addr:
                handle = DeferredLoad(thread, sm, addr, ch, slow=False)
                handle.value = entry[_E_VAL]
                handle.resolved = True
                return handle
            if entry[_E_THREAD] == thread:
                if own_pending is None:
                    own_pending = entry
                if entry[_E_CH] == ch:
                    same_ch = True
        if same_ch:
            handle = DeferredLoad(
                thread, sm, addr, ch, slow=False,
                block_mode=("channel", ch),
            )
            self._deferred.append(handle)
            return handle
        fr = self._fast_rng
        if own_pending is not None:
            if fr is not None and fr._i < fr._n:
                i = fr._i
                fr._i = i + 1
                roll = fr._dbuf[i]
            else:
                roll = self.rng.random()
            if roll >= self.bypass_p[own_pending[_E_CH]]:
                handle = DeferredLoad(
                    thread, sm, addr, ch, slow=False,
                    block_mode=("stores", None),
                )
                self._deferred.append(handle)
                return handle
            self.n_bypasses += 1
        if fr is not None and fr._i < fr._n:
            i = fr._i
            fr._i = i + 1
            roll = fr._dbuf[i]
        else:
            roll = self.rng.random()
        slow = roll < self.slow_p[ch]
        handle = DeferredLoad(thread, sm, addr, ch, slow)
        if slow:
            self.n_slow_loads += 1
            self._deferred.append(handle)
        else:
            handle.value = self.mem.get(addr, 0)
            handle.resolved = True
        return handle

    def poll_load(self, handle: DeferredLoad) -> object:
        """Value of a deferred load, or ``STALL`` if still in flight."""
        if not handle.resolved:
            return STALL
        return handle.value

    # ------------------------------------------------------------------
    # fences
    # ------------------------------------------------------------------
    def thread_pending(self, sm: int, thread: int) -> bool:
        """True when the thread has buffered stores or in-flight loads."""
        for entry in self.sm_buffers[sm]:
            if entry[_E_THREAD] == thread:
                return True
        return any(
            h.thread == thread and not h.resolved for h in self._deferred
        )

    def fence_begin(self, thread: int) -> None:
        """Mark a thread as fencing: its stores get priority FIFO drain.

        The thread's unconstrained slow loads resolve immediately;
        blocked loads resolve naturally once the priority drain clears
        their blocking stores.
        """
        self._fencing.add(thread)
        for handle in self._deferred:
            if handle.thread == thread and handle.block_mode is None:
                self._resolve_pending(handle)
        self._deferred = [h for h in self._deferred if not h.resolved]

    def fence_done(self, sm: int, thread: int) -> bool:
        """True when the fencing thread has no pending stores or loads."""
        for entry in self.sm_buffers[sm]:
            if entry[_E_THREAD] == thread:
                return False
        for handle in self._deferred:
            if handle.thread == thread and not handle.resolved:
                return False
        self._fencing.discard(thread)
        return True

    def drain_thread(self, sm: int, thread: int) -> None:
        """Synchronously drain one thread's stores in order (barriers)."""
        buf = self.sm_buffers[sm]
        if not buf:
            return
        drained = [e for e in buf if e[_E_THREAD] == thread]
        if drained:
            self._commit_out(
                sm, buf, drained, [e for e in buf if e[_E_THREAD] != thread]
            )

    # ------------------------------------------------------------------
    # the drain pump, called once per engine tick
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one tick: resolve slow loads, drain store buffers."""
        self.tick += 1
        if self._deferred:
            self._step_deferred()
        if self._n_buffered:
            self._step_buffers()

    def _step_buffers(self) -> None:
        nonempty = self._nonempty
        if len(nonempty) == 1:
            for sm in nonempty:
                break
            self._step_buffer(sm, self.sm_buffers[sm])
        else:
            for sm in sorted(nonempty):
                buf = self.sm_buffers[sm]
                if buf:
                    self._step_buffer(sm, buf)

    def drain_until(self, handles, max_ticks: int) -> None:
        """Step until no stores are buffered and all ``handles`` are
        resolved, or ``max_ticks`` elapse."""
        for _ in range(max_ticks):
            if not self._n_buffered and all(h.resolved for h in handles):
                return
            self.step()

    def _step_deferred(self) -> None:
        still = []
        resolve_p = self.resolve_p
        rng = self.rng
        fr = self._fast_rng
        for handle in self._deferred:
            if handle.resolved:
                continue
            if handle.block_mode is not None:
                if self._unblocked(handle):
                    self._resolve_pending(handle)
                else:
                    still.append(handle)
            else:
                if fr is not None and fr._i < fr._n:
                    i = fr._i
                    fr._i = i + 1
                    roll = fr._dbuf[i]
                else:
                    roll = rng.random()
                if roll < resolve_p[handle.ch]:
                    handle.value = self.mem.get(handle.addr, 0)
                    handle.resolved = True
                else:
                    still.append(handle)
        self._deferred = still

    def _unblocked(self, handle: DeferredLoad) -> bool:
        mode, arg = handle.block_mode
        if mode == "load":
            return arg.resolved
        thread = handle.thread
        for entry in self.sm_buffers[handle.sm]:
            if entry[_E_THREAD] == thread and (
                mode == "stores" or entry[_E_CH] == arg
            ):
                return False
        return True

    def _step_buffer(self, sm: int, buf: list[list]) -> None:
        rng = self.rng
        fencing = self._fencing
        if fencing:
            # Priority FIFO drain for fencing threads (single pass).
            drained = [e for e in buf if e[_E_THREAD] in fencing]
            if drained:
                self._commit_out(
                    sm, buf, drained,
                    [e for e in buf if e[_E_THREAD] not in fencing],
                )
                if not buf:
                    return
        horizon = self.tick - _MIN_AGE
        committed = 0
        drain_p = self.drain_p
        fr = self._fast_rng
        while buf and committed < _DRAIN_WIDTH:
            head = buf[0]
            if head[_E_TICK] > horizon:
                break  # head too young; younger entries behind it too
            idx = 0
            if len(buf) > 1 and buf[1][_E_TICK] <= horizon:
                # (the swap scan breaks immediately on a too-young first
                # candidate without drawing, so the gate is draw-free)
                idx = self._maybe_swap(buf, horizon, rng)
            if idx != 0:
                # A successful swap *is* the early out-of-order commit;
                # the overtaken head is parked in the congested queue.
                entry = buf.pop(idx)
                buf[0][_E_PARKED] = True
                self._n_buffered -= 1
                self._commit(entry)
                committed += 1
                continue
            p = drain_p[head[_E_CH]]
            if head[_E_PARKED]:
                p *= _PARKED_DRAIN
            if fr is not None and fr._i < fr._n:
                i = fr._i
                fr._i = i + 1
                roll = fr._dbuf[i]
            else:
                roll = rng.random()
            if roll < p:
                del buf[0]
                self._n_buffered -= 1
                self._commit(head)
                committed += 1
            else:
                break
        if not buf:
            self._nonempty.discard(sm)

    def _maybe_swap(
        self, buf: list[list], horizon: int, rng
    ) -> int:
        """Index of the entry to drain: 0, or a younger entry that is
        allowed to overtake the head."""
        head = buf[0]
        profile = self.profile
        min_dist = profile.store_store_min_distance
        fr = self._fast_rng
        for j in range(1, len(buf)):
            cand = buf[j]
            if cand[_E_TICK] > horizon:
                break
            if cand[_E_CH] == head[_E_CH]:
                leak = profile.store_swap_leak
                if leak <= 0.0:
                    continue
                # Maxwell write-combining leak: rare same-channel swap.
                if fr is not None and fr._i < fr._n:
                    i = fr._i
                    fr._i = i + 1
                    roll = fr._dbuf[i]
                else:
                    roll = rng.random()
                if roll < leak:
                    if self._oldest_for_addr(buf, j):
                        self.n_swaps += 1
                        return j
                continue
            if abs(cand[_E_ADDR] - head[_E_ADDR]) < min_dist:
                continue
            if fr is not None and fr._i < fr._n:
                i = fr._i
                fr._i = i + 1
                roll = fr._dbuf[i]
            else:
                roll = rng.random()
            if roll < self.swap_p[head[_E_CH]][cand[_E_CH]]:
                if self._oldest_for_addr(buf, j):
                    self.n_swaps += 1
                    return j
            return 0
        return 0

    @staticmethod
    def _oldest_for_addr(buf: list[list], j: int) -> bool:
        """Coherence guard: ``buf[j]`` may only overtake if no older entry
        targets the same address."""
        addr = buf[j][_E_ADDR]
        return all(buf[i][_E_ADDR] != addr for i in range(j))

    # ------------------------------------------------------------------
    # commit / resolve internals
    # ------------------------------------------------------------------
    def _commit_out(
        self, sm: int, buf: list[list], drained: list[list], keep: list[list]
    ) -> None:
        """Leave ``keep`` in SM ``sm``'s buffer ``buf`` and commit
        ``drained``, the rest of it, in FIFO order."""
        buf[:] = keep
        self._n_buffered -= len(drained)
        for entry in drained:
            self._commit(entry)
        if not buf:
            self._nonempty.discard(sm)

    def _commit(self, entry: list) -> None:
        # Program order within a channel: this thread's earlier deferred
        # loads of this address *or channel* must resolve before the
        # store lands (LB-shaped reordering needs distinct channels).
        if self._deferred:
            self._resolve_matching(
                entry[_E_THREAD], entry[_E_ADDR], entry[_E_CH]
            )
        self.mem[entry[_E_ADDR]] = entry[_E_VAL]
        self.n_drains += 1

    def _resolve_matching(
        self, thread: int, addr: int, ch: int | None = None
    ) -> None:
        if not self._deferred:
            return
        for handle in self._deferred:
            if (
                not handle.resolved
                and handle.thread == thread
                and (handle.addr == addr or (ch is not None and handle.ch == ch))
            ):
                self._resolve_pending(handle)
        self._deferred = [h for h in self._deferred if not h.resolved]

    def _resolve_pending(self, handle: DeferredLoad) -> None:
        handle.value = self.mem.get(handle.addr, 0)
        handle.resolved = True

    # ------------------------------------------------------------------
    # host-side access (kernel launch boundaries; no weak effects)
    # ------------------------------------------------------------------
    def host_read(self, buf, idx: int) -> object:
        """Read committed memory from the host (after a flush)."""
        return self.mem.get(buf.addr(idx), 0)

    def host_write(self, buf, idx: int, val: object) -> None:
        """Initialise memory from the host before a launch."""
        self.mem[buf.addr(idx)] = val

    def host_fill(self, buf, values) -> None:
        """Bulk host initialisation of a buffer (single dict update)."""
        values = list(values)
        if len(values) > buf.size:
            raise InvalidAccessError(
                f"host_fill of {len(values)} words overflows buffer "
                f"{buf.name!r} of size {buf.size}"
            )
        base = buf.base
        self.mem.update(zip(range(base, base + len(values)), values))

    # ------------------------------------------------------------------
    # introspection helpers (tests, debugging)
    # ------------------------------------------------------------------
    def pending_stores(self) -> int:
        """Total stores currently buffered across all SMs."""
        return self._n_buffered

    def flush_all(self) -> None:
        """Commit every buffered store in FIFO order (end of kernel)."""
        if self._n_buffered:
            for sm in sorted(self._nonempty):
                buf = self.sm_buffers[sm]
                for entry in buf:
                    self._commit(entry)
                buf.clear()
            self._nonempty.clear()
            self._n_buffered = 0
        if self._deferred:
            for handle in self._deferred:
                if not handle.resolved:
                    self._resolve_pending(handle)
            self._deferred = []

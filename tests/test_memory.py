"""Tests for the weak memory subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chips import SC_REFERENCE, get_chip
from repro.errors import InvalidAccessError
from repro.gpu.events import STALL
from repro.gpu.memory import MemorySystem, memory_tables
from repro.gpu.pressure import StressField
from repro.rng import BufferedRNG


def make_mem(chip_name="K20", stress=None, seed=0):
    chip = SC_REFERENCE if chip_name == "sc-ref" else get_chip(chip_name)
    field = stress if stress is not None else StressField.zero(chip)
    return MemorySystem(chip, field, np.random.default_rng(seed))


def drain(mem, ticks=100):
    for _ in range(ticks):
        if mem.pending_stores() == 0:
            return
        mem.step()
    mem.flush_all()


class TestBasicStoreLoad:
    def test_store_becomes_visible_after_drain(self):
        mem = make_mem()
        assert mem.write(0, 0, 100, 42)
        drain(mem)
        assert mem.read(1, 1, 100) == 42

    def test_unwritten_reads_zero(self):
        assert make_mem().read(0, 0, 5) == 0

    def test_forwarding_same_sm(self):
        mem = make_mem()
        mem.write(0, 0, 100, 7)
        # Another thread on the same SM sees the buffered store.
        assert mem.read(0, 1, 100) == 7

    def test_other_sm_sees_stale_before_drain(self):
        mem = make_mem()
        mem.write(0, 0, 100, 7)
        assert mem.read(1, 1, 100) == 0

    def test_same_channel_load_stalls_on_own_store(self):
        mem = make_mem()
        chip = mem.profile
        mem.write(0, 0, 0, 1)
        # Different address, same channel: FIFO, load must wait.
        state = {}
        assert mem.read(0, 0, 1, state) is STALL

    def test_host_read_write(self):
        from repro.gpu.addresses import AddressSpace

        mem = make_mem()
        buf = AddressSpace().alloc("b", 4)
        mem.host_write(buf, 2, 9)
        assert mem.host_read(buf, 2) == 9
        mem.host_fill(buf, [1, 2, 3, 4])
        assert [mem.host_read(buf, i) for i in range(4)] == [1, 2, 3, 4]


class TestCoherence:
    def test_same_address_fifo(self):
        # Two stores to one address from one thread commit in order.
        for seed in range(20):
            mem = make_mem(seed=seed)
            mem.write(0, 0, 100, 1)
            mem.write(0, 0, 100, 2)
            drain(mem)
            assert mem.mem[100] == 2

    def test_flush_commits_everything(self):
        mem = make_mem()
        for i in range(10):
            mem.write(0, 0, 100 + 64 * i, i)
        mem.flush_all()
        assert mem.pending_stores() == 0
        for i in range(10):
            assert mem.mem[100 + 64 * i] == i


class TestAtomics:
    def test_rmw_returns_old_value(self):
        mem = make_mem()
        assert mem.rmw(0, 0, 50, lambda v: v + 1) == 0
        assert mem.rmw(0, 0, 50, lambda v: v + 1) == 1
        assert mem.mem[50] == 2

    def test_rmw_commits_same_address_stores_first(self):
        mem = make_mem()
        mem.write(0, 0, 50, 10)
        old = mem.rmw(0, 0, 50, lambda v: v + 1)
        assert old == 10
        assert mem.mem[50] == 11

    def test_rmw_waits_for_own_stores_on_sc(self):
        mem = make_mem("sc-ref")
        mem.write(0, 0, 100, 1)
        state = {}
        # Different address pending: the atomic must stall (no bypass
        # on the SC reference chip).
        assert mem.rmw(0, 0, 200, lambda v: v + 1, state) is STALL

    def test_rmw_proceeds_without_pending_stores(self):
        mem = make_mem("sc-ref")
        assert mem.rmw(0, 0, 200, lambda v: v + 1, {}) == 0

    def test_rmw_bypass_under_pressure(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        bypasses = 0
        for seed in range(300):
            mem = MemorySystem(chip, field, np.random.default_rng(seed))
            mem.write(0, 0, 0, 1)  # channel 0 (stressed)
            if mem.rmw(0, 0, 512, lambda v: v + 1, {}) is not STALL:
                bypasses += 1
        assert bypasses > 10  # atomics do overtake under stress


class TestDeferredLoads:
    def test_forwarded_immediately(self):
        mem = make_mem()
        mem.write(0, 0, 100, 5)
        handle = mem.issue_load(0, 1, 100)
        assert handle.resolved and handle.value == 5

    def test_plain_load_resolves_now(self):
        mem = make_mem()
        mem.mem[100] = 3
        handle = mem.issue_load(0, 0, 100)
        assert mem.poll_load(handle) == 3

    def test_blocked_by_own_same_channel_store(self):
        mem = make_mem("sc-ref")
        mem.write(0, 0, 0, 9)
        handle = mem.issue_load(0, 0, 1)  # same channel, different addr
        assert not handle.resolved
        drain(mem)
        mem.step()
        assert handle.resolved

    def test_load_load_same_channel_ordering(self):
        # A second load on the same channel chains behind the first.
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        mem = MemorySystem(chip, field, np.random.default_rng(3))
        first = None
        # Find a slow load, then issue a nearby one.
        for _ in range(200):
            h = mem.issue_load(0, 0, 0)
            if not h.resolved:
                first = h
                break
        if first is None:
            pytest.skip("no slow load sampled")
        second = mem.issue_load(0, 0, 1)
        assert not second.resolved
        assert second.block_mode is not None

    def test_fence_resolves_pending_loads(self):
        chip = get_chip("Titan")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        for seed in range(100):
            mem = MemorySystem(chip, field, np.random.default_rng(seed))
            handle = mem.issue_load(0, 0, 0)
            if handle.resolved:
                continue
            mem.fence_begin(0)
            for _ in range(50):
                if mem.fence_done(0, 0):
                    break
                mem.step()
            assert handle.resolved
            return
        pytest.skip("no slow load sampled")


class TestFences:
    def test_fence_drains_thread_stores(self):
        mem = make_mem()
        mem.write(0, 0, 0, 1)
        mem.write(0, 0, 640, 2)
        mem.fence_begin(0)
        for _ in range(20):
            if mem.fence_done(0, 0):
                break
            mem.step()
        assert mem.fence_done(0, 0)
        assert mem.mem[0] == 1 and mem.mem[640] == 2

    def test_fence_only_waits_for_own_thread(self):
        mem = make_mem()
        mem.write(0, 1, 0, 1)  # another thread's store
        mem.fence_begin(0)
        mem.step()
        assert mem.fence_done(0, 0)

    def test_drain_thread_is_synchronous(self):
        mem = make_mem()
        mem.write(0, 0, 0, 1)
        mem.write(0, 1, 64, 2)
        mem.drain_thread(0, 0)
        assert mem.mem[0] == 1
        assert 64 not in mem.mem  # other thread untouched

    def test_thread_pending(self):
        mem = make_mem()
        assert not mem.thread_pending(0, 0)
        mem.write(0, 0, 0, 1)
        assert mem.thread_pending(0, 0)


class TestSequentialConsistency:
    """On sc-ref no weak outcome is ever observable."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mp_never_weak_on_sc(self, seed):
        mem = make_mem("sc-ref", seed=seed)
        # T0 on SM0: x=1 then y=1 (distant addresses).
        mem.write(0, 0, 0, 1)
        mem.write(0, 0, 640, 1)
        seen_y = seen_x_after = None
        for _ in range(50):
            mem.step()
            y = mem.read(1, 1, 640)
            x = mem.read(1, 1, 0)
            if y == 1:
                seen_y, seen_x_after = y, x
                break
        if seen_y == 1:
            assert seen_x_after == 1  # no MP reordering on SC

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_no_swaps_or_bypasses_on_sc(self, seed):
        mem = make_mem("sc-ref", seed=seed)
        for i in range(12):
            mem.write(i % 4, i, 64 * i, i)
        drain(mem, 200)
        assert mem.n_swaps == 0
        assert mem.n_bypasses == 0
        assert mem.n_slow_loads == 0


class TestWeakBehaviourStatistics:
    @pytest.mark.slow
    def test_mp_swap_rate_grows_with_pressure(self):
        chip = get_chip("K20")
        quiet = StressField.zero(chip)
        loud = StressField.from_locations(
            chip, 0, [0, 2 * chip.patch_size], 1.0, 640
        )

        def swap_rate(field):
            swaps = 0
            for seed in range(200):
                mem = MemorySystem(
                    chip, field, np.random.default_rng(seed)
                )
                mem.write(0, 0, 0, 1)        # channel 0
                mem.write(0, 0, 2 * chip.patch_size, 1)  # channel 2
                drain(mem, 60)
                swaps += mem.n_swaps
            return swaps

        assert swap_rate(loud) > 5 * max(swap_rate(quiet), 1)

    def test_min_distance_gates_swaps(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        swaps = 0
        for seed in range(200):
            mem = MemorySystem(chip, field, np.random.default_rng(seed))
            mem.write(0, 0, 0, 1)
            mem.write(0, 0, 8, 1)  # closer than min distance
            drain(mem, 60)
            swaps += mem.n_swaps
        assert swaps == 0


def drain_counters_consistent(mem):
    """Recompute the drain-pump counters from the buffers themselves
    and compare against the incrementally maintained ones."""
    total = sum(len(buf) for buf in mem.sm_buffers)
    nonempty = {sm for sm, buf in enumerate(mem.sm_buffers) if buf}
    return total == mem.pending_stores() and nonempty == mem._nonempty


class TestBufferIndices:
    """The drain-pump counters must track the buffers through every
    removal path (head drain, swap, rmw, fencing, drain_thread, flush)."""

    def test_consistent_under_random_workload(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, 2 * chip.patch_size], 1.0, 640
        )
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            mem = MemorySystem(chip, field, np.random.default_rng(seed))
            for _ in range(120):
                op = rng.integers(0, 8)
                sm = int(rng.integers(0, 3))
                thread = int(rng.integers(0, 4))
                addr = int(rng.integers(0, 8)) * 64
                if op <= 2:
                    mem.write(sm, thread, addr, 1)
                elif op == 3:
                    mem.rmw(sm, thread, addr, lambda v: v + 1, {})
                elif op == 4:
                    mem.issue_load(sm, thread, addr)
                elif op == 5:
                    mem.drain_thread(sm, thread)
                elif op == 6:
                    mem.fence_begin(thread)
                    mem.step()
                    mem.fence_done(sm, thread)
                else:
                    mem.step()
                assert drain_counters_consistent(mem)
            mem.flush_all()
            assert drain_counters_consistent(mem)
            assert mem.pending_stores() == 0

    def test_rmw_commits_multiple_same_address_stores_in_order(self):
        mem = make_mem()
        mem.write(0, 0, 50, 10)
        mem.write(0, 1, 50, 20)  # other thread, same address, same SM
        mem.write(0, 0, 640, 7)  # unrelated channel, must stay buffered
        old = mem.rmw(0, 2, 50, lambda v: v + 1)
        # FIFO of the two same-address stores: 10 then 20, atomic last.
        assert old == 20
        assert mem.mem[50] == 21
        assert mem.pending_stores() == 1  # the unrelated store remains
        assert drain_counters_consistent(mem)

    def test_fencing_drain_preserves_order_and_other_threads(self):
        mem = make_mem()
        mem.write(0, 0, 0, 1)
        mem.write(0, 1, 64, 2)
        mem.write(0, 0, 128, 3)
        mem.fence_begin(0)
        mem.step()  # priority-drains thread 0's stores in FIFO order
        # The fencing thread's stores are committed immediately; the
        # other thread's store stays subject to the normal drain roll.
        assert mem.mem[0] == 1 and mem.mem[128] == 3
        assert not mem.thread_pending(0, 0)
        assert mem.pending_stores() in (0, 1)
        assert drain_counters_consistent(mem)

    def test_drain_thread_no_op_without_stores(self):
        mem = make_mem()
        mem.write(0, 1, 0, 5)
        mem.drain_thread(0, 0)  # thread 0 has nothing buffered
        assert mem.pending_stores() == 1
        assert drain_counters_consistent(mem)

    def test_unblocked_follows_buffer(self):
        mem = make_mem("sc-ref")
        mem.write(0, 0, 0, 9)
        handle = mem.issue_load(0, 0, 1)  # same channel -> blocked
        assert not handle.resolved
        assert not mem._unblocked(handle)
        drain(mem)
        assert mem._unblocked(handle)

    @pytest.mark.parametrize("op", ["read", "issue_load"])
    def test_one_pass_scan_precedence(self, op):
        """Forwarding beats same-channel FIFO, FIFO beats the bypass
        candidate (the thread's latest entry), and only the loading
        thread's own entries hold its load back."""

        def load(mem, addr):
            if op == "read":
                return mem.read(0, 0, addr, {})
            return mem.issue_load(0, 0, addr)

        # (a) Thread 1's buffered store to 1 is forwarded to thread 0,
        # whose own store to 0 sits on the same channel, whichever of
        # the two is younger.
        for stores in ([(0, 0, 9), (1, 1, 5)], [(1, 1, 5), (0, 0, 9)]):
            mem = make_mem()
            for thread, addr, val in stores:
                mem.write(0, thread, addr, val)
            got = load(mem, 1)
            if op == "read":
                assert got == 5
            else:
                assert got.resolved and got.value == 5
        # (b) Thread 0's older store shares the load's channel, its
        # latest is on another channel: same-channel FIFO holds it back.
        mem = make_mem()
        other = mem.profile.patch_size
        assert mem.profile.channel(other) != mem.profile.channel(1)
        mem.write(0, 0, 0, 9)
        mem.write(0, 0, other, 7)
        got = load(mem, 1)
        if op == "read":
            assert got is STALL
        else:
            assert not got.resolved and got.block_mode == ("channel", 0)
        # (c) Only thread 1 has a same-channel store: thread 0 reads
        # memory, unconstrained.
        mem = make_mem()
        mem.mem[1] = 3
        mem.write(0, 1, 0, 9)
        got = load(mem, 1)
        if op == "read":
            assert got == 3
        else:
            assert got.block_mode is None
            assert got.resolved and got.value == 3


class TestReset:
    def test_reset_equivalent_to_fresh_instance(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, 2 * chip.patch_size], 1.0, 640
        )

        def run(mem, rng):
            mem.write(0, 0, 0, 1)
            mem.write(0, 0, 2 * chip.patch_size, 1)
            out = []
            for _ in range(40):
                mem.step()
                out.append(mem.read(1, 1, 0))
            mem.flush_all()
            return out, mem.n_drains, mem.n_swaps

        for seed in range(25):
            fresh = run(
                MemorySystem(chip, field, np.random.default_rng(seed)),
                None,
            )
            reused = MemorySystem(
                chip, StressField.zero(chip), np.random.default_rng(999)
            )
            reused.write(0, 3, 512, 8)  # dirty it
            reused.issue_load(0, 2, 640)
            reused.reset(stress=field, rng=np.random.default_rng(seed))
            assert run(reused, None) == fresh
            assert reused.tick > 0  # ran; reset rewound it before

    def test_reset_clears_state(self):
        mem = make_mem()
        mem.write(0, 0, 0, 1)
        mem.mem[999] = 5
        mem.fence_begin(0)
        mem.reset()
        assert mem.pending_stores() == 0
        assert mem.mem == {}
        assert mem.tick == 0
        assert mem._fencing == set()
        assert mem.n_drains == 0
        assert drain_counters_consistent(mem)

    def test_reset_swaps_weak_scale(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        a = MemorySystem(chip, field, weak_scale=1.0)
        b = MemorySystem(chip, field, weak_scale=0.25)
        a.reset(weak_scale=0.25)
        assert a.bypass_p == b.bypass_p
        assert a.drain_p == b.drain_p


class TestTableCache:
    def test_tables_shared_between_instances(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        a = MemorySystem(chip, field)
        b = MemorySystem(chip, field)
        assert a.drain_p is b.drain_p  # cached, not recomputed
        assert a.swap_p is b.swap_p

    def test_tables_differ_across_scales_and_fields(self):
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        base = memory_tables(chip, field, 1.0).packed
        assert memory_tables(chip, field, 0.5).packed != base
        other = StressField.from_locations(
            chip, 0, [0, 3 * chip.patch_size], 1.0, 640
        )
        assert memory_tables(chip, other, 1.0).packed != base

    def test_tables_match_direct_computation(self):
        """Cached tables are plain-list copies of the original numpy
        formulas (spot-check drain_p against the closed form)."""
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        drain_p, swap_p, bypass_p, slow_p, resolve_p = memory_tables(
            chip, field, 1.0
        ).lists
        n = chip.n_channels
        assert len(drain_p) == n
        assert len(swap_p) == n and all(len(row) == n for row in swap_p)
        expected = 1.0 / (
            1.0
            + 0.05
            + chip.latency_gain
            * field.press
            * chip.sensitivity
            * field.turbulence
        )
        assert drain_p == expected.tolist()


class TestHostFill:
    def test_bulk_fill_matches_host_writes(self):
        from repro.gpu.addresses import AddressSpace

        mem = make_mem()
        buf = AddressSpace().alloc("b", 8)
        mem.host_fill(buf, range(8))
        assert [mem.host_read(buf, i) for i in range(8)] == list(range(8))

    def test_overflow_rejected(self):
        from repro.gpu.addresses import AddressSpace

        mem = make_mem()
        buf = AddressSpace().alloc("b", 4)
        with pytest.raises(InvalidAccessError):
            mem.host_fill(buf, [0] * 5)


class TestChannelFastPath:
    def test_shift_mask_matches_division(self):
        from repro.chips import all_chips

        for chip in all_chips():
            for addr in list(range(0, 4 * chip.patch_size * chip.n_channels, 7)):
                assert chip.channel(addr) == (
                    addr // chip.patch_size
                ) % chip.n_channels

    def test_memory_uses_same_mapping(self):
        # 980 takes the shift-and-mask form; C2075's 6 channels take
        # the division form.
        assert get_chip("980").channel_shift is not None
        assert get_chip("C2075").channel_shift is None
        for name in ("980", "C2075"):
            chip = get_chip(name)
            for addr in (3 * chip.patch_size + 5, 7 * chip.patch_size):
                mem = MemorySystem(chip, StressField.zero(chip))
                mem.write(0, 0, addr, 1)
                assert mem.sm_buffers[0][0][3] == chip.channel(addr)
                handle = mem.issue_load(1, 1, addr + 1)
                assert handle.ch == chip.channel(addr + 1)


class TestBufferedRNGIntegration:
    def test_memory_system_identical_with_buffered_rng(self):
        """A MemorySystem driven by a BufferedRNG reproduces the raw
        Generator behaviour draw for draw."""
        chip = get_chip("K20")
        field = StressField.from_locations(
            chip, 0, [0, 2 * chip.patch_size], 1.0, 640
        )

        def run(rng):
            mem = MemorySystem(chip, field, rng)
            trace = []
            mem.write(0, 0, 0, 1)
            mem.write(0, 0, 2 * chip.patch_size, 2)
            h = mem.issue_load(1, 1, 2 * chip.patch_size)
            for _ in range(50):
                mem.step()
                trace.append((mem.read(1, 1, 0), mem.poll_load(h)))
            mem.flush_all()
            return trace, mem.n_drains, mem.n_swaps, mem.n_slow_loads

        for seed in range(40):
            raw = run(np.random.default_rng(seed))
            buffered = run(BufferedRNG(np.random.default_rng(seed)))
            assert raw == buffered

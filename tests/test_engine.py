"""Tests for the SIMT execution engine and kernel DSL."""

import numpy as np
import pytest

from repro.chips import SC_REFERENCE, get_chip
from repro.gpu import grid as grids
from repro.gpu.addresses import AddressSpace
from repro.gpu.engine import Engine, Outcome
from repro.errors import InvalidAccessError
from repro.gpu.events import (
    OP_BARRIER,
    OP_FENCE,
    OP_ISSUE,
    OP_LOAD,
    OP_POLL,
    OP_RMW,
    OP_STORE,
)
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import MemorySystem
from repro.gpu.pressure import StressField


def run_kernel(fn, args, grid=2, block=4, warp=4, chip=None, seed=0,
               max_ticks=50_000, fence_sites=frozenset()):
    chip = chip or SC_REFERENCE
    mem = MemorySystem(chip, StressField.zero(chip),
                       np.random.default_rng(seed))
    engine = Engine(chip, mem, np.random.default_rng(seed + 1),
                    max_ticks=max_ticks)
    config = LaunchConfig(grid_dim=grid, block_dim=block, warp_size=warp)
    result = engine.run(Kernel("k", fn, tuple(args)), config,
                        fence_sites=fence_sites)
    return result, mem


class TestBasicExecution:
    def test_every_thread_runs(self):
        space = AddressSpace()
        out = space.alloc("out", 8)

        def kernel(ctx, out):
            yield ctx.store(out, ctx.global_tid(), ctx.global_tid())

        result, mem = run_kernel(kernel, [out])
        assert result.outcome is Outcome.OK
        assert [mem.host_read(out, i) for i in range(8)] == list(range(8))

    def test_load_returns_initialised_value(self):
        space = AddressSpace()
        data = space.alloc("data", 4)
        out = space.alloc("out", 4)

        def kernel(ctx, data, out):
            v = yield ctx.load(data, ctx.global_tid() % 4)
            yield ctx.store(out, ctx.global_tid() % 4, v * 2)

        def init(mem):
            mem.host_fill(data, [1, 2, 3, 4])

        chip = SC_REFERENCE
        mem = MemorySystem(chip, StressField.zero(chip),
                           np.random.default_rng(0))
        init(mem)
        engine = Engine(chip, mem, np.random.default_rng(1))
        engine.run(Kernel("k", kernel, (data, out)),
                   LaunchConfig(1, 4, 4))
        assert [mem.host_read(out, i) for i in range(4)] == [2, 4, 6, 8]

    def test_atomic_add_counts_threads(self):
        space = AddressSpace()
        counter = space.alloc("counter", 1)

        def kernel(ctx, counter):
            yield ctx.atomic_add(counter, 0, 1)

        result, mem = run_kernel(kernel, [counter], grid=4, block=8)
        assert mem.host_read(counter, 0) == 32

    def test_atomic_cas_exactly_one_winner(self):
        space = AddressSpace()
        cell = space.alloc("cell", 1)
        wins = space.alloc("wins", 1)

        def kernel(ctx, cell, wins):
            old = yield ctx.atomic_cas(cell, 0, 0, 1)
            if old == 0:
                yield ctx.atomic_add(wins, 0, 1)

        result, mem = run_kernel(kernel, [cell, wins], grid=4, block=8)
        assert mem.host_read(wins, 0) == 1

    def test_atomic_inc_mod_wraps(self):
        space = AddressSpace()
        c = space.alloc("c", 1)

        def kernel(ctx, c):
            yield ctx.atomic_inc_mod(c, 0, 2)

        result, mem = run_kernel(kernel, [c], grid=1, block=6, warp=8)
        # 6 increments wrapping at limit 2: 1,2,0,1,2,0
        assert mem.host_read(c, 0) == 0


class TestBarriers:
    def test_barrier_orders_phases(self):
        space = AddressSpace()
        data = space.alloc("data", 8)
        out = space.alloc("out", 8)

        def kernel(ctx, data, out):
            yield ctx.store(data, ctx.tid, ctx.tid + 1)
            yield ctx.syncthreads()
            # Read a neighbour's value: must be visible after barrier.
            neighbour = (ctx.tid + 1) % ctx.block_dim
            v = yield ctx.load(data, neighbour)
            yield ctx.store(out, ctx.tid, v)

        result, mem = run_kernel(kernel, [data, out], grid=1, block=8,
                                 warp=4, seed=3)
        got = [mem.host_read(out, i) for i in range(8)]
        assert got == [(i + 1) % 8 + 1 for i in range(8)]

    def test_barrier_with_exited_threads_is_lenient(self):
        space = AddressSpace()
        out = space.alloc("out", 8)

        def kernel(ctx, out):
            if ctx.tid >= 4:
                return
            yield ctx.syncthreads()
            yield ctx.store(out, ctx.tid, 1)

        result, _mem = run_kernel(kernel, [out], grid=1, block=8)
        assert result.outcome is Outcome.OK


class TestTimeout:
    def test_nonterminating_kernel_times_out(self):
        def kernel(ctx):
            while True:
                yield from ctx.compute(1)

        result, _mem = run_kernel(kernel, [], grid=1, block=1,
                                  max_ticks=500)
        assert result.timed_out

    def test_timeout_can_raise(self):
        from repro.errors import KernelTimeoutError

        def kernel(ctx):
            while True:
                yield from ctx.compute(1)

        chip = SC_REFERENCE
        mem = MemorySystem(chip, StressField.zero(chip),
                           np.random.default_rng(0))
        engine = Engine(chip, mem, np.random.default_rng(1),
                        max_ticks=200, raise_on_timeout=True)
        with pytest.raises(KernelTimeoutError):
            engine.run(Kernel("k", kernel, ()), LaunchConfig(1, 1, 1))


class TestFenceInstrumentation:
    def test_site_fence_executes_when_active(self):
        space = AddressSpace()
        out = space.alloc("out", 4)

        def kernel(ctx, out):
            yield ctx.store(out, ctx.tid, 1, site="s1")

        result, _ = run_kernel(kernel, [out], grid=1, block=4,
                               fence_sites=frozenset({"s1"}))
        assert result.n_fences == 4

    def test_site_fence_skipped_when_inactive(self):
        space = AddressSpace()
        out = space.alloc("out", 4)

        def kernel(ctx, out):
            yield ctx.store(out, ctx.tid, 1, site="s1")

        result, _ = run_kernel(kernel, [out], grid=1, block=4)
        assert result.n_fences == 0

    def test_fence_with_pending_store_costs_more(self):
        space = AddressSpace()
        out = space.alloc("out", 8)
        data = space.alloc("data", 8)

        def store_kernel(ctx, out, data):
            yield ctx.store(out, ctx.tid, 1, site="s")

        def load_kernel(ctx, out, data):
            yield ctx.load(data, ctx.tid, site="s")

        chip = get_chip("K20")
        r_store, _ = run_kernel(store_kernel, [out, data], grid=1,
                                block=8, chip=chip,
                                fence_sites=frozenset({"s"}))
        r_load, _ = run_kernel(load_kernel, [out, data], grid=1,
                               block=8, chip=chip,
                               fence_sites=frozenset({"s"}))
        assert r_store.fence_stall_cycles > r_load.fence_stall_cycles


class TestMultiKernel:
    def test_run_all_accumulates(self):
        space = AddressSpace()
        c = space.alloc("c", 1)

        def k1(ctx, c):
            yield ctx.atomic_add(c, 0, 1)

        def k2(ctx, c):
            yield ctx.atomic_add(c, 0, 10)

        chip = SC_REFERENCE
        mem = MemorySystem(chip, StressField.zero(chip),
                           np.random.default_rng(0))
        engine = Engine(chip, mem, np.random.default_rng(1))
        cfg = LaunchConfig(1, 2, 2)
        result = engine.run_all(
            [(Kernel("k1", k1, (c,)), cfg), (Kernel("k2", k2, (c,)), cfg)]
        )
        assert result.outcome is Outcome.OK
        assert mem.host_read(c, 0) == 22
        assert result.ticks > 0


class TestLaunchConfig:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            LaunchConfig(0, 4, 4)
        with pytest.raises(ValueError):
            LaunchConfig(4, 0, 4)

    def test_warps_per_block_rounds_up(self):
        assert LaunchConfig(1, 10, 4).warps_per_block == 3
        assert LaunchConfig(1, 8, 4).warps_per_block == 2

    def test_n_threads(self):
        assert LaunchConfig(3, 5, 4).n_threads == 15


def _parking_kernel(ctx, flag, data):
    """Leaves each thread of a 4-thread SC block in a different state
    after one tick: 0 finished, 1 holding a stalled load, 2 parked at a
    barrier 1 and 3 never reach, 3 asleep after a fence.  All spin on
    ``flag`` until the host sets it."""
    if ctx.tid == 0:
        return
    if ctx.tid == 1:
        yield ctx.store(data, 0, 1)
        # SC loads never bypass the thread's own buffered store.
        yield ctx.load(data, 32)
    elif ctx.tid == 2:
        yield ctx.syncthreads()
    else:
        yield ctx.fence_device()
    while (yield ctx.load(flag, 0, site="spin")) == 0:
        yield from ctx.compute(1)


def _grid(config):
    """The process's grid for ``config``, as its last launch left it."""
    return grids._GRIDS[config]


class TestBurstLoop:
    def test_fence_mid_burst_keeps_the_burst_and_sleeps_next_tick(self):
        def kernel(ctx):
            yield ctx.fence_device()
            yield from ctx.compute(4)

        # Tick 1: fence (no stores to drain: 2 cycles) + 3 noops; tick 2
        # asleep; tick 3: the last noop and the exit.
        result, _ = run_kernel(kernel, [], grid=1, block=1, warp=1)
        assert result.n_fences == 1
        assert result.fence_stall_cycles == 2
        assert result.ticks == 3

    def test_stalled_op_ends_the_burst_and_keeps_its_state(self):
        space = AddressSpace()
        data = space.alloc("data", 64)

        def kernel(ctx, data):
            yield ctx.store(data, 0, 1)
            yield ctx.load(data, 32)
            yield from ctx.compute(2)

        chip = SC_REFERENCE
        mem = MemorySystem(chip, StressField.zero(chip),
                           np.random.default_rng(0))
        engine = Engine(chip, mem, np.random.default_rng(1), max_ticks=1)
        config = LaunchConfig(1, 1, 1)
        result = engine.run(Kernel("k", kernel, (data,)), config)
        assert result.timed_out
        (thread,) = _grid(config).threads
        assert thread.op == (OP_LOAD, data.addr(32), False)
        assert thread.op_state == {"waiting": True}

    def test_unknown_op_names_the_op_and_the_thread(self):
        def kernel(ctx):
            if ctx.tid == 1:
                yield ("bogus", 7)

        with pytest.raises(ValueError,
                           match=r"unknown op \('bogus', 7\) from thread 1"):
            run_kernel(kernel, [], grid=1, block=2, warp=2)


#: A buffer for kernels that never reach memory: their op fails first.
_DATA = AddressSpace().alloc("data", 4)

#: Each access constructor, its arguments after the buffer and index,
#: and the kind of op it builds.
_ACCESSES = [
    ("load", (), OP_LOAD),
    ("store", (1,), OP_STORE),
    ("atomic_cas", (0, 1), OP_RMW),
    ("atomic_exch", (1,), OP_RMW),
    ("atomic_add", (1,), OP_RMW),
    ("atomic_inc_mod", (2,), OP_RMW),
    ("issue_load", (), OP_ISSUE),
]

#: Every constructor with a full argument list, and its op kind.
_CONSTRUCTORS = [
    (name, (_DATA, 0, *args), kind) for name, args, kind in _ACCESSES
] + [
    ("await_load", (None,), OP_POLL),
    ("fence_device", (), OP_FENCE),
    ("syncthreads", (), OP_BARRIER),
]


class TestOpConstructors:
    @pytest.mark.parametrize("index", [-1, 4], ids=["below", "above"])
    @pytest.mark.parametrize(
        "name,args",
        [(name, args) for name, args, _kind in _ACCESSES],
        ids=[a[0] for a in _ACCESSES],
    )
    def test_out_of_range_index_fails_the_run_naming_the_buffer(
        self, name, args, index
    ):
        def kernel(ctx):
            yield getattr(ctx, name)(_DATA, index, *args)

        with pytest.raises(
            InvalidAccessError,
            match=rf"index {index} out of bounds for buffer 'data' of size 4",
        ):
            run_kernel(kernel, [], grid=1, block=1, warp=1)

    @pytest.mark.parametrize(
        "name,args,kind", _CONSTRUCTORS, ids=[c[0] for c in _CONSTRUCTORS]
    )
    def test_yield_from_a_constructor_is_an_unknown_op(self, name, args,
                                                        kind):
        """Delegating to an op tuple hands the engine its kind string
        first: the stray idiom must fail, never mis-simulate."""
        def kernel(ctx):
            if ctx.tid == 1:
                yield from getattr(ctx, name)(*args)

        with pytest.raises(
            ValueError, match=rf"unknown op '{kind}' from thread 1"
        ):
            run_kernel(kernel, [], grid=1, block=2, warp=2)

    def test_fenced_load_sends_its_value_after_the_fence(self):
        space = AddressSpace()
        data = space.alloc("data", 4)
        out = space.alloc("out", 4)

        def kernel(ctx, data, out):
            v = yield ctx.load(data, ctx.tid, site="ld")
            yield ctx.store(out, ctx.tid, v + 1, site="st")
            after = yield ctx.fence_device()
            yield ctx.store(out, ctx.tid + 2, after)

        chip = SC_REFERENCE
        mem = MemorySystem(chip, StressField.zero(chip),
                           np.random.default_rng(0))
        mem.host_fill(data, [5, 6, 7, 8])
        engine = Engine(chip, mem, np.random.default_rng(1))
        result = engine.run(Kernel("k", kernel, (data, out)),
                            LaunchConfig(1, 2, 2),
                            fence_sites=frozenset({"ld", "st"}))
        assert result.n_fences == 6
        assert [mem.host_read(out, i) for i in range(4)] == [6, 7, None, None]

    def test_atomic_spends_two_latency_slots_before_its_rmw(self):
        space = AddressSpace()
        c = space.alloc("c", 1)

        def kernel(ctx, c):
            yield ctx.atomic_add(c, 0, 1)
            yield ctx.atomic_add(c, 0, 1)

        # Tick 1: two latency slots, the first RMW, one latency slot;
        # tick 2: the second latency slot, the RMW and the exit.
        result, mem = run_kernel(kernel, [c], grid=1, block=1, warp=1)
        assert result.ticks == 2
        assert mem.host_read(c, 0) == 2


class TestGridRelaunch:
    @staticmethod
    def _timeout_then_finish(randomise, reuse):
        """A timed-out run, a host write that lets the kernel finish,
        then a second run on the same engine and grid, or on a fresh
        engine and a grid built from an emptied cache."""
        chip = SC_REFERENCE
        space = AddressSpace()
        flag = space.alloc("flag", 1)
        data = space.alloc("data", 64)
        mem = MemorySystem(chip, StressField.zero(chip),
                           np.random.default_rng(0))
        kernel = Kernel("park", _parking_kernel, (flag, data))
        config = LaunchConfig(1, 4, 4)
        engine = Engine(chip, mem, np.random.default_rng(1), max_ticks=1,
                        randomise=randomise)
        first = engine.run(kernel, config, fence_sites=frozenset({"spin"}))
        assert first.timed_out
        t0, t1, t2, t3 = _grid(config).threads
        assert t0.done
        assert t1.op is not None and t1.op_state
        assert t2.at_barrier
        assert t3.sleep_until > first.ticks

        mem.host_write(flag, 0, 1)
        if reuse:
            engine.rng = np.random.default_rng(2)
            engine.max_ticks = 1000
        else:
            engine = Engine(chip, mem, np.random.default_rng(2),
                            max_ticks=1000, randomise=randomise)
            grids._GRIDS.clear()
        second = engine.run(kernel, config)
        # Equal next draws: both runs made the same draws in total.
        return (second, dict(mem.mem), mem.rng.random(),
                engine.rng.random())

    @pytest.mark.parametrize("randomise", [False, True])
    def test_timed_out_grid_relaunches_like_a_fresh_engine(self, randomise):
        reused = self._timeout_then_finish(randomise, reuse=True)
        fresh = self._timeout_then_finish(randomise, reuse=False)
        assert reused[0].outcome is Outcome.OK
        assert reused[0].n_fences == 1
        assert reused == fresh

    def test_randomised_relaunch_replays_the_block_shuffle(self):
        chip = get_chip("K20")
        space = AddressSpace()
        data = space.alloc("data", 32)
        out = space.alloc("out", 32)

        def kernel(ctx, data, out):
            g = ctx.global_tid()
            yield ctx.store(data, g, g + 1)
            yield ctx.syncthreads()
            v = yield ctx.load(data, (g + 1) % ctx.n_threads)
            yield ctx.store(out, g, v)

        kernel = Kernel("k", kernel, (data, out))
        config = LaunchConfig(8, 4, 2)

        def runs(reuse):
            mem = MemorySystem(chip, StressField.zero(chip),
                               np.random.default_rng(0))
            engine = None
            rows = []
            for seed in (10, 11, 12):
                if reuse and engine is not None:
                    engine.rng = np.random.default_rng(seed)
                else:
                    engine = Engine(chip, mem, np.random.default_rng(seed),
                                    n_stress_units=3, randomise=True)
                    grids._GRIDS.clear()
                result = engine.run(kernel, config)
                grid = _grid(config)
                sms = [block.sm for block in grid.blocks]
                thread_sms = [thread.sm for thread in grid.threads]
                rows.append((result, sms, thread_sms, dict(mem.mem)))
            return rows

        reused = runs(reuse=True)
        assert reused == runs(reuse=False)
        assert len({tuple(row[1]) for row in reused}) == 3

    def test_same_kernel_new_config_gets_a_fresh_grid(self):
        space = AddressSpace()
        out = space.alloc("out", 16)

        def kernel(ctx, out):
            yield ctx.store(out, ctx.global_tid(), ctx.global_tid() + 1)

        kernel = Kernel("k", kernel, (out,))
        small, large = LaunchConfig(1, 4, 4), LaunchConfig(2, 8, 4)
        chip = SC_REFERENCE

        def run(reuse):
            mem = MemorySystem(chip, StressField.zero(chip),
                               np.random.default_rng(0))
            engine = Engine(chip, mem, np.random.default_rng(1))
            engine.run(kernel, small)
            if reuse:
                engine.rng = np.random.default_rng(2)
            else:
                engine = Engine(chip, mem, np.random.default_rng(2))
                grids._GRIDS.clear()
            result = engine.run(kernel, large)
            return result, dict(mem.mem)

        result, image = run(reuse=True)
        assert _grid(small) is not _grid(large)
        assert [len(_grid(c).threads) for c in (small, large)] == [4, 16]
        assert [image.get(out.addr(i), 0) for i in range(16)] == list(
            range(1, 17)
        )
        assert (result, image) == run(reuse=False)

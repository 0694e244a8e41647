"""Cross-module property-based tests on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chips import SC_REFERENCE, all_chips, get_chip
from repro.gpu.addresses import AddressSpace
from repro.gpu.engine import Engine
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import MemorySystem
from repro.gpu.pressure import StressField
from repro.litmus import MP, run_litmus
from repro.stress.strategies import FixedLocationStress, NoStress

CHIP_NAMES = [c.short_name for c in all_chips()]


class TestMemoryInvariants:
    """Invariants that must hold on every chip, weak or not."""

    @settings(max_examples=25, deadline=None)
    @given(
        chip_name=st.sampled_from(CHIP_NAMES),
        seed=st.integers(0, 100_000),
        writes=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 15),
                      st.integers(1, 100)),
            min_size=1, max_size=20,
        ),
    )
    def test_per_address_final_value_is_some_write(
        self, chip_name, seed, writes
    ):
        """After a full flush, each address holds a value that was
        actually written to it (no corruption, no cross-talk)."""
        chip = get_chip(chip_name)
        field = StressField.from_locations(
            chip, 0, [0, chip.patch_size], 1.0, 640
        )
        mem = MemorySystem(chip, field, np.random.default_rng(seed))
        written: dict[int, set[int]] = {}
        for thread, slot, value in writes:
            addr = slot * 64
            while not mem.write(thread % chip.n_sms, thread, addr, value):
                mem.step()
            written.setdefault(addr, set()).add(value)
            mem.step()
        mem.flush_all()
        for addr, values in written.items():
            assert mem.mem[addr] in values

    @settings(max_examples=25, deadline=None)
    @given(
        chip_name=st.sampled_from(CHIP_NAMES),
        seed=st.integers(0, 100_000),
        n=st.integers(1, 30),
    )
    def test_atomic_increments_never_lost(self, chip_name, seed, n):
        """Atomics are linearisable: n increments sum to n even under
        stress, on every chip."""
        chip = get_chip(chip_name)
        field = StressField.uniform(chip, 0.5)
        mem = MemorySystem(chip, field, np.random.default_rng(seed))
        for i in range(n):
            result = mem.rmw(i % chip.n_sms, i, 7, lambda v: v + 1, {})
            assert result is not None
            mem.step()
        assert mem.mem[7] == n

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_fence_publishes_before_subsequent_atomic(self, seed):
        """store; fence; atomic — the store is globally visible before
        the atomic executes, on every chip (this is the hardening
        guarantee applications rely on)."""
        for chip in all_chips():
            mem = MemorySystem(
                chip,
                StressField.uniform(chip, 1.0),
                np.random.default_rng(seed),
            )
            assert mem.write(0, 0, 0, 42)
            mem.fence_begin(0)
            for _ in range(100):
                if mem.fence_done(0, 0):
                    break
                mem.step()
            assert mem.fence_done(0, 0)
            # At this instant any observer reads the new value.
            assert mem.read(1, 1, 0) == 42


class TestEngineInvariants:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        grid=st.integers(1, 4),
        block=st.sampled_from([4, 8]),
    )
    def test_grid_reduction_is_exact_with_atomics(self, seed, grid, block):
        """Atomic-based reductions are exact on every chip regardless
        of stress (only plain-store idioms exhibit weak errors)."""
        chip = get_chip("Titan")
        space = AddressSpace(default_align=64)
        total = space.alloc("total", 1)

        def kernel(ctx, total):
            yield ctx.atomic_add(total, 0, ctx.global_tid() + 1)

        field = StressField.from_locations(chip, 512, [0, 32], 1.2, 640)
        mem = MemorySystem(chip, field, np.random.default_rng(seed))
        engine = Engine(chip, mem, np.random.default_rng(seed + 1),
                        n_stress_units=3, randomise=True)
        engine.run(
            Kernel("sum", kernel, (total,)),
            LaunchConfig(grid, block, warp_size=4),
        )
        n = grid * block
        assert mem.host_read(total, 0) == n * (n + 1) // 2

    def test_conservative_fences_restore_mp_order(self):
        """With a fence between the data and flag stores, no consumer
        can observe the flag without the data, even under full stress."""
        chip = get_chip("Titan")
        space = AddressSpace(default_align=64)
        data = space.alloc("data", 1)
        flag = space.alloc("flag", 1)
        seen = space.alloc("seen", 1)

        def producer_consumer(ctx, data, flag, seen):
            if ctx.block_id == 0:
                yield ctx.store(data, 0, 1, site="d")
                yield ctx.store(flag, 0, 1, site="f")
            else:
                f = yield ctx.load(flag, 0)
                if f == 1:
                    d = yield ctx.load(data, 0)
                    yield ctx.store(seen, 0, (f, d))

        for seed in range(60):
            field = StressField.from_locations(
                chip, 512, [0, 32], 1.2, 640
            )
            mem = MemorySystem(chip, field, np.random.default_rng(seed))
            engine = Engine(chip, mem, np.random.default_rng(seed + 1))
            engine.run(
                Kernel("pc", producer_consumer, (data, flag, seen)),
                LaunchConfig(2, 1, warp_size=1),
                fence_sites=frozenset({"d"}),
            )
            observed = mem.host_read(seen, 0)
            if observed != 0:
                assert observed == (1, 1), f"seed {seed}: stale data"


class TestLitmusInvariants:
    @settings(max_examples=8, deadline=None)
    @given(
        chip_name=st.sampled_from(CHIP_NAMES),
        distance=st.sampled_from([0, 8, 16]),
        seed=st.integers(0, 1000),
    )
    def test_kepler_fermi_silent_below_patch(
        self, chip_name, distance, seed
    ):
        """Sub-patch distances never show MP weak behaviour except for
        the Maxwell leak."""
        chip = get_chip(chip_name)
        if chip.short_name == "980":
            return  # Maxwell leaks by design (paper Sec. 3.2)
        spec = FixedLocationStress(
            (0, 2 * chip.patch_size), chip.best_sequence
        )
        result = run_litmus(chip, MP, distance, spec, 40, seed=seed)
        assert result.weak == 0

    def test_sc_reference_silent_everywhere(self):
        for d in (0, 32, 64, 128):
            result = run_litmus(SC_REFERENCE, MP, d, NoStress(), 40,
                                seed=1)
            assert result.weak == 0

"""Tests for seeded RNG utilities and the BufferedRNG wrapper."""

from __future__ import annotations

import random as pyrandom

import numpy as np
import pytest

from repro.litmus import native
from repro.rng import BufferedRNG, derive_seed, first_doubles, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_parent_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_numeric_labels(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_fits_in_uint64(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "x", i * 7) < 2**64

    def test_tuple_labels_differ_from_flat(self):
        assert derive_seed(0, (1, 2)) != derive_seed(0, 1, 2)


class TestMakeRng:
    def test_same_stream_same_values(self):
        a = make_rng(7, "stream")
        b = make_rng(7, "stream")
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_different_streams_diverge(self):
        a = make_rng(7, "s1")
        b = make_rng(7, "s2")
        draws_a = [int(a.integers(1 << 30)) for _ in range(4)]
        draws_b = [int(b.integers(1 << 30)) for _ in range(4)]
        assert draws_a != draws_b

    def test_returns_generator(self):
        assert isinstance(make_rng(0), np.random.Generator)


#: ``uniform`` bounds the fuzz draws: finite, non-negative ranges the
#: wrapper serves from the block, and ranges numpy refuses without
#: drawing (``low > high``, infinite, NaN), which must raise alike.
_UNIFORM_BOUNDS = (
    (0.35, 0.95), (0.15, 0.5), (0, 1), (1, 3.5), (-2.0, -1.0), (2.0, 2.0),
    (-0.0, 0.0), (0.95, 0.35), (1, 0), (0.0, float("inf")),
    (-1e308, 1e308), (float("nan"), 1.0),
)


def _outcome(draw):
    try:
        return draw()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _fuzz(buf, ref, py, steps):
    """``steps`` random emulated and delegated draws from ``buf`` and
    ``ref``, asserting each pair equal."""
    for _ in range(steps):
        op = py.choice(
            ["random", "random", "random", "i24", "ibig", "i1",
             "uniform", "uniform", "choice", "perm", "vec"]
        )
        if op == "random":
            assert buf.random() == ref.random()
        elif op == "i24":
            assert buf.integers(0, 24) == int(ref.integers(0, 24))
        elif op == "ibig":
            assert buf.integers(7, 13313) == int(ref.integers(7, 13313))
        elif op == "i1":
            assert buf.integers(1) == int(ref.integers(1))
        elif op == "uniform":
            low, high = py.choice(_UNIFORM_BOUNDS)
            assert _outcome(lambda: buf.uniform(low, high)) == _outcome(
                lambda: ref.uniform(low, high)
            ), (low, high)
        elif op == "choice":
            assert (
                buf.choice(64, size=2, replace=False).tolist()
                == ref.choice(64, size=2, replace=False).tolist()
            )
        elif op == "perm":
            assert buf.permutation(9).tolist() == ref.permutation(9).tolist()
        else:
            assert buf.random(size=5).tolist() == ref.random(size=5).tolist()


class TestBufferedRNGStreamExactness:
    """BufferedRNG's draw-order contract: every mix of emulated and
    delegated draws consumes the PCG64 stream exactly like a plain
    Generator, so downstream statistics are bit-identical."""

    def test_scalar_random_matches_generator(self):
        ref = np.random.default_rng(42)
        buf = BufferedRNG(np.random.default_rng(42))
        assert [buf.random() for _ in range(500)] == [
            ref.random() for _ in range(500)
        ]

    def test_scalar_integers_matches_generator(self):
        ref = np.random.default_rng(9)
        buf = BufferedRNG(np.random.default_rng(9))
        for bound in (24, 2, 1, 5, 1000, 13313):
            got = [buf.integers(0, bound) for _ in range(50)]
            want = [int(ref.integers(0, bound)) for _ in range(50)]
            assert got == want, bound

    def test_lemire32_matches_integers(self):
        ref = np.random.default_rng(11)
        buf = BufferedRNG(np.random.default_rng(11))
        assert [buf._lemire32(24) for _ in range(100)] == [
            int(ref.integers(0, 24)) for _ in range(100)
        ]

    def test_choice_without_replacement_matches_generator(self):
        for seed in range(30):
            ref = np.random.default_rng(seed)
            buf = BufferedRNG(np.random.default_rng(seed))
            want = ref.choice(64, size=2, replace=False)
            got = buf.choice(64, size=2, replace=False)
            assert got.tolist() == want.tolist()
            # stream position identical afterwards (incl. half-word buffer)
            assert buf.integers(0, 1000) == int(ref.integers(0, 1000))
            assert buf.random() == ref.random()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mixed_stream_fuzz(self, seed):
        """Random interleavings of emulated and delegated draws stay in
        lockstep with a scalar-only Generator history."""
        _fuzz(
            BufferedRNG(np.random.default_rng(1234 + seed)),
            np.random.default_rng(1234 + seed),
            pyrandom.Random(seed),
            300,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_native_stream_fuzz(self, seed):
        """The same on the native kernel's stream, seeded in C for each
        execution index and refilled from C in short blocks, against
        numpy's generator for ``derive_seed(span_seed, index)``."""
        lib = native.kernel()
        if lib is None:
            pytest.skip("no C compiler on this host")
        py = pyrandom.Random(seed)
        span_seed = derive_seed(seed, "native-stream")
        stream = native.NativeStream(lib, span_seed)
        for index in range(5):
            ref = np.random.default_rng(derive_seed(span_seed, index))
            _fuzz(stream.seed(index), ref, py, 60)

    def test_finite_uniform_draws_from_the_block(self):
        buf = BufferedRNG(np.random.default_rng(4))
        buf.random()
        block = (buf._i, buf._n)
        buf.uniform(0.35, 0.95)
        assert (buf._i, buf._n) == (block[0] + 1, block[1])

    def test_sync_rewind_is_exact_mid_block(self):
        """A delegated call right after a partial block consumption sees
        the same stream position as a scalar-only history."""
        ref = np.random.default_rng(77)
        buf = BufferedRNG(np.random.default_rng(77))
        for _ in range(3):  # less than one block
            assert buf.random() == ref.random()
        assert buf.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
        assert buf.random() == ref.random()

    def test_dirichlet_passthrough(self):
        ref = np.random.default_rng(5)
        buf = BufferedRNG(np.random.default_rng(5))
        assert (
            buf.dirichlet(np.full(4, 0.5)).tolist()
            == ref.dirichlet(np.full(4, 0.5)).tolist()
        )

    def test_getattr_fallback_delegates(self):
        ref = np.random.default_rng(6)
        buf = BufferedRNG(np.random.default_rng(6))
        assert buf.standard_normal() == ref.standard_normal()

    def test_stored_delegated_method_stays_on_stream(self):
        """A delegated method syncs when it is called, not when it is
        looked up, so draws made in between are not replayed."""
        ref = np.random.default_rng(6)
        buf = BufferedRNG(np.random.default_rng(6))
        draw = buf.standard_normal
        for _ in range(3):
            assert buf.random() == ref.random()
        assert draw() == ref.standard_normal()
        assert buf.random() == ref.random()

    def test_one_value_integers_leave_the_block_untouched(self):
        """A range holding one value returns ``low`` and draws nothing,
        as numpy does, so the pre-draw block stays in place."""
        ref = np.random.default_rng(8)
        buf = BufferedRNG(np.random.default_rng(8))
        assert buf.random() == ref.random()
        assert buf.integers(0, 24) == int(ref.integers(0, 24))
        block = (buf._i, buf._n)
        assert buf.integers(1) == int(ref.integers(1)) == 0
        assert buf.integers(5, 6) == int(ref.integers(5, 6)) == 5
        assert (buf._i, buf._n) == block
        assert buf.integers(0, 24) == int(ref.integers(0, 24))
        assert buf.random() == ref.random()

    def test_tight_interleaving_stays_on_stream(self):
        buf = BufferedRNG(np.random.default_rng(0))
        ref = np.random.default_rng(0)
        # Alternate one buffered draw with one delegated draw, so every
        # sync rewinds almost a whole block...
        for _ in range(20):
            assert buf.random() == ref.random()
            assert buf.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
        # ...and stay stream-exact afterwards.
        assert [buf.random() for _ in range(10)] == [
            ref.random() for _ in range(10)
        ]
        assert buf.integers(0, 24) == int(ref.integers(0, 24))


class TestBufferedRNGConstruction:
    def test_non_pcg64_generators_are_refused(self):
        """The emulation is PCG64-specific: any other bit generator,
        and a wrapper passed in for its generator, is a type error."""
        with pytest.raises(TypeError, match="PCG64"):
            BufferedRNG(np.random.Generator(np.random.MT19937(3)))
        with pytest.raises(TypeError, match="PCG64"):
            BufferedRNG(BufferedRNG(np.random.default_rng(3)))


class TestBufferedRNGInEngine:
    def test_scheduler_accepts_buffered_rng(self):
        """The engine's scheduler draws integers/choice every tick; a
        BufferedRNG threaded through it must behave identically to the
        raw generator it wraps."""
        from repro.gpu.scheduler import WarpScheduler
        from repro.gpu.warp import Warp

        class _ActiveThread:
            active = True
            done = False

        def picks(rng):
            warps = [Warp(0, i, [_ActiveThread()]) for i in range(4)]
            sched = WarpScheduler(warps, 2, rng, randomise=False)
            return [
                None if (w := sched.pick()) is None else w.warp_id
                for _ in range(200)
            ]

        assert picks(BufferedRNG(make_rng(21))) == picks(make_rng(21))

    def test_scalar_choice_with_p_is_one_double_plus_search(self):
        """The randomised scheduler reproduces ``choice(n, p=w)`` from
        its primitive draw: one next_double searched against the
        normalised cumulative weights.  numpy must keep that contract
        for the emulation to stay bit-identical."""
        for seed in range(40):
            ref = np.random.default_rng(seed)
            emu = np.random.default_rng(seed)
            w = np.random.default_rng(seed + 999).dirichlet(np.full(9, 0.5))
            for _ in range(5):
                want = int(ref.choice(9, p=w))
                cdf = w.cumsum()
                cdf /= cdf[-1]
                got = int(cdf.searchsorted(emu.random(), side="right"))
                assert got == want
            # both streams must end in the identical state
            assert ref.random() == emu.random()

    def test_randomised_scheduler_matches_choice_reference(self):
        """Under thread randomisation the scheduler's pick stream must
        equal the original ``dirichlet`` + ``choice(p=weights)``
        implementation, for BufferedRNG and raw generators alike."""
        from repro.gpu.scheduler import _RESHUFFLE_PERIOD, WarpScheduler
        from repro.gpu.warp import Warp

        class _ActiveThread:
            active = True
            done = False

        def sched_picks(rng):
            warps = [Warp(0, i, [_ActiveThread()]) for i in range(4)]
            sched = WarpScheduler(warps, 2, rng, randomise=True)
            return [
                None if (w := sched.pick()) is None else w.warp_id
                for _ in range(300)
            ]

        def reference_picks(gen):
            n = 6  # 4 warps + 2 stress placeholders
            weights = gen.dirichlet(np.full(n, 0.5))
            ticks = 0
            out = []
            for _ in range(300):
                ticks += 1
                if ticks >= _RESHUFFLE_PERIOD:
                    weights = gen.dirichlet(np.full(n, 0.5))
                    ticks = 0
                idx = int(gen.choice(n, p=weights))
                out.append(idx if idx < 4 else None)
            return out

        want = reference_picks(make_rng(33))
        assert sched_picks(make_rng(33)) == want
        assert sched_picks(BufferedRNG(make_rng(33))) == want


def test_first_doubles_match_numpy_streams():
    """The pure-Python SeedSequence -> PCG64 -> next_double path equals
    ``make_rng``'s stream: entropies below and at or above ``2**32``
    (one or two 32-bit words), the extremes, and labelled streams."""
    gen = pyrandom.Random(29)
    entropies = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 63) + 5, (1 << 64) - 1]
    entropies += [gen.getrandbits(gen.choice((16, 32, 33, 64)))
                  for _ in range(200)]
    for entropy in entropies:
        # derive_seed without labels is the seed itself.
        assert first_doubles(entropy, count=5) == (
            np.random.default_rng(entropy).random(5).tolist()
        ), entropy
    for labels in [("seq", ("ld", "st")), ("channel-sensitivity",)]:
        for seed in (7, 980_001, gen.getrandbits(64)):
            assert first_doubles(seed, *labels, count=3) == (
                make_rng(seed, *labels).random(3).tolist()
            )

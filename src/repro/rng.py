"""Seeded random-number utilities.

All stochastic components of the simulator and the experiment harness draw
from :class:`numpy.random.Generator` instances created here, so that every
experiment is reproducible from a single integer seed.

Streams are *split* by hashing a parent seed together with a string label,
which keeps independent components (scheduler, memory system, stressing,
campaign driver) decoupled: adding draws to one component does not perturb
another.

Hot loops draw through :class:`BufferedRNG`, which serves scalar draws
from block pre-draws of a PCG64 generator's own stream and hands every
other draw to the generator at the same stream position, so a run is
bit-identical with and without the wrapper.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(parent: int, *labels: object) -> int:
    """Derive a child seed from ``parent`` and a sequence of labels.

    The derivation is stable across processes and Python versions (it uses
    CRC32 over the repr of the labels rather than ``hash``, which is
    salted for strings).
    """
    acc = parent & _MASK64
    for label in labels:
        token = repr(label).encode("utf-8")
        acc = (acc * 6364136223846793005 + zlib.crc32(token) + 1) & _MASK64
    return acc


def make_rng(seed: int, *labels: object) -> np.random.Generator:
    """Create a generator for the stream identified by ``seed`` + labels."""
    return np.random.default_rng(derive_seed(seed, *labels))


#: Raw 64-bit words pre-drawn per refill.
_BLOCK = 128

#: ``next_double`` scale factor: a double is ``(uint64 >> 11) * 2**-53``.
_INV53 = 1.0 / 9007199254740992.0
_SHIFT11 = np.uint64(11)
_MASK32 = 0xFFFFFFFF
_2POW32 = 0x100000000
_2POW128 = 1 << 128


class BufferedRNG:
    """Block-buffering wrapper around a PCG64 :class:`numpy.random.Generator`.

    Scalar ``random()`` and ``integers()`` calls dominate the
    simulator's hot loops, and each one pays the full numpy call
    overhead.  This wrapper pre-draws the underlying PCG64 *bit stream*
    in blocks (``bit_generator.random_raw(size=N)``) and reproduces
    numpy's own output functions from it, bit for bit:

    * ``random()`` — one raw word per double, ``(raw >> 11) * 2**-53``
      (exactly ``next_double``);
    * scalar ``integers(low, high)`` with a span that fits in 32 bits —
      numpy's Lemire rejection over buffered 32-bit halves (low half of
      a raw word first, high half kept for the next draw), including
      the persistent cross-call half-word buffer;
    * scalar ``integers`` over a one-value range — ``low``, drawing
      nothing, as numpy does;
    * ``choice(n, size=k, replace=False)`` — numpy's Floyd sampling
      plus result shuffle over the same bounded 32-bit draws.

    Because every emulation consumes the identical stream the real
    calls would have consumed, every downstream statistic is unchanged
    (the golden-statistics suite and ``tests/test_rng.py`` pin this
    against real ``Generator`` histories).

    Any other draw (``uniform``, ``dirichlet``, vector ``integers``,
    any ``Generator`` method served through attribute lookup, …)
    *delegates* to the real generator through :meth:`_delegate`, which
    syncs when the method is called: it rewinds the bit generator past
    the unconsumed pre-draws (``PCG64.advance`` by ``2**128 -
    leftover``; one double is one 64-bit step) and installs any pending
    half word into the real generator's state; after the call it
    captures a half word the call left buffered back out.  The real
    generator is therefore indistinguishable from one with a
    scalar-only history at every delegation boundary, even for a method
    looked up long before it is called.

    The emulation is PCG64-specific (64-bit raw words, one word per
    double, ``advance`` rewind, the ``has_uint32``/``uinteger`` state
    schema), so only a ``Generator`` over ``PCG64`` or ``PCG64DXSM`` is
    accepted.

    Native code takes the stream over through :meth:`pcg64_state` and
    hands it back through :meth:`set_pcg64_state` (PCG64 only), which
    leaves the wrapper where the same draws made in Python would.
    """

    __slots__ = ("gen", "_bit", "_raw", "_dbuf", "_i", "_n", "_has32", "_u32")

    def __init__(self, gen: np.random.Generator):
        if not isinstance(gen, np.random.Generator) or not isinstance(
            gen.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)
        ):
            raise TypeError(
                "BufferedRNG wraps a numpy Generator over PCG64 or "
                f"PCG64DXSM, not {gen!r}"
            )
        self.gen = gen
        self._bit = gen.bit_generator
        self._raw = None
        self._dbuf: list[float] = []
        self._i = 0
        self._n = 0
        self._has32 = False
        self._u32 = 0

    # ------------------------------------------------------------------
    # emulated draws
    # ------------------------------------------------------------------
    def random(self, size=None):
        """Uniform double(s); scalar calls are served from the block."""
        if size is not None:
            return self._delegate("random", size=size)
        i = self._i
        if i >= self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return self._dbuf[i]

    def integers(self, low, high=None, size=None, **kwargs):
        """Bounded integer(s).  The scalar default-dtype case is served
        from the block via numpy's own Lemire-over-halves algorithm;
        anything else delegates."""
        if (
            size is not None
            or kwargs
            or type(low) is not int
            or (high is not None and type(high) is not int)
        ):
            return self._delegate("integers", low, high, size=size, **kwargs)
        if high is None:
            lo, hi = 0, low
        else:
            lo, hi = low, high
        span = hi - lo - 1  # inclusive range width (numpy's ``rng``)
        if span == 0:
            return lo  # one value: numpy draws nothing
        if span < 0 or span >= _MASK32:
            # <0 raises; ==2**32-1 and 64-bit spans use different C
            # paths — delegate all of them.
            return self._delegate("integers", low, high)
        return lo + self._lemire32(span + 1)

    def _lemire32(self, span_excl: int) -> int:
        """One bounded draw from ``[0, span_excl)`` — numpy's Lemire
        rejection over 32-bit halves (``span_excl`` must fit 32 bits;
        1 draws nothing, exactly like numpy's zero-width case)."""
        if span_excl == 1:
            return 0
        m = self._next32() * span_excl
        leftover = m & _MASK32
        if leftover < span_excl:
            threshold = (_2POW32 - span_excl) % span_excl
            while leftover < threshold:
                m = self._next32() * span_excl
                leftover = m & _MASK32
        return m >> 32

    def _next32(self) -> int:
        """Next 32-bit word: numpy's buffered split of a 64-bit draw
        (low half first, high half kept for the following call)."""
        if self._has32:
            self._has32 = False
            return self._u32
        i = self._i
        if i >= self._n:
            self._refill()
            i = 0
        self._i = i + 1
        r = int(self._raw[i])
        self._has32 = True
        self._u32 = r >> 32
        return r & _MASK32

    def _refill(self) -> None:
        raw = self._bit.random_raw(size=_BLOCK)
        self._raw = raw
        self._dbuf = ((raw >> _SHIFT11) * _INV53).tolist()
        self._n = _BLOCK
        self._i = 0

    # ------------------------------------------------------------------
    # delegation machinery
    # ------------------------------------------------------------------
    def _delegate(self, name: str, *args, **kwargs):
        """Call the real generator's ``name`` at the logical stream
        position: sync, call, then capture (a pending half word
        installed by the sync survives double-only draws and must come
        back under the wrapper's ownership)."""
        self._sync()
        out = getattr(self.gen, name)(*args, **kwargs)
        self._capture()
        return out

    def _sync(self) -> None:
        """Make the real generator's state equal the logical stream
        position (rewind unconsumed pre-draws, install a pending half
        word) so a delegated call draws exactly what a scalar-only
        history would have drawn."""
        leftover = self._n - self._i
        if leftover:
            # One double = one 64-bit PCG64 step; step back past the
            # unconsumed tail (advance is modulo 2**128).
            self._bit.advance(_2POW128 - leftover)
        self._raw = None
        self._dbuf = []
        self._i = 0
        self._n = 0
        if self._has32:
            state = self._bit.state
            state["has_uint32"] = 1
            state["uinteger"] = self._u32
            self._bit.state = state
            self._has32 = False

    def pcg64_state(self) -> tuple[int, int, int, int]:
        """``(state, inc, has_uint32, uinteger)`` of the PCG64 stream at
        the logical position, for a native consumer that continues the
        stream and hands it back through :meth:`set_pcg64_state`.

        Syncs first, so the unconsumed pre-draws are rewound and a
        pending half word is in the returned state.  Only PCG64's
        XSL-RR output is emulated natively; any other bit generator
        (PCG64DXSM included) raises :class:`TypeError`.
        """
        if type(self._bit) is not np.random.PCG64:
            raise TypeError(
                "the PCG64 hand-off needs a PCG64 bit generator, not "
                f"{type(self._bit).__name__}"
            )
        self._sync()
        state = self._bit.state
        pcg = state["state"]
        return pcg["state"], pcg["inc"], state["has_uint32"], state["uinteger"]

    def set_pcg64_state(
        self, state: int, inc: int, has_uint32: int, uinteger: int
    ) -> None:
        """Continue from a stream position a native consumer reached
        after :meth:`pcg64_state`; the pending half word, if any, is the
        wrapper's own, as after a delegated draw."""
        self._raw = None
        self._dbuf = []
        self._i = 0
        self._n = 0
        self._bit.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._has32 = bool(has_uint32)
        self._u32 = uinteger

    def _capture(self) -> None:
        """Take ownership of the real generator's buffered half word
        after a delegated call, so later emulated draws consume it first
        — exactly as a scalar-only history would."""
        state = self._bit.state
        if state["has_uint32"]:
            self._has32 = True
            self._u32 = int(state["uinteger"])
            state["has_uint32"] = 0
            state["uinteger"] = 0
            self._bit.state = state

    def choice(self, a, size=None, replace=True, p=None, axis=0, shuffle=True):
        if (
            replace is False
            and p is None
            and shuffle
            and axis == 0
            and type(a) is int
            and type(size) is int
            and 0 < size <= a <= _MASK32
        ):
            # numpy's sample-without-replacement for an integer
            # population: Floyd's algorithm followed by a Fisher-Yates
            # shuffle of the result, all on bounded 32-bit draws —
            # emulated from the block (verified exact in test_rng).
            idx = []
            seen = set()
            for j in range(a - size, a):
                t = self._lemire32(j + 1)
                if t in seen:
                    t = j
                seen.add(t)
                idx.append(t)
            for i in range(size - 1, 0, -1):
                j = self._lemire32(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            return np.array(idx, dtype=np.int64)
        return self._delegate(
            "choice", a, size=size, replace=replace, p=p, axis=axis,
            shuffle=shuffle,
        )

    def __getattr__(self, name):
        # Any other Generator attribute.  A method delegates when it is
        # called, so one stored before later draws stays on the stream.
        attr = getattr(self.gen, name)
        if callable(attr):
            return partial(self._delegate, name)
        self._sync()
        return attr

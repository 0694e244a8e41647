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
bit-identical with and without the wrapper.  The native litmus kernel's
:class:`~repro.litmus.native.NativeStream` is the same wrapper over
blocks pre-drawn in C from a stream seeded in C.
"""

from __future__ import annotations

import math
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


# numpy's SeedSequence constants (bit_generator.pyx) and PCG64's
# multiplier, for :func:`first_doubles`.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK128 = (1 << 128) - 1


def first_doubles(seed: int, *labels: object, count: int) -> list[float]:
    """The first ``count`` values of ``make_rng(seed, *labels).random()``,
    computed without ``numpy.random``.

    The steps are the public ones ``repro/litmus/native.c``'s
    ``rng_seed`` implements: ``SeedSequence`` mixing of the derived
    seed's two 32-bit words (low first; a seed below ``2**32`` pads to
    the same pool), ``generate_state(4, uint64)``, PCG64 seeding, then
    ``next_double``.  Seeded model constants use it so a process that
    only reads them never imports ``numpy.random``.
    """
    entropy = derive_seed(seed, *labels)
    const = _SS_INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _SS_MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_SS_MIX_L * x - _SS_MIX_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in (entropy & _MASK32, entropy >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = []
    const = _SS_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = (const * _SS_MULT_B) & _MASK32
        value = (value * const) & _MASK32
        words.append(value ^ (value >> 16))
    s = [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]
    # pcg_setseq_128_srandom_r: state (s0, s1), sequence (s2, s3).
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & _MASK128
    state = (inc + (s[0] << 64 | s[1])) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        raw = ((x >> rot) | (x << (64 - rot))) & _MASK64
        out.append((raw >> 11) * _INV53)
    return out


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
      plus result shuffle over the same bounded 32-bit draws;
    * scalar ``uniform(low, high)`` over a finite, non-negative float
      range — numpy's ``random_uniform``, ``low + (high - low) *
      next_double``, with the same two roundings.

    Because every emulation consumes the identical stream the real
    calls would have consumed, every downstream statistic is unchanged
    (the golden-statistics suite and ``tests/test_rng.py`` pin this
    against real ``Generator`` histories).

    Any other ``Generator`` method (``dirichlet``, vector ``integers``,
    a ``uniform`` bound numpy rejects, …) *delegates* to the real
    generator through :meth:`_delegate`, which syncs when the method is
    called: it rewinds the bit generator past the unconsumed pre-draws
    (``PCG64.advance`` by ``2**128 - leftover``; one double is one
    64-bit step) and installs any pending half word into the real
    generator's state; after the call it captures a half word the call
    left buffered back out.  The real generator is therefore
    indistinguishable from one with a scalar-only history at every
    delegation boundary, even for a method looked up long before it is
    called.

    The emulation is PCG64-specific (64-bit raw words, one word per
    double, ``advance`` rewind, the ``has_uint32``/``uinteger`` state
    schema), so only a ``Generator`` over ``PCG64`` or ``PCG64DXSM`` is
    accepted.  A subclass may draw its blocks elsewhere by overriding
    :meth:`_refill`, :meth:`_sync` and :meth:`_capture` (see
    :class:`~repro.litmus.native.NativeStream`).
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

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform double(s) in ``[low, high)``.  A scalar draw over a
        finite, non-negative range of Python numbers is served from the
        block; anything else delegates (numpy raises on a bad range)."""
        if (
            size is None
            and (type(low) is float or type(low) is int)
            and (type(high) is float or type(high) is int)
        ):
            lo = float(low)
            span = float(high) - lo
            if 0.0 <= span < math.inf:
                return lo + span * self.random()
        return self._delegate("uniform", low, high, size=size)

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
        position: sync, call, then capture, also when the call raises
        (a pending half word installed by the sync survives double-only
        draws and refused calls, and must come back under the wrapper's
        ownership)."""
        self._sync()
        try:
            return getattr(self.gen, name)(*args, **kwargs)
        finally:
            self._capture()

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
        self._i = 0
        self._n = 0
        if self._has32:
            state = self._bit.state
            state["has_uint32"] = 1
            state["uinteger"] = self._u32
            self._bit.state = state
            self._has32 = False

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
        # Any other Generator method.  It delegates when it is called,
        # so one looked up before later draws stays on the stream.
        if callable(getattr(np.random.Generator, name, None)):
            return partial(self._delegate, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

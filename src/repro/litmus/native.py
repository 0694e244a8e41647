"""Build, load and call the native litmus kernel and its PCG64 stream.

``native.c`` runs one whole direct-runner execution of a two-thread
ld/st litmus test (see :mod:`repro.litmus.runner`), and it seeds and
pre-draws that execution's PCG64 stream, so a kernel-path execution
builds no numpy generator.  :class:`NativeStream` is the
:class:`~repro.rng.BufferedRNG` over that stream: the stress spec's
draws run through the wrapper's emulation on blocks C pre-draws, and
:meth:`NativeStream.execute` lets the kernel continue the same stream
words in place.

The source is plain C with no Python headers, so it needs only a C
compiler: on the first call of :func:`kernel`, :func:`repro.cbuild.load`
compiles it (``-ffp-contract=off``, into this package's ``__pycache__/``
under a name that carries the source's hash and the machine) and it is
loaded with :mod:`ctypes`.

Without a working compiler, or on a non-64-bit interpreter,
:func:`kernel` returns ``None`` and the runner steps every round through
the Python interpreter (``runner._one_round``) on a numpy-backed
:class:`~repro.rng.BufferedRNG`, which draws the same stream and yields
the same statistics, only more slowly.  Tests force that path by setting
``_kernel`` to ``None``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .. import cbuild
from ..rng import BufferedRNG

_SOURCE = Path(__file__).with_name("native.c")
_MASK64 = (1 << 64) - 1
#: Words C pre-draws per block.  An execution's stress build and
#: randomiser take a handful; the kernel steps back past the rest.
_BLOCK = 16

#: The loaded library, ``None`` when it cannot be built, or ``_UNSET``
#: before the first :func:`kernel` call.
_UNSET = object()
_kernel = _UNSET


def kernel():
    """The loaded library, building it on the first call; ``None`` when
    it cannot be built here."""
    global _kernel
    if _kernel is _UNSET:
        _kernel = _load()
    return _kernel


class NativeStream(BufferedRNG):
    """A :class:`~repro.rng.BufferedRNG` whose PCG64 stream lives in C.

    One instance serves a span of executions.  :meth:`seed` puts it at
    the start of execution ``index``'s stream, the one
    ``np.random.default_rng(derive_seed(span_seed, index))`` starts at,
    computed in C.  Scalar draws are the wrapper's emulation over
    blocks C pre-draws; :meth:`execute` hands the stream words to the
    kernel, which continues from the logical position.  A draw the
    wrapper does not emulate delegates to a numpy generator that is set
    to the logical position for the call and read back after it.
    """

    __slots__ = ("_lib", "_span_seed", "words")

    def __init__(self, lib, span_seed: int):
        import ctypes

        self._lib = lib
        self._span_seed = span_seed
        self.words = (ctypes.c_uint64 * 6)()
        self.gen = self._bit = None
        self._raw = (ctypes.c_uint64 * _BLOCK)()
        self._dbuf = (ctypes.c_double * _BLOCK)()
        self._i = self._n = 0
        self._has32 = False
        self._u32 = 0

    def seed(self, index: int) -> "NativeStream":
        """Start execution ``index``'s stream; returns the stream."""
        self._lib.repro_pcg64_seed(
            self._span_seed, index, self.words, self._raw, self._dbuf,
            _BLOCK,
        )
        self._i = 0
        self._n = _BLOCK
        self._has32 = False
        return self

    def execute(self, plan, chip, factors, tables, exec_p, sm0) -> bool:
        """Run one execution through the kernel on this stream; True
        when weak.  ``plan``, ``chip``, ``factors`` and ``tables`` are
        the packed words described at the top of ``native.c``."""
        words = self.words
        words[4] = self._has32
        words[5] = self._u32
        weak = self._lib.repro_ldst2_execution(
            plan, chip, factors, tables, exec_p[0], exec_p[1], sm0, words,
            self._n - self._i,
        )
        if weak < 0:
            if weak == -1:
                raise MemoryError("native litmus kernel: workspace allocation")
            raise RuntimeError(f"native litmus kernel failed (code {weak})")
        self._i = self._n = 0
        self._has32 = bool(words[4])
        self._u32 = words[5]
        return weak == 1

    def _refill(self) -> None:
        self._lib.repro_pcg64_fill(self.words, self._raw, self._dbuf, _BLOCK)
        self._n = _BLOCK
        self._i = 0

    def _sync(self) -> None:
        """Put a numpy generator at the words' position; the wrapper's
        sync then rewinds it past the unconsumed pre-draws and installs
        the pending half word."""
        if self.gen is None:
            self.gen = np.random.Generator(np.random.PCG64(0))
            self._bit = self.gen.bit_generator
        words = self.words
        self._bit.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": (words[0] << 64) | words[1],
                "inc": (words[2] << 64) | words[3],
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        super()._sync()

    def _capture(self) -> None:
        """Take the half word back, and the position into the words."""
        super()._capture()
        state = self._bit.state["state"]["state"]
        self.words[0] = state >> 64
        self.words[1] = state & _MASK64


def _load():
    import ctypes
    import platform

    if ctypes.sizeof(ctypes.c_void_p) != 8:
        return None
    lib = cbuild.load(
        _SOURCE, f"-{sys.platform}-{platform.machine()}.so", ctypes.CDLL,
        "running the Python rounds",
    )
    if lib is None:
        return None
    words = ctypes.POINTER(ctypes.c_uint64)
    doubles = ctypes.POINTER(ctypes.c_double)
    lib.repro_ldst2_execution.restype = ctypes.c_int
    lib.repro_ldst2_execution.argtypes = (
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
        ctypes.c_double, ctypes.c_double, ctypes.c_int, words,
        ctypes.c_int64,
    )
    lib.repro_pcg64_seed.restype = None
    lib.repro_pcg64_seed.argtypes = (
        ctypes.c_uint64, ctypes.c_uint64, words, words, doubles,
        ctypes.c_int64,
    )
    lib.repro_pcg64_fill.restype = None
    lib.repro_pcg64_fill.argtypes = (words, words, doubles, ctypes.c_int64)
    return lib

"""Build, load and call the native two-thread ld/st execution kernel.

``native.c`` runs one whole direct-runner execution of a two-thread
ld/st litmus test (see :mod:`repro.litmus.runner`).  It is plain C with
no Python headers, so it needs only a C compiler: on the first call of
:func:`kernel` it is compiled with ``sysconfig``'s ``CC`` (else ``cc``)
as ``-O2 -shared -fPIC -ffp-contract=off`` and loaded with
:mod:`ctypes`.  Floating-point contraction is off and fast-math is never
used, so each probability comparison sees exactly the double the Python
path compares.

The library lands in this package's ``__pycache__/`` under a name that
carries the sha256 of the source and the flags plus the machine, so an
edited source or another platform never loads a stale build.  It is
compiled to a temporary name and moved into place with
:func:`os.replace`, so pool children and distributed workers may race
to build it.  When that directory is read-only the library is built in
a private temporary directory for this process instead.

Without a working compiler, or on a non-64-bit interpreter,
:func:`kernel` returns ``None`` and the runner steps every round through
the Python interpreter (``runner._one_round``), which draws the same
stream and yields the same statistics, only more slowly.  Tests force
that path by setting ``_kernel`` to ``None``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

# Every litmus run imports this module and most processes find the
# library already built, so the imports only a build needs (hashlib
# alone takes 3 ms) stay in the functions that use them.

_SOURCE = Path(__file__).with_name("native.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_MASK64 = (1 << 64) - 1

#: The loaded ctypes function, ``None`` when it cannot be built, or
#: ``_UNSET`` before the first :func:`kernel` call.
_UNSET = object()
_kernel = _UNSET
#: ``ctypes.c_uint64 * 6``: the PCG64 words handed to the kernel.
_RngWords = None


def kernel():
    """The kernel's ctypes function, building it on the first call;
    ``None`` when it cannot be built here."""
    global _kernel
    if _kernel is _UNSET:
        _kernel = _load()
    return _kernel


def run_execution(fn, plan, chip, factors, tables, exec_p, sm0, rng) -> bool:
    """Run one execution through the kernel ``fn``; True when weak.

    The :class:`~repro.rng.BufferedRNG` ``rng`` hands its PCG64 stream
    position to the kernel and takes back the kernel's final position,
    so it is left exactly where the Python rounds would leave it.
    ``plan``, ``chip``, ``factors`` and ``tables`` are the packed words
    described at the top of ``native.c``.
    """
    state, inc, has32, u32 = rng.pcg64_state()
    words = _RngWords(
        state >> 64, state & _MASK64, inc >> 64, inc & _MASK64, has32, u32
    )
    weak = fn(plan, chip, factors, tables, exec_p[0], exec_p[1], sm0, words)
    if weak < 0:
        if weak == -1:
            raise MemoryError("native litmus kernel: workspace allocation")
        raise RuntimeError(f"native litmus kernel failed (code {weak})")
    rng.set_pcg64_state((words[0] << 64) | words[1], inc, words[4], words[5])
    return weak == 1


def _compiler() -> list[str] | None:
    import shlex
    import sysconfig

    for cc in (sysconfig.get_config_var("CC"), "cc"):
        argv = shlex.split(cc or "")
        if argv and shutil.which(argv[0]):
            return argv
    return None


def _load():
    global _RngWords
    import ctypes
    import hashlib
    import platform

    cc = _compiler()
    if cc is None or ctypes.sizeof(ctypes.c_void_p) != 8:
        return None
    machine = f"{sys.platform}-{platform.machine()}"
    digest = hashlib.sha256(
        _SOURCE.read_bytes() + " ".join(_FLAGS).encode()
    ).hexdigest()[:16]
    try:
        lib = _open(ctypes, cc, f"native-{digest}-{machine}.so")
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or str(exc)
        if isinstance(detail, bytes):
            detail = detail.decode(errors="replace")
        warnings.warn(
            "native litmus kernel unavailable, running the Python "
            f"rounds: {detail.strip()[:500]}",
            RuntimeWarning,
        )
        return None
    fn = lib.repro_ldst2_execution
    fn.restype = ctypes.c_int
    fn.argtypes = (
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
        ctypes.c_double, ctypes.c_double, ctypes.c_int,
        ctypes.POINTER(ctypes.c_uint64),
    )
    _RngWords = ctypes.c_uint64 * 6
    return fn


def _open(ctypes, cc: list[str], name: str):
    """Load the library ``name``, building it first if it is missing."""
    import tempfile

    try:
        cache = _SOURCE.parent / "__pycache__"
        cache.mkdir(exist_ok=True)
        return ctypes.CDLL(str(_built(cc, cache / name)))
    except OSError:
        # A read-only package: build privately for this process.
        private = Path(tempfile.mkdtemp(prefix="repro-native-"))
        try:
            return ctypes.CDLL(str(_built(cc, private / name)))
        finally:
            # The loaded mapping outlives the file.
            shutil.rmtree(private, ignore_errors=True)


def _built(cc: list[str], path: Path) -> Path:
    """``path``, compiling it first unless a build is already there."""
    import tempfile

    if path.exists():
        return path
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path

"""Build and load the package's C sources on first use.

Two C sources ship with the package and are compiled where they run:
``repro/litmus/native.c``, plain C that :mod:`repro.litmus.native` loads
with :mod:`ctypes`, and ``repro/gpu/engine.c``, a CPython extension that
:mod:`repro.gpu.engine` imports.  :func:`load` compiles a source with
``sysconfig``'s ``CC`` (else ``cc``) as ``-O2 -shared -fPIC
-ffp-contract=off`` plus the caller's flags.  Floating-point contraction
is off and fast-math is never used, so each probability comparison sees
exactly the double the Python path compares.

A build lands in its source's ``__pycache__/`` under a name that
carries the sha256 of the source and the flags, so an edited source
never loads a stale build.  It is compiled to a temporary name and
moved into place with :func:`os.replace`, so pool children and
distributed workers may race to build it.  When that directory is
read-only the build goes to a private temporary directory for this
process instead, which is removed once the build is loaded (the loaded
mapping outlives the file).

Without a compiler :func:`load` returns ``None``; when the build or the
load fails it warns with a :class:`RuntimeWarning` and returns ``None``.
Callers keep the result, so each warns at most once per process and
then runs their Python path.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import warnings
from collections.abc import Callable
from pathlib import Path

# Most processes find the build already there, so the imports only a
# build needs stay in the functions that use them.

FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def compiler() -> list[str] | None:
    """The C compiler's argv prefix, or ``None`` when there is none."""
    import shlex
    import sysconfig

    for cc in (sysconfig.get_config_var("CC"), "cc"):
        argv = shlex.split(cc or "")
        if argv and shutil.which(argv[0]):
            return argv
    return None


def load(
    source: Path,
    suffix: str,
    opener: Callable[[str], object],
    fallback: str,
    flags: tuple[str, ...] = (),
):
    """``opener(path)`` of ``source`` built as
    ``__pycache__/<stem>-<digest><suffix>``, building it first unless it
    is there; ``None`` when it cannot be built or loaded here.

    ``fallback`` says, in the warning, what runs instead.
    """
    import hashlib

    cc = compiler()
    if cc is None:
        return None
    flags = (*FLAGS, *flags)
    digest = hashlib.sha256(
        source.read_bytes() + " ".join(flags).encode()
    ).hexdigest()[:16]
    name = f"{source.stem}-{digest}{suffix}"
    try:
        return _open(opener, [*cc, *flags], source, name)
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or str(exc)
        if isinstance(detail, bytes):
            detail = detail.decode(errors="replace")
        warnings.warn(
            f"{source.name} unavailable, {fallback}: {detail.strip()[:500]}",
            RuntimeWarning,
        )
        return None


def _open(opener, command: list[str], source: Path, name: str):
    import tempfile

    try:
        cache = source.parent / "__pycache__"
        cache.mkdir(exist_ok=True)
        return opener(str(_built(command, source, cache / name)))
    except OSError:
        # A read-only package: build privately for this process.
        private = Path(tempfile.mkdtemp(prefix="repro-native-"))
        try:
            return opener(str(_built(command, source, private / name)))
        finally:
            shutil.rmtree(private, ignore_errors=True)


def _built(command: list[str], source: Path, path: Path) -> Path:
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
            [*command, "-o", tmp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path

"""Source size: the ``src/`` line count, recorded next to the benchmarks.

Deleting code while keeping every render, golden statistic and gate is
a result in itself, so the size of the library is tracked like any
other number: one ``src_lines`` record in ``BENCH_throughput.json``
with the total and a count per ``repro`` sub-package (modules directly
in the package root count under ``repro``)::

    REPRO_BENCH_JSON=BENCH_throughput.json \
        pytest benchmarks/bench_src_lines.py -s

Lines are counted the way perfbench's ``src_py_lines`` provenance field
counts them: newline bytes over every ``src/**/*.py`` file, so the two
numbers agree for the same tree.  C sources and headers
(``src/**/*.c`` and ``src/**/*.h``: the native litmus kernel, the engine
core and the memory model they share) are counted the same way into
their own ``c`` entry, so ``total`` stays comparable with earlier
records; records before the shared header count ``*.c`` only.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def count_src_lines(
    src: Path = SRC, patterns: tuple[str, ...] = ("*.py",)
) -> tuple[int, dict[str, int]]:
    """Total newlines of the files under ``src`` matching any of
    ``patterns`` and their split by package."""
    packages: Counter[str] = Counter()
    paths = {path for pattern in patterns for path in src.rglob(pattern)}
    for path in sorted(paths):
        parts = path.relative_to(src).parts  # ("repro", "dist", "worker.py")
        package = ".".join(parts[:2]) if len(parts) > 2 else parts[0]
        packages[package] += path.read_bytes().count(b"\n")
    return sum(packages.values()), dict(sorted(packages.items()))


def test_src_lines(bench_json):
    total, packages = count_src_lines()
    assert total > 0 and set(packages) >= {"repro", "repro.dist"}
    c_total, c_packages = count_src_lines(patterns=("*.c", "*.h"))
    bench_json["src_lines"] = {
        "total": total,
        "packages": packages,
        "c": {"total": c_total, "packages": c_packages},
    }
    print(f"\nsrc lines: {total} ({packages}); C: {c_total} ({c_packages})")

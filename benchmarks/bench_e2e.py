"""End-to-end wall clock of the paper artefacts.

Runs ``python -m repro experiment NAME --scale smoke`` in a fresh
process for each artefact (table2, table5, table6, fig5 and survey) and
records into ``BENCH_e2e.json``, per artefact:

* the wall clock of every repeat, start-up and render included (both
  native builds are made before timing, so no repeat pays a compile);
* the sha256 of the render, after blanking the wall-clock columns as CI
  does (table2's second-to-last field, table6's fourth);
* the host-speed gauge's slowdown over each run (``perfbench/hostspeed.py``:
  1.0 is the nominal host, 1.3 a host running 30% slow).

``--against DIR`` alternates each repeat with the same artefact run from
another checkout (for example a ``git archive`` export of the parent
commit), so one invocation records an A/B on one host in one time
window.  ``--default`` adds table2 at default scale (about 30 s per run
on a 2-vCPU VM).  An existing output file is merged into: each
artefact's record is replaced as a whole and the others are kept.

    python benchmarks/bench_e2e.py                    # all five, 3 repeats
    python benchmarks/bench_e2e.py table6 fig5 --repeats 1
    python benchmarks/bench_e2e.py --against ../parent --repeats 2

Exits 1 when a run fails or one checkout's repeats render differently.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import hostspeed  # noqa: E402

ARTEFACTS = ("table2", "table5", "table6", "fig5", "survey")


def _blank_field(index: int):
    """A render filter that blanks ``fields[index]`` of every line that
    has it, as ``awk '{$N=""; print}'`` does (``N`` is ``index + 1``,
    or ``NF + index + 1`` for a negative ``index``)."""

    def blank(text: str) -> str:
        lines = []
        for line in text.splitlines():
            fields = line.split()
            if -len(fields) <= index < len(fields):
                fields[index] = ""
                line = " ".join(fields)
            lines.append(line)
        return "\n".join(lines) + "\n"

    return blank


#: The wall-clock column of each artefact that prints one.
_WALL_CLOCK = {"table2": _blank_field(-2), "table6": _blank_field(3)}


def _src_sha256(root: Path) -> str:
    """Hash of the checkout's library sources (Python and C)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c", ".h") and "__pycache__" not in (
            path.parts
        ):
            data = path.read_bytes()
            digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
    return digest.hexdigest()


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _build_native(root: Path) -> None:
    """Build the checkout's native litmus kernel and engine core before
    timing, so no repeat pays the one-off compile."""
    subprocess.run(
        [sys.executable, "-c", "from repro.gpu import engine; "
         "from repro.litmus import native; engine.core(); native.kernel()"],
        cwd=root, env=_env(root), check=True,
    )


def _run(root: Path, name: str, scale: str) -> tuple[float, float, str]:
    """One artefact run from ``root`` in a fresh interpreter: its wall
    clock, the host's slowdown over it and the blanked render's hash."""
    argv = [sys.executable, "-m", "repro", "experiment", name,
            "--scale", scale]
    gauge = hostspeed.Gauge()
    gauge.start()
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=root, env=_env(root),
                              capture_output=True, text=True)
    finally:
        wall = time.perf_counter() - start
        gauge.stop()
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:])} in {root} exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    render = _WALL_CLOCK.get(name, lambda text: text)(done.stdout)
    return wall, gauge.slowdown(), hashlib.sha256(render.encode()).hexdigest()


def _side(root: Path) -> dict:
    return {"src_sha256": _src_sha256(root), "wall_s": [], "slowdown": [],
            "render_sha256": []}


def _summarise(side: dict) -> bool:
    """Adds the median wall clock; True when every repeat rendered the
    same bytes."""
    side["median_wall_s"] = round(statistics.median(side["wall_s"]), 3)
    hashes = set(side["render_sha256"])
    side["render_sha256"] = hashes.pop() if len(hashes) == 1 else sorted(
        side["render_sha256"]
    )
    return not hashes


def measure(name: str, scale: str, repeats: int,
            against: Path | None) -> tuple[dict, bool]:
    """The record of one artefact, and whether each checkout's repeats
    rendered identically."""
    sides = {"this": (ROOT, _side(ROOT))}
    if against is not None:
        sides["against"] = (against, _side(against))
    for repeat in range(repeats):
        for label, (root, side) in sides.items():
            wall, slowdown, digest = _run(root, name, scale)
            side["wall_s"].append(round(wall, 3))
            side["slowdown"].append(round(slowdown, 3))
            side["render_sha256"].append(digest)
            print(f"  {name} {scale} {label} #{repeat + 1}: {wall:.2f} s "
                  f"(host x{slowdown:.2f}) {digest[:12]}", flush=True)
    steady = all([_summarise(side) for _root, side in sides.values()])
    record = {
        "command": f"python -m repro experiment {name} --scale {scale}",
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **{label: side for label, (_root, side) in sides.items()},
    }
    if against is not None:
        record["same_render"] = (
            record["this"]["render_sha256"]
            == record["against"]["render_sha256"]
        )
    return record, steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end wall clock of the paper artefacts."
    )
    parser.add_argument("artefacts", nargs="*", metavar="ARTEFACT",
                        help="artefacts at smoke scale, of "
                        f"{', '.join(ARTEFACTS)} (default: all)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to alternate each repeat with")
    parser.add_argument("--default", action="store_true",
                        help="also run table2 at default scale")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_e2e.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    unknown = sorted(set(args.artefacts) - set(ARTEFACTS))
    if unknown:
        parser.error(f"unknown artefacts: {', '.join(unknown)}")

    runs = [(name, "smoke") for name in args.artefacts or ARTEFACTS]
    if args.default:
        runs.append(("table2", "default"))
    records = {}
    if args.out.exists():
        records = json.loads(args.out.read_text())
    for root in (ROOT, args.against):
        if root is not None:
            _build_native(root)
    status = 0
    for name, scale in runs:
        record, steady = measure(name, scale, args.repeats, args.against)
        records[f"{name}-{scale}"] = record
        if not steady:
            print(f"  {name} {scale}: repeats rendered differently")
            status = 1
        args.out.write_text(json.dumps(records, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

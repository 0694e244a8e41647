#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with ``--tiny`` and
asserts that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit and a
  finite value, and no other metric is;
* every name matches ``[A-Za-z0-9_.-]+``;
* the traced runs together reach every layer of ``spans.LAYER_EVIDENCE``;
* a directory holding only ``BENCHMARK.json`` and the benchmark fails
  without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    sys.path.insert(0, str(HERE))
    import spans

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[1] != {k: u for k, (u, _b) in spans.PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
    names = [w["name"] for w in bench["workloads"]]
    names += list(declared[0]) + list(declared[1])
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]

    covered: set[str] = set()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(
                    f"{tag}: exit {done.returncode}: {done.stderr[-500:]}"
                )
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: not correct: {result}")
            got = result["metrics"]
            if set(got) != set(declared[trace]):
                problems.append(
                    f"{tag}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got) ^ set(declared[trace]))}"
                )
            for name, metric in got.items():
                value = metric["value"]
                number = isinstance(value, (int, float))
                if not number or not math.isfinite(value):
                    problems.append(f"{tag}: {name} = {value!r}")
                if metric["unit"] != declared[trace].get(name):
                    problems.append(f"{tag}: {name} unit {metric['unit']!r}")
            if trace:
                report = HERE / "out" / f"{workload}-seed0-trace1.json"
                layers = json.loads(report.read_text())["covered_layers"]
                covered.update(layers)
            print(f"ok {tag} ({result['attempted']} iterations)")
    missing = sorted(set(spans.LAYER_EVIDENCE) - covered)
    if missing:
        problems.append(f"layers no traced run reached: {missing}")

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        done = _run(bare, bench["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("a checkout without the library did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

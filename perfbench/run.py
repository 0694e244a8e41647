#!/usr/bin/env python3
"""Benchmark driver: one paper-artefact workload as a closed loop.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 20 --trace 0

Set-up is everything before the first timed iteration: importing the
library, building the workload, its ``prepare`` step and one warm-up
iteration that fills the memo tables.  It is measured in this process
and in fresh interpreters (``--setup-probe``) run after the timed loop,
and ``setup_s`` is the median.  The warm-up is checked like any
iteration and fixes the reference digest.  The timed loop calls the
workload, waits for it and calls it again while the next iteration is
expected to end within ``--seconds`` (at least three iterations).
Every iteration is checked; a failed one is never a timing sample.

Times of workloads that run in the driver's own thread are stated at
the nominal host speed: ``hostspeed.Gauge`` samples the host's drift
while the set-up or the call runs and divides it out.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced iterations, prints the per-layer metrics of the
traced ones plus the tracing overhead, and writes the spans as JSONL.
The last line of standard output is the JSON result; a report with
provenance, digest, samples and the per-layer table goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HOOK = HERE / "hook"

MIN_SAMPLES = 3


def _probe_setup(args) -> float:
    """Set-up time of this workload in a fresh interpreter."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload",
        args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    if args.tiny:
        argv.append("--tiny")
    done = subprocess.run(
        argv, check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return float(done.stdout.split()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (benchmark checkouts are usually not repositories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def stats_digest(stats) -> str:
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or
    the maximum when there are too few samples for one."""
    n = len(samples)
    if n <= 10:
        return "max", max(samples)
    q = 1.0 - 10.0 / n
    return f"p{100 * q:.0f}", sorted(samples)[math.floor(q * n) - 1]


@dataclass
class Iteration:
    index: int
    traced: bool
    #: Seconds at the nominal host speed (``raw_s`` when not gauged).
    wall_s: float
    raw_s: float
    #: The host's mean slowdown during the call (0 when not gauged).
    slowdown: float
    outcome: object
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(outcome, reference: str | None) -> list[str]:
    failures = list(outcome.failures)
    if outcome.sim_exec <= 0:
        failures.append("no simulated executions counted")
    if not outcome.checks:
        failures.append("no ground-truth checks ran")
    if reference is not None and stats_digest(outcome.stats) != reference:
        failures.append("simulated statistics differ from the warm-up's")
    return failures


def _run_once(workload, index, traced, recorder, reference, gauge):
    spans_dir = None
    installation = None
    if traced:
        import spans

        recorder.iteration = index
        installation = spans.Installation(recorder)
        spans_dir = tempfile.mkdtemp(prefix="spans-", dir=OUT)
        os.environ["PERFBENCH_SPANS"] = spans_dir
        os.environ["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(SRC)])
    if gauge is not None:
        gauge.start()
    started = time.perf_counter()
    try:
        outcome = workload.run()
        failures = None
    except Exception as exc:  # a raising iteration is a failed operation
        outcome = None
        failures = [f"raised {type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    raw_s = time.perf_counter() - started
    wall_s, slowdown = raw_s, 0.0
    if gauge is not None:
        wall_s, slowdown = gauge.nominal(raw_s), gauge.slowdown()
        gauge.stop()
    if traced:
        installation.remove()
        os.environ.pop("PERFBENCH_SPANS", None)
        os.environ["PYTHONPATH"] = str(SRC)
        for name in sorted(os.listdir(spans_dir)):
            recorder.absorb(os.path.join(spans_dir, name), index)
        shutil.rmtree(spans_dir, ignore_errors=True)
    if outcome is not None:
        failures = _check(outcome, reference)
        if traced:
            for name, value in outcome.counts.items():
                recorder.counts[(index, name)] += value
    return Iteration(
        index, traced, wall_s, raw_s, slowdown, outcome, failures
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs (the self-test); not a measurement",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="print this process's set-up time and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library sources at {SRC}; run from a full "
            "checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = str(SRC)
    OUT.mkdir(exist_ok=True)
    import hostspeed

    setup_gauge = hostspeed.Gauge()
    setup_gauge.start()
    started = time.perf_counter()
    try:
        import spans
        import workloads

        cls = workloads.WORKLOADS.get(args.workload)
        if cls is None or not cls.gauged:
            setup_gauge.stop()
        if cls is None:
            print(
                f"perfbench: unknown workload {args.workload!r}; choose "
                f"from {', '.join(workloads.WORKLOADS)}", file=sys.stderr,
            )
            return 2
        workload = cls(args.seed, tiny=args.tiny, scratch=str(OUT))
        recorder = spans.Recorder()
        gauge = hostspeed.Gauge() if cls.gauged else None
    except BaseException:
        setup_gauge.stop()
        raise
    try:
        workload.prepare()
        warm = _run_once(workload, -1, False, recorder, None, None)
        setup_s = time.perf_counter() - started
        if cls.gauged:
            setup_s = setup_gauge.nominal(setup_s)
            setup_gauge.stop()
        setup_samples = [setup_s]
        if args.setup_probe:
            print(setup_samples[0])
            return 0
        reference = (
            stats_digest(warm.outcome.stats) if warm.outcome else None
        )

        iterations: list[Iteration] = []
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            good = [i.raw_s for i in iterations if i.ok]
            expected = statistics.median(good) if good else 0.0
            if (
                len(iterations) >= MIN_SAMPLES
                and elapsed + expected > args.seconds
            ):
                break
            traced = bool(args.trace) and len(iterations) % 2 == 0
            iterations.append(_run_once(
                workload, len(iterations), traced, recorder, reference,
                gauge,
            ))
            if len(iterations) >= 4 * MIN_SAMPLES and not any(
                i.ok for i in iterations
            ):
                break
    finally:
        setup_gauge.stop()
        workload.close()
    peak_rss_mb = _peak_rss_mb(workload.counts_children)
    setup_samples += [
        _probe_setup(args) for _ in range(workload.setup_probes)
    ]

    attempted = len(iterations)
    failed = sum(1 for i in iterations if not i.ok)
    good = [i for i in iterations if i.ok]
    untraced = [i.wall_s for i in good if not i.traced]
    correct = warm.ok and failed == 0 and bool(good)

    def median_of(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    match = [
        sum(i.outcome.checks) / len(i.outcome.checks)
        if i.outcome and i.outcome.checks else 0.0
        for i in iterations
    ]
    end_to_end = {
        "wall_s": (median_of(untraced), "s"),
        "setup_s": (median_of(setup_samples), "s"),
        "sim_exec_per_s": (
            median_of([i.outcome.sim_exec / i.wall_s for i in good
                       if not i.traced]), "1/s",
        ),
        "exposed_per_s": (
            median_of([i.outcome.exposed / i.wall_s for i in good
                       if not i.traced]), "1/s",
        ),
        "ground_truth_match": (statistics.fmean(match), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }

    report: dict = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "digest": reference,
        "setup_samples_s": setup_samples,
        "samples": [
            {"iteration": i.index, "traced": i.traced, "wall_s": i.wall_s,
             "raw_s": i.raw_s, "slowdown": i.slowdown, "ok": i.ok,
             "failures": i.failures,
             "checks": i.outcome.checks if i.outcome else None}
            for i in iterations
        ],
        "warmup_failures": warm.failures,
        "end_to_end": {k: v for k, (v, _u) in end_to_end.items()},
    }
    if args.trace:
        traced_ok = [i for i in good if i.traced]
        per_iteration = [
            spans.iteration_metrics(recorder, i.index) for i in traced_ok
        ]
        layers = {
            name: median_of([m.get(name, 0.0) for m in per_iteration])
            for name in spans.PER_LAYER
        }
        traced_wall = median_of([i.wall_s for i in traced_ok])
        untraced_wall = median_of(untraced)
        layers["trace.overhead_frac"] = (
            traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
        )
        layers["host.slowdown"] = median_of([i.slowdown for i in good])
        layers["host.raw_wall_s"] = median_of(
            [i.raw_s for i in good if not i.traced]
        )
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _better) in spans.PER_LAYER.items()
        }
        report["layer_table"] = spans.layer_table(
            recorder, [i.index for i in traced_ok], traced_wall
        )
        report["covered_layers"] = sorted(spans.covered_layers(recorder))
        report["traced_wall_s"] = traced_wall
        report["untraced_wall_s"] = untraced_wall
        report["per_layer"] = layers
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        recorder.dump(str(spans_path))
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end.items()
        }
    report_path = OUT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    walls = [i.wall_s for i in good if not i.traced]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"digest {reference}")
    if walls:
        label, tail = _tail(walls)
        print(
            f"wall_s n={len(walls)} median={_fmt(median_of(walls))} "
            f"{label}={_fmt(tail)}"
        )
    if gauge is not None:
        print(
            "host slowdown median="
            f"{_fmt(median_of([i.slowdown for i in iterations]))}, raw "
            f"wall_s median={_fmt(median_of([i.raw_s for i in good]))}"
        )
    for i in [warm] + iterations:
        for failure in i.failures or []:
            print(f"FAILED iteration {i.index}: {failure}")
    if args.trace:
        print(
            f"tracing overhead {_fmt(metrics['trace.overhead_frac']['value'])}"
            f" (traced {_fmt(report['traced_wall_s'])} s vs untraced "
            f"{_fmt(report['untraced_wall_s'])} s)"
        )
        print(f"{'span':<20} {'calls':>10} {'incl_s':>10} {'self_s':>10} "
              f"{'self/wall':>9}")
        for row in report["layer_table"]:
            print(
                f"{row['span']:<20} {row['calls']:>10.0f} "
                f"{row['incl_s']:>10.4f} {row['self_s']:>10.4f} "
                f"{row['self_share_of_wall']:>9.3f}"
            )
    for name, metric in metrics.items():
        print(f"{name:<26} {_fmt(metric['value']):>14} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

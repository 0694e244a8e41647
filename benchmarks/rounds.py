"""Alternating timed rounds, shared by the throughput benchmarks.

A single timed run moves by 15% or more between runs of one tree, and a
shared host's speed drifts between invocations.  So a measurement runs
each of its sides once per round, alternating, until every side has
``MIN_RUNS`` runs and ``MIN_SECONDS`` are covered: drift then moves all
sides alike, and two sides compare by the median of their per-round
ratios.
"""

from __future__ import annotations

import statistics
import time

MIN_RUNS = 9
MIN_SECONDS = 1.0


def timed_rounds(sides, executions):
    """Alternate one run of each of ``sides`` (name -> callable) until
    every side has ``MIN_RUNS`` runs and ``MIN_SECONDS`` are covered.
    ``executions`` maps each side to its run size.  Returns each side's
    executions/s per round and its last run's result."""
    rates = {name: [] for name in sides}
    last = {}
    spent = 0.0
    while len(rates[next(iter(sides))]) < MIN_RUNS or spent < MIN_SECONDS:
        for name, run in sides.items():
            start = time.perf_counter()
            last[name] = run()
            elapsed = time.perf_counter() - start
            spent += elapsed
            rates[name].append(executions[name] / elapsed)
    return rates, last


def rate_fields(rates) -> dict:
    """The rate fields of a record: best-of, median, IQR and runs."""
    q1, median, q3 = statistics.quantiles(rates, n=4)
    return {
        "exec_per_sec": round(max(rates), 1),
        "exec_per_sec_median": round(median, 1),
        "exec_per_sec_iqr": round(q3 - q1, 1),
        "runs": len(rates),
    }


def median_ratio(top, bottom) -> float:
    """The median of the per-round ratios of two sides' rates."""
    return statistics.median(a / b for a, b in zip(top, bottom))

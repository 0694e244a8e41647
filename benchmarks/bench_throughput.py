"""Litmus-execution throughput: the repo's performance trajectory anchor.

The paper's methodology is brute force — nearly half a billion litmus
executions (Sec. 3) — so single-worker executions/second is the number
every tuning grid, campaign cell and fence-insertion check multiplies.
This benchmark measures it for the canonical hot workload (K20, MP at
distance 2 x patch size, tuned ``sys-str`` stressing, fixed seed) plus a
no-stress variant, a sharded run and a per-test sweep of the full litmus
family, and deposits the measurements into ``BENCH_throughput.json`` via
the ``bench_json`` emitter fixture::

    REPRO_BENCH_JSON=BENCH_throughput.json \
        pytest benchmarks/bench_throughput.py -s

Each measurement also re-checks the fixed-seed weak count against the
golden value captured from the pre-refactor core, so a throughput win
can never come from silently changing the model (the full pinning lives
in ``tests/test_golden_stats.py``).

``reference.pre_pr_serial_exec_per_sec`` is the pre-overhaul core
measured on the PR's development machine (best of six 1000-execution
runs, same workload); the hot-path overhaul measured 3.0-3.3x that on
the same machine.  The ratio is only meaningful for runs on comparable
hardware — the JSON records the current machine's absolute numbers.

Timing is done directly with ``time.perf_counter``, so the benchmark
runs without pytest-benchmark installed.  A single 600-execution run
takes well under a second and its rate moves by 15% or more between
runs of one tree, so every timed run repeats in the alternating rounds
of ``rounds.timed_rounds``.  Each record keeps the best-of rate
(``exec_per_sec``) next to the median and interquartile range of the
runs.  A shared host's speed also drifts
between invocations, which moves all of a record's numbers together;
compare records only from alternating runs.  The vector floor therefore
times its sides in alternating runs and compares the median of the
per-round ratios.
"""

from __future__ import annotations

import os
import statistics

from repro.chips import get_chip
from repro.litmus import ALL_TESTS, MP, native, run_litmus, run_litmus_vector
from repro.litmus.runner import LitmusInstance, _litmus_span
from repro.parallel import ParallelConfig
from repro.stress.strategies import NoStress, TunedStress
from repro.tuning.pipeline import shipped_params

from rounds import median_ratio, rate_fields, timed_rounds

#: Executions per registry test for the family-rate record.
_FAMILY_EXECUTIONS = int(
    os.environ.get("REPRO_BENCH_FAMILY_EXECUTIONS", "150")
)

#: Executions per timed run (override for quick smoke: the golden-count
#: cross-check only applies at the default size).
_EXECUTIONS = int(os.environ.get("REPRO_BENCH_THROUGHPUT_EXECUTIONS", "600"))
_SEED = 7

#: Fixed-seed weak counts of this workload on the pre-refactor core.
_GOLDEN_WEAK_SYS = 130
_GOLDEN_WEAK_NO = 0

#: Pre-overhaul throughput on the PR's development machine (see module
#: docstring); kept in the JSON so the perf trajectory has an anchor.
_REFERENCE = {
    "workload": "K20/MP d=2*patch sys-str serial, seed 7",
    "pre_pr_serial_exec_per_sec": 1679.0,
    "note": "best-of-6 on the PR-2 dev container; compare only on "
    "the same machine",
}


def _rates(run, executions):
    """Time ``run()`` alone; returns the rate fields of a record and the
    last run's result."""
    rates, last = timed_rounds({"run": run}, {"run": executions})
    return rate_fields(rates["run"]), last["run"]


def _show(rates) -> str:
    return (
        f"{rates['exec_per_sec']:,.0f} executions/s best, "
        f"{rates['exec_per_sec_median']:,.0f} median "
        f"(IQR {rates['exec_per_sec_iqr']:,.0f}, {rates['runs']} runs)"
    )


def _layout(chip):
    return LitmusInstance.layout(chip, MP, 2 * chip.patch_size)


def test_serial_sys_str_throughput(bench_json):
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    instance = _layout(chip)
    _litmus_span(chip, instance, spec, _SEED, False, 0, 50)  # warm caches

    rates, weak = _rates(
        lambda: _litmus_span(
            chip, instance, spec, _SEED, False, 0, _EXECUTIONS
        ),
        _EXECUTIONS,
    )
    if _EXECUTIONS == 600:
        assert weak == _GOLDEN_WEAK_SYS  # golden tie-in
    assert rates["exec_per_sec"] > 0
    bench_json.setdefault("reference", _REFERENCE)
    bench_json["serial_sys_str"] = {
        "executions": _EXECUTIONS, "weak": weak, **rates,
    }
    print(f"\nserial sys-str: {_show(rates)} (weak={weak})")


def test_serial_no_str_throughput(bench_json):
    chip = get_chip("K20")
    spec = NoStress()
    instance = _layout(chip)
    _litmus_span(chip, instance, spec, _SEED, False, 0, 50)

    rates, weak = _rates(
        lambda: _litmus_span(
            chip, instance, spec, _SEED, False, 0, _EXECUTIONS
        ),
        _EXECUTIONS,
    )
    if _EXECUTIONS == 600:
        assert weak == _GOLDEN_WEAK_NO
    bench_json["serial_no_str"] = {
        "executions": _EXECUTIONS, "weak": weak, **rates,
    }
    print(f"\nserial no-str: {_show(rates)} (weak={weak})")


def test_family_litmus_rates(bench_json):
    """Per-test weak rates for the full litmus family (K20, sys-str,
    d = 2 x patch size, fixed seed) — the expanded-registry analogue of
    the golden weak counts.  The record makes regressions in any family
    member visible in the merged BENCH_throughput.json artifact, and
    doubles as a whole-family throughput measurement."""
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    d = 2 * chip.patch_size

    def sweep():
        family = {}
        for test in ALL_TESTS:
            result = run_litmus(
                chip, test, d, spec, _FAMILY_EXECUTIONS, seed=_SEED
            )
            family[test.name] = {
                "threads": test.n_threads,
                "weak": result.weak,
                "executions": result.executions,
                "rate": round(result.rate, 4),
            }
        return family

    rates, family = _rates(sweep, _FAMILY_EXECUTIONS * len(ALL_TESTS))
    bench_json["family_sys_str"] = {
        "chip": "K20",
        "distance": d,
        "seed": _SEED,
        **rates,
        "tests": family,
    }
    weak_tests = [n for n, r in family.items() if r["weak"]]
    if _FAMILY_EXECUTIONS == 150:  # golden tie-in at the default size
        assert "MP" in weak_tests
        assert family["CoRR"]["weak"] == 0 and family["CoWW"]["weak"] == 0
    print(
        f"\nfamily sys-str: {len(family)} tests, {_show(rates)}, weak in "
        f"{len(weak_tests)}/{len(family)} tests"
    )


#: Executions per timed vector-backend run: four mega-batches, so the
#: measurement covers batch turnover, not just one warm batch.
_VECTOR_EXECUTIONS = int(
    os.environ.get("REPRO_BENCH_VECTOR_EXECUTIONS", "16384")
)
#: The vector floor: the vector backend must beat the direct serial
#: path on the Python rounds, the path it was built to replace, by at
#: least this factor on the same workload.
_VECTOR_MIN_SPEEDUP = 10.0


def test_vector_sys_str_throughput(bench_json, monkeypatch):
    """A/B: the vectorized mega-batch backend against the serial direct
    path on the canonical workload, timed in alternating runs.  The
    floor (>= 10x, median of the per-round ratios) compares vector with
    the direct path on the Python rounds (kernel forced off); the
    ratio over the native kernel path is recorded, not asserted."""
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    instance = _layout(chip)
    lib = native.kernel()

    def vector():
        return run_litmus_vector(
            chip, MP, 2 * chip.patch_size, spec,
            _VECTOR_EXECUTIONS, seed=_SEED,
        ).weak

    def direct(kernel):
        monkeypatch.setattr(native, "_kernel", kernel)
        return _litmus_span(
            chip, instance, spec, _SEED, False, 0, _EXECUTIONS
        )

    sides = {
        "vector": vector,
        "python": lambda: direct(None),
        "native": lambda: direct(lib),
    }
    for run in sides.values():  # warm plan/table caches
        run()
    rates, last = timed_rounds(
        sides,
        {"vector": _VECTOR_EXECUTIONS, "python": _EXECUTIONS,
         "native": _EXECUTIONS},
    )
    weak = last["vector"]
    ratio = median_ratio(rates["vector"], rates["python"])
    record = bench_json["vector_sys_str"] = {
        "executions": _VECTOR_EXECUTIONS,
        "weak": weak,
        "weak_rate": round(weak / _VECTOR_EXECUTIONS, 4),
        **rate_fields(rates["vector"]),
        "direct_python_exec_per_sec_median": round(
            statistics.median(rates["python"]), 1
        ),
        "speedup_vs_direct_python": round(ratio, 1),
        "direct_native_exec_per_sec_median": round(
            statistics.median(rates["native"]), 1
        ),
        "speedup_vs_direct_native": round(
            median_ratio(rates["vector"], rates["native"]), 1
        ),
    }
    assert ratio >= _VECTOR_MIN_SPEEDUP, (
        f"vector backend is only {ratio:.1f}x the direct path on the "
        f"Python rounds (median of {len(rates['vector'])} alternating "
        f"rounds); floor is {_VECTOR_MIN_SPEEDUP:.0f}x"
    )
    print(
        f"\nvector sys-str: {record['exec_per_sec_median']:,.0f} "
        f"executions/s median ({ratio:.1f}x direct Python rounds, "
        f"{record['speedup_vs_direct_native']}x direct native, "
        f"weak rate {weak / _VECTOR_EXECUTIONS:.4f})"
    )


def test_vector_family_throughput(bench_json):
    """The full 16-test family on the vector backend (the family
    benchmark of the acceptance criteria): per-test weak rates plus
    whole-family exec/s, with the >= 10x floor checked against the
    direct family sweep."""
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))
    d = 2 * chip.patch_size
    per_test = max(4096, _VECTOR_EXECUTIONS // 4)
    for test in ALL_TESTS:  # warm plan/table caches
        run_litmus_vector(chip, test, d, spec, 64, seed=_SEED)

    def sweep():
        family = {}
        for test in ALL_TESTS:
            result = run_litmus_vector(
                chip, test, d, spec, per_test, seed=_SEED
            )
            family[test.name] = {
                "threads": test.n_threads,
                "weak": result.weak,
                "executions": result.executions,
                "rate": round(result.rate, 4),
            }
        return family

    rates, family = _rates(sweep, per_test * len(ALL_TESTS))
    rate = rates["exec_per_sec"]
    record = {
        "chip": "K20",
        "distance": d,
        "seed": _SEED,
        **rates,
        "tests": family,
    }
    direct_family = bench_json.get("family_sys_str")
    if direct_family:
        ratio = rate / direct_family["exec_per_sec"]
        record["speedup_vs_direct_family"] = round(ratio, 1)
        assert ratio >= _VECTOR_MIN_SPEEDUP, (
            f"vector family sweep {rate:,.0f} exec/s is only "
            f"{ratio:.1f}x the direct family sweep"
        )
    bench_json["vector_family_sys_str"] = record
    assert family["CoRR"]["weak"] == 0 and family["CoWW"]["weak"] == 0
    assert family["MP"]["weak"] > 0
    print(
        f"\nvector family sys-str: {len(family)} tests, "
        f"{rate:,.0f} executions/s"
    )


def test_sharded_sys_str_throughput(bench_json, bench_jobs):
    """Same workload through run_litmus with REPRO_BENCH_JOBS workers
    (jobs=1 exercises the serial public path).  Statistics are identical
    at any job count — only wall-clock changes."""
    chip = get_chip("K20")
    spec = TunedStress(shipped_params("K20"))

    def run():
        return run_litmus(
            chip,
            MP,
            2 * chip.patch_size,
            spec,
            executions=_EXECUTIONS,
            seed=_SEED,
            parallel=ParallelConfig(jobs=bench_jobs),
        ).weak

    run()  # warm caches / worker pool
    rates, weak = _rates(run, _EXECUTIONS)
    if _EXECUTIONS == 600:
        assert weak == _GOLDEN_WEAK_SYS
    bench_json["sharded_sys_str"] = {
        "executions": _EXECUTIONS, "jobs": bench_jobs, "weak": weak, **rates,
    }
    print(
        f"\nsharded sys-str (jobs={bench_jobs}): {_show(rates)} "
        f"(weak={weak})"
    )

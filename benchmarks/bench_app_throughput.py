"""Application-execution throughput: the SIMT-engine trajectory anchor.

The litmus runner covers the paper's Sec. 3 tuning loops; everything
else — the Sec. 4 application campaigns, Sec. 5 empirical fence
insertion and the Sec. 6 cost study — multiplies application
runs/second through the SIMT engine.  This benchmark measures the two
shapes those harnesses actually execute:

* one sys-str campaign cell (cbe-dot on K20 under the tuned ``sys-str+``
  environment) through the batch driver
  (:class:`repro.apps.base.ApplicationBatch`) and, for comparison, the
  one-shot :func:`run_application` path, which builds a memory system
  and an engine per run (``app.setup`` and the grid are built once per
  process, so after the first run it reuses them as a batch does);
* one empirical fence-insertion reduction (Algorithm 1 on cbe-dot/K20
  at a reduced scale), reported as check-runs/second.

Each record times its workload on the native engine core and on the
Python tick loop (``repro.gpu.engine._core`` forced off) in the
alternating rounds of ``rounds.timed_rounds``, and keeps both sides'
best-of, median and interquartile range plus the median of the
per-round ratios, unasserted.

Measurements land in ``BENCH_throughput.json`` via the ``bench_json``
emitter, merged with the litmus numbers when both files run in one
pytest session::

    REPRO_BENCH_JSON=BENCH_throughput.json pytest \
        benchmarks/bench_throughput.py benchmarks/bench_app_throughput.py -s

Each measurement re-checks its fixed-seed statistics against golden
values captured from the pre-batch engine, so a throughput win can
never come from silently changing the model (the full pinning lives in
``tests/test_golden_stats.py``).

``reference.pre_pr_app_runs_per_sec`` is the pre-overhaul engine
measured on this PR's development machine (best of three 100-run
timings, same workload); the overhaul measured ~2.2x that on the same
machine.  The ratio is only meaningful for runs on comparable hardware —
the JSON records the current machine's absolute numbers.
"""

from __future__ import annotations

import dataclasses
import os

from repro.apps.base import ApplicationBatch, run_application
from repro.apps.registry import get_application
from repro.chips import get_chip
from repro.gpu import engine
from repro.hardening.insertion import empirical_fence_insertion
from repro.rng import derive_seed
from repro.scale import SMOKE
from repro.stress.environment import standard_environments
from repro.tuning.pipeline import shipped_params

from rounds import median_ratio, rate_fields, timed_rounds

#: Runs per timed campaign-cell measurement (override for quick smoke:
#: the golden-count cross-check only applies at the default size).
_RUNS = int(os.environ.get("REPRO_BENCH_APP_RUNS", "100"))
_SEED = 7

#: Errors over the 100-run cbe-dot/K20/sys-str+ workload at seed 7 on
#: the pre-batch engine (bit-identity makes this the current value too).
_GOLDEN_ERRORS = 18

#: Pre-overhaul throughput on the PR's development machine (see module
#: docstring); kept in the JSON so the perf trajectory has an anchor.
_REFERENCE = {
    "workload": "cbe-dot/K20 sys-str+ campaign cell, 100 runs, seed 7",
    "pre_pr_app_runs_per_sec": 64.4,
    "pre_pr_insertion_check_runs_per_sec": 61.7,
    "note": "best-of-3 on this PR's dev container; compare only on "
    "the same machine",
}


def _sys_str_env():
    return next(
        e
        for e in standard_environments(shipped_params("K20"))
        if e.name == "sys-str+"
    )


def _seeds():
    return [
        derive_seed(_SEED, "campaign", "sys-str+", i) for i in range(_RUNS)
    ]


def _on_python_loop(run):
    """``run`` with the native engine core forced off."""
    def side():
        saved = engine._core
        engine._core = None
        try:
            return run()
        finally:
            engine._core = saved
    return side


def _ab(run, executions):
    """Alternating rounds of ``run`` on the native core and on the
    Python tick loop; returns the record fields of both sides, the
    median per-round ratio (core over Python loop, unasserted) and each
    side's last result."""
    run()  # warm caches
    rates, last = timed_rounds(
        {"native": run, "python": _on_python_loop(run)},
        {"native": executions, "python": executions},
    )
    fields = {
        "native": rate_fields(rates["native"]),
        "python": rate_fields(rates["python"]),
        "speedup_median": round(
            median_ratio(rates["native"], rates["python"]), 2
        ),
    }
    return fields, last


def _show(name, fields) -> str:
    return (
        f"\n{name}: {fields['native']['exec_per_sec_median']:,.1f}/s "
        f"median on the core, {fields['python']['exec_per_sec_median']:,.1f}"
        f"/s on the Python loop ({fields['speedup_median']}x, "
        f"{fields['native']['runs']} alternating rounds)"
    )


def test_batch_sys_str_cell_throughput(bench_json):
    """The campaign-cell hot loop: one ApplicationBatch, many seeds."""
    app = get_application("cbe-dot")
    chip = get_chip("K20")
    env = _sys_str_env()
    seeds = _seeds()
    batch = ApplicationBatch(
        app, chip, stress_spec=env.strategy, randomise=env.randomise
    )

    fields, last = _ab(
        lambda: sum(batch.run(s).erroneous for s in seeds), _RUNS
    )
    if _RUNS == 100:
        # Golden tie-in, on both paths.
        assert last["native"] == last["python"] == _GOLDEN_ERRORS
    bench_json.setdefault("app_reference", _REFERENCE)
    bench_json["app_batch_sys_str"] = {
        "runs": _RUNS, "errors": last["native"], **fields,
    }
    print(_show("batch sys-str cell runs", fields))


def test_single_run_sys_str_cell_throughput(bench_json):
    """The one-shot path: a memory system and engine per run, with the
    process's memoised set-up and grid (the delta to the batch is the
    cost of those two constructions)."""
    app = get_application("cbe-dot")
    chip = get_chip("K20")
    env = _sys_str_env()
    seeds = _seeds()

    def run():
        return sum(
            run_application(
                app,
                chip,
                stress_spec=env.strategy,
                randomise=env.randomise,
                seed=s,
            ).erroneous
            for s in seeds
        )

    fields, last = _ab(run, _RUNS)
    if _RUNS == 100:
        assert last["native"] == last["python"] == _GOLDEN_ERRORS
    bench_json["app_single_sys_str"] = {
        "runs": _RUNS, "errors": last["native"], **fields,
    }
    print(_show("single-run sys-str cell runs", fields))


def test_fence_insertion_reduction_throughput(bench_json):
    """One Algorithm-1 reduction (cbe-dot/K20) at a reduced scale.

    The reduction's wall-clock is dominated by its CheckApplication
    runs, so check-runs/second is the comparable rate; the converged
    fence set is asserted against the application's ground truth so the
    timing can never drift off the real workload.
    """
    scale = dataclasses.replace(SMOKE, stability_runs=40)
    app = get_application("cbe-dot")

    def run():
        return empirical_fence_insertion(
            app,
            get_chip("K20"),
            scale=scale,
            seed=_SEED,
            initial_iterations=8,
        )

    result = run()
    assert result.converged
    assert result.reduced == app.required_sites()
    fields, last = _ab(run, result.check_runs)
    for side in last.values():
        assert (side.reduced, side.check_runs) == (
            result.reduced, result.check_runs
        )
    bench_json["fence_insertion_reduction"] = {
        "app": "cbe-dot",
        "chip": "K20",
        "check_runs": result.check_runs,
        "reduced_fences": sorted(result.reduced),
        **fields,
    }
    print(_show("fence insertion check runs", fields))

"""Simulator-soundness gate: backends vs the axiomatic model.

The gate runs all sixteen registry tests on all three execution
backends at fixed seeds, collects every observed final state, and
asserts none is axiomatically forbidden — this is the suite CI's
"soundness-gate" step runs.  The states come from each backend's own
run loop with ``outcomes=True``, which is pinned here to report the
plain run's weak count at the same seed, under any sharding.
"""

from __future__ import annotations

import pytest

from repro.axiom.model import classify
from repro.chips import SC_REFERENCE
from repro.litmus import BACKENDS, run_litmus
from repro.litmus.tests import ALL_TESTS, get_test
from repro.parallel import ParallelConfig
from repro.stress.strategies import TunedStress
from repro.testing.soundness import DEFAULT_EXECUTIONS, soundness_gate
from repro.tuning.pipeline import shipped_params

SEED = 7


@pytest.fixture(scope="module")
def gate_report():
    return soundness_gate(seed=SEED)


def test_gate_passes(gate_report):
    assert gate_report.ok, "\n".join(gate_report.violations)


def test_gate_covers_every_test_and_backend(gate_report):
    cells = {(c.test, c.backend) for c in gate_report.checks}
    names = {t.name for t in ALL_TESTS}
    assert cells == {
        (name, backend)
        for name in names
        for backend in ("direct", "engine", "vector")
    }


def test_gate_is_not_vacuous(gate_report):
    """The gate only means something if the backends actually ran and
    produced states: every cell observed at least one complete round,
    and the weak tests fired somewhere at these budgets."""
    for check in gate_report.checks:
        assert check.rounds > 0, (check.test, check.backend)
        assert check.distinct > 0, (check.test, check.backend)
        assert check.incomplete == 0, (check.test, check.backend)
    assert any(c.weak for c in gate_report.checks)


def test_gate_checks_condition_verdicts(gate_report):
    assert len(gate_report.condition_verdicts) == len(ALL_TESTS)
    for name, verdict, expected, sc_agrees in gate_report.condition_verdicts:
        assert verdict == expected, name
        assert sc_agrees, name


def test_sc_reference_only_produces_sc_states(gate_report):
    assert len(gate_report.sc_reference) == len(ALL_TESTS)
    for name, non_sc in gate_report.sc_reference:
        assert not non_sc, (name, non_sc)


def _check_outcomes_flag(k20, backend, name):
    """Recording runs the rounds an early exit would skip, but each
    execution draws from its own seed stream, so the weak count is the
    plain run's and every round lands in the histogram."""
    runner = BACKENDS[backend]
    test = get_test(name)
    spec = TunedStress(shipped_params("K20"))
    d = 2 * k20.patch_size
    n = DEFAULT_EXECUTIONS[backend]
    plain = runner(k20, test, d, spec, n, seed=SEED)
    recorded = runner(k20, test, d, spec, n, seed=SEED, outcomes=True)
    assert plain.outcomes is None and plain.incomplete == 0
    assert recorded.weak == plain.weak
    assert sum(recorded.outcomes.values()) == n * 8
    assert recorded.incomplete == 0


@pytest.mark.parametrize("name", ["MP", "IRIW", "CoWW"])
def test_direct_collector_matches_run_litmus(k20, name):
    _check_outcomes_flag(k20, "direct", name)


@pytest.mark.parametrize("name", ["MP", "SB"])
def test_engine_collector_matches_run_litmus_compiled(k20, name):
    _check_outcomes_flag(k20, "engine", name)


@pytest.mark.parametrize("name", ["MP", "2+2W"])
def test_vector_collector_matches_run_litmus_vector(k20, name):
    _check_outcomes_flag(k20, "vector", name)


@pytest.mark.parametrize("backend,executions", [
    ("direct", 40),
    ("vector", 3 * 4096 + 17),
])
def test_sharded_histogram_equals_serial(k20, backend, executions):
    """Shards carry their histograms, so ``--jobs N`` records exactly
    the serial outcomes (the vector run spans four mega-batches)."""
    runner = BACKENDS[backend]
    spec = TunedStress(shipped_params("K20"))
    d = 2 * k20.patch_size
    serial = runner(
        k20, get_test("MP"), d, spec, executions, seed=SEED, outcomes=True
    )
    sharded = runner(
        k20, get_test("MP"), d, spec, executions, seed=SEED, outcomes=True,
        parallel=ParallelConfig(jobs=2),
    )
    assert sharded == serial


def test_collectors_observe_weak_states_the_model_allows(k20):
    """On MP the direct backend's weak rounds land exactly on the
    model's weak-only state (r1=1, r2=0) — soundness with bite."""
    test = get_test("MP")
    spec = TunedStress(shipped_params("K20"))
    result = run_litmus(
        k20, test, 2 * k20.patch_size, spec, 60, seed=SEED, outcomes=True
    )
    report = classify(test)
    weak_states = {
        s for s in result.outcomes
        if report.verdict_of(dict(s[0]), dict(s[1])) == "weak"
    }
    assert weak_states == {((("r1", 1), ("r2", 0)), (("x", 1), ("y", 1)))}


def test_sc_reference_is_actually_restrictive(sc_ref):
    """The SC-only assertion is meaningful: the same budget on K20
    observes non-SC states, the reference chip none."""
    test = get_test("MP")
    spec = TunedStress(shipped_params(SC_REFERENCE.short_name))
    result = run_litmus(
        sc_ref, test, 2 * sc_ref.patch_size, spec, 40, seed=SEED,
        outcomes=True,
    )
    report = classify(test)
    assert all(
        report.verdict_of(dict(s[0]), dict(s[1])) == "sc"
        for s in result.outcomes
    )

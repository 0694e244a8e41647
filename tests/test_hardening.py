"""Tests for empirical fence insertion (paper Sec. 5, Algorithm 1)."""

import dataclasses

import pytest

from repro.apps import get_application
from repro.errors import FenceInsertionError
from repro.hardening import (
    all_fences,
    empirical_fence_insertion,
    split_fences,
    sorted_sites,
)
from repro.hardening.insertion import EmpiricalFenceInserter
from repro.scale import SMOKE

FAST = dataclasses.replace(SMOKE, stability_runs=30)


class TestFenceSets:
    def test_all_fences_covers_every_site(self):
        app = get_application("cbe-dot")
        assert all_fences(app) == frozenset(app.sites())

    def test_sorted_sites_in_program_order(self):
        app = get_application("cbe-dot")
        assert sorted_sites(app, all_fences(app)) == list(app.sites())

    def test_sorted_sites_rejects_foreign(self):
        app = get_application("cbe-dot")
        with pytest.raises(ValueError):
            sorted_sites(app, frozenset({"not-a-site"}))

    def test_split_halves_by_code_location(self):
        app = get_application("cub-scan-nf")
        first, second = split_fences(app, all_fences(app))
        assert first | second == all_fences(app)
        assert not first & second
        order = {s: i for i, s in enumerate(app.sites())}
        assert max(order[s] for s in first) < min(order[s] for s in second)

    def test_split_single_fence(self):
        app = get_application("cbe-dot")
        first, second = split_fences(app, frozenset({app.sites()[0]}))
        assert first == frozenset()
        assert len(second) == 1


class _FakeOracle(EmpiricalFenceInserter):
    """Deterministic CheckApplication for algorithm-logic tests:
    a fence set passes iff it contains all required sites."""

    def __init__(self, app, required):
        # Bypass parent init: no chip needed for the pure algorithm.
        self.app = app
        self.required = frozenset(required)
        self.check_runs = 0
        self._check_counter = 0

    def check_application(self, fences, iterations):
        self.check_runs += iterations
        return self.required <= fences

    def empirically_stable(self, fences):
        return self.required <= fences

    def run(self, initial_iterations=4):
        initial = all_fences(self.app)
        after_binary = self.binary_reduction(initial, initial_iterations)
        return self.linear_reduction(after_binary, initial_iterations)


class TestAlgorithmLogic:
    @pytest.mark.parametrize(
        "app_name", ["cbe-dot", "cub-scan-nf", "ls-bh-nf", "tpo-tm"]
    )
    def test_reduction_finds_exactly_required(self, app_name):
        app = get_application(app_name)
        required = app.required_sites()
        oracle = _FakeOracle(app, required)
        assert oracle.run() == required

    def test_reduction_with_no_required_fences_empties(self):
        app = get_application("cbe-dot")
        oracle = _FakeOracle(app, frozenset())
        assert oracle.run() == frozenset()

    def test_reduction_keeps_all_when_all_required(self):
        app = get_application("cbe-dot")
        oracle = _FakeOracle(app, all_fences(app))
        assert oracle.run() == all_fences(app)

    def test_binary_reduction_worst_case_returns_input(self):
        # Required fences split across both halves: binary reduction
        # cannot remove either half (paper Sec. 5.1).
        app = get_application("cub-scan-nf")
        sites = list(app.sites())
        required = frozenset({sites[0], sites[-1]})
        oracle = _FakeOracle(app, required)
        result = oracle.binary_reduction(all_fences(app), 1)
        assert result == all_fences(app)

    def test_linear_reduction_minimises_after_binary(self):
        app = get_application("cub-scan-nf")
        sites = list(app.sites())
        required = frozenset({sites[0], sites[-1]})
        oracle = _FakeOracle(app, required)
        reduced = oracle.linear_reduction(all_fences(app), 1)
        assert reduced == required


class _RestartOracle(EmpiricalFenceInserter):
    """Full ``run()`` harness with a deterministic oracle: removals
    always pass their checks, and the stability verdict is scripted —
    so the restart loop's accounting is testable without simulation."""

    def __init__(self, app, chip, max_restarts, stable_after):
        # Bypass parent init: no engine/environment needed.
        self.app = app
        self.chip = chip
        self.max_restarts = max_restarts
        self._stable_after = stable_after
        self._stability_checks = 0
        self.check_runs = 0
        self._check_counter = 0

    def check_application(self, fences, iterations):
        self.check_runs += 1
        return True

    def empirically_stable(self, fences):
        self._stability_checks += 1
        return self._stability_checks >= self._stable_after

    @property
    def environment(self):  # pragma: no cover - never consulted
        raise AssertionError("oracle has no testing environment")


class TestRestartAccounting:
    """The two insertion bugfixes: ``iterations_used`` reports the last
    pass actually run, and exhausted restarts return instead of
    raising."""

    def test_unconverged_reports_last_budget_actually_run(self, titan):
        # 3 restarts at 4 -> 8 -> 16 iterations, never stable: the old
        # code reported 32 (the doubling past loop exit).
        oracle = _RestartOracle(
            get_application("cbe-dot"), titan, max_restarts=3,
            stable_after=10**9,
        )
        result = oracle.run(initial_iterations=4)
        assert not result.converged
        assert result.iterations_used == 16

    def test_unconverged_is_a_result_not_an_exception(self, titan):
        oracle = _RestartOracle(
            get_application("cbe-dot"), titan, max_restarts=2,
            stable_after=10**9,
        )
        result = oracle.run(initial_iterations=4)
        assert not result.converged
        assert result.chip == "Titan"
        # The all-removals-pass oracle reduces to the empty set.
        assert result.reduced == frozenset()

    def test_converged_on_first_pass_keeps_initial_budget(self, titan):
        oracle = _RestartOracle(
            get_application("cbe-dot"), titan, max_restarts=4,
            stable_after=1,
        )
        result = oracle.run(initial_iterations=8)
        assert result.converged
        assert result.iterations_used == 8

    def test_converged_after_restart_reports_doubled_budget(self, titan):
        oracle = _RestartOracle(
            get_application("cbe-dot"), titan, max_restarts=4,
            stable_after=3,
        )
        result = oracle.run(initial_iterations=8)
        assert result.converged
        assert result.iterations_used == 32  # 8 -> 16 -> 32, stable

    def test_zero_restarts_raises_before_any_work(self, titan):
        inserter = EmpiricalFenceInserter(
            get_application("cbe-dot"), titan, scale=FAST,
            max_restarts=0,
        )
        with pytest.raises(FenceInsertionError, match="max_restarts"):
            inserter.run()
        assert inserter.check_runs == 0

    def test_negative_restarts_raise(self, titan):
        oracle = _RestartOracle(
            get_application("cbe-dot"), titan, max_restarts=-1,
            stable_after=1,
        )
        with pytest.raises(FenceInsertionError):
            oracle.run()


class TestEndToEnd:
    @pytest.mark.slow
    def test_cbe_dot_converges_to_single_fence(self, titan):
        app = get_application("cbe-dot")
        result = empirical_fence_insertion(
            app, titan, scale=FAST, seed=1
        )
        assert result.converged
        assert result.reduced == app.required_sites()
        assert result.initial_fences == len(app.sites())
        # The run count pins the per-run check seeds: shifting them by
        # one changes it.
        assert result.check_runs == 126

    @pytest.mark.slow
    def test_cbe_ht_converges_to_single_fence(self, titan):
        app = get_application("cbe-ht")
        result = empirical_fence_insertion(app, titan, scale=FAST, seed=1)
        assert result.converged
        assert len(result.reduced) == 1
        assert result.check_runs == 99

    @pytest.mark.slow
    def test_result_row_shape(self, titan):
        app = get_application("cbe-dot")
        result = empirical_fence_insertion(app, titan, scale=FAST, seed=2)
        row = result.table6_row()
        assert row["app"] == "cbe-dot"
        assert row["init."] == 4
        assert row["red."] >= 1

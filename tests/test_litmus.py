"""Tests for litmus test definitions and the runner."""

import pytest

from repro.chips import SC_REFERENCE, get_chip
from repro.litmus import (
    ALL_TESTS,
    LB,
    MP,
    SB,
    TUNING_TESTS,
    get_test,
    run_litmus,
)
from repro.litmus.runner import LitmusInstance
from repro.stress.strategies import FixedLocationStress, NoStress


class TestDefinitions:
    def test_tuning_triple_pinned(self):
        # The Sec. 3 tuning pipeline only ever sees the paper's triple,
        # however large the registry grows.
        assert tuple(t.name for t in TUNING_TESTS) == ("MP", "LB", "SB")
        assert ALL_TESTS[:3] == TUNING_TESTS

    def test_registry_has_extended_family(self):
        assert len(ALL_TESTS) >= 12
        names = {t.name for t in ALL_TESTS}
        assert {"MP", "LB", "SB", "CoRR", "CoWW", "IRIW", "WRC"} <= names

    def test_lookup_case_insensitive(self):
        assert get_test("mp") is MP
        assert get_test("LB") is LB
        assert get_test("iriw").name == "IRIW"

    def test_unknown_test_raises(self):
        with pytest.raises(ValueError):
            get_test("MP+lwsync")

    def test_mp_weak_condition(self):
        assert MP.weak({"r1": 1, "r2": 0})
        assert not MP.weak({"r1": 1, "r2": 1})
        assert not MP.weak({"r1": 0, "r2": 0})

    def test_lb_weak_condition(self):
        assert LB.weak({"r1": 1, "r2": 1})
        assert not LB.weak({"r1": 0, "r2": 1})

    def test_sb_weak_condition(self):
        assert SB.weak({"r1": 0, "r2": 0})
        assert not SB.weak({"r1": 1, "r2": 0})

    def test_registers_enumerated(self):
        assert set(MP.registers) == {"r1", "r2"}


class TestLayout:
    def test_distance_zero_means_contiguous(self, k20):
        inst = LitmusInstance.layout(k20, MP, 0)
        assert inst.addr("y") == inst.addr("x") + 1

    def test_distance_respected(self, k20):
        inst = LitmusInstance.layout(k20, MP, 96)
        assert inst.addr("y") - inst.addr("x") == 96

    def test_scratchpad_disjoint_from_comm(self, k20):
        inst = LitmusInstance.layout(k20, MP, 64)
        assert inst.scratch_base > inst.addr("y")

    def test_scratchpad_channel_aligned(self, k20):
        inst = LitmusInstance.layout(k20, MP, 64)
        period = k20.patch_size * k20.n_channels
        assert inst.scratch_base % period == 0

    def test_negative_distance_rejected(self, k20):
        with pytest.raises(ValueError):
            LitmusInstance.layout(k20, MP, -1)


class TestRunner:
    @pytest.mark.parametrize("test", TUNING_TESTS, ids=lambda t: t.name)
    def test_sc_reference_never_weak(self, test):
        result = run_litmus(
            SC_REFERENCE, test, 64, NoStress(), executions=60, seed=9
        )
        assert result.weak == 0

    @pytest.mark.parametrize("test", TUNING_TESTS, ids=lambda t: t.name)
    def test_native_rarely_weak(self, test, k20):
        result = run_litmus(k20, test, 64, NoStress(), executions=100,
                            seed=2)
        assert result.rate < 0.05

    @pytest.mark.parametrize("test", TUNING_TESTS, ids=lambda t: t.name)
    def test_tuned_stress_provokes_weak(self, test, k20):
        spec = FixedLocationStress(
            (0, 2 * k20.patch_size), k20.best_sequence
        )
        result = run_litmus(k20, test, 2 * k20.patch_size, spec,
                            executions=150, seed=2)
        assert result.rate > 0.02, f"{test.name} silent under stress"

    @pytest.mark.parametrize(
        "chip_name", ["K5200", "Titan", "K20", "770", "C2075", "C2050"]
    )
    def test_no_weak_below_patch_distance(self, chip_name):
        # Paper Sec. 3.2: no weak behaviour when communication
        # locations are within the critical patch (d < P).
        chip = get_chip(chip_name)
        spec = FixedLocationStress(
            (0, 2 * chip.patch_size), chip.best_sequence
        )
        for test in TUNING_TESTS:
            result = run_litmus(chip, test, 0, spec, executions=80, seed=4)
            assert result.weak == 0, f"{chip_name}/{test.name} at d=0"

    def test_980_shows_mp_leak_at_small_distance(self):
        # Paper: Maxwell exhibits a small number of MP weak behaviours
        # even at d = 0.
        chip = get_chip("980")
        spec = FixedLocationStress(
            (0, 2 * chip.patch_size), chip.best_sequence
        )
        result = run_litmus(chip, MP, 0, spec, executions=400, seed=4)
        assert result.weak > 0

    def test_store_only_sequence_ineffective(self, k20):
        spec = FixedLocationStress((0, 64), ("st", "st", "st"))
        total = sum(
            run_litmus(k20, t, 64, spec, executions=80, seed=5).weak
            for t in TUNING_TESTS
        )
        assert total <= 2

    def test_results_deterministic_for_seed(self, k20):
        spec = FixedLocationStress((0, 64), k20.best_sequence)
        a = run_litmus(k20, MP, 64, spec, executions=50, seed=11)
        b = run_litmus(k20, MP, 64, spec, executions=50, seed=11)
        assert a.weak == b.weak

    def test_rate_property(self):
        from repro.litmus.results import LitmusResult

        r = LitmusResult(test="MP", distance=0, weak=5, executions=50)
        assert r.rate == pytest.approx(0.1)

    def test_randomisation_flag_accepted(self, k20):
        spec = FixedLocationStress((0, 64), k20.best_sequence)
        result = run_litmus(k20, MP, 64, spec, executions=30, seed=1,
                            randomise=True)
        assert 0 <= result.weak <= 30


"""Tests for the vectorized mega-batch backend and its statistical oracle.

The vector backend (:mod:`repro.litmus.vector`) is deliberately not
draw-identical to the scalar core, so its correctness case is built from
three statistical pillars plus the usual mechanical contracts:

* **SC soundness** — all 16 registry tests stay silent on the ``sc-ref``
  chip: no batch size, stress level or seed may produce a forbidden
  outcome where sequential consistency forbids it.
* **Weak-rate parity** — at fixed seeds, per (test, chip, environment),
  the vector backend's weak rate and the direct backend's weak rate are
  indistinguishable under a two-sided two-proportion test at α = 0.001
  with Bonferroni correction across the family
  (:mod:`repro.testing.stats`).
* **Fence ordering** — fenced variants show lower weak rates than their
  unfenced bases on the vector backend too, and fully fenced or
  coherence tests stay silent.
* **Mechanics** — ``backend="vector"`` tagging, bit-identical repeats,
  serial/sharded equality, ragged final batches, and the same
  too-many-threads validation as the scalar runners.
"""

import pytest

from repro.chips import SC_REFERENCE, get_chip
from repro.litmus import (
    ALL_TESTS,
    BACKENDS,
    FENCED_VARIANTS,
    TUNING_TESTS,
    get_test,
    run_litmus,
    run_litmus_vector,
)
from repro.parallel import ParallelConfig
from repro.stress.strategies import NoStress, TunedStress
from repro.testing.stats import (
    bonferroni_alpha,
    normal_isf,
    normal_sf,
    parity_family,
    two_proportion_test,
    wilson_interval,
)
from repro.tuning.pipeline import shipped_params

_names = [t.name for t in ALL_TESTS]

#: Sample sizes for the parity pillar: the direct backend is the slow
#: reference (hundreds of executions each), the vector backend is cheap
#: at mega-batch granularity.
_N_DIRECT = 1500
_N_VECTOR = 8192


def _tuned(chip):
    return TunedStress(shipped_params(chip.short_name))


def _reaches_approximation(threads) -> bool:
    """True when a thread program reaches one of the two approximations
    the :mod:`repro.litmus.vector` docstring names: three or more
    stores, or an rmw between two stores in program order."""
    for program in threads:
        kinds = [ins[0] for ins in program]
        stores = [i for i, kind in enumerate(kinds) if kind == "st"]
        if len(stores) >= 3:
            return True
        if len(stores) == 2 and "rmw" in kinds[stores[0]:stores[1]]:
            return True
    return False


# ----------------------------------------------------------------------
# the statistical toolbox itself
# ----------------------------------------------------------------------
class TestStats:
    def test_identical_samples_never_reject(self):
        t = two_proportion_test(50, 1000, 50, 1000)
        assert t.z == 0.0
        assert t.p_value == 1.0
        assert not t.rejects(0.05)

    def test_grossly_different_samples_reject(self):
        t = two_proportion_test(500, 1000, 100, 1000)
        assert abs(t.z) > 10
        assert t.rejects(1e-6)

    def test_z_sign_follows_rate_difference(self):
        assert two_proportion_test(60, 100, 40, 100).z > 0
        assert two_proportion_test(40, 100, 60, 100).z < 0

    def test_degenerate_pool_reports_unity_p(self):
        assert two_proportion_test(0, 50, 0, 80).p_value == 1.0
        assert two_proportion_test(50, 50, 80, 80).p_value == 1.0

    def test_two_proportion_validates_inputs(self):
        with pytest.raises(ValueError):
            two_proportion_test(1, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_test(11, 10, 1, 10)

    def test_normal_tail_round_trip(self):
        for p in (0.5, 0.1, 0.025, 1e-3, 1e-6):
            assert normal_sf(normal_isf(p)) == pytest.approx(p, rel=1e-9)
        # The classic two-sided 5% quantile.
        assert normal_isf(0.025) == pytest.approx(1.959964, abs=1e-5)

    def test_wilson_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 200)
        assert lo < 30 / 200 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_wilson_interval_behaves_at_extremes(self):
        lo, hi = wilson_interval(0, 40)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < hi < 0.15
        lo, hi = wilson_interval(40, 40)
        assert 0.85 < lo < 1.0
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_wilson_interval_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(1000, 10000)
        assert hi2 - lo2 < hi1 - lo1

    def test_bonferroni(self):
        assert bonferroni_alpha(0.05, 10) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            bonferroni_alpha(0.05, 0)

    def test_parity_family_reports_rejections(self):
        verdict = parity_family(
            [
                ("same", (50, 1000, 52, 1000)),
                ("off", (400, 1000, 100, 1000)),
            ],
            alpha=0.001,
        )
        assert not verdict.passed
        assert verdict.rejections == ("off",)
        assert verdict.worst[0] == "off"
        assert verdict.per_comparison_alpha == pytest.approx(0.0005)

    def test_parity_family_passes_clean_families(self):
        verdict = parity_family(
            [(f"c{i}", (50 + i, 1000, 50, 1000)) for i in range(8)]
        )
        assert verdict.passed
        assert verdict.rejections == ()


# ----------------------------------------------------------------------
# pillar 1: SC soundness on the vector backend
# ----------------------------------------------------------------------
class TestSCSoundnessVector:
    @pytest.mark.parametrize("test", ALL_TESTS, ids=_names)
    def test_sc_reference_never_weak(self, test):
        result = run_litmus_vector(
            SC_REFERENCE, test, 64, NoStress(), executions=4096, seed=9
        )
        assert result.weak == 0, (
            f"{test.name}: {result.weak} forbidden outcomes on the "
            "sequentially consistent reference chip"
        )

    @pytest.mark.parametrize("name", ["MP", "SB", "2+2W", "IRIW"])
    def test_sc_reference_never_weak_under_stress(self, name):
        # Stress dilates timings but must never create SC violations.
        spec = TunedStress(shipped_params("K20"))
        result = run_litmus_vector(
            SC_REFERENCE, get_test(name), 64, spec,
            executions=4096, seed=3,
        )
        assert result.weak == 0


# ----------------------------------------------------------------------
# pillar 2: weak-rate parity against the direct backend
# ----------------------------------------------------------------------
class TestWeakRateParity:
    @pytest.mark.slow
    def test_family_parity_k20_both_environments(self, k20):
        """All 16 registry tests, native and tuned-stress, on K20.

        One Bonferroni family across the 32 (test, environment) cells:
        no two-sided two-proportion test may reject at α = 0.001.
        """
        d = 2 * k20.patch_size
        environments = [
            ("no-str", NoStress()),
            ("sys-str", _tuned(k20)),
        ]
        samples = []
        for test in ALL_TESTS:
            for env_name, spec in environments:
                direct = run_litmus(
                    k20, test, d, spec, _N_DIRECT, seed=7
                )
                vector = run_litmus_vector(
                    k20, test, d, spec, _N_VECTOR, seed=7
                )
                samples.append(
                    (
                        f"{test.name}/{env_name}",
                        (direct.weak, _N_DIRECT, vector.weak, _N_VECTOR),
                    )
                )
        verdict = parity_family(samples, alpha=0.001)
        worst_name, worst = verdict.worst
        assert verdict.passed, (
            f"parity rejected for {verdict.rejections}; worst cell "
            f"{worst_name}: direct {worst.rate1:.4f} vs vector "
            f"{worst.rate2:.4f} (z = {worst.z:+.2f})"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("chip_name", ["980", "C2050"])
    def test_parity_holds_across_chips(self, chip_name):
        """A weak-idiom subset per additional chip, tuned stress."""
        chip = get_chip(chip_name)
        d = 2 * chip.patch_size
        spec = _tuned(chip)
        samples = []
        for name in ("MP", "LB", "SB", "2+2W", "WRC", "IRIW"):
            direct = run_litmus(
                chip, get_test(name), d, spec, _N_DIRECT, seed=7
            )
            vector = run_litmus_vector(
                chip, get_test(name), d, spec, _N_VECTOR, seed=7
            )
            samples.append(
                (name, (direct.weak, _N_DIRECT, vector.weak, _N_VECTOR))
            )
        verdict = parity_family(samples, alpha=0.001)
        assert verdict.passed, (
            f"{chip_name}: parity rejected for {verdict.rejections}"
        )

    def test_weak_idioms_observable_on_vector(self, k20):
        # Beyond "same rate as direct": the backend actually exposes
        # the weak behaviours the paper hunts.
        d = 2 * k20.patch_size
        for name in ("MP", "LB", "SB", "R", "S", "2+2W"):
            result = run_litmus_vector(
                k20, get_test(name), d, _tuned(k20), 4096, seed=7
            )
            assert result.weak > 0, f"{name} silent on vector backend"


# ----------------------------------------------------------------------
# pillar 3: fence ordering on the vector backend
# ----------------------------------------------------------------------
class TestFenceOrderingVector:
    @pytest.mark.parametrize(
        "fenced,base", sorted(FENCED_VARIANTS.items())
    )
    def test_fences_reduce_weak_rates(self, fenced, base, k20):
        d = 2 * k20.patch_size
        spec = _tuned(k20)
        weak_fenced = run_litmus_vector(
            k20, get_test(fenced), d, spec, _N_VECTOR, seed=7
        ).weak
        weak_base = run_litmus_vector(
            k20, get_test(base), d, spec, _N_VECTOR, seed=7
        ).weak
        assert weak_fenced < weak_base, (
            f"{fenced} ({weak_fenced}) not below {base} ({weak_base})"
        )

    @pytest.mark.parametrize("name", ["MP-FF", "LB-FF", "SB-FF"])
    def test_fully_fenced_silent(self, name, k20):
        d = 2 * k20.patch_size
        result = run_litmus_vector(
            k20, get_test(name), d, _tuned(k20), _N_VECTOR, seed=7
        )
        assert result.weak == 0

    @pytest.mark.parametrize("name", ["CoRR", "CoWW"])
    def test_coherence_silent(self, name, k20):
        d = 2 * k20.patch_size
        result = run_litmus_vector(
            k20, get_test(name), d, _tuned(k20), _N_VECTOR, seed=7
        )
        assert result.weak == 0


# ----------------------------------------------------------------------
# mechanics: tagging, determinism, sharding, validation
# ----------------------------------------------------------------------
class TestVectorMechanics:
    def test_result_tagged_with_vector_backend(self, k20):
        result = run_litmus_vector(k20, get_test("MP"), 64, NoStress(),
                                   100, seed=1)
        assert result.backend == "vector"
        assert result.executions == 100

    def test_registered_in_backend_dispatch(self):
        assert BACKENDS["vector"] is run_litmus_vector
        assert set(BACKENDS) == {"direct", "engine", "vector"}

    def test_repeat_runs_bit_identical(self, k20):
        kwargs = dict(executions=10000, seed=13)
        a = run_litmus_vector(
            k20, get_test("SB"), 128, _tuned(k20), **kwargs
        )
        b = run_litmus_vector(
            k20, get_test("SB"), 128, _tuned(k20), **kwargs
        )
        assert a.weak == b.weak

    def test_sharded_matches_serial(self, k20):
        # 3 mega-batches across 2 workers; batch-granular sharding must
        # reproduce the serial count exactly.
        kwargs = dict(executions=10000, seed=5)
        serial = run_litmus_vector(
            k20, get_test("MP"), 128, _tuned(k20), **kwargs
        )
        sharded = run_litmus_vector(
            k20, get_test("MP"), 128, _tuned(k20),
            parallel=ParallelConfig(jobs=2), **kwargs
        )
        assert serial.weak == sharded.weak

    def test_ragged_final_batch(self, k20):
        # Executions far below one lane block still work and count.
        result = run_litmus_vector(
            k20, get_test("MP"), 128, _tuned(k20), 37, seed=7
        )
        assert result.executions == 37
        assert 0 <= result.weak <= 37

    def test_zero_executions(self, k20):
        result = run_litmus_vector(
            k20, get_test("MP"), 128, NoStress(), 0, seed=7
        )
        assert result.weak == 0
        assert result.executions == 0

    def test_seeds_decorrelate_batches(self, k20):
        a = run_litmus_vector(
            k20, get_test("MP"), 128, _tuned(k20), 4096, seed=1
        )
        b = run_litmus_vector(
            k20, get_test("MP"), 128, _tuned(k20), 4096, seed=2
        )
        # Weak counts are binomial with n=4096; distinct seeds landing
        # on the exact same count is possible but overwhelmingly
        # unlikely for MP's mid-range rate at this n.
        assert a.weak != b.weak

    def test_randomise_flag_accepted(self, k20):
        result = run_litmus_vector(
            k20, get_test("MP"), 128, _tuned(k20), 2048, seed=7,
            randomise=True,
        )
        assert 0 <= result.weak <= 2048

    def test_rmw_runs_on_vector(self, k20):
        result = run_litmus_vector(
            k20, get_test("CoWW"), 64, _tuned(k20), 2048, seed=3
        )
        assert result.weak == 0

    def test_tuning_tests_avoid_the_approximations(self):
        """The Sec. 3 tuning tests never reach a documented vector
        approximation, so tuning on this backend needs neither."""
        st, rmw = ("st", "x", 1), ("rmw", "y", "r1", 1)
        assert _reaches_approximation([[st, st, st]])
        assert _reaches_approximation([[st, rmw, st]])
        assert not _reaches_approximation([[rmw, st, st]])
        assert not _reaches_approximation([[rmw], [st, st]])
        flagged = [
            t.name for t in TUNING_TESTS if _reaches_approximation(t.threads)
        ]
        assert flagged == []

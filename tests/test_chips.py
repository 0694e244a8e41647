"""Tests for chip profiles and the registry (paper Table 1)."""

import numpy as np
import pytest

from repro.chips import (
    CHIP_ORDER,
    SC_REFERENCE,
    all_chips,
    get_chip,
    table1_rows,
)
from repro.chips.power import NvmlSession, PowerModel
from repro.errors import PowerQueryUnsupportedError, UnknownChipError


class TestRegistry:
    def test_seven_chips(self):
        assert len(all_chips()) == 7

    def test_table1_order(self):
        assert CHIP_ORDER == (
            "980", "K5200", "Titan", "K20", "770", "C2075", "C2050",
        )

    def test_unknown_chip_raises(self):
        with pytest.raises(UnknownChipError):
            get_chip("H100")

    def test_reference_included_on_request(self):
        chips = all_chips(include_reference=True)
        assert chips[-1] is SC_REFERENCE

    def test_table1_rows_match_paper(self):
        rows = table1_rows()
        by_short = {r["short name"]: r for r in rows}
        assert by_short["980"]["architecture"] == "Maxwell"
        assert by_short["980"]["released"] == 2014
        assert by_short["K5200"]["architecture"] == "Kepler"
        assert by_short["Titan"]["released"] == 2013
        assert by_short["K20"]["architecture"] == "Kepler"
        assert by_short["770"]["released"] == 2013
        assert by_short["C2075"]["architecture"] == "Fermi"
        assert by_short["C2050"]["released"] == 2010

    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_patch_sizes_match_paper_table2(self, name):
        chip = get_chip(name)
        expected = {
            "980": 64, "K5200": 32, "Titan": 32, "K20": 32,
            "770": 32, "C2075": 64, "C2050": 64,
        }[name]
        assert chip.patch_size == expected

    def test_power_support_matches_paper(self):
        supported = {
            c.short_name for c in all_chips() if c.supports_power
        }
        assert supported == {"K5200", "Titan", "K20", "C2075"}


class TestChannelMapping:
    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_channel_constant_within_patch(self, name):
        chip = get_chip(name)
        base = 3 * chip.patch_size * chip.n_channels
        channels = {chip.channel(base + i) for i in range(chip.patch_size)}
        assert len(channels) == 1

    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_channel_changes_across_patch_boundary(self, name):
        chip = get_chip(name)
        assert chip.channel(0) != chip.channel(chip.patch_size)

    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_channel_period(self, name):
        chip = get_chip(name)
        period = chip.patch_size * chip.n_channels
        for addr in (0, 7, chip.patch_size + 3):
            assert chip.channel(addr) == chip.channel(addr + period)


class TestSensitivity:
    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_sensitivity_in_unit_range(self, name):
        sens = get_chip(name).sensitivity
        assert np.all(sens >= 0.0) and np.all(sens <= 1.0)

    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_at_least_two_responsive_channels(self, name):
        sens = get_chip(name).sensitivity
        assert np.count_nonzero(sens > 0.1) >= 2

    def test_sensitivity_is_stable(self):
        chip = get_chip("K20")
        assert np.array_equal(chip.sensitivity, chip.sensitivity)

    def test_sensitivity_is_readonly(self):
        with pytest.raises(ValueError):
            get_chip("K20").sensitivity[0] = 0.5


class TestSequenceStrength:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            get_chip("K20").sequence_strength(())

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            get_chip("K20").sequence_strength(("ld", "nop"))

    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_store_only_is_weak(self, name):
        chip = get_chip(name)
        weak = chip.sequence_strength(("st", "st", "st"))
        strong = chip.sequence_strength(chip.best_sequence)
        assert weak < 0.1 * strong

    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_best_sequence_is_global_maximum(self, name):
        import itertools

        chip = get_chip(name)
        best = chip.sequence_strength(chip.best_sequence)
        for length in range(1, 6):
            for seq in itertools.product(("ld", "st"), repeat=length):
                assert chip.sequence_strength(seq) <= best

    def test_rotations_not_equivalent(self):
        # Paper Sec. 3.3: rotationally equivalent sequences can score
        # differently.
        chip = get_chip("Titan")
        a = chip.sequence_strength(("ld", "st"))
        b = chip.sequence_strength(("st", "ld"))
        assert a != b


class TestTurbulence:
    @pytest.mark.parametrize("name", CHIP_ORDER)
    def test_two_hot_channels_is_peak(self, name):
        chip = get_chip(name)
        values = [chip.turbulence(h) for h in range(9)]
        assert values[2] == max(values)
        assert values[0] == 0.0

    def test_clamps_to_table_end(self):
        chip = get_chip("K20")
        assert chip.turbulence(100) == chip.turbulence(
            len(chip.turbulence_factors) - 1
        )


class TestScReference:
    def test_all_weak_knobs_zero(self):
        chip = SC_REFERENCE
        assert chip.reorder_base == 0.0
        assert chip.store_swap_leak == 0.0
        assert chip.load_delay_base == 0.0
        assert chip.reorder_gain == 0.0
        assert chip.load_delay_gain == 0.0
        assert all(t == 0.0 for t in chip.turbulence_factors)


class TestPowerModel:
    def test_idle_power_when_no_work(self, k20):
        assert PowerModel(k20).average_power(0, 0) == k20.idle_watts

    def test_full_activity_reaches_active_watts(self, k20):
        assert PowerModel(k20).average_power(1000, 0) == pytest.approx(
            k20.active_watts
        )

    def test_stalls_reduce_average_power(self, k20):
        model = PowerModel(k20)
        busy_only = model.average_power(1000, 0)
        with_stalls = model.average_power(500, 500)
        assert with_stalls < busy_only

    def test_energy_scales_with_time(self, k20):
        model = PowerModel(k20)
        assert model.energy_joules(2000, 0) == pytest.approx(
            2 * model.energy_joules(1000, 0)
        )

    def test_unsupported_chip_raises(self):
        session = NvmlSession(get_chip("980"))
        with pytest.raises(PowerQueryUnsupportedError):
            session.query_power(100, 0)

    def test_supported_chip_returns_sample(self, k20):
        sample = NvmlSession(k20).query_power(100, 10)
        assert k20.idle_watts <= sample.watts <= k20.active_watts


def _numpy_sensitivity(seed, n_channels, floor):
    """``_sensitivity_array`` as it drew through ``numpy.random``."""
    from repro.rng import make_rng

    raw = make_rng(seed, "channel-sensitivity").uniform(0.0, 1.0, n_channels)
    sens = np.where(raw < floor, 0.05, np.maximum(raw, 0.45))
    if np.count_nonzero(sens > 0.1) < 2:
        sens[int(np.argmax(raw))] = max(raw.max(), 0.6)
        sens[(int(np.argmax(raw)) + 1) % n_channels] = 0.55
    return sens


@pytest.mark.parametrize("chip", all_chips(), ids=lambda c: c.short_name)
def test_seeded_constants_match_numpy_streams(chip):
    """The two seeded model constants computed without ``numpy.random``
    equal their ``make_rng`` draws: the channel sensitivities, and the
    jitter of every access sequence of length 1-5 (62 sequences)."""
    import itertools

    from repro.chips.profile import _sequence_strength, _sensitivity_array
    from repro.rng import derive_seed, make_rng

    assert _sensitivity_array.__wrapped__(
        chip.seed, chip.n_channels, chip.sensitivity_floor
    ).tolist() == _numpy_sensitivity(
        chip.seed, chip.n_channels, chip.sensitivity_floor
    ).tolist()
    seqs = [
        seq for n in range(1, 6)
        for seq in itertools.product(("ld", "st"), repeat=n)
    ]
    assert len(seqs) == 62
    assert all(derive_seed(chip.seed, "seq", seq) >= 1 << 32 for seq in seqs)
    for seq in seqs:
        jitter = make_rng(chip.seed, "seq", seq).uniform(-0.025, 0.025)
        zero = _sequence_strength.__wrapped__(
            chip.seed, chip.best_sequence, 0.0, seq
        )
        # With no affinity bonus the strength is base + prefix + jitter.
        n_ld = seq.count("ld")
        n_st = len(seq) - n_ld
        base = (
            0.012 + 0.002 * n_st if n_ld == 0
            else 0.28 + 0.02 * n_ld if n_st == 0
            else 0.62 + 0.22 * min(n_ld, n_st) / len(seq)
        )
        prefix = 0
        for a, b in zip(seq, chip.best_sequence):
            if a != b:
                break
            prefix += 1
        assert zero == max(base + 0.015 * prefix + jitter, 0.001), seq

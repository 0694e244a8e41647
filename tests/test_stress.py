"""Tests for sequences, strategies and environments."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidSequenceError, InvalidStressConfigError
from repro.stress import (
    CacheStress,
    FixedLocationStress,
    NoStress,
    RandomStress,
    StressConfig,
    TunedStress,
    all_sequences,
    format_sequence,
    parse_sequence,
    standard_environments,
)
from repro.stress.environment import ENVIRONMENT_ORDER
from repro.stress.strategies import with_threads_range
from repro.tuning import shipped_params


class TestSequences:
    def test_count_matches_paper(self):
        # Length <= 5 over {ld, st}: 2+4+8+16+32 = 62 sequences (the
        # paper quotes 63 via the 2^(n+1)-1 node count of the binary
        # trie, which includes the empty root).
        assert len(all_sequences(5)) == 62

    def test_all_unique(self):
        seqs = all_sequences(5)
        assert len(set(seqs)) == len(seqs)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidSequenceError):
            all_sequences(0)

    @pytest.mark.parametrize(
        "seq,text",
        [
            (("ld",), "ld"),
            (("st", "st"), "st2"),
            (("ld", "st", "st", "ld"), "ld st2 ld"),
            (("ld",) * 4 + ("st",), "ld4 st"),
            (("ld", "ld", "ld", "st", "ld"), "ld3 st ld"),
        ],
    )
    def test_format_matches_paper_notation(self, seq, text):
        assert format_sequence(seq) == text

    @given(
        seq=st.lists(
            st.sampled_from(["ld", "st"]), min_size=1, max_size=8
        ).map(tuple)
    )
    def test_property_parse_roundtrips_format(self, seq):
        assert parse_sequence(format_sequence(seq)) == seq

    @pytest.mark.parametrize("bad", ["", "add", "ld0x", "ld-1"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(InvalidSequenceError):
            parse_sequence(bad)


class TestStressConfig:
    def test_table2_row(self):
        config = shipped_params("Titan")
        row = config.table2_row()
        assert row["chip"] == "Titan"
        assert row["c. patch size"] == 32
        assert row["sequence"] == "ld st2 ld"
        assert row["spread"] == 2

    def test_invalid_spread_rejected(self):
        with pytest.raises(ValueError):
            StressConfig("x", 32, ("ld",), spread=0)
        with pytest.raises(ValueError):
            StressConfig("x", 32, ("ld",), spread=100, scratch_regions=64)

    def test_scratch_words(self):
        config = StressConfig("x", 32, ("ld",), 2, scratch_regions=16)
        assert config.scratch_words == 512


class TestStrategies:
    def test_no_stress_zero_field(self, k20, rng):
        field = NoStress().build(k20, 1024, 4096, rng)
        assert field.press.sum() == 0
        assert NoStress().stress_units(30, rng) == 0

    def test_fixed_location_out_of_bounds(self, k20, rng):
        spec = FixedLocationStress((9999,), ("ld", "st"))
        with pytest.raises(InvalidStressConfigError):
            spec.build(k20, 1024, 4096, rng)

    def test_tuned_stress_uses_spread(self, k20, rng):
        spec = TunedStress(shipped_params("K20"))
        field = spec.build(k20, 0, 4096, rng)
        assert np.count_nonzero(field.press) <= 2
        assert field.press.max() > 0

    def test_tuned_stress_rejects_tiny_scratchpad(self, k20, rng):
        spec = TunedStress(shipped_params("K20"))
        with pytest.raises(InvalidStressConfigError):
            spec.build(k20, 0, k20.patch_size, rng)

    def test_tuned_stress_units_in_paper_range(self, k20, rng):
        spec = TunedStress(shipped_params("K20"))
        for _ in range(50):
            units = spec.stress_units(100, rng)
            assert 1 <= units <= 50  # 15%-50% of application blocks

    def test_rand_stress_is_diffuse(self, k20, rng):
        field = RandomStress().build(k20, 0, 4096, rng)
        assert field.hot_channels == 0

    def test_cache_stress_touches_all_channels(self, k20, rng):
        field = CacheStress().build(k20, 0, 4096, rng)
        assert np.all(field.press > 0)

    def test_with_threads_range(self, k20, rng):
        spec = with_threads_range(TunedStress(shipped_params("K20")),
                                  (8, 16))
        assert spec.threads_range == (8, 16)
        assert with_threads_range(NoStress(), (8, 16)) == NoStress()


class TestEnvironments:
    def test_eight_environments_in_order(self):
        envs = standard_environments(shipped_params("K20"))
        assert tuple(e.name for e in envs) == ENVIRONMENT_ORDER

    def test_randomisation_suffix(self):
        envs = {e.name: e for e in
                standard_environments(shipped_params("K20"))}
        assert envs["sys-str+"].randomise
        assert not envs["sys-str-"].randomise
        assert isinstance(envs["no-str-"].strategy, NoStress)
        assert isinstance(envs["cache-str+"].strategy, CacheStress)

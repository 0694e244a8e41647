"""Tests for the stress pressure field."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.chips import get_chip
from repro.gpu.pressure import StressField


class TestConstructors:
    def test_zero_field(self, k20):
        field = StressField.zero(k20)
        assert field.press.sum() == 0.0
        assert field.hot_channels == 0
        assert field.turbulence == 0.0

    def test_from_locations_hits_right_channel(self, k20):
        base = k20.patch_size * k20.n_channels * 4  # channel 0
        field = StressField.from_locations(
            k20, base, [0], sequence_strength=1.0, n_stress_threads=640
        )
        assert field.press[0] > 0
        assert np.count_nonzero(field.press) == 1

    def test_two_locations_two_channels(self, k20):
        base = 0
        locs = [0, k20.patch_size]
        field = StressField.from_locations(k20, base, locs, 1.0, 640)
        assert np.count_nonzero(field.press) == 2

    def test_same_patch_locations_accumulate(self, k20):
        field = StressField.from_locations(
            k20, 0, [0, 1, 2], 1.0, 900
        )
        assert np.count_nonzero(field.press) == 1

    def test_uniform_field(self, k20):
        field = StressField.uniform(k20, 0.3)
        assert np.allclose(field.press, 0.3)
        assert field.hot_channels == k20.n_channels

    def test_diffuse_spreads_thin(self, k20):
        field = StressField.diffuse(k20, 1.0)
        assert field.hot_channels == 0
        assert 0 < field.turbulence < 0.2

    def test_wrong_shape_rejected(self, k20):
        with pytest.raises(ValueError):
            StressField(k20, np.zeros(3))


class TestDerived:
    def test_pressure_capped(self, k20):
        field = StressField.from_locations(k20, 0, [0], 5.0, 10_000)
        assert field.press.max() <= 1.8

    def test_turbulence_peaks_at_two_hot(self, k20):
        one = StressField.from_locations(k20, 0, [0], 1.0, 640)
        two = StressField.from_locations(
            k20, 0, [0, k20.patch_size], 1.0, 640
        )
        assert two.turbulence > one.turbulence

    def test_many_hot_channels_dilute(self, k20):
        two = StressField.from_locations(
            k20, 0, [0, k20.patch_size], 1.0, 640
        )
        many = StressField.uniform(k20, 1.0)
        assert many.turbulence < two.turbulence

    @given(threads=st.integers(1, 5000), n_locs=st.integers(1, 8))
    def test_property_more_threads_never_less_pressure(
        self, threads, n_locs
    ):
        chip = get_chip("K20")
        locs = [i * chip.patch_size for i in range(n_locs)]
        lo = StressField.from_locations(chip, 0, locs, 1.0, threads)
        hi = StressField.from_locations(chip, 0, locs, 1.0, threads + 64)
        assert np.all(hi.press >= lo.press)

"""Interference-field model: ``field.transmitted_power`` and its derivation.

The production module keeps ``transmitted_power`` and its outcoupling
share alone; the derivation behind them (the intracavity field, its
round-trip sum, its position average and the antinode factor) is an
oracle of ``validation``, tested here through its private names. The
comparisons ``cavray validate`` makes (field vs round-trip sum, the
quadrature of ``_intracavity_field`` over one wavelength vs the
closed-form average and that vs ``transmitted_power``, mirror asymmetry,
the field's antinode over its average vs ``_ANTINODE_FACTOR``) live in
its checks alone, each failing on a named mutant in
``test_validation.py``. Here: frozen numbers, at equal and unequal
mirrors, the sum's truncation tail and term count, the series limit at
1e-9 and pump linearity at 1e-14.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavray import transmitted_power, validation

K = 2.0 * math.pi / 532e-9
RESONANT_D = round(6e-3 * K / math.pi) * math.pi / K  # nearest k*d = m*pi to 6 mm


def resonant_config(amplitude=1.0, displacement=0.0):
    """The scatterer's keyword arguments, driven at 532 nm with unit pump field."""
    return dict(amplitude=amplitude, pump_field=1.0, wavenumber=K, displacement=displacement)


def roundtrip_sum(r1, r2, mirror_separation, n_roundtrips, **scatterer):
    """The field after n round trips, summed term by term."""
    source, feedback = validation._source_and_feedback(r1, r2, mirror_separation, **scatterer)
    return validation._iterate_roundtrips(source, feedback, n_roundtrips)


def test_resonant_separation_is_resonant():
    phase = 2.0 * K * RESONANT_D
    assert math.cos(phase) == pytest.approx(1.0, abs=1e-9)


class TestIntracavityField:
    def test_free_space_is_single_scattered_wave(self):
        state = validation._intracavity_field(0.0, 0.0, 6e-3, **resonant_config(amplitude=0.01))
        assert state == pytest.approx(0.01)

    def test_resonant_buildup(self):
        # (1 + r) / (1 - r^2) at a constructive position
        state = validation._intracavity_field(0.9985, 0.9985, RESONANT_D, **resonant_config())
        assert abs(state) == pytest.approx(666.6666666667, rel=1e-6)

    def test_resonant_buildup_at_unequal_mirrors(self):
        # (1 + r1) / (1 - r1 r2): the once-reflected wave comes off r1; a
        # source reflected off r2 would give 37.9193
        state = validation._intracavity_field(0.9985, 0.95, RESONANT_D, **resonant_config())
        assert abs(state) == pytest.approx(38.8624210015, rel=1e-9)

    def test_destructive_placement(self):
        # a quarter-wave displacement flips the left-mirror contribution
        state = validation._intracavity_field(
            0.9985, 0.9985, RESONANT_D, **resonant_config(displacement=532e-9 / 4.0)
        )
        assert abs(state) == pytest.approx(0.5003752815, rel=1e-6)

    def test_diverging_feedback_rejected(self):
        with pytest.raises(ValueError):
            validation._intracavity_field(1.0, 1.0, 6e-3, **resonant_config())


class TestRoundtripSum:
    def test_zero_roundtrips_keeps_source_terms(self):
        scatterer = resonant_config(displacement=1e-7)
        state = roundtrip_sum(0.9, 0.9, 6e-3, 0, **scatterer)
        expected = scatterer["amplitude"] * scatterer["pump_field"] * (
            1.0 + 0.9 * np.exp(1j * K * (6e-3 + 2e-7))
        )
        assert state == pytest.approx(expected)

    def test_high_reflectivity_converges_to_closed_form(self):
        scatterer = resonant_config()
        exact = validation._intracavity_field(0.9985, 0.9985, RESONANT_D, **scatterer)
        summed = roundtrip_sum(0.9985, 0.9985, RESONANT_D, 10_000, **scatterer)
        assert abs(summed - exact) / abs(exact) < 1e-6

    def test_moderate_feedback_converges_fast(self):
        scatterer = resonant_config(displacement=3e-8)
        r = math.sqrt(0.5)
        exact = validation._intracavity_field(r, r, 6e-3, **scatterer)
        summed = roundtrip_sum(r, r, 6e-3, 50, **scatterer)
        assert abs(summed - exact) / abs(exact) < 1e-15

    def test_truncation_follows_geometric_tail(self):
        scatterer = resonant_config()
        r = 0.9
        exact = validation._intracavity_field(r, r, RESONANT_D, **scatterer)
        for n in (10, 20, 40):
            summed = roundtrip_sum(r, r, RESONANT_D, n, **scatterer)
            assert abs(summed - exact) / abs(exact) == pytest.approx(
                (r * r) ** (n + 1), rel=1e-6
            )

    @given(
        st.floats(0.0, 0.99),
        st.floats(0.0, 0.99),
        st.floats(1e6, 2e7),
        st.floats(-2.5e-7, 2.5e-7),
        st.floats(1e-3, 1e-2),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_is_series_limit(self, r1, r2, k, dz, d):
        scatterer = dict(amplitude=1e-3, pump_field=2.0, wavenumber=k, displacement=dz)
        exact = validation._intracavity_field(r1, r2, d, **scatterer)
        summed = roundtrip_sum(r1, r2, d, 4000, **scatterer)
        assert abs(summed - exact) <= abs(exact) * 1e-9 + 1e-12


class TestDoubledSum:
    @pytest.mark.parametrize("n", [*range(65), 1023, 1024, 10_000])
    def test_takes_exactly_n_plus_one_terms(self, n):
        # with unit source and feedback every partial sum is an exact integer
        assert validation._iterate_roundtrips(1.0, 1.0, n) == n + 1
        ones = np.ones(3, dtype=complex)
        assert np.array_equal(validation._iterate_roundtrips(ones, ones, n),
                              np.full(3, n + 1.0))


class TestPositionAveragedIntensity:
    def test_free_space(self):
        assert validation._position_averaged_intensity(0.01, 2.0, 0.0, 0.0) == pytest.approx(
            0.01 ** 2 * 2.0
        )

    def test_high_reflectivity_value(self):
        value = validation._position_averaged_intensity(1.0, 1.0, 0.9985, 0.9985)
        assert value == pytest.approx(222222.34741, rel=1e-9)

    def test_left_mirror_only(self):
        # no feedback without the right mirror, only left-mirror interference
        value = validation._position_averaged_intensity(1.0, 1.0, 0.9985, 0.0)
        assert value == pytest.approx(1.99700225, rel=1e-12)

    def test_antinode_over_the_average_at_high_reflectivity(self):
        # (1 + r)^2/(1 + r^2) = 2 - (1 - r)^2/(1 + r^2): the antinode factor
        # of validation._ANTINODE_FACTOR, less T^2/8 at T = 0.003
        r = math.sqrt(0.997)
        antinode = abs(validation._intracavity_field(r, r, RESONANT_D, **resonant_config())) ** 2
        average = validation._position_averaged_intensity(1.0, 1.0, r, r)
        assert antinode / average == pytest.approx(1.99999887162, rel=1e-11)


class TestTransmittedPower:
    def test_symmetric_reduction(self):
        f = 1045.6255750020905
        assert transmitted_power(1.0, 1.0, 0.003, 0.003, f) == pytest.approx(
            2.0 * f / math.pi
        )

    def test_perfect_right_mirror_transmits_nothing(self):
        assert transmitted_power(1.0, 1.0, 0.003, 0.0, 1000.0) == 0.0

    def test_asymmetric_outcoupling(self):
        value = transmitted_power(1.0, 1.0, 0.003, 0.041, 142.0)
        assert value == pytest.approx(168.47274158, rel=1e-9)

    def test_rejects_two_perfect_mirrors(self):
        with pytest.raises(ValueError):
            transmitted_power(1.0, 1.0, 0.0, 0.0, 1000.0)

    def test_linear_in_pump_power(self):
        base = transmitted_power(1e-3, 1.0, 0.003, 0.01, 500.0)
        assert transmitted_power(1e-3, 7.0, 0.003, 0.01, 500.0) == pytest.approx(
            7.0 * base, rel=1e-14
        )

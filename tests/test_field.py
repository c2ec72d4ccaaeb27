"""Interference-field model: closed forms vs explicit round-trip summation.

Frozen numbers come from direct evaluation of the closed forms; every
closed form is also pitted against an independent route (explicit
round-trip sum, uniform-grid position average).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavray import (ScatterConfig, cavity_power_budget, field,
                    intracavity_field, position_averaged_intensity,
                    position_averaged_intensity_numeric, roundtrip_field_sum,
                    transmitted_power)
from cavray.optics import MirrorSpec, finesse

K = 2.0 * math.pi / 532e-9
RESONANT_D = round(6e-3 * K / math.pi) * math.pi / K  # nearest k*d = m*pi to 6 mm


def resonant_config(amplitude=1.0, displacement=0.0):
    return ScatterConfig(amplitude=amplitude, pump_field=1.0, wavenumber=K,
                         displacement=displacement)


def test_resonant_separation_is_resonant():
    phase = 2.0 * K * RESONANT_D
    assert math.cos(phase) == pytest.approx(1.0, abs=1e-9)


class TestIntracavityField:
    def test_free_space_is_single_scattered_wave(self):
        state = intracavity_field(resonant_config(amplitude=0.01), 0.0, 0.0, 6e-3)
        assert state == pytest.approx(0.01)

    def test_resonant_buildup(self):
        # (1 + r) / (1 - r^2) at a constructive position
        state = intracavity_field(resonant_config(), 0.9985, 0.9985, RESONANT_D)
        assert abs(state) == pytest.approx(666.6666666667, rel=1e-6)

    def test_destructive_placement(self):
        # a quarter-wave displacement flips the left-mirror contribution
        state = intracavity_field(
            resonant_config(displacement=532e-9 / 4.0), 0.9985, 0.9985, RESONANT_D
        )
        assert abs(state) == pytest.approx(0.5003752815, rel=1e-6)

    def test_diverging_feedback_rejected(self):
        with pytest.raises(ValueError):
            intracavity_field(resonant_config(), 1.0, 1.0, 6e-3)


class TestRoundtripSum:
    def test_zero_roundtrips_keeps_source_terms(self):
        cfg = resonant_config(displacement=1e-7)
        state = roundtrip_field_sum(cfg, 0.9, 0.9, 6e-3, 0)
        expected = cfg.amplitude * cfg.pump_field * (
            1.0 + 0.9 * np.exp(1j * K * (6e-3 + 2e-7))
        )
        assert state == pytest.approx(expected)

    def test_high_reflectivity_converges_to_closed_form(self):
        cfg = resonant_config()
        exact = intracavity_field(cfg, 0.9985, 0.9985, RESONANT_D)
        summed = roundtrip_field_sum(cfg, 0.9985, 0.9985, RESONANT_D, 10_000)
        assert abs(summed - exact) / abs(exact) < 1e-6

    def test_moderate_feedback_converges_fast(self):
        cfg = resonant_config(displacement=3e-8)
        r = math.sqrt(0.5)
        exact = intracavity_field(cfg, r, r, 6e-3)
        summed = roundtrip_field_sum(cfg, r, r, 6e-3, 50)
        assert abs(summed - exact) / abs(exact) < 1e-15

    def test_truncation_follows_geometric_tail(self):
        cfg = resonant_config()
        r = 0.9
        exact = intracavity_field(cfg, r, r, RESONANT_D)
        for n in (10, 20, 40):
            summed = roundtrip_field_sum(cfg, r, r, RESONANT_D, n)
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
        cfg = ScatterConfig(amplitude=1e-3, pump_field=2.0, wavenumber=k,
                            displacement=dz)
        exact = intracavity_field(cfg, r1, r2, d)
        summed = roundtrip_field_sum(cfg, r1, r2, d, 4000)
        assert abs(summed - exact) <= abs(exact) * 1e-9 + 1e-12

    @pytest.mark.parametrize("r1, r2", [(1.0, 1.0), (1.0, 1.5), (0.9, 1.2)])
    def test_diverging_feedback_rejected(self, r1, r2):
        # as the closed form does; the doubled powers of a gain above 1
        # would overflow to inf or NaN at large n
        with pytest.raises(ValueError, match="field diverges"):
            roundtrip_field_sum(resonant_config(), r1, r2, 6e-3, 10)


class TestDoubledSum:
    @pytest.mark.parametrize("n", [*range(65), 1023, 1024, 10_000])
    def test_takes_exactly_n_plus_one_terms(self, n):
        # with unit source and feedback every partial sum is an exact integer
        assert field._iterate_roundtrips(1.0, 1.0, n) == n + 1
        ones = np.ones(3, dtype=complex)
        assert np.array_equal(field._iterate_roundtrips(ones, ones, n),
                              np.full(3, n + 1.0))


class TestPositionAveragedIntensity:
    def test_free_space(self):
        assert position_averaged_intensity(0.01, 2.0, 0.0, 0.0) == pytest.approx(
            0.01 ** 2 * 2.0
        )

    def test_high_reflectivity_value(self):
        value = position_averaged_intensity(1.0, 1.0, 0.9985, 0.9985)
        assert value == pytest.approx(222222.34741, rel=1e-9)

    def test_left_mirror_only(self):
        # no feedback without the right mirror, only left-mirror interference
        value = position_averaged_intensity(1.0, 1.0, 0.9985, 0.0)
        assert value == pytest.approx(1.99700225, rel=1e-12)

    def test_not_symmetric_under_mirror_swap(self):
        forward = position_averaged_intensity(1.0, 1.0, 0.9, 0.5)
        swapped = position_averaged_intensity(1.0, 1.0, 0.5, 0.9)
        assert forward / swapped == pytest.approx((1 + 0.81) / (1 + 0.25), rel=1e-12)

    def test_matches_quadrature_average(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r1, r2 = rng.uniform(0.0, 0.999, size=2)
            closed = position_averaged_intensity(1e-3, 4.0, r1, r2)
            numeric = position_averaged_intensity_numeric(
                1e-3, 2.0, K, r1, r2, RESONANT_D, n_points=10_000
            )
            assert abs(numeric - closed) / closed < 1e-6

    def test_phase_grid_is_the_same_for_every_wavenumber(self):
        # exp(2i k dz) at the midpoints of one wavelength, k by k
        rng = np.random.default_rng(11)
        n = 10_000
        grid = field._displacement_phases(n)
        assert not grid.flags.writeable
        for k in rng.uniform(1e6, 2e7, size=20):
            wavelength = 2.0 * math.pi / k
            dz = (np.arange(n) + 0.5) / n * wavelength - wavelength / 2.0
            assert np.max(np.abs(grid - np.exp(2j * k * dz))) <= 1e-14


def high_finesse_intensity(amplitude, pump_intensity, finesse):
    """The averaged intensity of the resonant power budget, 2*a^2*Ip*(F/pi)^2."""
    return cavity_power_budget(amplitude, pump_intensity, finesse).right_traveling_intensity


class TestHighFinesseIntensity:
    def test_matches_exact_at_high_reflectivity(self):
        f = finesse(MirrorSpec(0.997), MirrorSpec(0.997))
        r = math.sqrt(0.997)
        exact = position_averaged_intensity(1.0, 1.0, r, r)
        assert high_finesse_intensity(1.0, 1.0, f) == pytest.approx(exact, rel=0.005)

    def test_unit_reflection_count(self):
        assert high_finesse_intensity(1.0, 1.0, math.pi) == pytest.approx(2.0)

    def test_moderate_finesse_within_five_percent(self):
        # symmetric R giving an exact finesse of 100
        r_intensity = 0.9690736781385767
        f = finesse(MirrorSpec(r_intensity), MirrorSpec(r_intensity))
        assert f == pytest.approx(100.0, rel=1e-9)
        r = math.sqrt(r_intensity)
        exact = position_averaged_intensity(1.0, 1.0, r, r)
        assert high_finesse_intensity(1.0, 1.0, f) == pytest.approx(exact, rel=0.05)


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


class TestCavityPowerBudget:
    def test_antinode_enhancement_factor(self):
        for f in (10.0, 1000.0, 3.3e4):
            budget = cavity_power_budget(1e-3, 2.0, f, "antinode")
            assert budget.cavity_power / budget.free_space_mode_power == pytest.approx(
                4.0 * f / math.pi, rel=1e-12
            )

    def test_averaged_detectable_enhancement(self):
        for f in (10.0, 1000.0, 3.3e4):
            budget = cavity_power_budget(1e-3, 2.0, f, "averaged")
            assert budget.transmitted_power / budget.free_space_one_way_power == \
                pytest.approx(2.0 * f / math.pi, rel=1e-12)

    def test_factor_bookkeeping_at_half_pi(self):
        budget = cavity_power_budget(1.0, 1.0, math.pi / 2.0, "antinode")
        assert budget.cavity_power == pytest.approx(4.0)
        assert budget.cavity_power == pytest.approx(2.0 * budget.free_space_mode_power)

    def test_pairwise_identities(self):
        budget = cavity_power_budget(1e-3, 0.7, 640.0, "averaged")
        assert budget.cavity_power == 2.0 * budget.transmitted_power
        assert budget.free_space_mode_power == 2.0 * budget.free_space_one_way_power

    def test_rejects_unknown_coupling(self):
        with pytest.raises(ValueError):
            cavity_power_budget(1e-3, 1.0, 100.0, "nodal")

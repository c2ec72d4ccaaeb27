"""Resonator geometry chain against frozen independent evaluations.

Expected values were computed by direct evaluation of the stated
formulas and, for waist and mode spacing, by the ABCD round-trip
eigenmode of ``cavray.validation``; the paper-reported roundings (24.9 GHz, 45 um, 4.1 GHz,
F=1000) are cross-checked at looser tolerances.
"""

import math

import numpy as np
import pytest

from cavray import (derive_cavity_params, finesse, free_spectral_range, number_density,
                    symmetric_waist, transverse_mode_spacing, validation)

WAVELENGTH = 532e-9


class TestFinesse:
    def test_paper_mirror_pair(self):
        # exact formula; the high-finesse approximation would give 1047.2
        value = finesse(0.997, 0.997)
        assert value == pytest.approx(1045.6255750020905, rel=1e-12)

    def test_no_mirrors(self):
        assert finesse(0.0, 0.0) == 0.0

    def test_asymmetric_pair(self):
        value = finesse(0.997, 0.959)
        assert value == pytest.approx(140.03195341764595, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_unphysical_reflectivity(self, bad):
        for pair in [(bad, 0.9), (0.9, bad)]:
            with pytest.raises(ValueError, match="must be in \\[0, 1\\)"):
                finesse(*pair)

    def test_monotone_decreasing_in_transmission(self):
        transmissions = np.linspace(1e-5, 0.999, 300)
        values = [finesse(1.0 - t, 0.9) for t in transmissions]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestFreeSpectralRange:
    def test_paper_length(self):
        assert free_spectral_range(6e-3) == pytest.approx(24.982704833e9, rel=1e-9)

    def test_halving(self):
        assert free_spectral_range(12e-3) == pytest.approx(
            free_spectral_range(6e-3) / 2.0
        )

    def test_length_implied_by_reported_fsr(self):
        assert free_spectral_range(6.02e-3) == pytest.approx(24.8997058e9, rel=1e-8)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            free_spectral_range(0.0)


class TestSymmetricWaist:
    def test_paper_geometry(self):
        w0 = symmetric_waist(6e-3, 45e-3, WAVELENGTH)
        assert w0 == pytest.approx(4.359869760587711e-05, rel=1e-12)
        # paper rounds this to 45 um
        assert w0 == pytest.approx(45e-6, rel=0.05)

    def test_short_cavity_limit(self):
        assert symmetric_waist(1e-9, 45e-3, WAVELENGTH) < 1e-6

    def test_confocal_matches_textbook_form(self):
        w0 = symmetric_waist(45e-3, 45e-3, WAVELENGTH)
        assert w0 == pytest.approx(math.sqrt(WAVELENGTH * 45e-3 / (2.0 * math.pi)),
                                   rel=1e-12)
        assert w0 == pytest.approx(61.72656913858064e-6, rel=1e-9)

    def test_rejects_unstable_geometry(self):
        with pytest.raises(ValueError):
            symmetric_waist(90e-3, 45e-3, WAVELENGTH)


class TestTransverseModeSpacing:
    def test_paper_geometry(self):
        spacing = transverse_mode_spacing(6e-3, 45e-3)
        assert spacing == pytest.approx(4.1535738277e9, rel=1e-9)
        # paper rounds this to 4.1 GHz
        assert spacing == pytest.approx(4.1e9, rel=0.03)

    def test_confocal_half_fsr(self):
        assert transverse_mode_spacing(45e-3, 45e-3) == pytest.approx(
            free_spectral_range(45e-3) / 2.0
        )

    def test_planar_limit_vanishes(self):
        # spacing/FSR -> 0 as d -> 0
        assert (transverse_mode_spacing(1e-7, 45e-3)
                / free_spectral_range(1e-7)) < 1e-3


# the edge cases near the confocal point; validate's check_abcd_waist and
# check_abcd_mode_spacing hold the closed forms to the round trip over
# random geometries
@pytest.mark.parametrize("closed_form, oracle, args", [
    # confocal: the round trip is -I and fixes no waist
    (symmetric_waist, validation._abcd_roundtrip_waist,
     (1.0 * 0.5, 0.5, 1.3437814641541738e-06)),
    # just outside the margin, where a floating-point round trip lost 7e-9
    (symmetric_waist, validation._abcd_roundtrip_waist,
     (0.999999998 * 0.1222, 0.1222, 532e-9)),
    # where acos of a rounded half-trace lost 2e-9
    (transverse_mode_spacing, validation._abcd_roundtrip_mode_spacing,
     (0.999999997 * 0.5, 0.5)),
], ids=["waist-confocal", "waist-near-confocal", "mode-spacing-near-confocal"])
def test_closed_form_agrees_with_abcd_round_trip(closed_form, oracle, args):
    d, rc = args[:2]
    if abs(1.0 - d / rc) < validation._CONFOCAL_MARGIN:
        with pytest.raises(ValueError, match="confocal"):
            oracle(*args)
        return
    closed = closed_form(*args)
    assert abs(closed - oracle(*args)) / closed < 1e-9


class TestDeriveCavityParams:
    def test_paper_cavity_values(self, reference_params):
        assert reference_params.q_factor == pytest.approx(2.3585539286e7, rel=1e-9)
        assert reference_params.mode_volume == pytest.approx(8.957527784e-12, rel=1e-9)
        assert reference_params.linewidth == pytest.approx(23.892591603e6, rel=1e-9)

    def test_internal_identities_exact(self, reference_params):
        p = reference_params
        assert p.linewidth * p.finesse == pytest.approx(p.free_spectral_range,
                                                        rel=1e-14)
        assert p.q_factor * WAVELENGTH == pytest.approx(
            2.0 * 6e-3 * p.finesse, rel=1e-14
        )
        assert p.rayleigh_length == pytest.approx(
            math.pi * p.waist ** 2 / WAVELENGTH, rel=1e-14
        )

    def test_all_positive(self, reference_params):
        for name in ("finesse", "free_spectral_range", "linewidth", "q_factor",
                     "waist", "rayleigh_length", "transverse_mode_spacing",
                     "mode_volume"):
            assert getattr(reference_params, name) > 0.0

    def test_degenerate_mirrors_rejected(self):
        with pytest.raises(ValueError, match="finesse is zero"):
            derive_cavity_params(6e-3, 45e-3, 0.0, 0.0, WAVELENGTH)

    @pytest.mark.parametrize("separation", [90e-3, -1e-3], ids=["unstable", "negative-length"])
    def test_stability_checked_before_finesse(self, separation):
        with pytest.raises(ValueError, match="unstable geometry"):
            derive_cavity_params(separation, 45e-3, 0.0, 0.0, WAVELENGTH)


class TestNumberDensity:
    def test_hundred_millibar(self):
        value = number_density(1e4, 295.0)
        assert value == pytest.approx(2.4552442427e24, rel=1e-9)
        # paper quotes 2e18 cm^-3 for the operating point
        assert value / 1e6 == pytest.approx(2e18, rel=0.25)

    def test_vacuum(self):
        assert number_density(0.0, 295.0) == 0.0

    def test_one_bar_scaling(self):
        assert number_density(1e5, 295.0) == pytest.approx(
            10.0 * number_density(1e4, 295.0)
        )

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            number_density(1e4, 0.0)

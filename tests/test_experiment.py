"""Scenario composition: finesse dependence, back-out, forecast chain.

Frozen values come from evaluating the documented chains by hand with
the CODATA constants; the published measurement triples are used as
inputs, never as fitted targets.
"""

import math

import pytest

from cavray import (build_enhancement_report, contributing_particles,
                    free_space_backout, interaction_volume, number_density, photon_rate,
                    purcell_ratio, ultracold_forecast, ultracold_target_species)

WAVELENGTH = 532e-9

PAPER_PAIRINGS = [
    (1000.0, 0.997, 0.997),
    (400.0, 0.997, 0.989),
    (100.0, 0.997, 0.959),
]
MEASURED_POWERS = [52e-15, 85e-15, 90e-15]
OVERLAPS = [0.042, 0.101, 0.334]
# the pairings as enhancement-report rows on their common left mirror
PAPER_LEFT = PAPER_PAIRINGS[0][1]
PAPER_ROWS = [(f, right, power, overlap) for (f, _, right), power, overlap
              in zip(PAPER_PAIRINGS, MEASURED_POWERS, OVERLAPS)]


@pytest.fixture
def anchor(species):
    """The published Xe anchor as ``ultracold_forecast`` keywords, its waist
    pinned to the quoted 45 um mode size the published chain used."""
    return dict(gas=species["Xe"], temperature=295.0, pressure=1e4, wavelength=WAVELENGTH,
                pump_waist=50e-6, cavity_waist=45e-6, measured_power=50e-15,
                anchor_finesse=1000.0, spectral_overlap=0.042)


def forecast_with(anchor, **changes):
    """The default-target forecast of 1e5 molecules at finesse 1e5 on
    ``anchor`` with ``changes``."""
    target = ultracold_target_species(anchor["gas"])
    return ultracold_forecast(target, 1e5, 1e5, **{**anchor, **changes})


class TestPhotonRate:
    def test_reported_cavity_signal(self):
        assert photon_rate(50e-15, WAVELENGTH) == pytest.approx(
            1.339075007e5, rel=1e-9
        )

    def test_zero_power(self):
        assert photon_rate(0.0, WAVELENGTH) == 0.0

    def test_single_photon_power(self):
        # one photon per second at 532 nm
        assert 1.0 / photon_rate(1.0, WAVELENGTH) == pytest.approx(
            3.733920784e-19, rel=1e-9
        )


class TestContributingParticles:
    def test_crossed_beam_volume(self):
        assert interaction_volume(45e-6, 50e-6) == pytest.approx(
            2.818966048e-13, rel=1e-9
        )

    def test_operating_point_order_of_magnitude(self):
        density = number_density(1e4, 295.0)
        count = contributing_particles(density, 50e-6, 45e-6, 0.042)
        assert count == pytest.approx(2.906925068e10, rel=1e-8)
        # about 1e10 particles feed the signal at finesse 1000
        assert 1e10 / 5.0 <= count <= 1e10 * 5.0

    def test_zero_density(self):
        assert contributing_particles(0.0, 50e-6, 45e-6, 0.042) == 0.0

    def test_unit_overlap_removes_selection(self):
        density = number_density(1e4, 295.0)
        count = contributing_particles(density, 50e-6, 45e-6, 1.0)
        assert count == pytest.approx(6.921250161e11, rel=1e-8)

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            contributing_particles(1e24, 50e-6, 45e-6, 1.5)


class TestFreeSpaceBackout:
    def test_reported_xenon_point(self):
        value = free_space_backout(50e-15, 0.042, PAPER_PAIRINGS[0])
        assert value == pytest.approx(1.869995627e-15, rel=1e-9)
        # the paper rounds this back-out to about 2.0 fW
        assert value == pytest.approx(2.0e-15, rel=0.10)

    def test_unit_enhancement_is_identity(self):
        # overlap 1 and finesse pi/2 leave the measurement untouched
        mirror = 0.99
        assert free_space_backout(7e-15, 1.0, (math.pi / 2.0, mirror, mirror)) == (
            pytest.approx(7e-15))

    def test_measured_enhancement_factor(self):
        factor = 50e-15 / 1.3e-15
        assert factor == pytest.approx(38.4615384615, rel=1e-9)
        assert round(factor) == 38

    def test_model_agrees_with_measured_within_factor_two(self):
        predicted = free_space_backout(50e-15, 0.042, PAPER_PAIRINGS[0])
        measured = 1.3e-15
        assert 0.5 <= predicted / measured <= 2.0

    def test_rejects_bad_inputs(self):
        _, left, right = PAPER_PAIRINGS[0]
        with pytest.raises(ValueError):
            free_space_backout(50e-15, 0.042, (0.0, left, right))
        with pytest.raises(ValueError):
            free_space_backout(50e-15, 0.0, PAPER_PAIRINGS[0])

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_unphysical_reflectivity(self, bad):
        for pairing in [(1000.0, bad, 0.997), (1000.0, 0.997, bad)]:
            with pytest.raises(ValueError, match="must be in \\[0, 1\\)"):
                free_space_backout(50e-15, 0.042, pairing)


def predicted_relative(left, rows):
    """The report's predicted relative signal of each row on the left mirror ``left``."""
    return [entry.predicted_relative
            for entry in build_enhancement_report(left, rows).entries]


class TestFinesseDependence:
    def test_paper_pairings(self):
        values = predicted_relative(PAPER_LEFT, PAPER_ROWS)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(0.628571428571, rel=1e-9)
        assert values[2] == pytest.approx(0.186363636364, rel=1e-9)

    def test_symmetric_mirrors_are_purely_linear(self):
        mirror = 0.99
        finesses = [1250.0, 730.0, 333.0, 40.0]
        relative = predicted_relative(mirror, [(f, mirror, 1e-15, 0.5) for f in finesses])
        for f, r in zip(finesses, relative):
            assert r == pytest.approx(f / max(finesses), rel=1e-12)

    def test_measured_at_rest_ratios_close_to_prediction(self):
        at_rest = [p / o for p, o in zip(MEASURED_POWERS, OVERLAPS)]
        measured_relative = [v / at_rest[0] for v in at_rest]
        assert measured_relative[1] == pytest.approx(0.679741047, rel=1e-8)
        assert measured_relative[2] == pytest.approx(0.217641639, rel=1e-8)
        predicted = predicted_relative(PAPER_LEFT, PAPER_ROWS)
        for pred, meas in zip(predicted[1:], measured_relative[1:]):
            assert abs(pred - meas) / meas < 0.25


class TestEnhancementReport:
    @pytest.fixture
    def report(self):
        # the free-space comparison was taken against its own 50 fW run
        return build_enhancement_report(PAPER_LEFT, PAPER_ROWS,
                                        free_space_measured=1.3e-15,
                                        comparison_power=50e-15)

    def test_at_rest_powers(self, report):
        at_rest = [e.at_rest_power_W for e in report.entries]
        assert at_rest[0] == pytest.approx(1238.095e-15, rel=1e-4)
        assert at_rest[1] == pytest.approx(841.584e-15, rel=1e-4)
        assert at_rest[2] == pytest.approx(269.461e-15, rel=1e-4)

    def test_both_normalizations_present(self, report):
        for entry in report.entries:
            assert 0.0 < entry.predicted_relative <= 1.0
            assert 0.0 < entry.predicted_relative_symmetric <= 1.0
        # symmetric normalization ignores the outcoupling share
        assert report.entries[2].predicted_relative_symmetric == pytest.approx(0.1)
        assert report.entries[2].predicted_relative == pytest.approx(0.18636364,
                                                                     rel=1e-6)

    def test_prediction_matches_measurement_per_point(self, report):
        for entry in report.entries:
            assert (abs(entry.predicted_relative - entry.relative_measured)
                    / entry.relative_measured) < 0.25

    def test_backout_and_factor(self, report):
        assert report.free_space_backout_W == pytest.approx(1.87e-15, rel=1e-3)
        assert report.enhancement_factor == pytest.approx(38.46, rel=1e-3)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_unphysical_reflectivity(self, bad):
        # the left mirror is checked once; the reference pairing is the
        # first, so a bad right mirror of the last one is caught on its own,
        # not by the back-out
        for left, right in [(bad, 0.959), (PAPER_LEFT, bad)]:
            with pytest.raises(ValueError, match="must be in \\[0, 1\\)"):
                build_enhancement_report(left, [*PAPER_ROWS[:2], (100.0, right, 90e-15, 0.334)])


class TestUltracoldForecast:
    def test_paper_projection(self, anchor):
        target = ultracold_target_species(anchor["gas"], 10.0)
        report = ultracold_forecast(target, 1e5, 1e5, **anchor)
        assert report.per_molecule_in_cavity_rate_Hz == pytest.approx(
            2.193571387, rel=1e-8
        )
        assert report.ensemble_rate_Hz == pytest.approx(2.193571387e5, rel=1e-8)
        assert report.per_molecule_total_rate_Hz == pytest.approx(3.004629370,
                                                               rel=1e-8)
        assert report.cavity_free_space_ratio == pytest.approx(2.704580232,
                                                               rel=1e-9)
        # orders anticipated for the ultracold sample
        assert 1e4 <= report.ensemble_rate_Hz <= 1e6
        assert 0.1 <= report.per_molecule_total_rate_Hz <= 10.0

    def test_internal_consistency(self, anchor):
        target = ultracold_target_species(anchor["gas"], 10.0)
        report = ultracold_forecast(target, 31337.0, 2e4, **anchor)
        assert report.ensemble_rate_Hz == report.per_molecule_in_cavity_rate_Hz * 31337.0
        assert report.cavity_free_space_ratio == purcell_ratio(2e4, WAVELENGTH,
                                                               anchor["cavity_waist"])

    def test_linear_in_molecule_number_and_polarizability_squared(self, anchor):
        ten_x = ultracold_forecast(ultracold_target_species(anchor["gas"], 10.0),
                                   1e5, 1e5, **anchor)
        twenty_x = ultracold_forecast(ultracold_target_species(anchor["gas"], 20.0),
                                      2e5, 1e5, **anchor)
        assert twenty_x.per_molecule_in_cavity_rate_Hz == pytest.approx(
            4.0 * ten_x.per_molecule_in_cavity_rate_Hz, rel=1e-12
        )
        assert twenty_x.ensemble_rate_Hz == pytest.approx(
            8.0 * ten_x.ensemble_rate_Hz, rel=1e-12
        )

    @pytest.mark.parametrize("waist", [0.0, -50e-6])
    def test_nonpositive_pump_waist_names_its_key(self, anchor, waist):
        with pytest.raises(ValueError, match="pump.waist"):
            forecast_with(anchor, pump_waist=waist)

    @pytest.mark.parametrize("pressure", [0.0, -1.0])
    def test_nonpositive_pressure_rejected(self, anchor, pressure):
        with pytest.raises(ValueError, match="gas.pressure"):
            forecast_with(anchor, pressure=pressure)


class TestAnchorValidation:
    def test_rejects_nonpositive_power(self, anchor):
        with pytest.raises(ValueError, match="anchor.measured_power"):
            forecast_with(anchor, measured_power=0.0)

    def test_rejects_bad_overlap(self, anchor):
        with pytest.raises(ValueError, match="anchor.spectral_overlap"):
            forecast_with(anchor, spectral_overlap=1.5)

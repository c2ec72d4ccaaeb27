"""Doppler widths, spectral overlap, scans, polarization, species ratios.

Overlap expectations are frozen from an independent Faddeeva-function
evaluation of the Gaussian-Lorentzian integral. The observed Doppler
width's sqrt(2) geometry factor is checked in ``validation`` against a
Gauss-Hermite average of thermal velocities projected on the 90-degree
scattering wavevector difference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavray import (SpectrumTrace, doppler_fwhm, finesse, free_spectral_range,
                    load_species_table, observed_doppler_fwhm,
                    polarization_signal, scan_spectrum, species_ratio, spectral_overlap,
                    validation)
from cavray.spectra import (MAX_SCAN_POINTS, OBSERVED_WIDTH_FACTOR, _erfcx,
                            _interpolate_periodic, _voigt_fwhm)

WAVELENGTH = 532e-9
TEMPERATURE = 295.0  # K, the demo's sample


def paper_linewidth(finesse):
    """Cavity linewidth from the paper's reported 24.9 GHz FSR."""
    return 24.9e9 / finesse


# one row per input that used to give NaN, 0.0, ZeroDivisionError or a
# "math domain error"; the message names the argument and its value
NONPHYSICAL_INPUTS = [
    ((0.0, 295.0, 131.29e-3), r"^wavelength must be positive and finite, got 0\.0$"),
    ((WAVELENGTH, 0.0, 131.29e-3), r"^temperature must be positive and finite, got 0\.0$"),
    ((WAVELENGTH, 295.0, 0.0), r"^molar mass must be positive and finite, got 0\.0$"),
    ((WAVELENGTH, -1.0, 131.29e-3), r"^temperature must be positive and finite, got -1\.0$"),
    ((math.nan, 295.0, 131.29e-3), r"^wavelength must be positive and finite, got nan$"),
    ((WAVELENGTH, 295.0, math.inf), r"^molar mass must be positive and finite, got inf$"),
]


class TestDopplerWidth:
    def test_xenon_room_temperature(self):
        width = doppler_fwhm(WAVELENGTH, 295.0, 131.29e-3)
        assert width == pytest.approx(6.0500417005e8, rel=1e-9)
        assert OBSERVED_WIDTH_FACTOR * width == pytest.approx(8.5560510258e8,
                                                              rel=1e-9)

    def test_heavy_particles_freeze_out(self):
        # width falls off as 1/sqrt(m)
        assert doppler_fwhm(WAVELENGTH, 295.0, 1e12) < 1e3
        assert (doppler_fwhm(WAVELENGTH, 295.0, 4.0 * 131.29e-3)
                == pytest.approx(doppler_fwhm(WAVELENGTH, 295.0, 131.29e-3) / 2.0))

    def test_mass_scaling_nitrogen_vs_xenon(self):
        ratio = (doppler_fwhm(WAVELENGTH, 295.0, 28.01e-3)
                 / doppler_fwhm(WAVELENGTH, 295.0, 131.29e-3))
        assert ratio == pytest.approx(2.165006824919, rel=1e-9)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            doppler_fwhm(WAVELENGTH, -1.0, 131.29e-3)

    @pytest.mark.parametrize("inputs, message", NONPHYSICAL_INPUTS)
    def test_nonphysical_input_is_named(self, inputs, message):
        with pytest.raises(ValueError, match=message):
            doppler_fwhm(*inputs)

    def test_observed_width_is_sqrt2_absorption_width_at_the_gas_temperature(self, species):
        xenon = species["Xe"]
        assert observed_doppler_fwhm(xenon, WAVELENGTH, 150.0) == (
            OBSERVED_WIDTH_FACTOR * doppler_fwhm(WAVELENGTH, 150.0, xenon.molar_mass))


class TestSpectralOverlap:
    @pytest.fixture
    def xe_observed(self, species):
        return observed_doppler_fwhm(species["Xe"], WAVELENGTH, TEMPERATURE)

    @pytest.mark.parametrize("finesse, expected", [
        (1000.0, 0.041795755478),
        (400.0, 0.100401263365),
        (100.0, 0.333301343203),
    ])
    def test_against_faddeeva_closed_form(self, xe_observed, finesse, expected):
        value = spectral_overlap(xe_observed, paper_linewidth(finesse))
        assert value == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("finesse, reported", [
        (1000.0, 0.042),
        (400.0, 0.101),
        (100.0, 0.334),
    ])
    def test_reproduces_reported_percentages(self, xe_observed, finesse, reported):
        value = spectral_overlap(xe_observed, paper_linewidth(finesse))
        assert value == pytest.approx(reported, rel=0.15)

    def test_broad_cavity_accepts_everything(self, xe_observed):
        assert spectral_overlap(xe_observed, 1e13) == pytest.approx(1.0, abs=1e-4)

    def test_monotone_increasing_in_linewidth(self, xe_observed):
        widths = np.logspace(6, 11, 25)
        values = [spectral_overlap(xe_observed, w) for w in widths]
        assert all(0.0 < a < b <= 1.0 + 1e-12 for a, b in zip(values, values[1:]))

    def test_narrow_cavity_asymptote(self, xe_observed):
        sigma = xe_observed / (2 * math.sqrt(2 * math.log(2)))

        def asymptote(width):
            return (math.pi / 2.0) * width / (sigma * math.sqrt(2.0 * math.pi))

        # 2% agreement holds at observed/50 (leading correction is
        # width/(sigma*sqrt(2*pi)), i.e. 4.5% at the looser observed/20)
        narrow = xe_observed / 50.0
        value = spectral_overlap(xe_observed, narrow)
        assert abs(value - asymptote(narrow)) / asymptote(narrow) < 0.02
        loose = xe_observed / 20.0
        deviation = abs(spectral_overlap(xe_observed, loose)
                        - asymptote(loose)) / asymptote(loose)
        assert deviation == pytest.approx(0.045292, abs=0.001)

    def test_narrow_approximation_overshoots_moderate_finesse(self, xe_observed):
        # the F=100 cavity needs the full integral: the asymptote gives 0.43
        sigma = xe_observed / (2 * math.sqrt(2 * math.log(2)))
        naive = (math.pi / 2.0) * paper_linewidth(100.0) / (sigma * math.sqrt(2 * math.pi))
        assert naive == pytest.approx(0.429451029365, rel=1e-8)
        exact = spectral_overlap(xe_observed, paper_linewidth(100.0))
        assert naive > 1.25 * exact

    @pytest.mark.parametrize("name, temperature", [("N2", 1000.0), ("CF3H", 295.0)])
    def test_narrow_line_matches_its_series(self, name, temperature, species):
        # a 1 kHz line, 1e-6 of the Doppler width: adaptive quadrature
        # came out 7.9% low for N2 and did not converge for CF3H
        observed = observed_doppler_fwhm(species[name], WAVELENGTH, temperature)
        sigma = observed / (2 * math.sqrt(2 * math.log(2)))
        hwhm = 500.0
        a = hwhm / (sigma * math.sqrt(2.0))
        series = (math.sqrt(math.pi / 2.0) * hwhm / sigma
                  * (1.0 - 2.0 * a / math.sqrt(math.pi) + a * a))
        assert spectral_overlap(observed, 2.0 * hwhm) == pytest.approx(series, rel=1e-10)

    def test_rejects_nonpositive_linewidth(self, xe_observed):
        with pytest.raises(ValueError):
            spectral_overlap(xe_observed, 0.0)
        with pytest.raises(ValueError, match="Doppler"):
            spectral_overlap(0.0, 1e6)

    def test_erfcx_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        # both branches, the switch at x = 2 and far into the asymptote
        x = np.concatenate((np.linspace(0.0, 30.0, 30_001), np.linspace(1.99, 2.01, 2001),
                            np.logspace(-8.0, 8.0, 16_001)))
        ours = np.array([_erfcx(v) for v in x.tolist()])
        assert np.max(np.abs(ours - special.erfcx(x)) / special.erfcx(x)) <= 2e-15


class TestScanSpectrum:
    def test_two_peaks_separated_by_fsr(self, reference_comb, species):
        fsr = reference_comb[0]
        trace = scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                              scan_range=1.5 * fsr, resolution=5e6, wavelength=WAVELENGTH,
                              temperature=TEMPERATURE)
        first = trace.detunings[np.argmax(
            np.where(trace.detunings < fsr / 2.0, trace.signals, 0.0))]
        second = trace.detunings[np.argmax(
            np.where(trace.detunings > fsr / 2.0, trace.signals, 0.0))]
        assert first == pytest.approx(0.0, abs=5e6)
        assert second - first == pytest.approx(fsr, abs=1e7)
        # the paper rounds the separation to 24.9 GHz
        assert second - first == pytest.approx(24.9e9, rel=0.01)

    def test_peak_width_is_voigt_of_doppler_and_cavity(self, reference_comb, species):
        trace = scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                              scan_range=6e9, resolution=1e6,
                              wavelength=WAVELENGTH, temperature=TEMPERATURE,
                              normalize=True)
        half = trace.detunings[trace.signals >= 0.5]
        measured_fwhm = 2.0 * half.max()  # peak sits at zero detuning
        assert measured_fwhm == pytest.approx(8.6845e8, rel=0.01)
        # dominated by the observed Doppler width of 856 MHz
        assert measured_fwhm == pytest.approx(8.556e8, rel=0.03)

    def test_zero_weight_gives_flat_zero(self, reference_comb, species):
        trace = scan_spectrum(*reference_comb, [(species["Xe"], 0.0)],
                              scan_range=5e9, resolution=5e6,
                              wavelength=WAVELENGTH, temperature=TEMPERATURE)
        assert np.all(trace.signals == 0.0)

    def test_equal_density_ordering(self, reference_comb, species):
        heights, widths = {}, {}
        for gas in (species[n] for n in ("Xe", "CF3H", "N2")):
            trace = scan_spectrum(*reference_comb, [(gas, 1.0)], 8e9, 5e6,
                                  WAVELENGTH, TEMPERATURE)
            heights[gas.name] = trace.signals.max()
            half = trace.detunings[trace.signals >= 0.5 * trace.signals.max()]
            widths[gas.name] = 2.0 * half.max()
        assert heights["Xe"] > heights["CF3H"] > heights["N2"]
        assert widths["N2"] > widths["CF3H"] > widths["Xe"]

    def test_linear_in_weight_and_additive(self, reference_comb, species):
        xe = species["Xe"]
        n2 = species["N2"]
        single = scan_spectrum(*reference_comb, [(xe, 1.0)], 4e9, 5e6, WAVELENGTH,
                               TEMPERATURE)
        double = scan_spectrum(*reference_comb, [(xe, 2.0)], 4e9, 5e6, WAVELENGTH,
                               TEMPERATURE)
        np.testing.assert_allclose(double.signals, 2.0 * single.signals, rtol=1e-12)
        mixed = scan_spectrum(*reference_comb, [(xe, 1.0), (n2, 0.5)], 4e9, 5e6,
                              WAVELENGTH, TEMPERATURE)
        n2_only = scan_spectrum(*reference_comb, [(n2, 0.5)], 4e9, 5e6, WAVELENGTH,
                                TEMPERATURE)
        np.testing.assert_allclose(mixed.signals, single.signals + n2_only.signals,
                                   rtol=1e-12)

    def test_peak_height_matches_spectral_overlap(self, reference_comb, species):
        xe = species["Xe"]
        trace = scan_spectrum(*reference_comb, [(xe, 1.0)], 4e9, 1e6, WAVELENGTH,
                              TEMPERATURE)
        fsr, cavity_finesse = reference_comb
        expected = xe.polarizability ** 2 * spectral_overlap(
            observed_doppler_fwhm(xe, WAVELENGTH, TEMPERATURE), fsr / cavity_finesse
        )
        assert trace.signals[0] == pytest.approx(expected, rel=1e-4)

    def test_normalized_peak_is_one(self, reference_comb, species):
        trace = scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                              4e9, 5e6, WAVELENGTH, TEMPERATURE, normalize=True)
        assert trace.signals.max() == pytest.approx(1.0)

    def test_normalized_shape_independent_of_density(self, reference_comb, species):
        # pressure-normalized traces collapse onto one Doppler shape
        gas = species["CF3H"]
        low = scan_spectrum(*reference_comb, [(gas, 1.0)], 4e9, 5e6, WAVELENGTH,
                            TEMPERATURE, normalize=True)
        high = scan_spectrum(*reference_comb, [(gas, 8.0)], 4e9, 5e6, WAVELENGTH,
                             TEMPERATURE, normalize=True)
        np.testing.assert_allclose(high.signals, low.signals, rtol=1e-12)

    def test_rejects_coarse_resolution(self, reference_comb, species):
        with pytest.raises(ValueError):
            scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                          5e9, 5e8, WAVELENGTH, TEMPERATURE)

    def test_rejects_empty_species(self, reference_comb):
        with pytest.raises(ValueError):
            scan_spectrum(*reference_comb, [], 5e9, 5e6, WAVELENGTH, TEMPERATURE)

    @pytest.mark.parametrize("comb", [(0.0, 100.0), (25e9, 0.0), (-25e9, 100.0),
                                      (25e9, -100.0), (math.nan, 100.0), (25e9, math.nan)])
    def test_rejects_a_comb_without_positive_fsr_and_finesse(self, comb, species):
        # plain floats: no derived cavity vouches for them
        with pytest.raises(ValueError, match="FSR, finesse"):
            scan_spectrum(*comb, [(species["Xe"], 1.0)], 5e9, 5e6, WAVELENGTH, TEMPERATURE)

    def test_rejects_grid_beyond_point_cap(self, reference_comb, species):
        # 1e9 GHz at 25 MHz would be 4e10 points, 298 GiB of arrays
        with pytest.raises(ValueError, match="scan.range.*scan.resolution"):
            scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                          1e18, 25e6, WAVELENGTH, TEMPERATURE)
        points = MAX_SCAN_POINTS * 25e6
        with pytest.raises(ValueError, match="points"):
            scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                          points, 25e6, WAVELENGTH, TEMPERATURE)

    def test_rejects_lines_beyond_table_cap(self, species):
        # 1e-7 K gas in a finesse-3e7 cavity: ~5e6 harmonics before the
        # terms fade, a table of 2**27 entries
        mirror = 1.0 - 1e-7
        with pytest.raises(ValueError, match="finesse.*gas.temperature"):
            scan_spectrum(free_spectral_range(6e-3), finesse(mirror, mirror),
                          [(species["Xe"], 1.0)], 1e6, 1e3, WAVELENGTH, 1e-7)


def test_voigt_fwhm_gate_is_within_its_stated_bound():
    special = pytest.importorskip("scipy.special")
    # Lorentzian/Gaussian FWHM ratios 1e-6 to 1e6, the worst (2.37e-4) near
    # 0.29; each exact width by bisection on the half maximum of scipy's
    # profile, with G + L = 1 so that the half width lies in (0, 1)
    ratio = np.logspace(-6.0, 6.0, 201)
    gaussian, lorentzian = 1.0 / (1.0 + ratio), ratio / (1.0 + ratio)
    sigma, gamma = gaussian / math.sqrt(8.0 * math.log(2.0)), lorentzian / 2.0
    half_maximum = special.voigt_profile(0.0, sigma, gamma) / 2.0
    low, high = np.zeros_like(ratio), np.ones_like(ratio)
    for _ in range(60):
        middle = (low + high) / 2.0
        inside = special.voigt_profile(middle, sigma, gamma) >= half_maximum
        low, high = np.where(inside, middle, low), np.where(inside, high, middle)
    exact = low + high
    gate = np.array([_voigt_fwhm(g, l) for g, l in zip(gaussian.tolist(), lorentzian.tolist())])
    assert np.max(np.abs(gate - exact) / exact) <= 2.5e-4


def _scan_case(name):
    """(free spectral range, finesse, species weights, range, resolution,
    temperature) of one oracle comparison."""
    fsr = free_spectral_range(6e-3)
    reflectivity, temperature, scan_range, resolution = {
        "demo": (0.997, 295.0, 37.5e9, 25e6),
        "77K": (0.997, 77.0, 37.5e9, 25e6),
        # finesse 1.05e5, ~17k harmonics: the lines are 5 MHz wide
        "0.01K": (0.99997, 0.01, 37.5e9, 0.85e6),
        # the benchmark's scan shapes: 2 FSRs at 1.75e5 points, 30 FSRs at 3e4
        "dense": (0.997, 295.0, 2.0 * fsr, 2.0 * fsr / (175_000 - 1)),
        "wide": (0.997, 295.0, 30.0 * fsr, 30.0 * fsr / (30_000 - 1)),
    }[name]
    table = load_species_table()
    weights = [(table[n], w) for n, w in (("Xe", 1.0), ("CF3H", 0.7), ("N2", 1.3))]
    return (fsr, finesse(reflectivity, reflectivity), weights, scan_range, resolution,
            temperature)


# comb orders on each side of a detuning that ``scan_voigt_sum`` adds up
_VOIGT_ORDERS = 4000


def scan_voigt_sum(detunings, fsr, finesse, species_weights, wavelength, temperature):
    """Scan signal as an explicit sum of Voigt profiles over comb orders.

    Sums the 2 * _VOIGT_ORDERS + 1 orders nearest each detuning. The
    Lorentzian wings of the orders left out add about 2 hwhm^2 / (F^2
    _VOIGT_ORDERS) of a line's Lorentzian peak. The Voigt profile is
    ``scipy.special``'s; without scipy the calling test is skipped.
    """
    special = pytest.importorskip("scipy.special")
    hwhm = fsr / finesse / 2.0
    nu = np.asarray(detunings, dtype=float)
    offsets = ((nu - np.round(nu / fsr) * fsr)[:, None]
               - fsr * np.arange(-_VOIGT_ORDERS, _VOIGT_ORDERS + 1))
    total = np.zeros(len(nu))
    for strength, sigma in validation._comb_lines(species_weights, wavelength, temperature):
        total += strength * math.pi * hwhm * special.voigt_profile(
            offsets, sigma, hwhm).sum(axis=1)
    return total


class TestScanAgainstOracles:
    """The table-interpolated comb against the term-by-term series and a
    brute-force +-4000-order Voigt sum, at 200 detunings of each scan:
    100 anywhere and 100 within three line widths of a comb order."""

    @pytest.fixture(params=["demo", "77K", "0.01K", "dense", "wide"])
    def sampled(self, request):
        (fsr, cavity_finesse, weights, scan_range, resolution,
         temperature) = _scan_case(request.param)
        trace = scan_spectrum(fsr, cavity_finesse, weights, scan_range, resolution,
                              WAVELENGTH, temperature)
        width = 3.0 * max(OBSERVED_WIDTH_FACTOR * doppler_fwhm(WAVELENGTH, temperature,
                                                                gas.molar_mass)
                          for gas, _ in weights)
        distance = np.abs(trace.detunings - np.round(trace.detunings / fsr) * fsr)
        rng = np.random.default_rng(3)
        picks = np.concatenate([
            rng.choice(len(trace.detunings), 100, replace=False),
            rng.choice(np.flatnonzero(distance < width), 100, replace=False),
        ])
        return ((fsr, cavity_finesse), weights, temperature, trace.detunings[picks],
                trace.signals[picks], trace.signals.max())

    def test_matches_direct_fourier_series(self, sampled):
        comb, weights, temperature, detunings, signals, peak = sampled
        series = validation.scan_fourier_series(detunings, *comb, weights, WAVELENGTH,
                                                temperature)
        assert np.max(np.abs(signals - series)) <= 1e-11 * peak

    def test_matches_brute_force_voigt_sum(self, sampled):
        comb, weights, temperature, detunings, signals, peak = sampled
        brute = scan_voigt_sum(detunings, *comb, weights, WAVELENGTH, temperature)
        assert np.max(np.abs(signals - brute)) <= 1e-7 * peak


def _cumprod_kernel(table, cells):
    """``_interpolate_periodic`` as it was before its rewrite: the running
    products by ``np.cumprod`` along the stencil axis and the nodes by a
    fancy-index gather from a padded table. The rewrite must equal it bit
    for bit."""
    stencil = np.arange(-3, 5)
    scale = np.array([1.0 / math.prod(float(j - m) for m in stencil if m != j)
                      for j in stencil])[:, None]
    size = len(table)
    padded = np.concatenate((table[-3:], table, table[:4]))
    out = np.empty_like(cells)
    for start in range(0, len(cells), 8192):
        x = cells[start:start + 8192]
        floor = np.floor(x)
        distance = (x - floor) - stencil[:, None]
        weights = np.ones_like(distance)
        weights[1:] = np.cumprod(distance[:-1], axis=0)
        weights[:-1] *= np.cumprod(distance[:0:-1], axis=0)[::-1]
        weights *= scale
        nodes = padded[floor.astype(np.intp) % size + (stencil + 3)[:, None]]
        out[start:start + 8192] = (weights * nodes).sum(axis=0)
    return out


class TestInterpolationKernel:
    # 8192 + 1 ends on a one-point block, whose axis-0 sum numpy forms pairwise
    @pytest.mark.parametrize("n", [0, 1, 7, 8191, 8192, 8192 + 1, 3 * 8192 + 1000])
    def test_equals_the_cumprod_kernel_bit_for_bit(self, n):
        for seed in range(4):
            rng = np.random.default_rng([seed, n])
            size = int(rng.choice([8, 16, 1000, 4096]))
            table = rng.standard_normal(size) * 10.0 ** rng.uniform(-3.0, 3.0)
            cells = rng.uniform(0.0, size, n)
            integral = rng.random(n) < 0.1
            cells[integral] = rng.integers(0, size + 1, integral.sum())
            # 0 and len(table) at the start and at the end of the last block
            ends = [0.0, float(size), float(size - 1), 1.0]
            for at in (0, max(0, n - len(ends))):
                placed = ends[:max(0, min(len(ends), n - at))]
                cells[at:at + len(placed)] = placed
            expected = _cumprod_kernel(table, cells)
            assert np.array_equal(_interpolate_periodic(table, cells), expected), (seed, size)


class TestTraceSerialization:
    def test_rejects_mismatched_lengths(self, reference_comb):
        with pytest.raises(ValueError):
            SpectrumTrace(np.arange(3.0), np.arange(4.0), "Xe", *reference_comb)

    def test_rejects_a_2d_pair(self, reference_comb):
        # equal shapes, but no writer takes rows of more than one value
        with pytest.raises(ValueError, match=r"1-D .*\(2, 3\) and \(2, 3\)"):
            SpectrumTrace(np.ones((2, 3)), np.ones((2, 3)), "Xe", *reference_comb)

    def test_rejects_a_0d_pair(self, reference_comb):
        with pytest.raises(ValueError, match=r"1-D .*\(\) and \(\)"):
            SpectrumTrace(1.0, 1.0, "Xe", *reference_comb)

    def test_rejects_negative_signals(self, reference_comb):
        with pytest.raises(ValueError):
            SpectrumTrace(np.arange(3.0), np.array([0.0, -1.0, 0.5]), "Xe", *reference_comb)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, reference_comb, bad):
        with pytest.raises(ValueError, match="finite"):
            SpectrumTrace(np.arange(3.0), np.array([0.0, bad, 0.5]), "Xe", *reference_comb)
        with pytest.raises(ValueError, match="finite"):
            SpectrumTrace(np.array([0.0, bad, 2.0]), np.ones(3), "Xe", *reference_comb)


class TestPolarization:
    def test_perpendicular_is_maximal(self):
        for eps in (0.0, 0.01, 0.02):
            assert polarization_signal(math.pi / 2.0, eps) == pytest.approx(1.0)

    def test_parallel_floor_equals_extinction(self):
        assert polarization_signal(0.0, 0.015) == pytest.approx(0.015)

    def test_diagonal_half(self):
        assert polarization_signal(math.pi / 4.0, 0.0) == pytest.approx(0.5)

    @given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_quarter_turn_sum_rule(self, theta, eps):
        total = (polarization_signal(theta, eps)
                 + polarization_signal(theta + math.pi / 2.0, eps))
        assert total == pytest.approx(1.0 + eps, abs=1e-9)

    def test_rejects_bad_extinction(self):
        with pytest.raises(ValueError):
            polarization_signal(0.3, 1.0)


class TestSpeciesRatio:
    def test_default_table_reproduces_expected_triple(self, reference_params, species):
        ratios = species_ratio([species[n] for n in ("Xe", "CF3H", "N2")],
                               reference_params.linewidth, WAVELENGTH, TEMPERATURE)
        assert ratios[0] == 1.0
        assert ratios[1] == pytest.approx(0.353225056948, rel=1e-8)
        assert ratios[2] == pytest.approx(0.086884161430, rel=1e-8)
        # the paper expects (1, 0.36, 0.09) and measured (1, 0.35, 0.1); the
        # expected triple to 0.03 is validate's check_species_ratio

    def test_single_species(self, reference_params, species):
        assert species_ratio([species["Xe"]], reference_params.linewidth,
                             WAVELENGTH, TEMPERATURE) == [1.0]

    def test_identical_species_pair(self, reference_params, species):
        xe = species["Xe"]
        ratios = species_ratio([xe, xe], reference_params.linewidth, WAVELENGTH,
                               TEMPERATURE)
        assert ratios == pytest.approx([1.0, 1.0])

    def test_rejects_empty_list(self, reference_params):
        with pytest.raises(ValueError):
            species_ratio([], reference_params.linewidth, WAVELENGTH, TEMPERATURE)


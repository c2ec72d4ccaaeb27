"""Doppler widths, spectral overlap, scans, polarization, species ratios.

Overlap expectations are frozen from an independent Faddeeva-function
evaluation of the Gaussian-Lorentzian integral; the Doppler width is
validated by Monte-Carlo sampling of thermal velocities projected on the
90-degree scattering wavevector difference.
"""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavray import (CavityGeometry, GasSpecies, MirrorSpec, SpectrumTrace,
                    builtin_species, derive_cavity_params, doppler_fwhm,
                    doppler_fwhm_monte_carlo, load_species_table, observed_doppler_fwhm,
                    polarization_signal, scan_spectrum, species_ratio, spectral_overlap,
                    validation)
from cavray.constants import AVOGADRO, BOLTZMANN
from cavray.spectra import (_BLOCK, _FWHM_PER_SIGMA, MAX_SCAN_POINTS,
                            OBSERVED_WIDTH_FACTOR, _erfcx, _interpolate_periodic, _json_array,
                            _token_tables, _TokenFrame)

WAVELENGTH = 532e-9


# values that "%.12g" and repr(float("%.12g" % x)) lay out differently, or
# nearly do: integral tokens ("0", "-0", "99999999999") that repr ends in
# ".0", magnitudes that round into [1e12, 1e16), where %g writes an exponent
# and repr does not, subnormals whose 12 digits repr shortens ("5e-324"),
# and values just outside those cases
EDGE_VALUES = [0.0, -0.0, 1e-300, 1e11, 123456789012.5, 5e-324, 2.5e-310,
               2.2250738585072014e-308, 99999999999.0, 999999999999.0,
               999999999999.5, 9.99999999999e15, 1e16, 9.999999999995e-5,
               0.9999999999995, 2.5e-320]
# any finite double, integral doubles up to 1e16, and the edge values
FINITE_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-10 ** 16, 10 ** 16).map(float),
                          st.sampled_from(EDGE_VALUES))


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


def _allocating_monte_carlo(wavelength, temperature, molar_mass, n_samples, seed):
    """``doppler_fwhm_monte_carlo`` as it was before its buffers: a fresh
    ``normal(0, sigma_v)`` draw and fresh shift arrays per 65,536-row block.
    The buffered width must equal it exactly."""
    sigma_v = math.sqrt(BOLTZMANN * temperature / (molar_mass / AVOGADRO))
    rng = np.random.default_rng(seed)
    count, mean, squares = 0, 0.0, 0.0
    for start in range(0, n_samples, 65_536):
        rows = min(65_536, n_samples - start)
        velocities = rng.normal(0.0, sigma_v, size=(rows, 2))
        shifts = velocities[:, 0] - velocities[:, 1]
        shifts /= wavelength
        block_mean = float(shifts.mean())
        shifts -= block_mean
        block_squares = float((shifts * shifts).sum())
        delta = block_mean - mean
        total = count + rows
        mean += delta * rows / total
        squares += block_squares + delta * delta * count * rows / total
        count = total
    return _FWHM_PER_SIGMA * math.sqrt(squares / count)


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

    @pytest.mark.parametrize("width", [doppler_fwhm, doppler_fwhm_monte_carlo])
    @pytest.mark.parametrize("inputs, message", NONPHYSICAL_INPUTS)
    def test_nonphysical_input_is_named(self, width, inputs, message):
        with pytest.raises(ValueError, match=message):
            width(*inputs)

    def test_observed_width_is_sqrt2_absorption_width_at_the_gas_temperature(self):
        cold = builtin_species("Xe")._replace(temperature=150.0)
        assert observed_doppler_fwhm(cold, WAVELENGTH) == (
            OBSERVED_WIDTH_FACTOR * doppler_fwhm(WAVELENGTH, 150.0, cold.molar_mass))


class TestDopplerMonteCarlo:
    def test_reproduces_sqrt2_geometry_factor(self):
        sampled = doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3,
                                           n_samples=1_000_000, seed=42)
        expected = OBSERVED_WIDTH_FACTOR * doppler_fwhm(WAVELENGTH, 295.0,
                                                        131.29e-3)
        assert abs(sampled - expected) / expected < 0.01

    def test_deterministic_under_fixed_seed(self):
        first = doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3, 10_000, 7)
        second = doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3, 10_000, 7)
        assert first == second

    @pytest.mark.parametrize("n_samples", [65_535, 3 * 65_536 + 7, 1_000_000])
    def test_streamed_width_equals_the_whole_array_std(self, n_samples):
        # the blocks draw the stream one (n_samples, 2) draw gives, so only
        # the merge of the block variances may differ, in the last ulps
        sigma_v = math.sqrt(BOLTZMANN * 295.0 / (131.29e-3 / AVOGADRO))
        velocities = np.random.default_rng(3).normal(0.0, sigma_v, (n_samples, 2))
        whole = _FWHM_PER_SIGMA * float(
            np.std((velocities[:, 0] - velocities[:, 1]) / WAVELENGTH))
        streamed = doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3,
                                            n_samples, 3)
        assert abs(streamed - whole) <= 1e-14 * whole

    @pytest.mark.parametrize("n_samples", [2, 65_536, 65_537, 3 * 65_536 + 7, 1_000_000])
    def test_buffered_width_equals_the_allocating_loop(self, n_samples):
        for seed in (0, 42, 12345):
            buffered = doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3,
                                                n_samples, seed)
            assert buffered == _allocating_monte_carlo(WAVELENGTH, 295.0, 131.29e-3,
                                                       n_samples, seed), seed

    @pytest.mark.parametrize("n_samples", [1_000_000, 4_000_000])
    def test_memory_does_not_grow_with_the_sample_count(self, n_samples):
        tracemalloc.start()
        try:
            doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3, n_samples, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("n_samples", [1, 0, -5])
    def test_fewer_than_two_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            doppler_fwhm_monte_carlo(WAVELENGTH, 295.0, 131.29e-3, n_samples, 0)


class TestSpectralOverlap:
    @pytest.fixture
    def xe_observed(self):
        return observed_doppler_fwhm(builtin_species("Xe"), WAVELENGTH)

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
    def test_narrow_line_matches_its_series(self, name, temperature):
        # a 1 kHz line, 1e-6 of the Doppler width: adaptive quadrature
        # came out 7.9% low for N2 and did not converge for CF3H
        gas = builtin_species(name)._replace(temperature=temperature)
        observed = observed_doppler_fwhm(gas, WAVELENGTH)
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
    def test_two_peaks_separated_by_fsr(self, reference_params):
        trace = scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                              scan_range=1.5 * reference_params.free_spectral_range,
                              resolution=5e6, wavelength=WAVELENGTH)
        fsr = reference_params.free_spectral_range
        first = trace.detunings[np.argmax(
            np.where(trace.detunings < fsr / 2.0, trace.signals, 0.0))]
        second = trace.detunings[np.argmax(
            np.where(trace.detunings > fsr / 2.0, trace.signals, 0.0))]
        assert first == pytest.approx(0.0, abs=5e6)
        assert second - first == pytest.approx(fsr, abs=1e7)
        # the paper rounds the separation to 24.9 GHz
        assert second - first == pytest.approx(24.9e9, rel=0.01)

    def test_peak_width_is_voigt_of_doppler_and_cavity(self, reference_params):
        trace = scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                              scan_range=6e9, resolution=1e6,
                              wavelength=WAVELENGTH, normalize=True)
        half = trace.detunings[trace.signals >= 0.5]
        measured_fwhm = 2.0 * half.max()  # peak sits at zero detuning
        assert measured_fwhm == pytest.approx(8.6845e8, rel=0.01)
        # dominated by the observed Doppler width of 856 MHz
        assert measured_fwhm == pytest.approx(8.556e8, rel=0.03)

    def test_zero_weight_gives_flat_zero(self, reference_params):
        trace = scan_spectrum(reference_params, [(builtin_species("Xe"), 0.0)],
                              scan_range=5e9, resolution=5e6,
                              wavelength=WAVELENGTH)
        assert np.all(trace.signals == 0.0)

    def test_equal_density_ordering(self, reference_params):
        species = [builtin_species(n) for n in ("Xe", "CF3H", "N2")]
        heights, widths = {}, {}
        for gas in species:
            trace = scan_spectrum(reference_params, [(gas, 1.0)], 8e9, 5e6,
                                  WAVELENGTH)
            heights[gas.name] = trace.signals.max()
            half = trace.detunings[trace.signals >= 0.5 * trace.signals.max()]
            widths[gas.name] = 2.0 * half.max()
        assert heights["Xe"] > heights["CF3H"] > heights["N2"]
        assert widths["N2"] > widths["CF3H"] > widths["Xe"]

    def test_linear_in_weight_and_additive(self, reference_params):
        xe = builtin_species("Xe")
        n2 = builtin_species("N2")
        single = scan_spectrum(reference_params, [(xe, 1.0)], 4e9, 5e6, WAVELENGTH)
        double = scan_spectrum(reference_params, [(xe, 2.0)], 4e9, 5e6, WAVELENGTH)
        np.testing.assert_allclose(double.signals, 2.0 * single.signals, rtol=1e-12)
        mixed = scan_spectrum(reference_params, [(xe, 1.0), (n2, 0.5)], 4e9, 5e6,
                              WAVELENGTH)
        n2_only = scan_spectrum(reference_params, [(n2, 0.5)], 4e9, 5e6, WAVELENGTH)
        np.testing.assert_allclose(mixed.signals, single.signals + n2_only.signals,
                                   rtol=1e-12)

    def test_peak_height_matches_spectral_overlap(self, reference_params):
        xe = builtin_species("Xe")
        trace = scan_spectrum(reference_params, [(xe, 1.0)], 4e9, 1e6, WAVELENGTH)
        expected = xe.polarizability ** 2 * spectral_overlap(
            observed_doppler_fwhm(xe, WAVELENGTH), reference_params.linewidth
        )
        assert trace.signals[0] == pytest.approx(expected, rel=1e-4)

    def test_normalized_peak_is_one(self, reference_params):
        trace = scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                              4e9, 5e6, WAVELENGTH, normalize=True)
        assert trace.signals.max() == pytest.approx(1.0)

    def test_normalized_shape_independent_of_density(self, reference_params):
        # pressure-normalized traces collapse onto one Doppler shape
        gas = builtin_species("CF3H")
        low = scan_spectrum(reference_params, [(gas, 1.0)], 4e9, 5e6, WAVELENGTH,
                            normalize=True)
        high = scan_spectrum(reference_params, [(gas, 8.0)], 4e9, 5e6, WAVELENGTH,
                             normalize=True)
        np.testing.assert_allclose(high.signals, low.signals, rtol=1e-12)

    def test_rejects_coarse_resolution(self, reference_params):
        with pytest.raises(ValueError):
            scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                          5e9, 5e8, WAVELENGTH)

    def test_rejects_empty_species(self, reference_params):
        with pytest.raises(ValueError):
            scan_spectrum(reference_params, [], 5e9, 5e6, WAVELENGTH)

    def test_rejects_grid_beyond_point_cap(self, reference_params):
        # 1e9 GHz at 25 MHz would be 4e10 points, 298 GiB of arrays
        with pytest.raises(ValueError, match="scan.range.*scan.resolution"):
            scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                          1e18, 25e6, WAVELENGTH)
        points = MAX_SCAN_POINTS * 25e6
        with pytest.raises(ValueError, match="points"):
            scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                          points, 25e6, WAVELENGTH)

    def test_rejects_lines_beyond_table_cap(self):
        # 1e-7 K gas in a finesse-3e7 cavity: ~5e6 harmonics before the
        # terms fade, a table of 2**27 entries
        cavity = derive_cavity_params(
            CavityGeometry(6e-3, 45e-3, MirrorSpec(1.0 - 1e-7), MirrorSpec(1.0 - 1e-7)),
            WAVELENGTH)
        gas = load_species_table(temperature=1e-7)["Xe"]
        with pytest.raises(ValueError, match="finesse.*gas.temperature"):
            scan_spectrum(cavity, [(gas, 1.0)], 1e6, 1e3, WAVELENGTH)


def _scan_case(name):
    """(cavity, species weights, range, resolution) of one oracle comparison."""
    reflectivity, temperature, resolution = {
        "demo": (0.997, 295.0, 25e6),
        "77K": (0.997, 77.0, 25e6),
        # finesse 1.05e5, ~17k harmonics: the lines are 5 MHz wide
        "0.01K": (0.99997, 0.01, 0.85e6),
    }[name]
    cavity = derive_cavity_params(
        CavityGeometry(6e-3, 45e-3, MirrorSpec(reflectivity), MirrorSpec(reflectivity)),
        WAVELENGTH)
    table = load_species_table(temperature=temperature)
    weights = [(table[n], w) for n, w in (("Xe", 1.0), ("CF3H", 0.7), ("N2", 1.3))]
    return cavity, weights, 37.5e9, resolution


class TestScanAgainstOracles:
    """The table-interpolated comb against the term-by-term series and a
    brute-force +-4000-order Voigt sum, at 200 detunings of each scan:
    100 anywhere and 100 within three line widths of a comb order."""

    @pytest.fixture(params=["demo", "77K", "0.01K"])
    def sampled(self, request):
        cavity, weights, scan_range, resolution = _scan_case(request.param)
        trace = scan_spectrum(cavity, weights, scan_range, resolution, WAVELENGTH)
        fsr = cavity.free_spectral_range
        width = 3.0 * max(OBSERVED_WIDTH_FACTOR * doppler_fwhm(WAVELENGTH, gas.temperature,
                                                                gas.molar_mass)
                          for gas, _ in weights)
        distance = np.abs(trace.detunings - np.round(trace.detunings / fsr) * fsr)
        rng = np.random.default_rng(3)
        picks = np.concatenate([
            rng.choice(len(trace.detunings), 100, replace=False),
            rng.choice(np.flatnonzero(distance < width), 100, replace=False),
        ])
        return (cavity, weights, trace.detunings[picks], trace.signals[picks],
                trace.signals.max())

    def test_matches_direct_fourier_series(self, sampled):
        cavity, weights, detunings, signals, peak = sampled
        series = validation.scan_fourier_series(detunings, cavity, weights, WAVELENGTH)
        assert np.max(np.abs(signals - series)) <= 1e-11 * peak

    def test_matches_brute_force_voigt_sum(self, sampled):
        cavity, weights, detunings, signals, peak = sampled
        brute = validation.scan_voigt_sum(detunings, cavity, weights, WAVELENGTH)
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
    @pytest.fixture
    def trace(self, reference_params):
        return scan_spectrum(reference_params, [(builtin_species("Xe"), 1.0)],
                             2e9, 1e7, WAVELENGTH, normalize=True)

    def test_csv_roundtrip(self, trace):
        buffer = io.StringIO()
        trace.to_csv(buffer)
        buffer.seek(0)
        recovered = SpectrumTrace.from_csv(buffer)
        np.testing.assert_allclose(recovered.detunings, trace.detunings, rtol=1e-11)
        np.testing.assert_allclose(recovered.signals, trace.signals, rtol=1e-11)

    def test_csv_header(self, trace):
        buffer = io.StringIO()
        trace.to_csv(buffer)
        assert buffer.getvalue().splitlines()[0] == "detuning_Hz,signal_normalized"

    def test_json_roundtrip(self, trace):
        recovered = SpectrumTrace.from_json(trace.to_json())
        np.testing.assert_allclose(recovered.detunings, trace.detunings, rtol=1e-11)
        np.testing.assert_allclose(recovered.signals, trace.signals, rtol=1e-11)
        assert recovered.species == trace.species

    def test_json_schema_versioned(self, trace):
        assert '"schema": "cavray.spectrum-trace/1"' in trace.to_json()
        with pytest.raises(ValueError):
            SpectrumTrace.from_json('{"schema": "other/9"}')

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.arange(3.0), np.arange(4.0))

    def test_rejects_negative_signals(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.arange(3.0), np.array([0.0, -1.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SpectrumTrace(np.arange(3.0), np.array([0.0, bad, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            SpectrumTrace(np.array([0.0, bad, 2.0]), np.ones(3))

    @pytest.mark.parametrize("n", [0, 3, 8192, 8192 + 5, 2 * 8192, 2 * 8192 + 40])
    def test_writers_match_per_point_formatting(self, reference_params, n):
        edges = np.array(EDGE_VALUES)
        rng = np.random.default_rng(n)
        detunings = rng.uniform(0.0, 1e11, n)
        signals = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 12, n)
        # at the start, and across the edge of the first 8192-value block;
        # every other detuning negated
        for at in (0, 8192 - len(edges) // 2):
            placed = edges[:max(0, min(len(edges), n - at))]
            detunings[at:at + len(placed)] = np.where(np.arange(len(placed)) % 2,
                                                      -placed, placed)
            signals[at:at + len(placed)] = placed[::-1]
        for cavity in (None, reference_params):
            trace = SpectrumTrace(detunings, signals, 'Xe+"N2"', cavity)
            buffer = io.StringIO()
            trace.to_csv(buffer)
            assert buffer.getvalue() == "".join(
                ["detuning_Hz,signal_normalized\n"]
                + [f"{x:.12g},{y:.12g}\n" for x, y in zip(detunings, signals)])
            payload = {
                "schema": "cavray.spectrum-trace/1",
                "species": trace.species,
                "detuning_Hz": [float(f"{x:.12g}") for x in detunings],
                "signal_normalized": [float(f"{y:.12g}") for y in signals],
            }
            if cavity is not None:
                payload["cavity"] = {
                    "finesse": cavity.finesse,
                    "free_spectral_range_Hz": cavity.free_spectral_range,
                    "linewidth_Hz": cavity.linewidth,
                }
            assert trace.to_json() == json.dumps(payload, indent=2)

    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=FINITE_VALUES))
    @settings(max_examples=300, deadline=None)
    def test_json_array_is_per_value_repr_of_the_rounding(self, values):
        expected = ("[\n    " + ",\n    ".join(repr(float(f"{x:.12g}")) for x in values)
                    + "\n  ]") if len(values) else "[]"
        assert "".join(_json_array(values)) == expected

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)),
                      elements=FINITE_VALUES))
    @settings(max_examples=300, deadline=None)
    def test_csv_is_per_row_format(self, rows):
        # a trace's signals are nonnegative
        detunings, signals = rows[:, 0], np.abs(rows[:, 1])
        buffer = io.StringIO()
        SpectrumTrace(detunings, signals).to_csv(buffer)
        assert buffer.getvalue() == "detuning_Hz,signal_normalized\n" + "".join(
            f"{x:.12g},{y:.12g}\n" for x, y in zip(detunings, signals))

    @pytest.mark.parametrize("n", [8192, 2 * 8192, 8192 + 1])
    def test_json_blocks_without_suspect_tokens(self, n):
        # values of both signs over 200 decades in one full block, two, and
        # one plus a value: one frame serves every block, the last one short
        rng = np.random.default_rng(n)
        values = (rng.uniform(0.1, 0.9, n) * 10.0 ** rng.integers(-200, 1, n)
                  * rng.choice([-1.0, 1.0], n))
        assert "".join(_json_array(values)) == (
            "[\n    " + ",\n    ".join(repr(float(f"{x:.12g}")) for x in values) + "\n  ]")


def kernel_values():
    """1.01e6 fixed-seed values for the token kernel, in a fixed shuffle, of
    both signs: every binade from 5e-324 to 1.8e308, integers up to 1e16,
    ties at the 12th digit, and neighbours of the powers of ten and of the
    layout edges."""
    rng = np.random.default_rng(20261018)
    binades = np.ldexp(rng.uniform(1.0, 2.0, (2098, 160)),
                       np.arange(-1074, 1024)[:, None]).ravel()
    integers = np.concatenate([rng.integers(0, 10 ** 16, 200_000),
                               rng.integers(0, 10 ** 6, 50_000) * 25_000_000]).astype(float)
    # 12 digits and a 5: exact ties as integers and their halves, near ties
    # (the nearest double to the decimal) at every scale of the kernel
    twelve = rng.integers(10 ** 11, 10 ** 12, 100_000)
    ties = np.concatenate([
        twelve * 10.0 + 5.0, twelve + 0.5,
        (twelve[:50_000] + 0.5) * 10.0 ** rng.integers(-30, 31, 50_000),
        [float(f"{m}5e{k}") for m, k in zip(twelve[:20_000].tolist(),
                                           rng.integers(-320, 296, 20_000).tolist())]])
    # powers of ten, the layout edges 1e-4, 1e12 and 1e16, and the 12-digit
    # rounding boundary below each power; each with 3 neighbours either side
    edges = np.array([float(f"{m}e{k}") for k in range(-323, 309)
                      for m in ("1", "9.999999999995")][:-1])
    neighbours = [edges]
    for direction in (-np.inf, np.inf):
        step = edges
        for _ in range(3):
            step = np.nextafter(step, direction)
            neighbours.append(step)
    scans = rng.uniform(0.0, 1.0, 150_000) * 10.0 ** rng.integers(-12, 12, 150_000)
    values = np.concatenate([binades, integers, ties, *neighbours, scans])
    return rng.permutation(values * rng.choice([-1.0, 1.0], len(values)))


def kernel_text(values, json):
    """The kernel's tokens of ``values``, one to a line, and the number it
    sent to Python in each block."""
    frame = _TokenFrame(_BLOCK, [b"\n"], json)
    pieces, odd = [], []
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        odd.append(frame.fill(0, block))
        pieces.append(frame.text(len(block)))
    return "".join(pieces), odd


class TestTokenKernel:
    def test_scale_is_exact_where_the_ties_rely_on_it(self):
        scale = _token_tables(json=False)[0]
        powers = np.array([float(f"1e{11 - e}") for e in range(-289, 309)])
        assert np.all(np.abs(scale[1:] - powers) <= np.spacing(powers))
        # e = -11..11
        assert np.array_equal(scale[279:302], powers[278:301])

    def test_equals_python_formatting_on_a_million_values(self):
        # half the shuffled values in each layout: Python's own repr takes
        # ~1.5 us a value on a 2-core Xeon VM, all of them in both layouts ~5 s
        values = kernel_values()
        assert len(values) > 1_000_000
        for json_tokens, half in (False, values[0::2]), (True, values[1::2]):
            tokens = ((b"%.12g\n" * len(half)) % tuple(half.tolist())).decode("ascii").split()
            if json_tokens:
                tokens = list(map(repr, map(float, tokens)))
            text, _ = kernel_text(half, json_tokens)
            if text != "\n".join(tokens) + "\n":
                wrong = [(x, got, want) for x, got, want in zip(
                    half.tolist(), text.split(), tokens) if got != want]
                pytest.fail(f"{len(wrong)} tokens differ, first {wrong[:3]}")

    @pytest.mark.parametrize("points", [1501, 100_000])
    def test_scan_grids_send_at_most_one_token_a_block_to_python(self, reference_params,
                                                                   points):
        # the demo's scan on its 25 MHz integral grid, and a benchmark-shaped
        # grid of 1e5 points over 1.5 FSRs; the one token is the 0 detuning
        span = 37.5e9 if points == 1501 else 1.5 * reference_params.free_spectral_range
        trace = scan_spectrum(reference_params,
                              [(builtin_species(name), 1.0) for name in ("Xe", "CF3H", "N2")],
                              span, span / (points - 1), WAVELENGTH, normalize=True)
        assert len(trace.detunings) == points
        for values in trace.detunings, trace.signals:
            assert max(kernel_text(values, json=True)[1]) <= 1


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
    def test_default_table_reproduces_expected_triple(self, reference_params):
        species = [builtin_species(n) for n in ("Xe", "CF3H", "N2")]
        ratios = species_ratio(species, reference_params, WAVELENGTH)
        assert ratios[0] == 1.0
        assert ratios[1] == pytest.approx(0.353225056948, rel=1e-8)
        assert ratios[2] == pytest.approx(0.086884161430, rel=1e-8)
        # expected (1, 0.36, 0.09); measured (1, 0.35, 0.1)
        assert ratios[1] == pytest.approx(0.36, abs=0.03)
        assert ratios[2] == pytest.approx(0.09, abs=0.03)

    def test_single_species(self, reference_params):
        assert species_ratio([builtin_species("Xe")], reference_params,
                             WAVELENGTH) == [1.0]

    def test_identical_species_pair(self, reference_params):
        xe = builtin_species("Xe")
        ratios = species_ratio([xe, xe], reference_params, WAVELENGTH)
        assert ratios == pytest.approx([1.0, 1.0])

    def test_rejects_empty_list(self, reference_params):
        with pytest.raises(ValueError):
            species_ratio([], reference_params, WAVELENGTH)


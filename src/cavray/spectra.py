"""Doppler-broadened line shapes and simulated cavity scans.

The 90-degree scattering geometry observes a Doppler width sqrt(2) times
the absorption-spectroscopy width, because the projection of the thermal
velocity onto the difference of pump and collection wavevectors carries
that factor. ``observed_doppler_fwhm(gas, wavelength, temperature)`` is
that width, for a species (its table row) at the sample's temperature,
``gas.temperature``, and the scan, the spectral overlap and the species
ratio all take it from there. A cavity scan convolves each species'
observed Doppler Gaussian with the cavity Lorentzian; the spectral overlap
is the value of that convolution on resonance and quantifies how much of
the scattered spectrum the cavity accepts.

The cavity response is a comb of Lorentzians of half width hwhm spaced
by the free spectral range F: the high-finesse limit of the Airy
function, kept as the model. The scan reads this comb alone, F and the
finesse F / (2 hwhm). By Poisson summation (Ismail et al., Opt.
Express 24, 16366, 2016) the scan signal over all comb orders is the
Fourier series

    signal(nu) = sum_j s_j * pi * hwhm / F
                 * [1 + 2 sum_{k>=1} c_k(sigma_j) cos(2 pi k nu / F)],
    c_k(sigma) = exp(-2 pi^2 sigma^2 k^2 / F^2 - 2 pi hwhm k / F),

with s_j = weight * polarizability^2 and sigma_j the observed Doppler
sigma of species j. ``scan_spectrum`` drops the harmonics below 1e-17 of
the mean level, tabulates one period with an inverse FFT at 16 samples
per shortest harmonic wavelength and interpolates the grid from it with
an 8-point periodic Lagrange stencil. It has no truncation window in
frequency. It agrees with the directly evaluated series to 1e-11 of the
peak, and with a +-4000-order sum of Voigt profiles to 1e-7 of the peak,
which is the size of that sum's missing tail (the series is
``validation.scan_fourier_series``, which ``cavray validate`` checks the
scan against; the Voigt sum is a test-only oracle that reads scipy).

Valid up to roughly 100 mbar: pressure sidebands from scattering on
density waves appear above that and are not modeled, nor are collisional
broadening or narrowing.

The spectral overlap, ``spectral_overlap(observed_fwhm, cavity_linewidth)``,
is that convolution on resonance, pi * hwhm times a Voigt profile at zero
detuning, in closed form through the scaled complementary error function
erfcx, which ``_erfcx`` evaluates with the standard library. The module
needs numpy alone; ``GasSpecies`` is a quoted annotation, never imported.
``import cavray`` loads the module only when one of its names is used.

``scan_spectrum`` returns a ``SpectrumTrace``, and :mod:`cavray.trace`
writes it as CSV or JSON.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import AVOGADRO, BOLTZMANN

# 90-degree scattering geometry: |k_out - k_in| = sqrt(2) * k
OBSERVED_WIDTH_FACTOR = math.sqrt(2.0)

_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Largest detuning grid and one-period comb table scan_spectrum builds:
# 1e7 points hold 160 MB of detunings and signals, 2**24 table entries
# 128 MB plus the half-size complex spectrum they come from.
MAX_SCAN_POINTS = 10_000_000
MAX_COMB_TABLE = 2 ** 24

# harmonics below this fraction of the mean level a_0 are dropped
_HARMONIC_FLOOR = 1e-17
# table samples per wavelength of the highest harmonic kept
_TABLE_OVERSAMPLING = 16
# the 8 table nodes around each point's cell, as offsets from the cell start
_STENCIL = np.arange(-3, 5)
_STENCIL_SCALE = np.array([
    1.0 / math.prod(float(j - m) for m in _STENCIL if m != j) for j in _STENCIL
])[:, None]
# rows per block of the interpolation
_BLOCK = 8192


def doppler_fwhm(wavelength: float, temperature: float, molar_mass: float) -> float:
    """Absorption-spectroscopy Doppler FWHM of a thermal gas, in Hz.

    (nu0/c) * sqrt(8 kB T ln2 / m) with nu0 = c/lambda and m the mass of a
    single particle (molar_mass in kg/mol). Raises ``ValueError`` naming
    the first argument that is not a positive finite number (NaN included).
    """
    for name, value in (("wavelength", wavelength), ("temperature", temperature),
                        ("molar mass", molar_mass)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    particle_mass = molar_mass / AVOGADRO
    return (1.0 / wavelength) * math.sqrt(
        8.0 * BOLTZMANN * temperature * math.log(2.0) / particle_mass
    )


def observed_doppler_fwhm(gas: "GasSpecies", wavelength: float,
                          temperature: float) -> float:
    """Doppler FWHM of ``gas`` at the sample ``temperature`` (K) as the 90-degree
    geometry observes it, sqrt(2) times the absorption width, in Hz."""
    return OBSERVED_WIDTH_FACTOR * doppler_fwhm(wavelength, temperature, gas.molar_mass)


# continued-fraction levels of _erfcx; 55 already reach rounding at x = 2
_ERFCX_DEPTH = 60


def _erfcx(x: float) -> float:
    """The scaled complementary error function exp(x^2) erfc(x), for x >= 0.

    exp(x^2) * erfc(x) below x = 2; from x = 2 on, where exp(x^2) erfc(x)
    loses digits and then overflows, the continued fraction

        1 / (sqrt(pi) (x + (1/2) / (x + 1 / (x + (3/2) / (x + ...)))))

    evaluated backward from a fixed depth. Within 1.1e-15 relative of
    ``scipy.special.erfcx`` over [0, 30] and log-spaced [1e-8, 1e8].
    """
    if x < 2.0:
        return math.exp(x * x) * math.erfc(x)
    tail = x
    for k in range(_ERFCX_DEPTH, 0, -1):
        tail = x + 0.5 * k / tail
    return 1.0 / (math.sqrt(math.pi) * tail)


def spectral_overlap(observed_fwhm: float, cavity_linewidth: float) -> float:
    """Fraction of the Doppler-broadened spectrum accepted by the cavity.

    Integral of the area-normalized observed Doppler Gaussian of FWHM
    ``observed_fwhm`` (sigma) against the peak-normalized cavity Lorentzian
    of FWHM ``cavity_linewidth`` (half width hwhm), in closed form:

        sqrt(pi/2) * (hwhm/sigma) * erfcx(hwhm / (sigma * sqrt(2)))

    Tends to 1 for a broad cavity and to (pi/2)*linewidth*g(0) for a
    narrow one. ``validation`` checks it against Gauss-Legendre quadrature.
    """
    if cavity_linewidth <= 0.0:
        raise ValueError(f"cavity linewidth must be positive, got {cavity_linewidth}")
    if observed_fwhm <= 0.0:
        raise ValueError(f"observed Doppler FWHM must be positive, got {observed_fwhm}")
    sigma = observed_fwhm / _FWHM_PER_SIGMA
    hwhm = cavity_linewidth / 2.0
    return math.sqrt(math.pi / 2.0) * hwhm / sigma * _erfcx(hwhm / (sigma * math.sqrt(2.0)))


class SpectrumTrace:
    """Sampled (detuning, signal) data of a cavity scan, as two 1-D arrays of
    one length, and its comb's free spectral range and finesse; written by
    :mod:`cavray.trace`. ``normalized``: the signals peak at 1."""

    def __init__(self, detunings, signals, species: str, free_spectral_range: float,
                 finesse: float, normalized: bool = False):
        self.detunings = np.asarray(detunings, dtype=float)  # Hz
        self.signals = np.asarray(signals, dtype=float)      # dimensionless
        self.species = species
        self.free_spectral_range = free_spectral_range       # Hz
        self.finesse = finesse
        self.normalized = normalized
        if self.detunings.ndim != 1 or self.detunings.shape != self.signals.shape:
            raise ValueError("detunings and signals must be 1-D of equal length, got "
                             f"shapes {self.detunings.shape} and {self.signals.shape}")
        if not (np.all(np.isfinite(self.detunings)) and np.all(np.isfinite(self.signals))):
            raise ValueError("detunings and signals must be finite")
        if np.any(self.signals < 0.0):
            raise ValueError("signals must be nonnegative")


def _voigt_fwhm(gaussian_fwhm: float, lorentzian_fwhm: float) -> float:
    # Olivero-Longbothum approximation, within 2.4e-4 at any width ratio (worst near 0.29)
    return (0.5346 * lorentzian_fwhm
            + math.sqrt(0.2166 * lorentzian_fwhm ** 2 + gaussian_fwhm ** 2))


def _comb_coefficients(lines: list[tuple[float, float]], fsr: float,
                       hwhm: float) -> np.ndarray:
    """Cosine coefficients a_0, a_1, ..., a_K of the scan signal.

    ``lines`` holds (strength, sigma) per species. K is the last harmonic
    at which 2 c_k of the narrowest line reaches the floor relative to
    a_0; it solves the quadratic 2 pi^2 (sigma/F)^2 k^2 + 2 pi (hwhm/F) k
    = log(2 / floor).
    """
    sigma = min(s for _, s in lines)
    quadratic = 2.0 * (math.pi * sigma / fsr) ** 2
    linear = 2.0 * math.pi * hwhm / fsr
    log_floor = math.log(2.0 / _HARMONIC_FLOOR)
    last = math.ceil(2.0 * log_floor / (
        linear + math.sqrt(linear ** 2 + 4.0 * quadratic * log_floor)))
    if _TABLE_OVERSAMPLING * (last + 1) > MAX_COMB_TABLE:
        raise ValueError(
            f"lines too narrow for the comb table: {last} harmonics of a "
            f"{fsr:.6g} Hz FSR exceed its {MAX_COMB_TABLE}-entry limit; "
            "lower the cavity finesse or raise gas.temperature"
        )
    k = np.arange(last + 1)
    coefficients = np.zeros(len(k))
    for strength, line_sigma in lines:
        coefficients += strength * np.exp(
            -2.0 * (math.pi * line_sigma * k / fsr) ** 2 - linear * k)
    coefficients *= math.pi * hwhm / fsr
    coefficients[1:] *= 2.0
    return coefficients


def _comb_table(coefficients: np.ndarray) -> np.ndarray:
    """One period of the series at M equally spaced phases, M a power of two.

    M >= 16 (K + 1), so the highest harmonic has 16 samples per period.
    """
    size = 1 << (_TABLE_OVERSAMPLING * len(coefficients) - 1).bit_length()
    spectrum = np.zeros(size // 2 + 1)
    spectrum[:len(coefficients)] = coefficients * (size / 2.0)
    spectrum[0] *= 2.0
    return np.fft.irfft(spectrum, n=size)


def _interpolate_periodic(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Periodic 8-point Lagrange interpolation of ``table`` at ``cells``.

    ``table[i]`` is the value at cell coordinate i, and ``cells`` lie in
    [0, len(table)]. Each point uses the nodes floor(x)-3 .. floor(x)+4.

    The weight of node j at t = x - floor(x) is prod_{m != j} (t - m) / (j - m),
    formed as (left_j * right_j) * scale_j from the running products
    left_j = (t - m_0) ... (t - m_{j-1}) and right_j = (t - m_7) ... (t - m_{j+1}),
    each multiplied one node at a time, and the 8 terms weight * node are
    summed by numpy's axis-0 sum, which adds them in node order except in a
    one-point block, where it adds them pairwise. Each multiply takes whole
    rows of a block, into buffers reused across blocks; ``np.cumprod`` along
    the stencil axis would run a loop of 7 per point.
    """
    out = np.empty_like(cells)
    rows = min(len(cells), _BLOCK)
    distances = np.empty((len(_STENCIL), rows))
    weights = np.empty((len(_STENCIL), rows))
    indices = np.empty((len(_STENCIL), rows), dtype=np.intp)
    for start in range(0, len(cells), _BLOCK):
        x = cells[start:start + _BLOCK]
        n = len(x)
        distance, weight, index = distances[:, :n], weights[:, :n], indices[:, :n]
        floor = np.floor(x)
        np.subtract(x - floor, _STENCIL[:, None], out=distance)
        np.copyto(weight[1], distance[0])
        for j in range(2, len(_STENCIL)):
            np.multiply(weight[j - 1], distance[j - 1], out=weight[j])
        right = distance[-1]
        for j in range(len(_STENCIL) - 2, 0, -1):
            weight[j] *= right
            right *= distance[j]
        np.copyto(weight[0], right)
        weight *= _STENCIL_SCALE
        # node j of the cell at floor(x) is table[(floor(x) + m_j) mod M], M =
        # len(table): floor(x) + m_j lies in [-3, M + 4], and mode "wrap" takes the mod
        np.add(floor.astype(np.intp), _STENCIL[:, None], out=index)
        nodes = np.take(table, index, mode="wrap", out=distance)
        weight *= nodes
        weight.sum(axis=0, out=out[start:start + n])
    return out


def scan_spectrum(free_spectral_range: float, finesse: float,
                  species_weights: "list[tuple[GasSpecies, float]]",
                  scan_range: float, resolution: float, wavelength: float,
                  temperature: float, normalize: bool = False) -> SpectrumTrace:
    """Simulate a cavity scan over detunings [0, scan_range].

    Each species contributes peaks spaced by ``free_spectral_range`` (Hz),
    its observed Doppler Gaussian at the sample ``temperature`` (K) convolved
    with the cavity Lorentzian of FWHM free_spectral_range / finesse,
    weighted by polarizability^2 times its relative density. Heights are
    left in those native units unless ``normalize`` scales the peak to 1.
    The sum over all comb orders is evaluated as its Fourier series (see
    the module docstring). Raises ``ValueError`` for a grid of more than
    ``MAX_SCAN_POINTS`` points or lines too narrow for a comb table of
    ``MAX_COMB_TABLE`` entries.
    """
    if not species_weights:
        raise ValueError("at least one species is required")
    if not all(v > 0.0 for v in (free_spectral_range, finesse, scan_range, resolution)):
        raise ValueError("FSR, finesse, scan range and resolution must be positive")
    if scan_range / resolution >= MAX_SCAN_POINTS:
        raise ValueError(
            f"scan.range {scan_range:.6g} Hz at scan.resolution {resolution:.6g} Hz "
            f"asks for more than {MAX_SCAN_POINTS} points"
        )
    fsr, linewidth = free_spectral_range, free_spectral_range / finesse
    widths = [observed_doppler_fwhm(gas, wavelength, temperature)
              for gas, _ in species_weights]
    narrowest = min(_voigt_fwhm(width, linewidth) for width in widths)
    if resolution >= narrowest / 5.0:
        raise ValueError(
            f"scan.resolution must be below feature/5, got {resolution:.6g} Hz: "
            f"too coarse for the narrowest feature, {narrowest:.6g} Hz"
        )

    lines = []
    for (gas, weight), width in zip(species_weights, widths):
        if weight < 0.0:
            raise ValueError(f"species weight must be nonnegative, got {weight}")
        lines.append((weight * gas.polarizability ** 2, width / _FWHM_PER_SIGMA))
    table = _comb_table(_comb_coefficients(lines, fsr, linewidth / 2.0))
    detunings = np.arange(0.0, scan_range + resolution / 2.0, resolution)
    # fmod is mod on this nonnegative grid, at about half the cost
    signals = _interpolate_periodic(table, np.fmod(detunings, fsr) * (len(table) / fsr))
    # the comb is positive; interpolation ripple below zero is pure error
    np.maximum(signals, 0.0, out=signals)
    if normalize:
        # in place: the signals array is this call's own
        peak = float(signals.max(initial=0.0))
        if peak > 0.0:
            signals /= peak
    label = "+".join(gas.name for gas, _ in species_weights)
    return SpectrumTrace(detunings, signals, label, fsr, finesse, normalize)


def polarization_signal(angle, extinction: float = 0.0):
    """Dipole polarization response (1 - eps) * sin^2(angle) + eps.

    Zero (up to the extinction floor of imperfect linear polarization) for
    the pump polarized along the cavity axis, maximal perpendicular to it.
    """
    if not 0.0 <= extinction < 1.0:
        raise ValueError(f"extinction must be in [0, 1), got {extinction}")
    return (1.0 - extinction) * np.sin(angle) ** 2 + extinction


def species_ratio(species: "list[GasSpecies]", cavity_linewidth: float,
                  wavelength: float, temperature: float) -> list[float]:
    """Relative scattered signals, first species as the unit reference.

    ratio_i = (alpha_i / alpha_ref)^2 * overlap_i / overlap_ref, combining
    the polarizability-squared cross-section scaling with each species'
    overlap with a cavity of FWHM ``cavity_linewidth`` at the sample ``temperature``.
    """
    if not species:
        raise ValueError("species list must be nonempty")
    reference = species[0]
    overlaps = [spectral_overlap(observed_doppler_fwhm(gas, wavelength, temperature),
                                 cavity_linewidth) for gas in species]
    return [(gas.polarizability / reference.polarizability) ** 2 * value / overlaps[0]
            for gas, value in zip(species, overlaps)]

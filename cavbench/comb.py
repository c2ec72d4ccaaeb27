"""Infinite Fabry-Perot comb of Voigt lines, summed as a Fourier series.

By Poisson summation (Ismail et al., Opt. Express 24, 16366, 2016) the
comb sum_n V(nu - n F; sigma, hwhm) of area-normalized Voigt profiles
spaced by the free spectral range F equals

    (1/F) * [1 + 2 sum_{k>=1} c_k cos(2 pi k nu / F)],
    c_k = exp(-2 pi^2 sigma^2 k^2 / F^2 - 2 pi hwhm k / F),

because the Voigt's Fourier transform is the product of the Gaussian's
and the Lorentzian's. The series has no truncation window in frequency;
it is cut where a term drops below ``TERM_FLOOR``.
"""

from __future__ import annotations

import math

import numpy as np

BOLTZMANN = 1.380649e-23
AVOGADRO = 6.02214076e23
TERM_FLOOR = 1e-17


def observed_sigma(wavelength: float, temperature: float, molar_mass_g: float) -> float:
    """Gaussian sigma (Hz) of the 90-degree-scattering Doppler line, sqrt(2 kB T / m) / lambda."""
    mass = molar_mass_g * 1e-3 / AVOGADRO
    return math.sqrt(2.0 * BOLTZMANN * temperature / mass) / wavelength


def harmonics(fsr: float, sigma: float, hwhm: float) -> np.ndarray:
    """Coefficients c_1, c_2, ... down to the first one below TERM_FLOOR."""
    coefficients = []
    k = 1
    while True:
        x = k / fsr
        c = math.exp(-2.0 * math.pi ** 2 * sigma ** 2 * x ** 2 - 2.0 * math.pi * hwhm * x)
        if c < TERM_FLOOR:
            return np.array(coefficients)
        coefficients.append(c)
        k += 1


def comb(detunings: np.ndarray, fsr: float, hwhm: float,
         lines: list[tuple[float, float]]) -> np.ndarray:
    """Weighted comb sum at ``detunings`` for lines of (strength, sigma).

    Equal to sum over lines of strength * pi * hwhm * sum_n V(nu - n F),
    the unnormalized cavity-scan signal.
    """
    nu = np.asarray(detunings, dtype=float)
    total = np.zeros_like(nu)
    phase = 2.0 * math.pi * nu / fsr
    for strength, sigma in lines:
        c = harmonics(fsr, sigma, hwhm)
        k = np.arange(1, len(c) + 1)
        # an elementwise sum, not a matrix product: BLAS worker threads
        # would keep spinning on the second core while the next op runs
        series = 1.0 + 2.0 * (np.cos(np.outer(phase, k)) * c).sum(axis=1)
        total += strength * math.pi * hwhm / fsr * series
    return total

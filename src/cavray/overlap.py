"""Dipole/cavity mode overlap and the Purcell-factor equivalence.

The far-field emission pattern of a dipole oriented perpendicular to the
cavity axis is projected onto the fundamental Gaussian mode. Both mode
functions are scalar and intensity-normalized: the dipole over the full
sphere in latitude coordinates, the Gaussian over any transverse plane.
The resulting overlap fixes the fraction of dipole radiation captured by
the cavity-defined mode, and ``purcell_ratio``, the interference model's
cavity-to-dipole power ratio, equals the standard Purcell factor.

``overlap_eta_numeric(wavelength, waist, z)``, which ``cavray overlap``
runs, is the closed form of the overlap integral on the plane at z with
the dipole field taken at its axial value; the mode's width there is
``optics.beam_width``. Every function here is a closed form in ``math``.
The Gaussian mode function, with its normalization, the quadratures of
the overlap and of both mode normalizations, and the free-space dipole
mode power that the ratio derives from, are oracles in ``validation``.
"""

from __future__ import annotations

import math

from .optics import beam_width

# intensity normalization over the sphere: integral of cos^3 is 4/3
DIPOLE_PREFACTOR = math.sqrt(3.0 / (8.0 * math.pi))


def overlap_eta_analytic(wavelength: float, waist: float) -> float:
    """Far-field dipole/Gaussian overlap in one direction, sqrt(3)/(2 pi) * lambda/w0."""
    if wavelength <= 0.0 or waist <= 0.0:
        raise ValueError("wavelength and waist must be positive")
    return math.sqrt(3.0) / (2.0 * math.pi) * wavelength / waist


def overlap_eta_numeric(wavelength: float, waist: float, z: float) -> float:
    """Overlap integral evaluated on the transverse plane at distance z.

    The plane must be in the far field (z >> z0) for the result to approach
    the analytic limit. The dipole field is taken at its axial value, which
    is accurate to a relative (w(z)/z)^2 against the full cos(latitude)/r
    dependence across the plane.

    2 pi (P/z) exp(-r^2/w^2) r / N(z) over r < 8 w(z), P the dipole
    prefactor, integrates to P sqrt(2 pi) w(z)/z times 1 - e^-64, which is 1
    in float64; the ratio to the analytic limit is sqrt(1 + (z0/z)^2).
    """
    if z <= 0.0:
        raise ValueError(f"evaluation plane must be at z > 0, got {z}")
    return (DIPOLE_PREFACTOR * math.sqrt(2.0 * math.pi)
            * beam_width(waist, wavelength, z) / z)


def purcell_ratio(finesse: float, wavelength: float, waist: float) -> float:
    """Cavity-to-dipole power ratio for a maximally coupled particle.

    (6/pi^2) * (lambda/w0)^2 * F/pi, from the interference-model budget.
    """
    if finesse <= 0.0:
        raise ValueError(f"finesse must be positive, got {finesse}")
    if wavelength <= 0.0 or waist <= 0.0:
        raise ValueError(f"wavelength and waist must be positive, got {wavelength}, {waist}")
    return 6.0 / math.pi ** 2 * (wavelength / waist) ** 2 * finesse / math.pi


def purcell_factor(q_factor: float, wavelength: float, mode_volume: float) -> float:
    """Purcell factor in its common form, (3 / 4 pi^2) * Q * lambda^3 / V.

    With Q = 2 d F / lambda and V = pi w0^2 d / 4 this is identical to
    purcell_ratio for every mirror separation.
    """
    if q_factor <= 0.0 or mode_volume <= 0.0:
        raise ValueError("Q and mode volume must be positive")
    return 3.0 / (4.0 * math.pi ** 2) * q_factor * wavelength ** 3 / mode_volume

"""Fabry-Perot resonator geometry and derived quantities, in SI units.

A mirror is its intensity reflectivity R, a float in [0, 1). Mirrors are
modeled as lossless (R + T = 1); absorption in real coatings makes
measured finesse fall short of the lossless prediction, which is
documented rather than compensated. ``cavray.cli`` passes a config's
``cavity.*`` keys here as plain floats. The Gaussian mode of waist w0 is
``rayleigh_length`` z0 and ``beam_width`` w(z); its intensity normalization
is part of the mode function of ``cavray.validation``, its one reader.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import BOLTZMANN, SPEED_OF_LIGHT


class CavityParams(namedtuple("CavityParams", "finesse free_spectral_range linewidth "
                              "q_factor waist rayleigh_length transverse_mode_spacing "
                              "mode_volume")):
    """All derived resonator quantities for one cavity at one wavelength: the
    ``finesse``, ``free_spectral_range`` in Hz, ``linewidth`` (FWHM) in Hz,
    ``q_factor``, ``waist`` and ``rayleigh_length`` in m,
    ``transverse_mode_spacing`` in Hz and ``mode_volume`` in m^3."""

    __slots__ = ()


def _check_stable(d: float, rc: float) -> None:
    """A ValueError naming the ``cavity.*`` keys unless 0 < d < 2 Rc, where
    a symmetric two-mirror cavity has a Gaussian eigenmode."""
    if not 0.0 < d < 2.0 * rc:
        raise ValueError(f"unstable geometry: cavity.separation must be in "
                         f"(0, 2 * cavity.curvature), got d={d}, Rc={rc}")


def _check_reflectivity(reflectivity: float) -> None:
    """A ValueError unless 0 <= R < 1, NaN included: a lossless mirror of
    R = 1 would trap the light, and R < 0 or R > 1 is no mirror."""
    if not 0.0 <= reflectivity < 1.0:
        raise ValueError(f"intensity reflectivity must be in [0, 1), got {reflectivity}")


def _buildup_finesse(left_reflectivity: float, right_reflectivity: float) -> float:
    """The finesse of a mirror pair, or a ValueError naming the
    ``cavity.*`` mirror keys if a mirror of reflectivity 0 gives none."""
    f = finesse(left_reflectivity, right_reflectivity)
    if f <= 0.0:
        raise ValueError("finesse is zero: cavity.left_reflectivity or "
                         "cavity.right_reflectivity is 0, so nothing builds up")
    return f


def finesse(left_reflectivity: float, right_reflectivity: float) -> float:
    """Cavity finesse pi*(R1*R2)^(1/4) / (1 - sqrt(R1*R2)), exact form.

    Decreases monotonically with either mirror's transmission 1 - R.
    Raises unless each intensity reflectivity is in [0, 1).
    """
    _check_reflectivity(left_reflectivity)
    _check_reflectivity(right_reflectivity)
    product = left_reflectivity * right_reflectivity
    return math.pi * product ** 0.25 / (1.0 - math.sqrt(product))


def free_spectral_range(mirror_separation: float) -> float:
    """Longitudinal mode spacing c/(2d) in Hz."""
    if mirror_separation <= 0.0:
        raise ValueError(f"mirror separation must be positive, got {mirror_separation}")
    return SPEED_OF_LIGHT / (2.0 * mirror_separation)


def symmetric_waist(mirror_separation: float, radius_of_curvature: float,
                    wavelength: float) -> float:
    """Fundamental-mode waist of a symmetric two-mirror cavity.

    w0^2 = (lambda / 2 pi) * sqrt(d * (2 Rc - d))
    """
    d, rc = mirror_separation, radius_of_curvature
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    _check_stable(d, rc)
    w0_sq = (wavelength / (2.0 * math.pi)) * math.sqrt(d * (2.0 * rc - d))
    return math.sqrt(w0_sq)


def transverse_mode_spacing(mirror_separation: float,
                            radius_of_curvature: float) -> float:
    """Frequency spacing of adjacent transverse modes, FSR*arccos(sqrt(g1 g2))/pi.

    With g = 1 - d/Rc < 0 (d > Rc) this is FSR*arccos(|g|)/pi, the spacing
    FSR*arccos(g)/pi mod FSR with its sign flipped; the ABCD Gouy-phase
    oracle in ``validation`` gives the same.
    """
    d, rc = mirror_separation, radius_of_curvature
    _check_stable(d, rc)
    g = 1.0 - d / rc
    return free_spectral_range(d) * math.acos(math.sqrt(g * g)) / math.pi


def rayleigh_length(waist: float, wavelength: float) -> float:
    """z0 = pi*w0^2/lambda in m."""
    return math.pi * waist ** 2 / wavelength


def beam_width(waist: float, wavelength: float, z: float) -> float:
    """Gaussian beam width w(z) = w0 * sqrt(1 + (z/z0)^2) in m, z from the waist."""
    return waist * math.sqrt(1.0 + (z / rayleigh_length(waist, wavelength)) ** 2)


def q_factor(mirror_separation: float, finesse: float, wavelength: float) -> float:
    """Quality factor of a Fabry-Perot cavity, Q = 2*d*F/lambda."""
    return 2.0 * mirror_separation * finesse / wavelength


def mode_volume(waist: float, mirror_separation: float) -> float:
    """Fundamental-mode volume of a Fabry-Perot cavity, pi*w0^2*d/4."""
    return math.pi * waist ** 2 * mirror_separation / 4.0


def derive_cavity_params(mirror_separation: float, radius_of_curvature: float,
                         left_reflectivity: float, right_reflectivity: float,
                         wavelength: float) -> CavityParams:
    """Populate every derived resonator quantity of a symmetric two-mirror
    cavity, its mirrors given by their intensity reflectivities, for one
    wavelength. An unstable geometry is reported ahead of a zero finesse.

    Satisfies linewidth*finesse = FSR and Q*lambda = 2*d*finesse exactly.
    """
    d, rc = mirror_separation, radius_of_curvature
    _check_stable(d, rc)
    f = _buildup_finesse(left_reflectivity, right_reflectivity)
    fsr = free_spectral_range(d)
    w0 = symmetric_waist(d, rc, wavelength)
    return CavityParams(
        finesse=f,
        free_spectral_range=fsr,
        linewidth=fsr / f,
        q_factor=q_factor(d, f, wavelength),
        waist=w0,
        rayleigh_length=rayleigh_length(w0, wavelength),
        transverse_mode_spacing=transverse_mode_spacing(d, rc),
        mode_volume=mode_volume(w0, d),
    )


def number_density(pressure: float, temperature: float) -> float:
    """Ideal-gas number density p/(kB*T) in 1/m^3."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if pressure < 0.0:
        raise ValueError(f"pressure must be nonnegative, got {pressure}")
    return pressure / (BOLTZMANN * temperature)

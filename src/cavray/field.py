"""Intracavity field built up by interference of scattered waves.

A weak scatterer, a classical driven dipole, emits into both travel
directions of the cavity; the right-traveling field at the scatterer
follows from summing all round trips. The scatterer enters as keyword
arguments. Intensities and powers are expressed in units of the pump
(``amplitude**2 * pump``); the fixed mode-area reference that converts
between the two cancels in every reported ratio and is set to 1.

Every function here is a closed form in ``math`` and ``cmath``, so the
reports that import this module load nothing outside the standard
library; the round-trip summation and position-average quadrature that
check them live in ``validation``.
"""

from __future__ import annotations

import cmath
import math
from typing import Literal

from .records import record


@record
class PowerBudget:
    """Scattered intensities/powers of the resonant high-finesse chain (W)."""

    right_traveling_intensity: float
    transmitted_power: float        # through one mirror of a symmetric cavity
    cavity_power: float             # both mirrors combined
    free_space_one_way_power: float  # same mode, one direction, no cavity
    free_space_mode_power: float    # same mode, both directions, no cavity


def _check_feedback(r1: float, r2: float) -> None:
    if r1 * r2 >= 1.0:
        raise ValueError(
            f"round-trip amplitude gain r1*r2 must be < 1, got {r1 * r2}: "
            "field diverges"
        )


def _source_and_feedback(r1: float, r2: float, mirror_separation: float, *,
                         amplitude: float, pump_field: float, wavenumber: float,
                         displacement: float) -> tuple[complex, complex]:
    """Directly scattered plus once-reflected source term, and the
    round-trip feedback factor; shared by the closed form and the
    summation so the two routes differ only in how the series is summed."""
    k, d, dz = wavenumber, mirror_separation, displacement
    source = amplitude * pump_field * (
        1.0 + r1 * cmath.exp(1j * k * d) * cmath.exp(2j * k * dz)
    )
    feedback = r1 * r2 * cmath.exp(2j * k * d)
    return source, feedback


def intracavity_field(r1: float, r2: float, mirror_separation: float, *,
                      amplitude: float, pump_field: float, wavenumber: float,
                      displacement: float = 0.0) -> complex:
    """Closed-form right-traveling field at the scatterer, in pump-field units.

    E = a*Ep * (1 + r1*exp(i*k*d)*exp(2i*k*dz)) / (1 - r1*r2*exp(2i*k*d))

    The scatterer's ``amplitude`` a is dimensionless and << 1, ``pump_field``
    Ep is in arbitrary field units and ``wavenumber`` k in rad/m; its offset
    dz from the cavity centre (``displacement``, m) stays within +-lambda/2
    when it feeds a position average.

    This is the exact solution of the one-round-trip recursion; r1*r2 >= 1
    raises.
    """
    _check_feedback(r1, r2)
    source, feedback = _source_and_feedback(r1, r2, mirror_separation, amplitude=amplitude,
                                            pump_field=pump_field, wavenumber=wavenumber,
                                            displacement=displacement)
    return source / (1.0 - feedback)


def position_averaged_intensity(amplitude: float, pump_intensity: float,
                                r1: float, r2: float) -> float:
    """Right-traveling intensity averaged over scatterer positions, on resonance.

    I = a^2 * Ip * (1 + r1^2) / (1 - r1*r2)^2

    The average over one wavelength of displacement keeps only the
    incoherent 1 + r1^2 term; note the intentional asymmetry between the
    mirrors (only r1, the mirror behind the scattered left-going wave,
    appears in the numerator).
    """
    _check_feedback(r1, r2)
    return amplitude ** 2 * pump_intensity * (1.0 + r1 ** 2) / (1.0 - r1 * r2) ** 2


def outcoupling_share(t1: float, t2: float) -> float:
    """Share T2/(T1+T2) of the cavity's scattered power that leaves through
    the right mirror, for mirror intensity transmissions T1 and T2."""
    if t1 + t2 <= 0.0:
        raise ValueError(f"T1 + T2 must be positive, got {t1 + t2}")
    return t2 / (t1 + t2)


def transmitted_power(amplitude: float, pump_power: float, t1: float, t2: float,
                      finesse: float) -> float:
    """Scattered power leaving through the right mirror (high-finesse limit).

    P_t = 4 * T2/(T1+T2) * a^2 * Pp * F/pi, which reduces to
    2 * a^2 * Pp * F/pi for a symmetric cavity.
    """
    return 4.0 * outcoupling_share(t1, t2) * amplitude ** 2 * pump_power * finesse / math.pi


Coupling = Literal["averaged", "antinode"]


def cavity_power_budget(amplitude: float, pump_power: float, finesse: float,
                        coupling: Coupling = "averaged") -> PowerBudget:
    """Assemble the resonant scattered-power budget for a symmetric cavity.

    "averaged" takes the position average over scatterer locations;
    "antinode" places the particle at a field maximum, doubling the
    scattered power. The free-space entries describe the same cavity-defined
    mode without mirrors: a^2*Pp per direction.
    """
    if finesse <= 0.0:
        raise ValueError(f"finesse must be positive, got {finesse}")
    if coupling not in ("averaged", "antinode"):
        raise ValueError(f"coupling must be 'averaged' or 'antinode', got {coupling!r}")
    base = amplitude ** 2 * pump_power
    position_factor = 2.0 if coupling == "antinode" else 1.0
    cavity_power = position_factor * 4.0 * base * finesse / math.pi
    return PowerBudget(
        right_traveling_intensity=position_factor * 2.0 * base * (finesse / math.pi) ** 2,
        transmitted_power=cavity_power / 2.0,
        cavity_power=cavity_power,
        free_space_one_way_power=base,
        free_space_mode_power=2.0 * base,
    )

"""Intracavity field built up by interference of scattered waves.

A weak scatterer (proportionality factor ``amplitude``, assumed << 1)
driven by a side pump emits into both travel directions of the cavity;
the right-traveling field at the scatterer follows from summing all
round trips. Intensities and powers are expressed in units of the pump
(``amplitude**2 * pump``); the fixed mode-area reference that converts
between the two cancels in every reported ratio and is set to 1.

The closed forms need ``math`` alone, so the reports that import this
module load no other; the summation and quadrature oracles import
``cmath`` (and numpy) inside themselves.
"""

from __future__ import annotations

import functools
import math
from typing import Literal

from .records import record


@record
class ScatterConfig:
    """Scatterer and drive parameters for the interference model.

    displacement is the scatterer's offset from the cavity centre; keep it
    within [-lambda/2, lambda/2] when it feeds a position average.
    """

    amplitude: float          # dimensionless scattering proportionality factor
    pump_field: float         # pump field amplitude, arbitrary field units
    wavenumber: float         # rad/m
    displacement: float = 0.0  # m


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


def _source_and_feedback(cfg: ScatterConfig, r1: float, r2: float,
                         mirror_separation: float) -> tuple[complex, complex]:
    """Directly scattered plus once-reflected source term, and the
    round-trip feedback factor; shared by the closed form and the
    summation so the two routes differ only in how the series is summed."""
    import cmath

    k, d, dz = cfg.wavenumber, mirror_separation, cfg.displacement
    source = cfg.amplitude * cfg.pump_field * (
        1.0 + r1 * cmath.exp(1j * k * d) * cmath.exp(2j * k * dz)
    )
    feedback = r1 * r2 * cmath.exp(2j * k * d)
    return source, feedback


def intracavity_field(cfg: ScatterConfig, r1: float, r2: float,
                      mirror_separation: float) -> complex:
    """Closed-form right-traveling field at the scatterer, in pump-field units.

    E = a*Ep * (1 + r1*exp(i*k*d)*exp(2i*k*dz)) / (1 - r1*r2*exp(2i*k*d))

    This is the exact solution of the one-round-trip recursion; r1*r2 >= 1
    raises.
    """
    _check_feedback(r1, r2)
    source, feedback = _source_and_feedback(cfg, r1, r2, mirror_separation)
    return source / (1.0 - feedback)


def roundtrip_field_sum(cfg: ScatterConfig, r1: float, r2: float,
                        mirror_separation: float, n_roundtrips: int) -> complex:
    """Field after n round trips: the n + 1 terms source * feedback**j of
    the round-trip recursion field = source + feedback * field.

    Serves as the summation cross-check for the closed form; the truncation
    error is bounded by |r1*r2|**n / (1 - |r1*r2|) in source-term units.
    r1*r2 >= 1 raises, as the closed form does. The sum itself,
    ``_iterate_roundtrips``, takes numpy arrays of sources and feedbacks as
    well as complex scalars, so an oracle can sum many scatterers at once
    with this same code.
    """
    if n_roundtrips < 0:
        raise ValueError(f"n_roundtrips must be >= 0, got {n_roundtrips}")
    _check_feedback(r1, r2)
    source, feedback = _source_and_feedback(cfg, r1, r2, mirror_separation)
    return _iterate_roundtrips(source, feedback, n_roundtrips)


def _iterate_roundtrips(source, feedback, n_roundtrips: int):
    """sum of source * feedback**j for j = 0..n, by binary doubling.

    With S_m the sum of the first m terms, S_2m = S_m + feedback**m * S_m
    and S_(m+1) = S_m + feedback**m * source; walking the bits of n + 1
    from the top takes about 2*log2(n + 1) steps in place of the n steps of
    the recursion, and never divides by 1 - feedback, so it stays a route
    to the closed form independent of it. Elementwise on arrays: each
    element takes the scalar's steps, up to the few ulp numpy's fused
    complex multiply-adds may move a sum by.
    """
    field, power = source, feedback  # S_1 and feedback**1
    for bit in bin(n_roundtrips + 1)[3:]:
        field = field + power * field
        power = power * power
        if bit == "1":
            field = field + power * source
            power = power * feedback
    return field


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


def position_averaged_intensity_numeric(amplitude: float, pump_field: float,
                                        wavenumber: float, r1: float, r2: float,
                                        mirror_separation: float,
                                        n_points: int = 10_000) -> float:
    """Average |E|^2 over uniformly sampled displacements in one wavelength.

    Quadrature cross-check for the closed-form position average; with the
    cavity on resonance the midpoint rule over full phase periods is exact
    to machine precision for any n_points >= 4.

    The midpoints dz_i = ((i + 1/2)/n - 1/2) * lambda span one wavelength,
    so the displacement phase 2*k*dz_i = 4*pi*(i + 1/2)/n - 2*pi is the
    same for every k: the samples of exp(2i*k*dz) are one grid on the unit
    circle per n_points, computed once (``_displacement_phases``).
    """
    import cmath

    import numpy as np

    _check_feedback(r1, r2)
    numerator = 1.0 + r1 * cmath.exp(1j * wavenumber * mirror_separation) * (
        _displacement_phases(n_points))
    denominator = 1.0 - r1 * r2 * cmath.exp(2j * wavenumber * mirror_separation)
    field = (amplitude * pump_field / denominator) * numerator
    return float(np.mean(field.real ** 2 + field.imag ** 2))


@functools.lru_cache(maxsize=4)
def _displacement_phases(n_points: int):
    """exp(4*pi*i*(j + 1/2)/n) for j < n, as a read-only array."""
    import numpy as np

    phases = np.exp(4j * math.pi * ((np.arange(n_points) + 0.5) / n_points))
    phases.flags.writeable = False
    return phases


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

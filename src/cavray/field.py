"""Scattered power that leaves the cavity, from interference of scattered waves.

A weak scatterer, a classical driven dipole, emits into both travel
directions of the cavity; summing all round trips of the scattered waves
and averaging over the scatterer's position gives, in the high-finesse
limit, 2F/pi times the one-way free-space power through each mirror of a
symmetric cavity. ``transmitted_power`` is that result, the one the
reports run. The derivation itself (the intracavity field, its round-trip
sum, its position average and the antinode factor) is the oracle that
checks it and lives in ``validation``.
"""

from __future__ import annotations

import math


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
    2 * a^2 * Pp * F/pi for a symmetric cavity, in the unit of ``pump_power``;
    the scatterer's ``amplitude`` a is dimensionless and << 1.
    """
    return 4.0 * outcoupling_share(t1, t2) * amplitude ** 2 * pump_power * finesse / math.pi

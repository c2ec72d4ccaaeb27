"""Enhancement reports and forecasts from measured cavity signals.

Absolute powers always flow from a measured anchor; the dimensionless
scattering amplitude is never modeled microscopically, so every absolute
prediction is a rescaling of an observed signal. Every function takes
plain SI values; ``cavray.cli`` reads them from a config.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .constants import PLANCK, SPEED_OF_LIGHT
from .field import outcoupling_share, transmitted_power
from .gases import GasSpecies
from .optics import _check_reflectivity, number_density
from .overlap import purcell_ratio

# the target's polarizability over the reference's when a forecast gives none
POLARIZABILITY_FACTOR = 10.0


def _check_measurement(prefix: str, power: float, overlap: float) -> None:
    """A measured signal needs power > 0 and overlap in (0, 1]; errors name
    the config keys ``<prefix>.measured_power`` and ``<prefix>.spectral_overlap``."""
    if power <= 0.0:
        raise ValueError(f"{prefix}.measured_power must be positive, got {power}")
    if not 0.0 < overlap <= 1.0:
        raise ValueError(f"{prefix}.spectral_overlap must be in (0, 1], got {overlap}")


def photon_rate(power: float, wavelength: float) -> float:
    """Photons per second carried by ``power`` at ``wavelength``."""
    if power < 0.0 or wavelength <= 0.0:
        raise ValueError("power must be nonnegative and wavelength positive")
    return power * wavelength / (PLANCK * SPEED_OF_LIGHT)


def interaction_volume(cavity_waist: float, pump_waist: float) -> float:
    """Effective volume of two crossed Gaussian beams, pi^(3/2) wc^2 wp / 2."""
    return math.pi ** 1.5 * cavity_waist ** 2 * pump_waist / 2.0


def contributing_particles(density: float, pump_waist: float,
                           cavity_waist: float, spectral_overlap: float) -> float:
    """Number of particles that actually feed the cavity signal.

    Particles inside the crossed-beam volume, thinned by the spectral
    overlap that selects the velocity classes the cavity accepts.
    """
    if density < 0.0 or pump_waist <= 0.0 or cavity_waist <= 0.0:
        raise ValueError("density must be nonnegative and waists positive")
    if not 0.0 < spectral_overlap <= 1.0:
        raise ValueError(f"overlap must be in (0, 1], got {spectral_overlap}")
    return density * interaction_volume(cavity_waist, pump_waist) * spectral_overlap


def free_space_backout(measured_cavity_power: float, spectral_overlap: float,
                       pairing: tuple[float, float, float]) -> float:
    """Free-space power implied by a cavity signal measured on ``pairing``,
    a (finesse, left_reflectivity, right_reflectivity) triple.

    Inverts the detectable-power chain: division by the spectral overlap
    (absent without a cavity) and by the single-mirror enhancement
    ``field.transmitted_power`` per unit of free-space power,
    4 * T2/(T1+T2) * F / pi, which is 2F/pi for symmetric mirrors. The
    mirrors are taken as lossless, T = 1 - R, and the finesse as measured:
    one above the pair's lossless finesse is not rejected (ROADMAP item 13).
    """
    finesse, left, right = pairing
    _check_reflectivity(left)
    _check_reflectivity(right)
    if measured_cavity_power < 0.0:
        raise ValueError("measured power must be nonnegative")
    if finesse <= 0.0:
        raise ValueError(f"finesse must be positive, got {finesse}")
    if not 0.0 < spectral_overlap <= 1.0:
        raise ValueError(f"overlap must be in (0, 1], got {spectral_overlap}")
    enhancement = transmitted_power(1.0, 1.0, 1.0 - left, 1.0 - right, finesse)
    return measured_cavity_power / (enhancement * spectral_overlap)


class FinesseEntry(namedtuple("FinesseEntry", "finesse outcoupling_share measured_power_W "
                              "spectral_overlap at_rest_power_W relative_measured "
                              "predicted_relative predicted_relative_symmetric")):
    """One row of an enhancement report. ``predicted_relative`` carries the
    T2/(T1+T2) asymmetry factor; ``predicted_relative_symmetric`` is the
    plain F/F_max normalization."""

    __slots__ = ()


class EnhancementReport(namedtuple("EnhancementReport", "entries free_space_backout_W "
                                   "free_space_measured_W enhancement_factor")):
    """Cavity-vs-free-space comparison across mirror pairings: its ``entries``
    are a tuple of ``FinesseEntry``; ``free_space_measured_W`` and
    ``enhancement_factor`` are None without a free-space measurement."""

    __slots__ = ()


def build_enhancement_report(left_reflectivity: float,
                             pairings: Sequence[tuple[float, float, float, float]],
                             free_space_measured: float | None = None,
                             comparison_power: float | None = None) -> EnhancementReport:
    """Assemble the per-finesse comparison and the free-space back-out.

    Every pairing shares the left mirror of ``left_reflectivity``; each is a
    (finesse, right_reflectivity, measured_power, spectral_overlap) row. Its
    ``outcoupling_share`` and ``predicted_relative`` take the mirrors as
    lossless, T = 1 - R, and its finesse as measured: one above the pair's
    lossless finesse is not rejected (ROADMAP item 13).

    The measured normalization uses the highest-finesse entry as the
    reference. comparison_power, when the free-space comparison was taken
    with its own cavity measurement, feeds the back-out and enhancement
    factor instead of that entry's power.
    """
    if comparison_power is not None and comparison_power <= 0.0:
        raise ValueError(f"enhance.comparison_power must be positive, got {comparison_power}")
    if not pairings:
        raise ValueError("at least one mirror pairing is required")
    _check_reflectivity(left_reflectivity)
    # per row: at-rest power, outcoupling share and the detectable signal,
    # which scales as F * T2/(T1+T2)
    derived = []
    for i, (f, right, power, overlap) in enumerate(pairings, start=1):
        _check_measurement(f"enhance.pairing{i}", power, overlap)
        if f <= 0.0:
            raise ValueError(f"finesse must be positive, got {f}")
        _check_reflectivity(right)
        share = outcoupling_share(1.0 - left_reflectivity, 1.0 - right)
        derived.append((power / overlap, share, f * share))
    ref_index = max(range(len(pairings)), key=lambda i: pairings[i][0])
    max_finesse, ref_right, ref_power, ref_overlap = pairings[ref_index]
    ref_at_rest, _, ref_signal = derived[ref_index]
    entries = tuple(FinesseEntry(
        finesse=f, outcoupling_share=share, measured_power_W=power,
        spectral_overlap=overlap, at_rest_power_W=at_rest,
        relative_measured=at_rest / ref_at_rest, predicted_relative=signal / ref_signal,
        predicted_relative_symmetric=f / max_finesse)
        for (f, _, power, overlap), (at_rest, share, signal) in zip(pairings, derived))
    if comparison_power is None:
        comparison_power = ref_power
    backout = free_space_backout(comparison_power, ref_overlap,
                                 (max_finesse, left_reflectivity, ref_right))
    factor = None
    if free_space_measured is not None:
        if free_space_measured <= 0.0:
            raise ValueError("free-space measurement must be positive")
        factor = comparison_power / free_space_measured
    return EnhancementReport(entries, backout, free_space_measured, factor)


class ForecastReport(namedtuple("ForecastReport", "n_molecules target_finesse "
                                "per_molecule_in_cavity_rate_Hz ensemble_rate_Hz "
                                "per_molecule_total_rate_Hz cavity_free_space_ratio")):
    """Projected detection rates for a trapped ultracold sample.
    ``ensemble_rate_Hz`` is the in-cavity rate of the whole sample,
    ``per_molecule_total_rate_Hz`` counts the cavity and free-space channels,
    and ``cavity_free_space_ratio`` is the Purcell factor 2C at the target
    finesse."""

    __slots__ = ()


def ultracold_target_species(reference: GasSpecies,
                             polarizability_factor: float = POLARIZABILITY_FACTOR
                             ) -> GasSpecies:
    """The reference's table row with a scaled-up polarizability (default 10x)."""
    return GasSpecies(name="ultracold-dimer", molar_mass=reference.molar_mass,
                      polarizability=polarizability_factor * reference.polarizability)


def ultracold_forecast(target: GasSpecies, n_molecules: float, target_finesse: float, *,
                       gas: GasSpecies, temperature: float, pressure: float,
                       wavelength: float, pump_waist: float, cavity_waist: float,
                       measured_power: float, anchor_finesse: float,
                       spectral_overlap: float) -> ForecastReport:
    """Scale a measured thermal-gas anchor to a trapped ultracold sample.

    The anchor, in SI units: ``gas`` at ``pressure`` and the sample
    ``temperature``, which set its number density, pumped at ``wavelength``
    by a beam of waist ``pump_waist`` across a cavity mode of waist
    ``cavity_waist``, gave ``measured_power`` through one mirror at
    ``anchor_finesse`` and ``spectral_overlap``. Its detected photon rate
    (both mirrors) divided by its contributing-particle count gives a
    per-particle rate, which is scaled by the polarizability-squared cross
    section, linearly by the finesse, and freed of the Doppler overlap
    penalty (trapped molecules scatter entirely within the cavity
    acceptance). The total per-molecule rate adds the free-space channel
    through the Purcell power ratio. An error names the input's config key.
    """
    _check_measurement("anchor", measured_power, spectral_overlap)
    for key, value in [("anchor.finesse", anchor_finesse), ("pump.wavelength", wavelength),
                       ("pump.waist", pump_waist),
                       ("forecast.target_finesse", target_finesse)]:
        if value <= 0.0:
            raise ValueError(f"{key} must be positive, got {value}")
    if n_molecules < 0.0:
        raise ValueError(f"forecast.n_molecules must be nonnegative, got {n_molecules}")
    if pressure <= 0.0:
        # no particles would carry the anchor signal
        raise ValueError(f"gas.pressure must be positive for a forecast, "
                         f"got {pressure} Pa")
    density = number_density(pressure, temperature)
    n_contributing = contributing_particles(density, pump_waist, cavity_waist,
                                            spectral_overlap)
    # symmetric cavity: the same power leaves through the second mirror
    anchor_rate_both = 2.0 * photon_rate(measured_power, wavelength)
    per_particle = anchor_rate_both / n_contributing
    in_cavity = (per_particle
                 * (target.polarizability / gas.polarizability) ** 2
                 * (target_finesse / anchor_finesse)
                 / spectral_overlap)
    ratio = purcell_ratio(target_finesse, wavelength, cavity_waist)
    ensemble = in_cavity * n_molecules
    total = in_cavity * (1.0 + 1.0 / ratio)
    # each input lies in the parse window, but their product need not
    if not all(map(math.isfinite, (in_cavity, ensemble, total))):
        raise ValueError(
            f"forecast rates are not finite (in-cavity {in_cavity}, ensemble "
            f"{ensemble}, total {total} Hz): the product of anchor.measured_power, "
            "anchor.finesse, anchor.spectral_overlap, gas.pressure, "
            "gas.temperature, pump.wavelength, pump.waist, cavity.waist, "
            "forecast.target_finesse, forecast.polarizability_factor and "
            "forecast.n_molecules leaves the range of a double"
        )
    return ForecastReport(
        n_molecules=n_molecules,
        target_finesse=target_finesse,
        per_molecule_in_cavity_rate_Hz=in_cavity,
        ensemble_rate_Hz=ensemble,
        per_molecule_total_rate_Hz=total,
        cavity_free_space_ratio=ratio,
    )

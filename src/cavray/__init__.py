"""Classical wave-interference model of cavity-enhanced Rayleigh scattering.

A polarizable particle pumped from the side scatters light into a
Fabry-Perot cavity; interference of the scattered waves over many round
trips enhances the detectable power by 2F/pi per mirror and the power
scattered into the mode by 4F/pi. Projecting the free-space dipole
emission onto the cavity's Gaussian mode reproduces the standard Purcell
factor exactly, and a Doppler-broadened signal chain connects the model
to measurable thermal-gas spectra and ultracold-sample forecasts.
"""

from .constants import (ATOMIC_UNIT_POLARIZABILITY_A3, AVOGADRO, BOLTZMANN,
                        PLANCK, SPEED_OF_LIGHT)
from .errors import ConfigError, ConvergenceError
from .experiment import (AnchorMeasurement, EnhancementReport, ForecastReport,
                         ScenarioConfig, build_enhancement_report,
                         contributing_particles, finesse_dependence,
                         free_space_backout, interaction_volume, photon_rate,
                         ultracold_forecast, ultracold_target_species)
from .field import (PowerBudget, ScatterConfig, cavity_power_budget,
                    high_finesse_intensity, intracavity_field,
                    position_averaged_intensity,
                    position_averaged_intensity_numeric, roundtrip_field_sum,
                    transmitted_power)
from .gases import (GasSpecies, atomic_units_to_cubic_angstrom, builtin_species,
                    load_species_table)
from .optics import (CavityGeometry, CavityParams, MirrorSpec, PumpBeam,
                     abcd_roundtrip_mode_spacing, abcd_roundtrip_waist,
                     derive_cavity_params, finesse, free_spectral_range,
                     mode_volume, number_density, rayleigh_length,
                     symmetric_waist, transverse_mode_spacing)
from .overlap import (GaussianMode, cavity_mode_fraction,
                      dipole_mode_power, dipole_normalization,
                      gaussian_normalization, overlap_eta_analytic,
                      overlap_eta_numeric, purcell_factor, purcell_ratio)

__version__ = "0.1.0"

# the numpy-backed names resolve on first use (PEP 562), so ``import
# cavray`` and the closed-form reports load only the standard library
_SPECTRA_NAMES = (
    "SpectralProfile", "SpectrumTrace", "at_rest_power", "doppler_fwhm",
    "doppler_fwhm_monte_carlo", "polarization_signal", "scan_spectrum",
    "species_ratio", "spectral_overlap",
)

__all__ = [
    "ATOMIC_UNIT_POLARIZABILITY_A3", "AVOGADRO", "BOLTZMANN", "PLANCK",
    "SPEED_OF_LIGHT",
    "ConfigError", "ConvergenceError",
    "AnchorMeasurement", "EnhancementReport", "ForecastReport",
    "ScenarioConfig", "build_enhancement_report", "contributing_particles",
    "finesse_dependence", "free_space_backout", "interaction_volume",
    "photon_rate", "ultracold_forecast", "ultracold_target_species",
    "PowerBudget", "ScatterConfig", "cavity_power_budget",
    "high_finesse_intensity", "intracavity_field",
    "position_averaged_intensity", "position_averaged_intensity_numeric",
    "roundtrip_field_sum", "transmitted_power",
    "GasSpecies", "atomic_units_to_cubic_angstrom", "builtin_species",
    "load_species_table",
    "CavityGeometry", "CavityParams", "MirrorSpec", "PumpBeam",
    "abcd_roundtrip_mode_spacing", "abcd_roundtrip_waist",
    "derive_cavity_params", "finesse", "free_spectral_range", "mode_volume",
    "number_density", "rayleigh_length", "symmetric_waist",
    "transverse_mode_spacing",
    "GaussianMode", "cavity_mode_fraction", "dipole_mode_power",
    "dipole_normalization", "gaussian_normalization", "overlap_eta_analytic",
    "overlap_eta_numeric", "purcell_factor", "purcell_ratio",
    *_SPECTRA_NAMES,
]


def __getattr__(name: str):
    if name in _SPECTRA_NAMES:
        from . import spectra

        return getattr(spectra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Classical wave-interference model of cavity-enhanced Rayleigh scattering.

A polarizable particle pumped from the side scatters light into a
Fabry-Perot cavity; interference of the scattered waves over many round
trips enhances the detectable power by 2F/pi per mirror and the power
scattered into the mode by 4F/pi. Projecting the free-space dipole
emission onto the cavity's Gaussian mode reproduces the standard Purcell
factor exactly, and a Doppler-broadened signal chain connects the model
to measurable thermal-gas spectra and ultracold-sample forecasts.
"""

import importlib

__version__ = "0.1.0"

# Every public name resolves on first use (PEP 562) from the submodule
# named here, so ``import cavray`` loads no computing module and a report
# only the modules it uses. Only ``spectra`` of these imports numpy. The
# oracles that check the closed forms, the 2F/pi derivation and the
# dipole-mode power among them, are private to ``cavray.validation``.
_EXPORTS = {
    "constants": "AVOGADRO BOLTZMANN PLANCK SPEED_OF_LIGHT",
    "errors": "ConfigError ConvergenceError",
    "experiment": "EnhancementReport FinesseEntry ForecastReport build_enhancement_report "
                  "contributing_particles free_space_backout interaction_volume "
                  "photon_rate ultracold_forecast ultracold_target_species",
    "field": "outcoupling_share transmitted_power",
    "gases": "GasSpecies load_species_table",
    "optics": "CavityParams beam_width derive_cavity_params finesse free_spectral_range "
              "mode_volume number_density q_factor rayleigh_length symmetric_waist "
              "transverse_mode_spacing",
    "overlap": "overlap_eta_analytic overlap_eta_numeric purcell_factor purcell_ratio",
    "spectra": "SpectrumTrace doppler_fwhm observed_doppler_fwhm polarization_signal "
               "scan_spectrum species_ratio spectral_overlap",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

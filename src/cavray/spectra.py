"""Doppler-broadened line shapes and simulated cavity scans.

The 90-degree scattering geometry observes a Doppler width sqrt(2) times
the absorption-spectroscopy width, because the projection of the thermal
velocity onto the difference of pump and collection wavevectors carries
that factor. A cavity scan convolves each species' observed Doppler
Gaussian with the cavity Lorentzian; the spectral overlap is the value of
that convolution on resonance and quantifies how much of the scattered
spectrum the cavity accepts.

Valid up to roughly 100 mbar: pressure sidebands from scattering on
density waves appear above that and are not modeled, nor are collisional
broadening or narrowing.

scipy is imported only inside the two functions that call it,
``spectral_overlap`` (``scipy.integrate``) and ``scan_spectrum``
(``scipy.special``), because importing it costs several times the whole
closed-form report path and ``import cavray`` should load numpy alone.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import AVOGADRO, BOLTZMANN, SPEED_OF_LIGHT
from .errors import ConvergenceError
from .gases import GasSpecies
from .optics import CavityParams

# 90-degree scattering geometry: |k_out - k_in| = sqrt(2) * k
OBSERVED_WIDTH_FACTOR = math.sqrt(2.0)

_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

TRACE_SCHEMA = "cavray.spectrum-trace/1"


def doppler_fwhm(wavelength: float, temperature: float, molar_mass: float) -> float:
    """Absorption-spectroscopy Doppler FWHM of a thermal gas, in Hz.

    (nu0/c) * sqrt(8 kB T ln2 / m) with nu0 = c/lambda and m the mass of a
    single particle (molar_mass in kg/mol).
    """
    if wavelength <= 0.0 or temperature <= 0.0 or molar_mass <= 0.0:
        raise ValueError("wavelength, temperature and molar mass must be positive")
    particle_mass = molar_mass / AVOGADRO
    return (1.0 / wavelength) * math.sqrt(
        8.0 * BOLTZMANN * temperature * math.log(2.0) / particle_mass
    )


def doppler_fwhm_monte_carlo(wavelength: float, temperature: float,
                             molar_mass: float, n_samples: int = 1_000_000,
                             seed: int = 0) -> float:
    """Observed Doppler FWHM from sampled Maxwell-Boltzmann velocities.

    Draws thermal velocity components along the pump and collection axes,
    forms the frequency shift (v_out - v_in)/lambda of each scatterer and
    converts the sample spread to a FWHM. Validates the sqrt(2) geometry
    factor instead of assuming it. Deterministic for a fixed seed.
    """
    particle_mass = molar_mass / AVOGADRO
    sigma_v = math.sqrt(BOLTZMANN * temperature / particle_mass)
    rng = np.random.default_rng(seed)
    velocities = rng.normal(0.0, sigma_v, size=(int(n_samples), 2))
    shifts = (velocities[:, 0] - velocities[:, 1]) / wavelength
    return _FWHM_PER_SIGMA * float(np.std(shifts))


@dataclass(frozen=True)
class SpectralProfile:
    """Doppler line widths of one species at one probe wavelength."""

    doppler_fwhm_absorption: float  # Hz
    doppler_fwhm_observed: float    # Hz, sqrt(2) * absorption width
    center_frequency: float         # Hz

    def __post_init__(self):
        if self.doppler_fwhm_absorption <= 0.0 or self.doppler_fwhm_observed <= 0.0:
            raise ValueError("Doppler widths must be positive")
        expected = OBSERVED_WIDTH_FACTOR * self.doppler_fwhm_absorption
        if abs(self.doppler_fwhm_observed - expected) > 1e-9 * expected:
            raise ValueError(
                "observed width must be sqrt(2) * absorption width "
                f"({expected}), got {self.doppler_fwhm_observed}"
            )

    @classmethod
    def for_gas(cls, species: GasSpecies, wavelength: float,
                temperature: float | None = None) -> "SpectralProfile":
        t = species.temperature if temperature is None else temperature
        width = doppler_fwhm(wavelength, t, species.molar_mass)
        return cls(
            doppler_fwhm_absorption=width,
            doppler_fwhm_observed=OBSERVED_WIDTH_FACTOR * width,
            center_frequency=SPEED_OF_LIGHT / wavelength,
        )


def spectral_overlap(profile: SpectralProfile, cavity_linewidth: float,
                     rel_tol: float = 1e-8) -> float:
    """Fraction of the Doppler-broadened spectrum accepted by the cavity.

    Integral of the area-normalized observed Doppler Gaussian against the
    peak-normalized cavity Lorentzian of FWHM ``cavity_linewidth``. Tends
    to 1 for a broad cavity and to (pi/2)*linewidth*g(0) for a narrow one.
    The integration window spans 8 Gaussian sigma plus 40 Lorentzian HWHM,
    where the slowly decaying Lorentzian wings stop mattering.
    """
    from scipy import integrate

    if cavity_linewidth <= 0.0:
        raise ValueError(f"cavity linewidth must be positive, got {cavity_linewidth}")
    sigma = profile.doppler_fwhm_observed / _FWHM_PER_SIGMA
    hwhm = cavity_linewidth / 2.0

    def integrand(nu):
        gauss = math.exp(-nu ** 2 / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
        lorentz = hwhm ** 2 / (nu ** 2 + hwhm ** 2)
        return gauss * lorentz

    window = 8.0 * sigma + 40.0 * hwhm
    # breakpoints keep the adaptive rule from overlooking whichever of the
    # two features is much narrower than the window
    breakpoints = sorted({-8.0 * sigma, -8.0 * hwhm, 0.0, 8.0 * hwhm, 8.0 * sigma})
    value, abserr = integrate.quad(integrand, -window, window, points=breakpoints,
                                   limit=400, epsabs=0.0,
                                   epsrel=max(rel_tol * 1e-2, 1e-13))
    if abserr > rel_tol * max(abs(value), 1e-300):
        raise ConvergenceError("doppler/cavity spectral overlap", abserr)
    return value


@dataclass
class SpectrumTrace:
    """Sampled (detuning, signal) data from a simulated cavity scan."""

    detunings: np.ndarray            # Hz
    signals: np.ndarray              # dimensionless
    species: str = ""
    cavity: CavityParams | None = field(default=None, repr=False)

    def __post_init__(self):
        self.detunings = np.asarray(self.detunings, dtype=float)
        self.signals = np.asarray(self.signals, dtype=float)
        if self.detunings.shape != self.signals.shape:
            raise ValueError("detunings and signals must have equal length")
        if np.any(self.signals < 0.0):
            raise ValueError("signals must be nonnegative")

    def normalized(self) -> "SpectrumTrace":
        """Copy of the trace with its peak scaled to 1."""
        peak = float(self.signals.max(initial=0.0))
        scaled = self.signals / peak if peak > 0.0 else self.signals.copy()
        return SpectrumTrace(self.detunings.copy(), scaled, self.species, self.cavity)

    # -- serialization (CSV columns and JSON schema are versioned/stable) --

    def to_csv(self, stream: io.TextIOBase) -> None:
        stream.write("detuning_Hz,signal_normalized\n")
        for x, y in zip(self.detunings, self.signals):
            stream.write(f"{x:.12g},{y:.12g}\n")

    @classmethod
    def from_csv(cls, stream: io.TextIOBase, species: str = "",
                 cavity: CavityParams | None = None) -> "SpectrumTrace":
        header = stream.readline().strip()
        if header != "detuning_Hz,signal_normalized":
            raise ValueError(f"unexpected CSV header: {header!r}")
        det, sig = [], []
        for line in stream:
            if not line.strip():
                continue
            x, y = line.split(",")
            det.append(float(x))
            sig.append(float(y))
        return cls(np.array(det), np.array(sig), species, cavity)

    def to_json(self) -> str:
        payload = {
            "schema": TRACE_SCHEMA,
            "species": self.species,
            "detuning_Hz": [float(f"{x:.12g}") for x in self.detunings],
            "signal_normalized": [float(f"{y:.12g}") for y in self.signals],
        }
        if self.cavity is not None:
            payload["cavity"] = {
                "finesse": self.cavity.finesse,
                "free_spectral_range_Hz": self.cavity.free_spectral_range,
                "linewidth_Hz": self.cavity.linewidth,
            }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SpectrumTrace":
        payload = json.loads(text)
        if payload.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unexpected trace schema: {payload.get('schema')!r}")
        return cls(np.array(payload["detuning_Hz"]),
                   np.array(payload["signal_normalized"]),
                   payload.get("species", ""))


def _voigt_fwhm(gaussian_fwhm: float, lorentzian_fwhm: float) -> float:
    # Olivero-Longbothum approximation, accurate to 0.02%
    return (0.5346 * lorentzian_fwhm
            + math.sqrt(0.2166 * lorentzian_fwhm ** 2 + gaussian_fwhm ** 2))


def scan_spectrum(cavity: CavityParams, species_weights: list[tuple[GasSpecies, float]],
                  scan_range: float, resolution: float, wavelength: float,
                  normalize: bool = False) -> SpectrumTrace:
    """Simulate a cavity scan over detunings [0, scan_range].

    Each species contributes FSR-periodic peaks shaped by the convolution
    of its observed Doppler Gaussian with the cavity Lorentzian, weighted
    by polarizability^2 times its relative density. Heights are left in
    those native units unless ``normalize`` scales the peak to 1.
    """
    from scipy import special

    if not species_weights:
        raise ValueError("at least one species is required")
    if resolution <= 0.0 or scan_range <= 0.0:
        raise ValueError("scan range and resolution must be positive")
    narrowest = min(
        _voigt_fwhm(
            OBSERVED_WIDTH_FACTOR * doppler_fwhm(wavelength, gas.temperature,
                                                 gas.molar_mass),
            cavity.linewidth,
        )
        for gas, _ in species_weights
    )
    if resolution >= narrowest / 5.0:
        raise ValueError(
            f"resolution {resolution} too coarse: narrowest feature is "
            f"{narrowest:.6g} Hz, need resolution < feature/5"
        )

    detunings = np.arange(0.0, scan_range + resolution / 2.0, resolution)
    signals = np.zeros_like(detunings)
    fsr = cavity.free_spectral_range
    hwhm = cavity.linewidth / 2.0
    for gas, weight in species_weights:
        if weight < 0.0:
            raise ValueError(f"species weight must be nonnegative, got {weight}")
        profile = SpectralProfile.for_gas(gas, wavelength)
        sigma = profile.doppler_fwhm_observed / _FWHM_PER_SIGMA
        wing = 8.0 * sigma + 40.0 * hwhm
        first = math.floor((detunings[0] - wing) / fsr)
        last = math.ceil((detunings[-1] + wing) / fsr)
        strength = weight * gas.polarizability ** 2
        for order in range(first, last + 1):
            # pi*hwhm converts the area-normalized Voigt to the convolution
            # with a peak-normalized Lorentzian
            signals += strength * math.pi * hwhm * special.voigt_profile(
                detunings - order * fsr, sigma, hwhm
            )
    label = "+".join(gas.name for gas, _ in species_weights)
    trace = SpectrumTrace(detunings, signals, label, cavity)
    return trace.normalized() if normalize else trace


@dataclass(frozen=True)
class PolarizationResponse:
    """Scattering response vs pump polarization angle with an extinction floor."""

    extinction: float
    angles: np.ndarray = field(default_factory=lambda: np.linspace(0.0, np.pi, 181))

    def __post_init__(self):
        if not 0.0 <= self.extinction < 1.0:
            raise ValueError(f"extinction must be in [0, 1), got {self.extinction}")

    @property
    def signals(self) -> np.ndarray:
        return polarization_signal(self.angles, self.extinction)


def polarization_signal(angle, extinction: float = 0.0):
    """Dipole polarization response (1 - eps) * sin^2(angle) + eps.

    Zero (up to the extinction floor of imperfect linear polarization) for
    the pump polarized along the cavity axis, maximal perpendicular to it.
    """
    if not 0.0 <= extinction < 1.0:
        raise ValueError(f"extinction must be in [0, 1), got {extinction}")
    return (1.0 - extinction) * np.sin(angle) ** 2 + extinction


def species_ratio(species: list[GasSpecies], cavity: CavityParams,
                  wavelength: float, temperature: float | None = None) -> list[float]:
    """Relative scattered signals, first species as the unit reference.

    ratio_i = (alpha_i / alpha_ref)^2 * overlap_i / overlap_ref, combining
    the polarizability-squared cross-section scaling with each species'
    Doppler/cavity spectral overlap.
    """
    if not species:
        raise ValueError("species list must be nonempty")
    reference = species[0]
    if reference.polarizability <= 0.0:
        raise ValueError("reference species must have positive polarizability")

    def overlap_of(gas: GasSpecies) -> float:
        profile = SpectralProfile.for_gas(gas, wavelength, temperature)
        return spectral_overlap(profile, cavity.linewidth)

    ref_overlap = overlap_of(reference)
    ratios = []
    for gas in species:
        ratios.append(
            (gas.polarizability / reference.polarizability) ** 2
            * overlap_of(gas) / ref_overlap
        )
    return ratios


def at_rest_power(measured_power: float, overlap: float) -> float:
    """Back out the power particles at rest would scatter, measured/overlap."""
    if not 0.0 < overlap <= 1.0:
        raise ValueError(f"overlap must be in (0, 1], got {overlap}")
    return measured_power / overlap

"""Self-contained oracle suite behind the ``validate`` CLI command.

Every check pits an implementation against an independent route to the
same number (explicit summation, quadrature, closed forms, ray-matrix
eigenmodes, a Gauss-Hermite average over thermal velocities) or asserts
an exact identity. Checks are deterministic for a fixed seed, which seeds
the random draws of their inputs; this is the one module of the package
that draws random numbers. Every integral but the velocity average runs
the composite Gauss-Legendre rule of ``cavray.quadrature``, so the suite
needs numpy alone.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import experiment, field, gases, optics, overlap, quadrature, spectra
from .constants import AVOGADRO, BOLTZMANN
from .records import record


@record
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(residual <= tolerance),
        detail=f"residual {residual:.3e} (tolerance {tolerance:.1e})",
    )


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN if any residual is NaN.

    Builtin ``max`` drops a NaN that does not come first (``max(0.0, nan)``
    is 0.0), which would pass a check whose oracle returned NaN.
    """
    return math.nan if any(r != r for r in residuals) else max(residuals)


def check_field_closed_form_vs_roundtrip(rng: np.random.Generator,
                                         n_draws: int = 200) -> CheckResult:
    sources = np.empty(n_draws, dtype=complex)
    feedbacks = np.empty(n_draws, dtype=complex)
    exact = np.empty(n_draws, dtype=complex)
    for i in range(n_draws):
        r1 = rng.uniform(0.0, 0.999)
        r2 = rng.uniform(0.0, min(0.997 / max(r1, 1e-12), 0.999))
        cfg = field.ScatterConfig(
            amplitude=rng.uniform(1e-6, 1e-3),
            pump_field=rng.uniform(0.1, 10.0),
            wavenumber=rng.uniform(1e6, 2e7),
            displacement=rng.uniform(-1e-7, 1e-7),
        )
        d = rng.uniform(1e-3, 1e-2)
        exact[i] = field.intracavity_field(cfg, r1, r2, d)
        sources[i], feedbacks[i] = field._source_and_feedback(cfg, r1, r2, d)
    # every draw's 10,000 round trips at once: the doubled sum is elementwise
    summed = field._iterate_roundtrips(sources, feedbacks, 10_000)
    return _result("field closed form vs round-trip summation",
                   _worst(*(np.abs(summed - exact) / np.abs(exact))), 1e-6)


def check_field_average_quadrature(rng: np.random.Generator,
                                   n_draws: int = 200) -> CheckResult:
    worst = 0.0
    for _ in range(n_draws):
        r1 = rng.uniform(0.0, 0.999)
        r2 = rng.uniform(0.0, 0.999)
        amplitude = rng.uniform(1e-6, 1e-3)
        pump_field = rng.uniform(0.1, 10.0)
        wavenumber = rng.uniform(1e6, 2e7)
        # resonant separation: k*d a multiple of pi
        d = math.pi * rng.integers(1000, 40000) / wavenumber
        closed = field.position_averaged_intensity(amplitude, pump_field ** 2, r1, r2)
        numeric = field.position_averaged_intensity_numeric(
            amplitude, pump_field, wavenumber, r1, r2, d, n_points=10_000
        )
        worst = _worst(worst, abs(numeric - closed) / closed)
    return _result("position-averaged intensity vs quadrature", worst, 1e-6)


def check_field_mirror_asymmetry(rng: np.random.Generator) -> CheckResult:
    r1, r2 = 0.9, 0.5
    forward = field.position_averaged_intensity(1e-3, 1.0, r1, r2)
    swapped = field.position_averaged_intensity(1e-3, 1.0, r2, r1)
    expected = (1.0 + r1 ** 2) / (1.0 + r2 ** 2)
    residual = abs(forward / swapped - expected)
    return _result("averaged intensity left-mirror asymmetry", residual, 1e-12)


def check_power_budget_identities(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for coupling in ("averaged", "antinode"):
        for _ in range(50):
            f = rng.uniform(1.0, 1e5)
            pump = rng.uniform(0.1, 5.0)
            budget = field.cavity_power_budget(1e-4, pump, f, coupling)
            worst = _worst(
                worst,
                abs(budget.cavity_power - 2.0 * budget.transmitted_power),
                abs(budget.free_space_mode_power - 2.0 * budget.free_space_one_way_power),
            )
            if coupling == "averaged":
                # the back-out divides by transmitted_power; a symmetric pair
                # of mirrors must give the budget's own value
                worst = _worst(worst, abs(field.transmitted_power(1e-4, pump, 0.003, 0.003, f)
                                          - budget.transmitted_power))
    return _result("power budget pairwise identities", worst, 0.0)


def check_power_linearity(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        pump = rng.uniform(0.1, 5.0)
        scale = rng.uniform(2.0, 100.0)
        f = rng.uniform(10.0, 1e4)
        base = field.transmitted_power(1e-4, pump, 0.003, 0.01, f)
        scaled = field.transmitted_power(1e-4, scale * pump, 0.003, 0.01, f)
        worst = _worst(worst, abs(scaled / base - scale) / scale)
    return _result("scattered power linear in pump power", worst, 1e-12)


def check_finesse_monotone(rng: np.random.Generator) -> CheckResult:
    transmissions = np.linspace(1e-4, 0.9, 200)
    values = [optics.finesse(optics.MirrorSpec(1.0 - t), optics.MirrorSpec(0.99))
              for t in transmissions]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    return CheckResult("finesse monotone decreasing in transmission", monotone,
                       "strictly decreasing over T in [1e-4, 0.9]" if monotone
                       else "monotonicity violated")


def check_finesse_taylor(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for t in np.linspace(1e-4, 0.0099, 40):
        mirror = optics.MirrorSpec(1.0 - t)
        exact = optics.finesse(mirror, mirror)
        approx = 2.0 * math.pi / (2.0 * t)
        worst = _worst(worst, abs(exact - approx) / exact)
    return _result("finesse Taylor expansion below T=0.01", worst, 0.02)


def check_cavity_params_identities(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        rc = rng.uniform(5e-3, 0.5)
        geometry = optics.CavityGeometry(
            mirror_separation=rng.uniform(0.05, 1.95) * rc,
            radius_of_curvature=rc,
            left_mirror=optics.MirrorSpec(rng.uniform(0.5, 0.99999)),
            right_mirror=optics.MirrorSpec(rng.uniform(0.5, 0.99999)),
        )
        wavelength = rng.uniform(300e-9, 1600e-9)
        params = optics.derive_cavity_params(geometry, wavelength)
        worst = _worst(
            worst,
            abs(params.linewidth * params.finesse / params.free_spectral_range - 1.0),
            abs(params.q_factor * wavelength
                / (2.0 * geometry.mirror_separation * params.finesse) - 1.0),
            abs(params.rayleigh_length
                / (math.pi * params.waist ** 2 / wavelength) - 1.0),
            abs(params.mode_volume
                / (math.pi * params.waist ** 2 * geometry.mirror_separation / 4.0) - 1.0),
        )
    return _result("derived cavity parameter identities", worst, 1e-12)


def check_abcd_waist(rng: np.random.Generator, n_draws: int = 100) -> CheckResult:
    worst = 0.0
    for _ in range(n_draws):
        rc = rng.uniform(5e-3, 0.5)
        d = rng.uniform(0.05, 1.95) * rc
        # the round trip fixes no waist at the confocal point
        while abs(1.0 - d / rc) < optics.CONFOCAL_MARGIN:
            d = rng.uniform(0.05, 1.95) * rc
        wavelength = rng.uniform(300e-9, 1600e-9)
        closed = optics.symmetric_waist(d, rc, wavelength)
        oracle = optics.abcd_roundtrip_waist(d, rc, wavelength)
        worst = _worst(worst, abs(closed - oracle) / closed)
    return _result("waist vs ABCD round-trip eigenmode", worst, 1e-9)


def check_abcd_mode_spacing(rng: np.random.Generator, n_draws: int = 100) -> CheckResult:
    worst = 0.0
    for _ in range(n_draws):
        rc = rng.uniform(5e-3, 0.5)
        d = rng.uniform(0.05, 1.95) * rc
        closed = optics.transverse_mode_spacing(d, rc)
        oracle = optics.abcd_roundtrip_mode_spacing(d, rc)
        worst = _worst(worst, abs(closed - oracle) / closed)
    return _result("transverse mode spacing vs ABCD Gouy phase", worst, 1e-9)


def check_dipole_normalization(rng: np.random.Generator) -> CheckResult:
    residual = abs(overlap.dipole_normalization() - 1.0)
    return _result("dipole mode intensity normalization", residual, 1e-6)


def check_gaussian_normalization(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    mode = overlap.GaussianMode(waist=45e-6, wavelength=532e-9)
    for z in (0.0, mode.rayleigh_length, 10.0 * mode.rayleigh_length):
        worst = _worst(worst, abs(overlap.gaussian_normalization(45e-6, 532e-9, z) - 1.0))
    return _result("gaussian mode intensity normalization", worst, 1e-6)


def check_overlap_far_field(rng: np.random.Generator) -> CheckResult:
    wavelength, waist = 532e-9, 45e-6
    z0 = overlap.GaussianMode(waist, wavelength).rayleigh_length
    analytic = overlap.overlap_eta_analytic(wavelength, waist)
    near = overlap.overlap_eta_numeric(wavelength, waist, 100.0 * z0)
    far = overlap.overlap_eta_numeric(wavelength, waist, 1e4 * z0)
    residual_near = abs(near - analytic) / analytic
    residual_far = abs(far - analytic) / analytic
    # the closed form of the on-axis integral against its quadrature
    quadrature = _worst(*(abs(value - oracle) / oracle for value, oracle in (
        (near, _on_axis_overlap_quadrature(wavelength, waist, 100.0 * z0)),
        (far, _on_axis_overlap_quadrature(wavelength, waist, 1e4 * z0)))))
    passed = residual_near <= 1e-3 and residual_far <= 1e-5 and quadrature <= 1e-12
    detail = f"residual {residual_near:.3e} at 100 z0, {residual_far:.3e} at 1e4 z0"
    if not quadrature <= 1e-12:
        detail += f"; closed form off its quadrature by {quadrature:.3e} (tolerance 1.0e-12)"
    return CheckResult("overlap quadrature far-field convergence", passed, detail)


def check_overlap_monotone(rng: np.random.Generator) -> CheckResult:
    wavelength, waist = 532e-9, 45e-6
    z0 = overlap.GaussianMode(waist, wavelength).rayleigh_length
    factors = [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0]
    values = [overlap.overlap_eta_numeric(wavelength, waist, f * z0) for f in factors]
    analytic = overlap.overlap_eta_analytic(wavelength, waist)
    monotone = all(a > b for a, b in zip(values, values[1:]))
    approaches = all(v > analytic for v in values)
    passed = monotone and approaches
    return CheckResult("overlap approaches analytic limit monotonically", passed,
                       "decreasing toward the analytic value beyond 10 z0"
                       if passed else "monotone approach violated")


def check_purcell_equivalence(rng: np.random.Generator,
                              n_draws: int = 1000) -> CheckResult:
    worst = 0.0
    # one row of (finesse, wavelength, waist, d) per draw: the same numbers,
    # in the same order, as four scalar draws per row
    draws = rng.uniform((1.0, 200e-9, 5e-6, 1e-3), (1e6, 2000e-9, 5e-4, 1.0),
                        size=(n_draws, 4))
    for f, wavelength, waist, d in draws.tolist():
        a = overlap.purcell_factor(optics.q_factor(d, f, wavelength), wavelength,
                                   optics.mode_volume(waist, d))
        b = overlap.purcell_ratio(f, wavelength, waist)
        worst = _worst(worst, abs(a - b) / b)
    return _result("Purcell factor equals interference power ratio", worst, 1e-12)


def check_purcell_separation_cancels(rng: np.random.Generator) -> CheckResult:
    wavelength, waist, f = 532e-9, 45e-6, 1000.0
    values = []
    for _ in range(50):
        d = rng.uniform(1e-4, 10.0)
        values.append(overlap.purcell_factor(optics.q_factor(d, f, wavelength), wavelength,
                                             optics.mode_volume(waist, d)))
    residual = (_worst(*values) - min(values)) / values[0]
    return _result("mirror separation cancels in the Purcell factor", residual, 1e-12)


def _overlap_quadrature(observed_fwhm: float, linewidth: float) -> float:
    """The Doppler/cavity overlap integral by composite Gauss-Legendre quadrature.

    Area-normalized Gaussian times peak-normalized Lorentzian over a window
    of 8 Gaussian sigma plus 40 Lorentzian HWHM, where the slowly decaying
    Lorentzian wings stop mattering.
    """
    sigma = observed_fwhm / spectra._FWHM_PER_SIGMA
    hwhm = linewidth / 2.0

    def integrand(nu):
        gauss = np.exp(-nu ** 2 / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
        return gauss * hwhm ** 2 / (nu ** 2 + hwhm ** 2)

    # panels break at +-8 sigma and +-8 hwhm and double in width out from the
    # narrower feature: over the checked hwhm/sigma of 1e-3 to 10, even 96
    # nodes on one panel across the window miss 9 % to all of the integral
    half = quadrature.graded_edges(min(sigma, hwhm), 8.0 * sigma + 40.0 * hwhm,
                                   (8.0 * sigma, 8.0 * hwhm))
    return quadrature.integrate(integrand, np.concatenate((-half[:0:-1], half)),
                                what="spectral overlap", rel_tol=1e-10)


# Gauss-Hermite nodes per velocity component of _doppler_quadrature: n
# nodes integrate polynomials of degree 2n - 1 exactly, and the shift's
# fourth moment has degree 4 in each component
_HERMITE_NODES = 3

# random geometries and gases drawn by check_doppler_monte_carlo
_DOPPLER_DRAWS = 10


def _doppler_quadrature(wavelength: float, temperature: float, molar_mass: float,
                        k_in: np.ndarray, k_out: np.ndarray) -> tuple[float, float]:
    """FWHM and excess kurtosis of the Doppler shift v . (k_out - k_in) / lambda
    of a thermal gas, for unit wavevectors ``k_in`` (pump) and ``k_out``
    (collection).

    The velocity v is 3-D Maxwell-Boltzmann: each component normal with
    sigma_v = sqrt(kB T / m). The moments of the shift are averaged over
    it by the tensor product of ``hermegauss``'s rule in each component,
    exact for the second and fourth moments, so the FWHM is
    2 sqrt(2 ln 2) times the exact standard deviation and the kurtosis is
    that of the exact shift distribution: 0 for a Gaussian.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES)
    weights = weights / weights.sum()
    sigma_v = math.sqrt(BOLTZMANN * temperature * AVOGADRO / molar_mass)
    axis = sigma_v * (k_out - k_in) / wavelength
    shift = sum(a * x for a, x in zip(axis, np.ix_(nodes, nodes, nodes)))
    weight = math.prod(np.ix_(weights, weights, weights))
    # the velocity has zero mean, so the moments are taken about zero
    squared = shift * shift
    variance = float((weight * squared).sum())
    fourth = float((weight * squared * squared).sum())
    return spectra._FWHM_PER_SIGMA * math.sqrt(variance), fourth / variance ** 2 - 3.0


def _on_axis_overlap_quadrature(wavelength: float, waist: float, z: float) -> float:
    """The on-axis overlap integral on the plane at z by Gauss-Legendre quadrature."""
    mode = overlap.GaussianMode(waist, wavelength)
    axial = overlap.DIPOLE_PREFACTOR / z
    field = overlap._radial_field(mode, z)
    return quadrature.integrate(lambda r: 2.0 * math.pi * axial * field(r) * r,
                                overlap._radial_edges(mode, z),
                                what="on-axis overlap", rel_tol=1e-12)


def _exact_overlap_quadrature(wavelength: float, waist: float, z: float) -> float:
    """The overlap integral on the plane at z with the full cos(latitude)/r
    dipole field, by Gauss-Legendre quadrature over the (r, phi) tensor
    product; ``ConvergenceError`` past 1e-9 relative."""
    mode = overlap.GaussianMode(waist, wavelength)
    field = overlap._radial_field(mode, z)

    def integrand(r, phi):
        dist_sq = r ** 2 + z ** 2
        # dipole axis lies in the plane transverse to the cavity at phi=0
        cos_latitude = np.sqrt(1.0 - (r * np.cos(phi)) ** 2 / dist_sq)
        return overlap.DIPOLE_PREFACTOR * cos_latitude / np.sqrt(dist_sq) * field(r) * r

    quarter_turns = np.linspace(0.0, 2.0 * math.pi, 5)
    return quadrature.integrate(integrand, overlap._radial_edges(mode, z), quarter_turns,
                                what="dipole/cavity overlap", rel_tol=1e-9)


def check_spectral_overlap_closed_form(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    observed = spectra.observed_doppler_fwhm(gases.builtin_species("Xe"), 532e-9)
    for _ in range(40):
        linewidth = 10 ** rng.uniform(5.5, 10.0)
        closed = spectra.spectral_overlap(observed, linewidth)
        quadrature = _overlap_quadrature(observed, linewidth)
        worst = _worst(worst, abs(quadrature - closed) / closed)
    return _result("spectral overlap vs Faddeeva closed form", worst, 1e-6)


def check_spectral_overlap_limits(rng: np.random.Generator) -> CheckResult:
    observed = spectra.observed_doppler_fwhm(gases.builtin_species("Xe"), 532e-9)
    widths = np.logspace(5.0, 12.0, 30)
    values = [spectra.spectral_overlap(observed, w) for w in widths]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    bounded = all(0.0 < v <= 1.0 + 1e-12 for v in values)
    broad = abs(values[-1] - 1.0) < 1e-3
    # the leading correction to the narrow-cavity asymptote is
    # -linewidth/(sigma*sqrt(2*pi)); 2% agreement needs width < observed/50
    sigma = observed / spectra._FWHM_PER_SIGMA
    narrow_width = observed / 50.0
    asymptote = (math.pi / 2.0) * narrow_width / (sigma * math.sqrt(2.0 * math.pi))
    narrow = abs(spectra.spectral_overlap(observed, narrow_width) - asymptote) / asymptote
    passed = monotone and bounded and broad and narrow < 0.02
    return CheckResult(
        "spectral overlap limits and monotonicity", passed,
        f"monotone={monotone}, bounded={bounded}, broad residual "
        f"{abs(values[-1] - 1.0):.2e}, narrow residual {narrow:.2e}"
    )


def check_polarization_sum_rule(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        eps = rng.uniform(0.0, 0.5)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        total = (spectra.polarization_signal(theta, eps)
                 + spectra.polarization_signal(theta + math.pi / 2.0, eps))
        worst = _worst(worst, abs(total - (1.0 + eps)))
    return _result("polarization quarter-turn sum rule", worst, 1e-12)


# --- oracles for the cavity scan ---------------------------------------------
#
# Not in ALL_CHECKS: the tests compare spectra.scan_spectrum against them at a
# few hundred detunings. Both return the unnormalized scan signal.

def _comb_lines(species_weights, wavelength: float) -> list[tuple[float, float]]:
    return [(weight * gas.polarizability ** 2,
             spectra.observed_doppler_fwhm(gas, wavelength) / spectra._FWHM_PER_SIGMA)
            for gas, weight in species_weights]


def scan_voigt_sum(detunings: np.ndarray, cavity: optics.CavityParams,
                   species_weights, wavelength: float,
                   orders: int = 4000) -> np.ndarray:
    """Scan signal as an explicit sum of Voigt profiles over comb orders.

    Sums the 2 * orders + 1 orders nearest each detuning. The Lorentzian
    wings of the orders left out add about 2 hwhm^2 / (F^2 orders) of a
    line's Lorentzian peak. The Voigt profile is ``scipy.special``'s, a
    test-only dependency imported here.
    """
    from scipy import special

    fsr = cavity.free_spectral_range
    hwhm = cavity.linewidth / 2.0
    nu = np.asarray(detunings, dtype=float)
    offsets = (nu - np.round(nu / fsr) * fsr)[:, None] - fsr * np.arange(-orders, orders + 1)
    total = np.zeros(len(nu))
    for strength, sigma in _comb_lines(species_weights, wavelength):
        total += strength * math.pi * hwhm * special.voigt_profile(
            offsets, sigma, hwhm).sum(axis=1)
    return total


def scan_fourier_series(detunings: np.ndarray, cavity: optics.CavityParams,
                        species_weights, wavelength: float) -> np.ndarray:
    """Scan signal from the comb's Fourier series, summed term by term.

    pi hwhm / F * [1 + 2 sum_k c_k cos(2 pi k nu / F)] per line, up to the
    first k at which either factor of c_k alone is below 1e-20; no table
    and no interpolation.
    """
    fsr = cavity.free_spectral_range
    hwhm = cavity.linewidth / 2.0
    phase = 2.0 * math.pi * np.mod(np.asarray(detunings, dtype=float), fsr) / fsr
    log_floor = math.log(1e20)
    total = np.zeros(len(phase))
    for strength, sigma in _comb_lines(species_weights, wavelength):
        last = math.ceil(min(log_floor * fsr / (2.0 * math.pi * hwhm),
                             math.sqrt(log_floor / 2.0) * fsr / (math.pi * sigma)))
        k = np.arange(1, last + 1)
        c = np.exp(-2.0 * (math.pi * sigma * k / fsr) ** 2 - 2.0 * math.pi * hwhm * k / fsr)
        for start in range(0, len(phase), 32):
            block = phase[start:start + 32]
            series = 1.0 + 2.0 * (np.cos(np.outer(block, k)) * c).sum(axis=1)
            total[start:start + 32] += strength * math.pi * hwhm / fsr * series
    return total


def check_scan_linearity(rng: np.random.Generator) -> CheckResult:
    geometry = optics.CavityGeometry(6e-3, 45e-3, optics.MirrorSpec(0.997),
                                     optics.MirrorSpec(0.997))
    params = optics.derive_cavity_params(geometry, 532e-9)
    xenon = gases.builtin_species("Xe")
    scale = rng.uniform(2.0, 10.0)
    base = spectra.scan_spectrum(params, [(xenon, 1.0)], 5e9, 2e6, 532e-9)
    scaled = spectra.scan_spectrum(params, [(xenon, scale)], 5e9, 2e6, 532e-9)
    residual = float(np.max(np.abs(scaled.signals - scale * base.signals))
                     / np.max(scaled.signals))
    return _result("scan signal linear in species weight", residual, 1e-12)


# the name is pinned by cavbench's CHECK_NAMES; it changes with ROADMAP item 1b
def check_doppler_monte_carlo(rng: np.random.Generator) -> CheckResult:
    xenon = gases.builtin_species("Xe")
    worst = 0.0
    for _ in range(_DOPPLER_DRAWS):
        gas = xenon._replace(temperature=10 ** rng.uniform(-6.0, 3.0),
                             molar_mass=rng.uniform(1e-3, 0.3))
        wavelength = rng.uniform(200e-9, 2000e-9)
        # a uniformly rotated perpendicular pair: Gram-Schmidt on two
        # normal 3-vectors
        k_in, k_out = rng.standard_normal((2, 3))
        k_in /= np.linalg.norm(k_in)
        k_out -= (k_out @ k_in) * k_in
        k_out /= np.linalg.norm(k_out)
        width, kurtosis = _doppler_quadrature(wavelength, gas.temperature,
                                              gas.molar_mass, k_in, k_out)
        expected = spectra.observed_doppler_fwhm(gas, wavelength)
        worst = _worst(worst, abs(width - expected) / expected, abs(kurtosis))
    return _result("Doppler width and shape vs Gauss-Hermite velocity average",
                   worst, 1e-12)


def check_species_ratio(rng: np.random.Generator) -> CheckResult:
    geometry = optics.CavityGeometry(6e-3, 45e-3, optics.MirrorSpec(0.997),
                                     optics.MirrorSpec(0.997))
    params = optics.derive_cavity_params(geometry, 532e-9)
    table = gases.load_species_table()
    ratios = spectra.species_ratio([table["Xe"], table["CF3H"], table["N2"]],
                                   params, 532e-9)
    expected = (1.0, 0.36, 0.09)
    worst = _worst(*(abs(r - e) for r, e in zip(ratios, expected)))
    return _result("species ratio against the expected triple", worst, 0.03)


def check_backout_roundtrip(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        free_space = rng.uniform(1e-16, 1e-12)
        f = rng.uniform(10.0, 1e5)
        ovl = rng.uniform(0.01, 1.0)
        share = rng.uniform(0.1, 1.0)
        # mirrors that send about ``share`` of the power out on the right
        left, right = optics.MirrorSpec(share), optics.MirrorSpec(1.0 - share)
        # free_space is a^2 Pp, the one-way power without a cavity
        measured = field.transmitted_power(1.0, free_space, left.transmission,
                                           right.transmission, f) * ovl
        recovered = experiment.free_space_backout(measured, ovl, (f, left, right))
        worst = _worst(worst, abs(recovered - free_space) / free_space)
    return _result("free-space back-out round trip", worst, 1e-12)


def check_forecast_consistency(rng: np.random.Generator) -> CheckResult:
    table = gases.load_species_table()
    anchor = experiment.ScenarioConfig(
        cavity=optics.CavityGeometry(6e-3, 45e-3, optics.MirrorSpec(0.997),
                                     optics.MirrorSpec(0.997)),
        gas=table["Xe"],
        pressure=1e4,
        pump=optics.PumpBeam(wavelength=532e-9, waist=50e-6),
        anchor=experiment.AnchorMeasurement(50e-15, 1000.0, 0.042),
    )
    target = experiment.ultracold_target_species(table["Xe"])
    report = experiment.ultracold_forecast(anchor, target, 1e5, 1e5)
    waist = optics.symmetric_waist(6e-3, 45e-3, 532e-9)
    residual = _worst(
        abs(report.ensemble_rate
            - report.per_molecule_in_cavity_rate * report.n_molecules),
        abs(report.cavity_free_space_ratio
            - overlap.purcell_ratio(1e5, 532e-9, waist)),
    )
    return _result("forecast internal consistency", residual, 0.0)


def check_unit_convention_cancels(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        unit = rng.uniform(1e-3, 1e3)
        f = rng.uniform(10.0, 1e5)
        wavelength = rng.uniform(300e-9, 1600e-9)
        waist = rng.uniform(1e-5, 1e-4)
        budget = field.cavity_power_budget(1e-4, unit, f, "antinode")
        dip = overlap.dipole_mode_power(1e-4, unit, wavelength, waist)
        ratio = budget.cavity_power / dip
        expected = overlap.purcell_ratio(f, wavelength, waist)
        worst = _worst(worst, abs(ratio - expected) / expected)
    return _result("arbitrary power unit cancels in ratios", worst, 1e-12)


ALL_CHECKS: tuple[Callable[[np.random.Generator], CheckResult], ...] = (
    check_field_closed_form_vs_roundtrip,
    check_field_average_quadrature,
    check_field_mirror_asymmetry,
    check_power_budget_identities,
    check_power_linearity,
    check_finesse_monotone,
    check_finesse_taylor,
    check_cavity_params_identities,
    check_abcd_waist,
    check_abcd_mode_spacing,
    check_dipole_normalization,
    check_gaussian_normalization,
    check_overlap_far_field,
    check_overlap_monotone,
    check_purcell_equivalence,
    check_purcell_separation_cancels,
    check_spectral_overlap_closed_form,
    check_spectral_overlap_limits,
    check_polarization_sum_rule,
    check_scan_linearity,
    check_doppler_monte_carlo,
    check_species_ratio,
    check_backout_roundtrip,
    check_forecast_consistency,
    check_unit_convention_cancels,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check with one seeded generator; order is fixed."""
    rng = np.random.default_rng(seed)
    return [check(rng) for check in ALL_CHECKS]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: {r.detail}")
    n_passed = sum(r.passed for r in results)
    lines.append(f"{n_passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

"""Self-contained oracle suite behind the ``validate`` CLI command.

Every check pits an implementation against an independent route to the
same number (explicit summation, quadrature, closed forms, ray-matrix
eigenmodes, the thermal velocity spread projected on the scattering
geometry) or asserts an exact identity. The oracles are private to this
module, so the production modules hold only the closed forms that a
report runs. The derivation of the 2F/pi enhancement is one of them: the
intracavity field, its position average and the antinode factor, with the
free-space dipole-mode power, check ``field.transmitted_power`` and
``overlap.purcell_ratio``. The field is written once, in
``_source_and_feedback``: its round-trip sum, its closed form, the
quadrature of its position average and its antinode all read it. Checks
are deterministic for a fixed seed; this is the one module of the package
that draws random numbers. Each check draws its inputs from its own
stream, keyed by the seed and its name, in one to three generator calls;
it calls the closed forms once per draw, or once on the array of its
draws, and reduces its residuals once. The position average integrates
``_intracavity_field`` on a few midpoint nodes, on which it is exact.
Every integral runs the composite Gauss-Legendre rule of
``cavray.quadrature``, so the suite needs numpy alone; a check's
integrals go in one batch, whose integrand runs once per rule; the
normalized Gaussian mode they read, ``_radial_field``, lives here. The
checks read the packaged species table, whose values their expected
numbers belong to, whatever table ``CAVRAY_SPECIES_DB`` names.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections import namedtuple
from collections.abc import Callable

import numpy as np

from . import experiment, field, gases, optics, overlap, quadrature, spectra
from .constants import AVOGADRO, BOLTZMANN, PLANCK, SPEED_OF_LIGHT


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    """One check's ``name``, whether it ``passed``, and its residual ``detail``."""

    __slots__ = ()


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(residual <= tolerance),
        detail=f"residual {residual:.3e} (tolerance {tolerance:.1e})",
    )


def _worst(*residuals) -> float:
    """The largest residual, or NaN if any residual is NaN; each argument is
    a residual or an array of them.

    Builtin ``max`` drops a NaN that does not come first (``max(0.0, nan)``
    is 0.0), which would pass a check whose oracle returned NaN; ``np.max``
    keeps it.
    """
    return float(np.max(residuals))


def _uniform_rows(rng: np.random.Generator, n_rows: int, *ranges) -> np.ndarray:
    """n_rows x len(ranges) uniform draws, column i on ranges[i] = (low, high),
    in one generator call; row by row, each is low + (high - low) * the next
    double of the stream, as a scalar ``rng.uniform(low, high)`` would be.
    """
    lows, highs = zip(*ranges)
    return rng.uniform(lows, highs, size=(n_rows, len(ranges)))


# random draws per check; the tests read the same constants
_ROUNDTRIP_DRAWS = 200
_FIELD_AVERAGE_DRAWS = 200
# midpoint nodes of the position average; any n >= 3 is exact
_FIELD_AVERAGE_NODES = 64
_TIE_DRAWS = 50  # mirror pairs that tie the average to transmitted_power
_ABCD_DRAWS = 100
_PURCELL_DRAWS = 1000
_DOPPLER_DRAWS = 10
# the cavity of the scan, species-ratio and forecast checks: separation,
# curvature and the two mirrors' reflectivities
_REFERENCE_CAVITY = (6e-3, 45e-3, 0.997, 0.997)
_TEMPERATURE = 295.0  # K, of the checks that read the packaged species


@functools.lru_cache(maxsize=1)
def _packaged_species() -> dict[str, gases.GasSpecies]:
    """The species table shipped with the package, read once."""
    return gases.load_species_table(gases._BUILTIN_TABLE)


def _xenon_observed_fwhm() -> float:
    return spectra.observed_doppler_fwhm(_packaged_species()["Xe"], 532e-9, _TEMPERATURE)


# --- oracles for the interference field ---------------------------------------
#
# The derivation of ``field.transmitted_power``, in units of the pump
# (``amplitude**2 * pump``): the mode-area reference cancels in every ratio.

def _check_feedback(r1, r2) -> None:
    gain = np.max(r1 * r2)
    if gain >= 1.0:
        raise ValueError(f"round-trip amplitude gain r1*r2 must be < 1, got {gain}: "
                         "field diverges")


def _source_and_feedback(r1, r2, mirror_separation, *, amplitude, pump_field, wavenumber,
                         displacement):
    """Directly scattered plus once-reflected source term, and the
    round-trip feedback factor; shared by the closed form and the
    summation so the two routes differ only in how the series is summed.
    Elementwise on scalars or broadcasting arrays."""
    k, d, dz = wavenumber, mirror_separation, displacement
    source = amplitude * pump_field * (1.0 + r1 * np.exp(1j * k * d) * np.exp(2j * k * dz))
    feedback = r1 * r2 * np.exp(2j * k * d)
    return source, feedback


def _intracavity_field(r1, r2, mirror_separation, *, amplitude, pump_field, wavenumber,
                       displacement=0.0):
    """Right-traveling field at the scatterer, a classical driven dipole,
    E = a*Ep * (1 + r1*exp(i*k*d)*exp(2i*k*dz)) / (1 - r1*r2*exp(2i*k*d)): the
    exact solution of the one-round-trip recursion, in units of the pump
    field Ep, for a dimensionless ``amplitude`` a << 1, k in rad/m and the
    offset dz from the cavity centre (``displacement``, m; within +-lambda/2
    in a position average). Elementwise on scalars or broadcasting arrays;
    r1*r2 >= 1 anywhere raises."""
    _check_feedback(r1, r2)
    source, feedback = _source_and_feedback(r1, r2, mirror_separation, amplitude=amplitude,
                                            pump_field=pump_field, wavenumber=wavenumber,
                                            displacement=displacement)
    return source / (1.0 - feedback)


def _position_averaged_intensity(amplitude, pump_intensity, r1, r2):
    """Right-traveling intensity on resonance, averaged over scatterer
    positions, I = a^2 * Ip * (1 + r1^2) / (1 - r1*r2)^2: the average over one
    wavelength keeps only the incoherent 1 + r1^2 term, and only r1, the
    mirror behind the scattered left-going wave, is in the numerator.
    Elementwise on scalars or broadcasting arrays."""
    _check_feedback(r1, r2)
    return amplitude ** 2 * pump_intensity * (1.0 + r1 ** 2) / (1.0 - r1 * r2) ** 2


# a scatterer at an antinode of the resonant standing wave scatters this many
# times the position-averaged power into the mode, (1 + r1)^2/(1 + r1^2) in the
# limit r1 -> 1; ``check_power_budget_identities`` derives it from the field
_ANTINODE_FACTOR = 2.0


def _iterate_roundtrips(source, feedback, n_roundtrips: int):
    """sum of source * feedback**j for j = 0..n, by binary doubling.

    These are the n + 1 terms of the round-trip recursion
    field = source + feedback * field after n round trips; the truncation
    error against the closed form is bounded by |r1*r2|**n / (1 - |r1*r2|)
    in source-term units. With S_m the sum of the first m terms,
    S_2m = S_m + feedback**m * S_m and S_(m+1) = S_m + feedback**m * source;
    walking the bits of n + 1 from the top takes about 2*log2(n + 1) steps
    in place of the n steps of the recursion, and never divides by
    1 - feedback, so it stays a route to the closed form independent of
    it. Elementwise on arrays: each element takes the scalar's steps, up to
    the few ulp numpy's fused complex multiply-adds may move a sum by.
    """
    partial, power = source, feedback  # S_1 and feedback**1
    for bit in bin(n_roundtrips + 1)[3:]:
        partial = partial + power * partial
        power = power * power
        if bit == "1":
            partial = partial + power * source
            power = power * feedback
    return partial


def _position_averaged_intensity_numeric(amplitude, pump_field, wavenumber, r1, r2,
                                         mirror_separation, n_points: int):
    """Average |E|^2 of ``_intracavity_field`` over ``n_points`` midpoint
    displacements dz_j = ((j + 1/2)/n - 1/2) * lambda in one wavelength.

    Quadrature cross-check for the closed-form position average. On
    resonance |E|^2 is |c|^2 * |1 + a*p|^2 = |c|^2 * (1 + |a|^2 + 2 Re(a*p))
    in the displacement phase p = exp(2i*k*dz), and the midpoint samples
    p_j = exp(4*pi*i*(j + 1/2)/n) sum to exp(2*pi*i/n) times a geometric
    sum of exp(4*pi*i/n), which is 0 unless n divides 2. So the midpoint
    rule is exact, up to rounding, for any n_points >= 3.
    Elementwise on arrays of draws, with the nodes along a new last axis.
    """
    amplitude, pump_field, wavenumber, r1, r2, mirror_separation = (
        np.asarray(value, dtype=float)[..., None]
        for value in (amplitude, pump_field, wavenumber, r1, r2, mirror_separation))
    displacement = ((np.arange(n_points) + 0.5) / n_points - 0.5) * (2.0 * math.pi / wavenumber)
    samples = _intracavity_field(r1, r2, mirror_separation, amplitude=amplitude,
                                 pump_field=pump_field, wavenumber=wavenumber,
                                 displacement=displacement)
    return np.mean(samples.real ** 2 + samples.imag ** 2, axis=-1)


def check_field_closed_form_vs_roundtrip(rng: np.random.Generator) -> CheckResult:
    draws = _uniform_rows(rng, _ROUNDTRIP_DRAWS, (0.0, 0.999), (0.0, 1.0), (1e-6, 1e-3),
                          (0.1, 10.0), (1e6, 2e7), (-1e-7, 1e-7), (1e-3, 1e-2))
    # r2 on (0, min(0.997 / r1, 0.999)), so r1*r2 < 1: uniform(0, h) is h * u
    draws[:, 1] *= np.minimum(0.997 / np.maximum(draws[:, 0], 1e-12), 0.999)
    r1, r2, amplitude, pump_field, wavenumber, displacement, d = draws.T
    scatterer = dict(amplitude=amplitude, pump_field=pump_field, wavenumber=wavenumber,
                     displacement=displacement)
    exact = _intracavity_field(r1, r2, d, **scatterer)
    # every draw's 10,000 round trips at once: the doubled sum is elementwise
    summed = _iterate_roundtrips(*_source_and_feedback(r1, r2, d, **scatterer), 10_000)
    return _result("field closed form vs round-trip summation",
                   _worst(np.abs(summed - exact) / np.abs(exact)), 1e-6)


def check_field_average_quadrature(rng: np.random.Generator) -> CheckResult:
    draws = _uniform_rows(rng, _FIELD_AVERAGE_DRAWS, (0.0, 0.999), (0.0, 0.999),
                          (1e-6, 1e-3), (0.1, 10.0), (1e6, 2e7))
    r1, r2, amplitude, pump_field, wavenumber = draws.T
    closed = _position_averaged_intensity(amplitude, pump_field ** 2, r1, r2)
    # resonant separation: k*d a multiple of pi
    d = math.pi * rng.integers(1000, 40000, size=_FIELD_AVERAGE_DRAWS) / wavenumber
    numeric = _position_averaged_intensity_numeric(amplitude, pump_field, wavenumber,
                                                   r1, r2, d, _FIELD_AVERAGE_NODES)
    quadrature_residual = _worst(np.abs(numeric - closed) / closed)
    # T2 times the average is transmitted_power up to a relative
    # s*u*(1 - 2u)/2 + s^2*(32u^4 - 48u^3 + 16u^2 + 1)/32 + O(s^3), s = T1 + T2,
    # u = T1/s: at most s/2 at first order; s^2/16 bounds the rest up to s = 0.06,
    # whose s^2 and s^3 coefficients lie in [-0.008, 0.044] and [0.007, 0.032]
    # T1 and T2 log-uniform on [1e-5, 3e-2]
    transmissions = 10.0 ** _uniform_rows(rng, _TIE_DRAWS, *[(-5.0, math.log10(3e-2))] * 2)
    ties = []
    for t1, t2 in transmissions.tolist():
        averaged = t2 * _position_averaged_intensity(1e-3, 1.0, math.sqrt(1.0 - t1),
                                                     math.sqrt(1.0 - t2))
        predicted = field.transmitted_power(1e-3, 1.0, t1, t2,
                                            optics.finesse(1.0 - t1, 1.0 - t2))
        ties.append(abs(averaged / predicted - 1.0) / ((t1 + t2) / 2.0 + (t1 + t2) ** 2 / 16.0))
    tie = _worst(*ties)
    return CheckResult(
        "position-averaged intensity vs quadrature", quadrature_residual <= 1e-6 and tie <= 1.0,
        f"residual {quadrature_residual:.3e} (tolerance 1.0e-06); T2 times it vs "
        f"transmitted_power: residual {tie:.3e} of (T1 + T2)/2 + (T1 + T2)^2/16 "
        "(tolerance 1.0e+00)")


def check_field_mirror_asymmetry(rng: np.random.Generator) -> CheckResult:
    r1, r2 = 0.9, 0.5
    forward = _position_averaged_intensity(1e-3, 1.0, r1, r2)
    swapped = _position_averaged_intensity(1e-3, 1.0, r2, r1)
    expected = (1.0 + r1 ** 2) / (1.0 + r2 ** 2)
    residual = abs(forward / swapped - expected)
    return _result("averaged intensity left-mirror asymmetry", residual, 1e-12)


def check_power_budget_identities(rng: np.random.Generator) -> CheckResult:
    # T1 and T2 log-uniform on [1e-5, 0.1]
    t1, t2 = 10.0 ** _uniform_rows(rng, 50, (-5.0, -1.0), (-5.0, -1.0)).T
    r1, r2 = np.sqrt(1.0 - t1), np.sqrt(1.0 - t2)
    k = 2.0 * math.pi / 532e-9
    # on resonance, k*d a multiple of pi, at the standing wave's two extremes
    # dz = 0 and lambda/4; the larger one is the antinode whatever the sign of r1
    extremes = _intracavity_field(r1[:, None], r2[:, None], 20_000 * math.pi / k,
                                  amplitude=1e-4, pump_field=1.0, wavenumber=k,
                                  displacement=np.array([0.0, math.pi / (2.0 * k)]))
    antinode = np.max(extremes.real ** 2 + extremes.imag ** 2, axis=1)
    # (1 + r1)^2/(1 + r1^2) = 2 - (1 - r1)^2/(1 + r1^2), 2 less about T1^2/8
    ratio = antinode / _position_averaged_intensity(1e-4, 1.0, r1, r2)
    return _result("antinode power vs the position average",
                   _worst(np.abs(ratio - _ANTINODE_FACTOR) / (t1 ** 2 / 4.0)), 1.0)


def check_power_linearity(rng: np.random.Generator) -> CheckResult:
    residuals = []
    for pump, scale, f in _uniform_rows(rng, 50, (0.1, 5.0), (2.0, 100.0),
                                        (10.0, 1e4)).tolist():
        base = field.transmitted_power(1e-4, pump, 0.003, 0.01, f)
        scaled = field.transmitted_power(1e-4, scale * pump, 0.003, 0.01, f)
        residuals.append(abs(scaled / base - scale) / scale)
    return _result("scattered power linear in pump power", _worst(*residuals), 1e-12)


def check_finesse_monotone(rng: np.random.Generator) -> CheckResult:
    transmissions = np.linspace(1e-4, 0.9, 200)
    values = [optics.finesse(1.0 - t, 0.99) for t in transmissions.tolist()]
    monotone = all(a > b for a, b in zip(values, values[1:]))
    return CheckResult("finesse monotone decreasing in transmission", monotone,
                       "strictly decreasing over T in [1e-4, 0.9]" if monotone
                       else "monotonicity violated")


def check_finesse_taylor(rng: np.random.Generator) -> CheckResult:
    residuals = []
    for t in np.linspace(1e-4, 0.0099, 40).tolist():
        reflectivity = 1.0 - t
        exact = optics.finesse(reflectivity, reflectivity)
        approx = 2.0 * math.pi / (2.0 * t)
        residuals.append(abs(exact - approx) / exact)
    return _result("finesse Taylor expansion below T=0.01", _worst(*residuals), 0.02)


def check_cavity_params_identities(rng: np.random.Generator) -> CheckResult:
    residuals = []
    draws = _uniform_rows(rng, 100, (5e-3, 0.5), (0.05, 1.95), (0.5, 0.99999),
                          (0.5, 0.99999), (300e-9, 1600e-9))
    for rc, separation, left, right, wavelength in draws.tolist():
        d = separation * rc
        params = optics.derive_cavity_params(d, rc, left, right, wavelength)
        residuals += [
            abs(params.linewidth * params.finesse / params.free_spectral_range - 1.0),
            abs(params.q_factor * wavelength / (2.0 * d * params.finesse) - 1.0),
            abs(params.rayleigh_length
                / (math.pi * params.waist ** 2 / wavelength) - 1.0),
            abs(params.mode_volume
                / (math.pi * params.waist ** 2 * d / 4.0) - 1.0),
        ]
    return _result("derived cavity parameter identities", _worst(*residuals), 1e-12)


# --- ABCD round-trip oracles for the resonator eigenmode ---------------------
#
# The closed-form waist and mode-spacing expressions of ``optics`` are
# verified against the resonator eigenmode obtained from ray-transfer
# matrices. Both read one round trip, from the cavity centre, where the
# symmetric eigenmode has its waist: the mode spacing needs only its
# half-trace, which the cyclic order of the factors does not change. The
# matrices are multiplied in exact integer arithmetic: near the confocal
# point d = Rc the round trip tends to -I and the entries that fix the
# eigenmode cancel, so a floating-point product loses ~1e-16 / |1 - d/Rc|
# of relative accuracy there.
#
# Every float is an integer over a power of two, so one common power of two
# s turns d/2 and Rc into integers: D = s*d and R = s*Rc, with D even. A
# mirror's matrix times R, ((R, 0), (-2, R)), is integral too, so the round
# trip in units of 1/s is R^2 times an integer matrix. Neither factor
# changes the results: the eigen-equation c*q^2 + (dd - a)*q - b = 0 and
# the half-trace ratio (a + dd) / (2 R^2) are homogeneous in a common matrix
# factor, and q in units of 1/s is s times q in metres. Each result is a
# ratio of exact integers, rounded once by int / int, as an exact rational
# would be.

# relative distance from d = Rc inside which the round-trip waist is undefined
_CONFOCAL_MARGIN = 1e-9


def _centre_roundtrip(mirror_separation: float, radius_of_curvature: float):
    """(s, D, R, ((a, b), (c, dd))): the scale s, D = s*d and R = s*Rc, and
    the integer round trip from the cavity centre, half gap, mirror, gap,
    mirror, half gap, in units of 1/s and times R^2."""
    ratios = [mirror_separation.as_integer_ratio(), radius_of_curvature.as_integer_ratio()]
    # twice the largest denominator, a multiple of each, makes D even
    unit = 2 * max(den for _, den in ratios)
    d, rc = (num * (unit // den) for num, den in ratios)
    half, gap, mirror = ((1, d // 2), (0, 1)), ((1, d), (0, 1)), ((rc, 0), (-2, rc))
    matrix = half
    for (e, f), (g, h) in (mirror, gap, mirror, half):
        (a, b), (c, dd) = matrix
        matrix = (a * e + b * g, a * f + b * h), (c * e + dd * g, c * f + dd * h)
    return unit, d, rc, matrix


def _abcd_roundtrip_waist(mirror_separation: float, radius_of_curvature: float,
                          wavelength: float) -> float:
    """Waist from the self-consistent q-parameter of the round-trip matrix.

    The round trip starts at the cavity centre, where the symmetric
    eigenmode has its waist (q purely imaginary). At the confocal point
    d = Rc the round trip is -I and every q is an eigenmode, so within
    ``_CONFOCAL_MARGIN`` of it this raises ``ValueError``.
    """
    unit, d, rc, ((a, b), (c, dd)) = _centre_roundtrip(mirror_separation,
                                                       radius_of_curvature)
    margin, margin_den = _CONFOCAL_MARGIN.as_integer_ratio()
    # |1 - d/Rc| < _CONFOCAL_MARGIN, cleared of its denominators
    if abs(rc - d) * margin_den < margin * rc:
        raise ValueError(f"degenerate round trip at the confocal point: "
                         f"d={mirror_separation}, Rc={radius_of_curvature}")
    # q solves c*q^2 + (dd - a)*q - b = 0; a stable cavity has complex
    # roots, and Im(q)^2 = -disc / (4 c^2) for the one with Im(q) > 0
    disc = (dd - a) ** 2 + 4 * b * c
    if disc >= 0:
        raise ValueError(f"no stable eigenmode for d={mirror_separation}, "
                         f"Rc={radius_of_curvature}")
    q_imag = math.sqrt(-disc / (4 * c * c * unit * unit))
    return math.sqrt(wavelength * q_imag / math.pi)


def _abcd_roundtrip_mode_spacing(mirror_separation: float,
                                 radius_of_curvature: float) -> float:
    """Transverse mode spacing from the round-trip Gouy phase.

    The half-trace h of the round-trip matrix equals cos(theta_rt), so
    theta_rt = atan2(sqrt(1 - h^2), h), and the spacing is
    FSR * theta_rt / (2 pi).
    """
    _, _, rc, ((a, _), (_, dd)) = _centre_roundtrip(mirror_separation, radius_of_curvature)
    # h = trace / (2 Rc^2) after the two mirrors' factors of Rc
    trace, scale = a + dd, 2 * rc * rc
    if abs(trace) > scale:
        raise ValueError(f"no stable eigenmode for d={mirror_separation}, "
                         f"Rc={radius_of_curvature}")
    theta_rt = math.atan2(math.sqrt((scale * scale - trace * trace) / (scale * scale)),
                          trace / scale)
    return optics.free_spectral_range(mirror_separation) * theta_rt / (2.0 * math.pi)


def check_abcd_waist(rng: np.random.Generator) -> CheckResult:
    residuals = []
    draws = _uniform_rows(rng, _ABCD_DRAWS, (5e-3, 0.5), (0.05, 1.95), (300e-9, 1600e-9))
    for rc, separation, wavelength in draws.tolist():
        d = separation * rc
        # the round trip fixes no waist at the confocal point
        while abs(1.0 - d / rc) < _CONFOCAL_MARGIN:
            d = rng.uniform(0.05, 1.95) * rc
        closed = optics.symmetric_waist(d, rc, wavelength)
        oracle = _abcd_roundtrip_waist(d, rc, wavelength)
        residuals.append(abs(closed - oracle) / closed)
    return _result("waist vs ABCD round-trip eigenmode", _worst(*residuals), 1e-9)


def check_abcd_mode_spacing(rng: np.random.Generator) -> CheckResult:
    residuals = []
    for rc, separation in _uniform_rows(rng, _ABCD_DRAWS, (5e-3, 0.5),
                                        (0.05, 1.95)).tolist():
        d = separation * rc
        closed = optics.transverse_mode_spacing(d, rc)
        oracle = _abcd_roundtrip_mode_spacing(d, rc)
        residuals.append(abs(closed - oracle) / closed)
    return _result("transverse mode spacing vs ABCD Gouy phase", _worst(*residuals), 1e-9)


# --- quadrature oracles for the mode functions and their overlap -------------

# transverse truncation radius for Gaussian-mode quadrature; the tail
# beyond 8 beam widths is below 1e-27 of the integrand peak
_TRUNCATION_WIDTHS = 8.0


def _dipole_normalization() -> float:
    """Numerically integrate the dipole-mode intensity over the sphere; 1
    when ``overlap.DIPOLE_PREFACTOR`` normalizes it. cos^3 is entire: one
    Gauss-Legendre panel holds it to rounding."""
    return quadrature.integrate(
        lambda t: 2.0 * math.pi * overlap.DIPOLE_PREFACTOR ** 2 * np.cos(t) ** 3,
        (-math.pi / 2, math.pi / 2), what="dipole mode normalization", rel_tol=1e-9)


def _radial_field(waist: float, wavelength: float, planes):
    """The intensity-normalized field of the Gaussian mode of ``waist`` in
    each plane z of ``planes``, as a function of radii r and the index of
    each r's plane: exp(-r^2/w^2) / N, with w = w(z) and N(z) = w(z) sqrt(pi/2)
    the normalization that makes its intensity integrate to 1 over a plane."""
    width = np.array([optics.beam_width(waist, wavelength, z) for z in planes])
    norm = width * math.sqrt(math.pi / 2.0)
    return lambda r, row: np.exp(-(r / width[row]) ** 2) / norm[row]


def _radial_edges(waist: float, wavelength: float, z: float) -> np.ndarray:
    """Panel edges 0, w, 2w, 4w, 8w over the truncated plane, w = w(z)."""
    width = optics.beam_width(waist, wavelength, z)
    return quadrature.graded_edges(width, _TRUNCATION_WIDTHS * width)


def _gaussian_normalization(waist: float, wavelength: float, planes) -> np.ndarray:
    """Numerically integrate the Gaussian-mode intensity over each plane z
    of ``planes``, in one batch."""
    radial = _radial_field(waist, wavelength, planes)
    return quadrature.integrate_rows(lambda r, row: 2.0 * math.pi * radial(r, row) ** 2 * r,
                                     [_radial_edges(waist, wavelength, z) for z in planes],
                                     what="gaussian mode normalization", rel_tol=1e-9)


def _dipole_mode_power(amplitude: float, pump_power: float,
                       wavelength: float, waist: float) -> float:
    """Power scattered into the dipole mode in free space, 4 pi^2 w0^2 a^2 Pp / (3 lambda^2)."""
    return (4.0 * math.pi ** 2 * waist ** 2 / (3.0 * wavelength ** 2)
            * amplitude ** 2 * pump_power)


def check_dipole_normalization(rng: np.random.Generator) -> CheckResult:
    residual = abs(_dipole_normalization() - 1.0)
    return _result("dipole mode intensity normalization", residual, 1e-6)


def check_gaussian_normalization(rng: np.random.Generator) -> CheckResult:
    z0 = optics.rayleigh_length(45e-6, 532e-9)
    worst = _worst(np.abs(_gaussian_normalization(45e-6, 532e-9, (0.0, z0, 10.0 * z0)) - 1.0))
    return _result("gaussian mode intensity normalization", worst, 1e-6)


def check_overlap_far_field(rng: np.random.Generator) -> CheckResult:
    wavelength, waist = 532e-9, 45e-6
    z0 = optics.rayleigh_length(waist, wavelength)
    analytic = overlap.overlap_eta_analytic(wavelength, waist)
    near = overlap.overlap_eta_numeric(wavelength, waist, 100.0 * z0)
    far = overlap.overlap_eta_numeric(wavelength, waist, 1e4 * z0)
    residual_near = abs(near - analytic) / analytic
    residual_far = abs(far - analytic) / analytic
    # the closed form of the on-axis integral against its quadrature, and
    # the full cos(latitude)/rho field's integral at 100 z0
    *oracle, exact = _dipole_overlap_quadrature(wavelength, waist, (100.0 * z0, 1e4 * z0),
                                                (100.0 * z0,))
    quadrature = _worst(np.abs(np.array([near, far]) - oracle) / oracle)
    # the axial field is off the full one by 3/4 (w(z)/z)^2 relative
    width_ratio = optics.beam_width(waist, wavelength, 100.0 * z0) / (100.0 * z0)
    weighting = abs((near - exact) / exact / width_ratio ** 2 - 0.75)
    passed = bool(residual_near <= 1e-3 and residual_far <= 1e-5 and quadrature <= 1e-12
                  and weighting <= 1e-3)
    detail = (f"residual {residual_near:.3e} at 100 z0, {residual_far:.3e} at 1e4 z0; "
              f"off the full field by (w(z)/z)^2 times 3/4 with residual {weighting:.3e} "
              "(tolerance 1.0e-03)")
    if not quadrature <= 1e-12:
        detail += f"; closed form off its quadrature by {quadrature:.3e} (tolerance 1.0e-12)"
    return CheckResult("overlap quadrature far-field convergence", passed, detail)


def check_overlap_monotone(rng: np.random.Generator) -> CheckResult:
    wavelength, waist = 532e-9, 45e-6
    z0 = optics.rayleigh_length(waist, wavelength)
    factors = [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0]
    values = [overlap.overlap_eta_numeric(wavelength, waist, f * z0) for f in factors]
    analytic = overlap.overlap_eta_analytic(wavelength, waist)
    monotone = all(a > b for a, b in zip(values, values[1:]))
    approaches = all(v > analytic for v in values)
    passed = monotone and approaches
    return CheckResult("overlap approaches analytic limit monotonically", passed,
                       "decreasing toward the analytic value beyond 10 z0"
                       if passed else "monotone approach violated")


def check_purcell_equivalence(rng: np.random.Generator) -> CheckResult:
    residuals = []
    draws = _uniform_rows(rng, _PURCELL_DRAWS, (1.0, 1e6), (200e-9, 2000e-9),
                          (5e-6, 5e-4), (1e-3, 1.0))
    for f, wavelength, waist, d in draws.tolist():
        a = overlap.purcell_factor(optics.q_factor(d, f, wavelength), wavelength,
                                   optics.mode_volume(waist, d))
        b = overlap.purcell_ratio(f, wavelength, waist)
        residuals.append(abs(a - b) / b)
    return _result("Purcell factor equals interference power ratio", _worst(*residuals),
                   1e-12)


def check_purcell_separation_cancels(rng: np.random.Generator) -> CheckResult:
    wavelength, waist, f = 532e-9, 45e-6, 1000.0
    values = [overlap.purcell_factor(optics.q_factor(d, f, wavelength), wavelength,
                                     optics.mode_volume(waist, d))
              for d in rng.uniform(1e-4, 10.0, size=50).tolist()]
    residual = (_worst(*values) - min(values)) / values[0]
    return _result("mirror separation cancels in the Purcell factor", residual, 1e-12)


def _overlap_quadrature(observed_fwhm: float, linewidths) -> np.ndarray:
    """The Doppler/cavity overlap integral for each of ``linewidths``, by
    composite Gauss-Legendre quadrature in one batch.

    Area-normalized Gaussian times peak-normalized Lorentzian over a window
    of 8 Gaussian sigma plus 40 Lorentzian HWHM, where the slowly decaying
    Lorentzian wings stop mattering.
    """
    sigma = observed_fwhm / spectra._FWHM_PER_SIGMA
    hwhms = [linewidth / 2.0 for linewidth in linewidths]
    hwhm_sq = np.array(hwhms) ** 2
    # the Lorentzian's peak normalization times the Gaussian's area one
    scale = hwhm_sq / (sigma * math.sqrt(2.0 * math.pi))

    def integrand(nu, row):
        # in place: each fresh ~0.2 MB array of the 2n rule costs page faults
        nu_sq = nu ** 2
        values = np.exp(nu_sq / (-2.0 * sigma ** 2))
        values *= scale[row]
        nu_sq += hwhm_sq[row]
        return np.divide(values, nu_sq, out=values)

    # panels break at +-8 sigma and +-8 hwhm and double in width out from the
    # narrower feature: over the checked hwhm/sigma of 1e-3 to 10, even 96
    # nodes on one panel across the window miss 9 % to all of the integral
    halves = [quadrature.graded_edges(min(sigma, h), 8.0 * sigma + 40.0 * h,
                                      (8.0 * sigma, 8.0 * h)) for h in hwhms]
    windows = [np.concatenate((-half[:0:-1], half)) for half in halves]
    return quadrature.integrate_rows(integrand, windows, what="spectral overlap",
                                     rel_tol=1e-10)


def _doppler_width(wavelength: float, temperature: float, molar_mass: float,
                   k_in: np.ndarray, k_out: np.ndarray) -> float:
    """FWHM of the Doppler shift v . (k_out - k_in) / lambda of a thermal gas,
    for unit wavevectors ``k_in`` (pump) and ``k_out`` (collection).

    The velocity v is 3-D Maxwell-Boltzmann: each component normal with
    sigma_v = sqrt(kB T / m). A projection of it is normal too, so the
    shift has standard deviation sigma_v |k_out - k_in| / lambda.
    """
    sigma_v = math.sqrt(BOLTZMANN * temperature * AVOGADRO / molar_mass)
    return spectra._FWHM_PER_SIGMA * sigma_v * np.linalg.norm(k_out - k_in) / wavelength


def _dipole_overlap_quadrature(wavelength: float, waist: float, axial_planes=(),
                               exact_planes=()) -> np.ndarray:
    """The overlap integral on each plane z of ``axial_planes``, with the
    dipole field at its axial value P/z, then on each of ``exact_planes``,
    with its full P cos(latitude)/rho, by Gauss-Legendre quadrature over the
    (r, phi) tensor product, in one batch. The integrand reads phi only
    through cos^2 phi, so phi runs over a quarter turn, times 4."""
    planes = (*axial_planes, *exact_planes)
    plane_z = np.array(planes)
    # the field's distance from the axis is r on the exact planes, 0 on the others
    off_axis = np.repeat([0.0, 1.0], [len(axial_planes), len(exact_planes)])
    radial = _radial_field(waist, wavelength, planes)

    def integrand(r, phi, row):
        z, r_field = plane_z[row], r * off_axis[row]
        dist_sq = r_field ** 2 + z ** 2
        # dipole axis lies in the plane transverse to the cavity at phi=0;
        # only the square root spans the (r, phi) grid, the rest is per r
        cos_latitude = np.sqrt(1.0 - r_field ** 2 / dist_sq * np.cos(phi) ** 2)
        return cos_latitude * (4.0 * overlap.DIPOLE_PREFACTOR / np.sqrt(dist_sq)
                               * radial(r, row) * r)

    return quadrature.integrate_rows(integrand,
                                     [_radial_edges(waist, wavelength, z) for z in planes],
                                     (0.0, math.pi / 2.0), what="dipole/cavity overlap",
                                     rel_tol=1e-12)


def check_spectral_overlap_closed_form(rng: np.random.Generator) -> CheckResult:
    observed = _xenon_observed_fwhm()
    linewidths = [10 ** exponent for exponent in rng.uniform(5.5, 10.0, size=40).tolist()]
    closed = np.array([spectra.spectral_overlap(observed, w) for w in linewidths])
    residuals = np.abs(_overlap_quadrature(observed, linewidths) - closed) / closed
    return _result("spectral overlap vs Faddeeva closed form", _worst(residuals), 1e-6)


def check_spectral_overlap_limits(rng: np.random.Generator) -> CheckResult:
    observed = _xenon_observed_fwhm()
    widths = np.logspace(5.0, 12.0, 30).tolist()
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
    residuals = []
    for eps, theta in _uniform_rows(rng, 100, (0.0, 0.5), (0.0, 2.0 * math.pi)).tolist():
        total = (spectra.polarization_signal(theta, eps)
                 + spectra.polarization_signal(theta + math.pi / 2.0, eps))
        residuals.append(abs(total - (1.0 + eps)))
    return _result("polarization quarter-turn sum rule", _worst(*residuals), 1e-12)


# --- oracles for the cavity scan ---------------------------------------------
#
# Not in ALL_CHECKS: the tests compare spectra.scan_spectrum against them at a
# few hundred detunings. Both return the unnormalized scan signal.

def _comb_lines(species_weights, wavelength: float,
                temperature: float) -> list[tuple[float, float]]:
    return [(weight * gas.polarizability ** 2,
             spectra.observed_doppler_fwhm(gas, wavelength, temperature)
             / spectra._FWHM_PER_SIGMA) for gas, weight in species_weights]


# comb orders on each side of a detuning that ``scan_voigt_sum`` adds up
_VOIGT_ORDERS = 4000


def scan_voigt_sum(detunings: np.ndarray, fsr: float, finesse: float,
                   species_weights, wavelength: float, temperature: float) -> np.ndarray:
    """Scan signal as an explicit sum of Voigt profiles over comb orders.

    Sums the 2 * _VOIGT_ORDERS + 1 orders nearest each detuning. The
    Lorentzian wings of the orders left out add about 2 hwhm^2 / (F^2
    _VOIGT_ORDERS) of a line's Lorentzian peak. The Voigt profile is
    ``scipy.special``'s, a test-only dependency imported here.
    """
    from scipy import special

    hwhm = fsr / finesse / 2.0
    nu = np.asarray(detunings, dtype=float)
    offsets = ((nu - np.round(nu / fsr) * fsr)[:, None]
               - fsr * np.arange(-_VOIGT_ORDERS, _VOIGT_ORDERS + 1))
    total = np.zeros(len(nu))
    for strength, sigma in _comb_lines(species_weights, wavelength, temperature):
        total += strength * math.pi * hwhm * special.voigt_profile(
            offsets, sigma, hwhm).sum(axis=1)
    return total


def scan_fourier_series(detunings: np.ndarray, fsr: float, finesse: float,
                        species_weights, wavelength: float,
                        temperature: float) -> np.ndarray:
    """Scan signal from the comb's Fourier series, summed term by term.

    pi hwhm / F * [1 + 2 sum_k c_k cos(2 pi k nu / F)] per line, up to the
    first k at which either factor of c_k alone is below 1e-20; no table
    and no interpolation.
    """
    hwhm = fsr / finesse / 2.0
    phase = 2.0 * math.pi * np.mod(np.asarray(detunings, dtype=float), fsr) / fsr
    log_floor = math.log(1e20)
    total = np.zeros(len(phase))
    for strength, sigma in _comb_lines(species_weights, wavelength, temperature):
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
    params = optics.derive_cavity_params(*_REFERENCE_CAVITY, 532e-9)
    xenon = _packaged_species()["Xe"]
    scale = rng.uniform(2.0, 10.0)
    comb = params.free_spectral_range, params.finesse
    base = spectra.scan_spectrum(*comb, [(xenon, 1.0)], 5e9, 2e6, 532e-9, _TEMPERATURE)
    scaled = spectra.scan_spectrum(*comb, [(xenon, scale)], 5e9, 2e6, 532e-9, _TEMPERATURE)
    residual = float(np.max(np.abs(scaled.signals - scale * base.signals))
                     / np.max(scaled.signals))
    return _result("scan signal linear in species weight", residual, 1e-12)


# No Monte Carlo: the closed-form projection of the thermal velocity spread on
# k_out - k_in, over random geometries. cavbench's hand-typed CHECK_NAMES pins
# the name until ROADMAP item 1a derives it; item 12 then renames the check.
def check_doppler_monte_carlo(rng: np.random.Generator) -> CheckResult:
    xenon = _packaged_species()["Xe"]
    residuals = []
    draws = _uniform_rows(rng, _DOPPLER_DRAWS, (-6.0, 3.0), (1e-3, 0.3), (200e-9, 2000e-9))
    # per draw, a uniformly rotated perpendicular pair: Gram-Schmidt on two
    # normal 3-vectors
    directions = rng.standard_normal((_DOPPLER_DRAWS, 2, 3))
    for (log_temperature, molar_mass, wavelength), (k_in, k_out) in zip(draws.tolist(),
                                                                         directions):
        gas, temperature = xenon._replace(molar_mass=molar_mass), 10 ** log_temperature
        k_in /= np.linalg.norm(k_in)
        k_out -= (k_out @ k_in) * k_in
        k_out /= np.linalg.norm(k_out)
        width = _doppler_width(wavelength, temperature, gas.molar_mass, k_in, k_out)
        expected = spectra.observed_doppler_fwhm(gas, wavelength, temperature)
        residuals.append(abs(width - expected) / expected)
    return _result("Doppler width vs thermal velocity spread along k_out - k_in",
                   _worst(*residuals), 1e-12)


def check_species_ratio(rng: np.random.Generator) -> CheckResult:
    params = optics.derive_cavity_params(*_REFERENCE_CAVITY, 532e-9)
    table = _packaged_species()
    ratios = spectra.species_ratio([table["Xe"], table["CF3H"], table["N2"]],
                                   params.linewidth, 532e-9, _TEMPERATURE)
    expected = (1.0, 0.36, 0.09)
    worst = _worst(*(abs(r - e) for r, e in zip(ratios, expected)))
    return _result("species ratio against the expected triple", worst, 0.03)


def check_backout_roundtrip(rng: np.random.Generator) -> CheckResult:
    residuals = []
    draws = _uniform_rows(rng, 100, (1e-16, 1e-12), (10.0, 1e5), (0.01, 1.0), (0.1, 1.0))
    for free_space, f, ovl, share in draws.tolist():
        # mirrors that send about ``share`` of the power out on the right
        left, right = share, 1.0 - share
        # free_space is a^2 Pp, the one-way power without a cavity
        measured = field.transmitted_power(1.0, free_space, 1.0 - left, 1.0 - right,
                                           f) * ovl
        recovered = experiment.free_space_backout(measured, ovl, (f, left, right))
        residuals.append(abs(recovered - free_space) / free_space)
    return _result("free-space back-out round trip", _worst(*residuals), 1e-12)


def check_forecast_consistency(rng: np.random.Generator) -> CheckResult:
    xe = _packaged_species()["Xe"]
    target = experiment.ultracold_target_species(xe)
    waist = optics.derive_cavity_params(*_REFERENCE_CAVITY, 532e-9).waist
    report = experiment.ultracold_forecast(
        target, 1e5, 1e5, gas=xe, temperature=_TEMPERATURE, pressure=1e4,
        wavelength=532e-9, pump_waist=50e-6, cavity_waist=waist, measured_power=50e-15,
        anchor_finesse=1000.0, spectral_overlap=0.042)
    identities = _worst(
        abs(report.ensemble_rate_Hz
            - report.per_molecule_in_cavity_rate_Hz * report.n_molecules),
        abs(report.cavity_free_space_ratio
            - overlap.purcell_ratio(1e5, 532e-9, waist)),
    )
    # the per-molecule rate by another route: the anchor's free-space power
    # per contributing particle, sent out through both target mirrors
    mirror = _REFERENCE_CAVITY[2]
    free_space = (experiment.free_space_backout(50e-15, 0.042, (1000.0, mirror, mirror))
                  / experiment.contributing_particles(
                      optics.number_density(1e4, _TEMPERATURE), 50e-6, waist, 0.042))
    power = 2.0 * field.transmitted_power(target.polarizability / xe.polarizability,
                                          free_space, 1.0 - mirror, 1.0 - mirror, 1e5)
    rate = power / (PLANCK * SPEED_OF_LIGHT / 532e-9)
    in_cavity = report.per_molecule_in_cavity_rate_Hz
    route = abs(rate - in_cavity) / in_cavity
    passed = identities <= 0.0 and route <= 1e-12
    detail = (f"residual {identities:.3e} (tolerance 0.0e+00); per-molecule rate "
              f"residual {route:.3e} against the back-out route (tolerance 1.0e-12)")
    return CheckResult("forecast internal consistency", passed, detail)


def check_unit_convention_cancels(rng: np.random.Generator) -> CheckResult:
    residuals = []
    draws = _uniform_rows(rng, 50, (1e-3, 1e3), (10.0, 1e5), (300e-9, 1600e-9), (1e-5, 1e-4))
    for unit, f, wavelength, waist in draws.tolist():
        # a symmetric cavity's power out through both mirrors, at an antinode
        cavity_power = _ANTINODE_FACTOR * 2.0 * field.transmitted_power(1e-4, unit, 0.003,
                                                                        0.003, f)
        ratio = cavity_power / _dipole_mode_power(1e-4, unit, wavelength, waist)
        expected = overlap.purcell_ratio(f, wavelength, waist)
        residuals.append(abs(ratio - expected) / expected)
    return _result("arbitrary power unit cancels in ratios", _worst(*residuals), 1e-12)


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


def _check_rngs(seed: int) -> Callable[[str], np.random.Generator]:
    """Each check's generator, by name: PCG64(seed) advanced crc32(name) * 2**64
    steps, a stream of (seed, name) alone that no other name's overlaps. They
    share one bit generator, reset per name: each serves until the next."""
    bit_generator = np.random.PCG64(seed)
    seeded = bit_generator.state

    def check_rng(name: str) -> np.random.Generator:
        bit_generator.state = seeded
        return np.random.Generator(bit_generator.advance(zlib.crc32(name.encode()) << 64))
    return check_rng


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every check of ``ALL_CHECKS``, in order, each on its own stream
    derived from ``seed`` and its name."""
    check_rng = _check_rngs(seed)
    return [check(check_rng(check.__name__)) for check in ALL_CHECKS]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: {r.detail}")
    n_passed = sum(r.passed for r in results)
    lines.append(f"{n_passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

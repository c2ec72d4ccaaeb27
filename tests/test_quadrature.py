"""The composite Gauss-Legendre rule against scipy's adaptive quadrature.

Each of the five integrals that run the rule is held to
``scipy.integrate.quad`` (``dblquad`` for the exact overlap) of the same
integrand at 1e-12 relative, and the batched entry to one integral per
row at 1e-15. scipy is a test-only dependency.
"""

import math

import numpy as np
import pytest

from cavray import (ConvergenceError, beam_width, quadrature, rayleigh_length, spectra,
                    validation)
from cavray.overlap import DIPOLE_PREFACTOR

integrate = pytest.importorskip("scipy.integrate")

WAVELENGTH = 532e-9
WAIST = 45e-6
Z0 = rayleigh_length(WAIST, WAVELENGTH)


def quad(f, lo, hi, **kwargs):
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, **kwargs)[0]


def dipole_intensity_integral(latitude_range, prefactor=DIPOLE_PREFACTOR):
    """The cos^3 integral of ``validation._dipole_normalization`` over a
    latitude range."""
    return quadrature.integrate(
        lambda t: 2.0 * math.pi * prefactor ** 2 * np.cos(t) ** 3, latitude_range,
        what="dipole mode normalization", rel_tol=1e-9)


def test_dipole_normalization_is_the_full_range_integral():
    assert validation._dipole_normalization() == dipole_intensity_integral(
        (-math.pi / 2, math.pi / 2))


def test_quadratic_in_prefactor():
    value = dipole_intensity_integral((-math.pi / 2, math.pi / 2), 2.0 * DIPOLE_PREFACTOR)
    assert value == pytest.approx(4.0, abs=1e-6)


def test_partial_latitude_range_against_closed_form():
    # antiderivative of cos^3 is sin - sin^3/3
    def closed(theta):
        return 0.75 * 2.0 * (math.sin(theta) - math.sin(theta) ** 3 / 3.0)

    for theta in (math.pi / 4.0, math.pi / 6.0, 1.0):
        numeric = dipole_intensity_integral((-theta, theta))
        assert numeric == pytest.approx(closed(theta), rel=1e-9)


def test_quarter_range_value():
    value = dipole_intensity_integral((-math.pi / 4, math.pi / 4))
    assert value == pytest.approx(0.8838834764831844, rel=1e-9)


@pytest.mark.parametrize("latitude_range", [(-math.pi / 2, math.pi / 2), (-1.0, 1.0),
                                            (-0.3, 1.2), (0.0, 0.01)])
def test_dipole_normalization_matches_quad(latitude_range):
    oracle = quad(lambda t: 2.0 * math.pi * DIPOLE_PREFACTOR ** 2 * math.cos(t) ** 3,
                  *latitude_range)
    value = dipole_intensity_integral(latitude_range)
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("z_factor", [0.0, 1.0, 10.0, 1e4])
def test_gaussian_normalization_matches_quad(z_factor):
    z = z_factor * Z0
    field = validation._radial_field(WAIST, WAVELENGTH, (z,))
    oracle = quad(lambda r: 2.0 * math.pi * field(r, 0) ** 2 * r,
                  0.0, validation._TRUNCATION_WIDTHS * beam_width(WAIST, WAVELENGTH, z))
    value = validation._gaussian_normalization(WAIST, WAVELENGTH, (z,))[0]
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("z_factor", [10.0, 100.0, 1e4])
def test_exact_overlap_matches_dblquad(z_factor):
    z = z_factor * Z0
    field = validation._radial_field(WAIST, WAVELENGTH, (z,))

    def integrand(r, phi):
        dist_sq = r ** 2 + z ** 2
        cos_latitude = math.sqrt(1.0 - (r * math.cos(phi)) ** 2 / dist_sq)
        return DIPOLE_PREFACTOR * cos_latitude / math.sqrt(dist_sq) * field(r, 0) * r

    oracle = integrate.dblquad(integrand, 0.0, 2.0 * math.pi, 0.0,
                               validation._TRUNCATION_WIDTHS * beam_width(WAIST, WAVELENGTH, z),
                               epsabs=0.0, epsrel=1e-13)[0]
    value = validation._dipole_overlap_quadrature(WAVELENGTH, WAIST, exact_planes=(z,))[0]
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("z_factor", [10.0, 300.0, 1e4])
def test_on_axis_overlap_quadrature_matches_quad(z_factor):
    z = z_factor * Z0
    axial = DIPOLE_PREFACTOR / z
    field = validation._radial_field(WAIST, WAVELENGTH, (z,))
    oracle = quad(lambda r: 2.0 * math.pi * axial * field(r, 0) * r,
                  0.0, validation._TRUNCATION_WIDTHS * beam_width(WAIST, WAVELENGTH, z))
    value = validation._dipole_overlap_quadrature(WAVELENGTH, WAIST, (z,))[0]
    assert abs(value - oracle) <= 1e-12 * oracle


def test_spectral_overlap_quadrature_matches_quad():
    # hwhm / sigma over 1e-3 .. 10, the span the closed-form check draws
    observed_fwhm = 8.556e8
    sigma = observed_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    ratios = np.logspace(-3.0, 1.0, 41).tolist()
    # one batch over every window, each held to its own adaptive quadrature
    values = validation._overlap_quadrature(observed_fwhm, [2.0 * r * sigma for r in ratios])
    for ratio, value in zip(ratios, values.tolist()):
        hwhm = ratio * sigma

        def integrand(nu):
            gauss = math.exp(-nu ** 2 / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
            return gauss * hwhm ** 2 / (nu ** 2 + hwhm ** 2)

        window = 8.0 * sigma + 40.0 * hwhm
        oracle = quad(integrand, -window, window, limit=400,
                      points=sorted({-8.0 * sigma, -8.0 * hwhm, 0.0, 8.0 * hwhm, 8.0 * sigma}))
        assert abs(value - oracle) <= 1e-12 * oracle, ratio


def test_too_coarse_rule_raises_convergence_error():
    # a Gaussian of width 0.05 on one panel of [-1, 1]: 16 and 32 nodes
    # disagree by 6.6e-2 of its area 0.089
    def narrow(x):
        return np.exp(-(x / 0.05) ** 2)

    with pytest.raises(ConvergenceError, match="narrow peak") as exc:
        quadrature.integrate(narrow, [-1.0, 1.0], what="narrow peak", rel_tol=1e-9)
    assert exc.value.residual > 1e-2
    # panels graded down to its width resolve it
    half = quadrature.graded_edges(0.05, 1.0)
    value = quadrature.integrate(narrow, np.concatenate((-half[:0:-1], half)),
                                 what="narrow peak", rel_tol=1e-9)
    assert value == pytest.approx(0.05 * math.sqrt(math.pi), rel=1e-13)


def test_public_integrals_keep_their_convergence_error():
    with pytest.raises(ConvergenceError, match="dipole mode normalization"):
        dipole_intensity_integral((-30.0, 30.0))


def test_tensor_product_integrates_each_variable():
    value = quadrature.integrate(lambda x, y: x ** 2 * np.cos(y), [0.0, 1.0, 2.0],
                                 [0.0, math.pi / 2], what="product", rel_tol=1e-12)
    assert value == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_node_tables_are_cached_and_read_only():
    nodes, weights = quadrature._legendre_rule(16)
    assert quadrature._legendre_rule(16)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert weights.sum() == pytest.approx(2.0, rel=1e-15)


def test_graded_edges_double_away_from_the_feature():
    assert quadrature.graded_edges(1.0, 8.0).tolist() == [0.0, 1.0, 2.0, 4.0, 8.0]
    assert quadrature.graded_edges(1.0, 10.0, (3.0, 20.0)).tolist() == [
        0.0, 1.0, 2.0, 3.0, 4.0, 8.0, 10.0]


def _lorentz_gauss(nu, sigma, hwhm):
    """The spectral-overlap integrand at Gaussian sigma and Lorentzian hwhm."""
    gauss = np.exp(-nu ** 2 / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
    return gauss * hwhm ** 2 / (nu ** 2 + hwhm ** 2)


def _overlap_window(sigma, hwhm):
    """The panel edges ``validation._overlap_quadrature`` integrates over."""
    half = quadrature.graded_edges(min(sigma, hwhm), 8.0 * sigma + 40.0 * hwhm,
                                   (8.0 * sigma, 8.0 * hwhm))
    return np.concatenate((-half[:0:-1], half))


def test_batch_matches_per_row_integrals_on_the_spectral_overlap_windows():
    sigma = 3.6e8
    hwhm = sigma * np.logspace(-3.0, 1.0, 41)
    rows = [_overlap_window(sigma, h) for h in hwhm.tolist()]
    batch = quadrature.integrate_rows(lambda nu, row: _lorentz_gauss(nu, sigma, hwhm[row]),
                                      rows, what="spectral overlap", rel_tol=1e-10)
    single = np.array([quadrature.integrate(lambda nu: _lorentz_gauss(nu, sigma, h), row,
                                            what="spectral overlap", rel_tol=1e-10)
                       for h, row in zip(hwhm.tolist(), rows)])
    assert np.max(np.abs(batch - single) / single) <= 1e-15


def test_ragged_batch_matches_per_row_integrals():
    # a 1-panel row beside a 30-panel one, each with its own decay rate
    rows = [[0.0, 1.0], np.linspace(0.0, 3.0, 31)]
    rates = np.array([0.5, 2.0])
    batch = quadrature.integrate_rows(lambda x, row: np.exp(-rates[row] * x), rows,
                                      what="decay", rel_tol=1e-12)
    single = [quadrature.integrate(lambda x: np.exp(-rate * x), row, what="decay",
                                   rel_tol=1e-12)
              for rate, row in zip(rates.tolist(), rows)]
    assert np.max(np.abs(batch - single) / single) <= 1e-15
    exact = [(1.0 - math.exp(-0.5)) / 0.5, (1.0 - math.exp(-6.0)) / 2.0]
    assert batch == pytest.approx(exact, rel=1e-14)


def test_batch_names_its_first_unresolved_row():
    # the narrow peak of the coarse-rule test, on a graded row and on one panel
    half = quadrature.graded_edges(0.05, 1.0)
    rows = [np.concatenate((-half[:0:-1], half)), [-1.0, 1.0], [-1.0, 1.0]]
    with pytest.raises(ConvergenceError, match="narrow peak, row 1") as exc:
        quadrature.integrate_rows(lambda x, row: np.exp(-(x / 0.05) ** 2), rows,
                                  what="narrow peak", rel_tol=1e-9)
    assert exc.value.residual > 1e-2


def _graded_edges_by_unique(scale, stop, breakpoints=()):
    """``quadrature.graded_edges`` as it was built with ``np.unique``."""
    count = max(0, math.ceil(math.log2(stop / scale)))
    geometric = scale * 2.0 ** np.arange(count)
    return np.unique(np.concatenate(([0.0, stop], geometric[geometric < stop],
                                     [b for b in breakpoints if 0.0 < b < stop])))


@pytest.mark.parametrize("seed", [0, 20260])
def test_graded_edges_match_the_unique_construction(seed):
    # the arguments of every oracle that grades its panels: the spectral
    # overlap's windows at the check's draws and the hwhm/sigma span, the
    # radial planes of the mode checks, and the narrow peak above
    observed = validation._xenon_observed_fwhm()
    sigma = observed / spectra._FWHM_PER_SIGMA
    exponents = np.random.default_rng(seed).uniform(5.5, 10.0, size=40).tolist()
    hwhms = [10 ** e / 2.0 for e in exponents] + (sigma * np.logspace(-3.0, 1.0, 41)).tolist()
    arguments = [(min(sigma, h), 8.0 * sigma + 40.0 * h, (8.0 * sigma, 8.0 * h))
                 for h in hwhms]
    widths = [beam_width(WAIST, WAVELENGTH, f * Z0) for f in (0.0, 1.0, 10.0, 100.0, 1e4)]
    arguments += [(w, validation._TRUNCATION_WIDTHS * w, ()) for w in widths]
    arguments += [(0.05, 1.0, ()), (1.0, 10.0, (3.0, 20.0)), (1.0, 8.0, ())]
    for args in arguments:
        edges = quadrature.graded_edges(*args)
        assert edges.dtype == float
        assert edges.tolist() == _graded_edges_by_unique(*args).tolist(), args

"""The composite Gauss-Legendre rule against scipy's adaptive quadrature.

Each of the five integrals that run the rule is held to
``scipy.integrate.quad`` (``dblquad`` for the exact overlap) of the same
integrand at 1e-12 relative. scipy is a test-only dependency.
"""

import math

import numpy as np
import pytest

from cavray import ConvergenceError, quadrature, validation
from cavray.overlap import DIPOLE_PREFACTOR, GaussianMode

integrate = pytest.importorskip("scipy.integrate")

WAVELENGTH = 532e-9
WAIST = 45e-6
Z0 = GaussianMode(WAIST, WAVELENGTH).rayleigh_length


def quad(f, lo, hi, **kwargs):
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, **kwargs)[0]


@pytest.mark.parametrize("latitude_range", [(-math.pi / 2, math.pi / 2), (-1.0, 1.0),
                                            (-0.3, 1.2), (0.0, 0.01)])
def test_dipole_normalization_matches_quad(latitude_range):
    oracle = quad(lambda t: 2.0 * math.pi * DIPOLE_PREFACTOR ** 2 * math.cos(t) ** 3,
                  *latitude_range)
    value = validation._dipole_normalization(latitude_range=latitude_range)
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("z_factor", [0.0, 1.0, 10.0, 1e4])
def test_gaussian_normalization_matches_quad(z_factor):
    z = z_factor * Z0
    mode = GaussianMode(WAIST, WAVELENGTH)
    field = validation._radial_field(mode, z)
    oracle = quad(lambda r: 2.0 * math.pi * field(r) ** 2 * r,
                  0.0, validation._TRUNCATION_WIDTHS * mode.width(z))
    value = validation._gaussian_normalization(WAIST, WAVELENGTH, z)
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("z_factor", [10.0, 100.0, 1e4])
def test_exact_overlap_matches_dblquad(z_factor):
    z = z_factor * Z0
    mode = GaussianMode(WAIST, WAVELENGTH)
    field = validation._radial_field(mode, z)

    def integrand(r, phi):
        dist_sq = r ** 2 + z ** 2
        cos_latitude = math.sqrt(1.0 - (r * math.cos(phi)) ** 2 / dist_sq)
        return DIPOLE_PREFACTOR * cos_latitude / math.sqrt(dist_sq) * field(r) * r

    oracle = integrate.dblquad(integrand, 0.0, 2.0 * math.pi,
                               0.0, validation._TRUNCATION_WIDTHS * mode.width(z),
                               epsabs=0.0, epsrel=1e-13)[0]
    value = validation._exact_overlap_quadrature(WAVELENGTH, WAIST, z)
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("z_factor", [10.0, 300.0, 1e4])
def test_on_axis_overlap_quadrature_matches_quad(z_factor):
    z = z_factor * Z0
    mode = GaussianMode(WAIST, WAVELENGTH)
    axial = DIPOLE_PREFACTOR / z
    field = validation._radial_field(mode, z)
    oracle = quad(lambda r: 2.0 * math.pi * axial * field(r) * r,
                  0.0, validation._TRUNCATION_WIDTHS * mode.width(z))
    value = validation._on_axis_overlap_quadrature(WAVELENGTH, WAIST, z)
    assert abs(value - oracle) <= 1e-12 * oracle


def test_spectral_overlap_quadrature_matches_quad():
    # hwhm / sigma over 1e-3 .. 10, the span the closed-form check draws
    observed_fwhm = 8.556e8
    sigma = observed_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    for ratio in np.logspace(-3.0, 1.0, 41):
        hwhm = ratio * sigma

        def integrand(nu):
            gauss = math.exp(-nu ** 2 / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
            return gauss * hwhm ** 2 / (nu ** 2 + hwhm ** 2)

        window = 8.0 * sigma + 40.0 * hwhm
        oracle = quad(integrand, -window, window, limit=400,
                      points=sorted({-8.0 * sigma, -8.0 * hwhm, 0.0, 8.0 * hwhm, 8.0 * sigma}))
        value = validation._overlap_quadrature(observed_fwhm, 2.0 * hwhm)
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
        validation._dipole_normalization(latitude_range=(-30.0, 30.0), rel_tol=1e-9)


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

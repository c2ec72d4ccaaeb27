"""Mode functions, the overlap integral and the Purcell equivalence.

Frozen and paper values live here. The comparisons ``cavray validate``
makes (dipole normalization, far-field convergence and monotone approach,
the exact cos(latitude)/r weighting at 100 z0, Purcell equivalence,
power-unit cancellation) live in its checks alone, each failing on a named
mutant in ``test_validation.py``; the cos^3 integrand's partial ranges are
in ``test_quadrature.py``. The oracles are held here where no check
reaches: other planes and random geometries. The free-space dipole-mode
power that the cavity-mode fraction reads is an oracle of ``validation``,
not of ``overlap``, which keeps what a report runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavray import (beam_width, overlap_eta_analytic, overlap_eta_numeric, purcell_factor,
                    purcell_ratio, rayleigh_length, validation)

WAVELENGTH = 532e-9
WAIST = 45e-6


class TestGaussianNormalization:
    @pytest.mark.parametrize("z_factor", [0.0, 0.5, 1.0, 10.0, 100.0])
    def test_normalized_at_every_plane(self, z_factor):
        z = z_factor * rayleigh_length(WAIST, WAVELENGTH)
        assert validation._gaussian_normalization(WAIST, WAVELENGTH, (z,))[0] == pytest.approx(
            1.0, abs=1e-6
        )


class TestOverlapAnalytic:
    def test_paper_geometry(self):
        assert overlap_eta_analytic(WAVELENGTH, WAIST) == pytest.approx(
            3.258966359604371e-3, rel=1e-12
        )

    def test_unit_overlap_scaling_point(self):
        # algebraic identity only; far outside paraxial validity
        waist = WAVELENGTH * math.sqrt(3.0) / (2.0 * math.pi)
        assert overlap_eta_analytic(WAVELENGTH, waist) == pytest.approx(1.0)

    def test_inverse_proportionality_in_waist(self):
        base = overlap_eta_analytic(WAVELENGTH, WAIST)
        assert overlap_eta_analytic(WAVELENGTH, 2.0 * WAIST) == pytest.approx(
            base / 2.0
        )


class TestOverlapNumeric:
    def test_waist_scaling_at_fixed_relative_plane(self):
        z0 = rayleigh_length(WAIST, WAVELENGTH)
        z0_wide = rayleigh_length(2.0 * WAIST, WAVELENGTH)
        narrow = overlap_eta_numeric(WAVELENGTH, WAIST, 500.0 * z0)
        wide = overlap_eta_numeric(WAVELENGTH, 2.0 * WAIST, 500.0 * z0_wide)
        assert wide / narrow == pytest.approx(0.5, abs=1e-3)

    def test_exact_weighting_close_to_on_axis(self):
        # the check holds 3/4 at 100 z0; here the other planes, in one batch
        planes = [f * rayleigh_length(WAIST, WAVELENGTH) for f in (10.0, 1e3, 1e4)]
        exact = validation._dipole_overlap_quadrature(WAVELENGTH, WAIST, exact_planes=planes)
        for z, value in zip(planes, exact):
            on_axis = overlap_eta_numeric(WAVELENGTH, WAIST, z)
            width_ratio = beam_width(WAIST, WAVELENGTH, z) / z
            assert (on_axis - value) / value / width_ratio ** 2 == pytest.approx(0.75, abs=1e-4)

    def test_gauss_legendre_matches_adaptive_quadrature(self):
        """The on-axis closed form against the Gauss-Legendre quadrature of
        its integrand, at 1e-12."""
        rng = np.random.default_rng(20090427)
        for _ in range(200):
            wavelength = rng.uniform(500e-9, 560e-9)
            waist = rng.uniform(30e-6, 60e-6)
            z = rng.uniform(10.0, 1e4) * rayleigh_length(waist, wavelength)
            oracle = validation._dipole_overlap_quadrature(wavelength, waist, (z,))[0]
            value = overlap_eta_numeric(wavelength, waist, z)
            assert abs(value - oracle) <= 1e-12 * oracle

    def test_rejects_nonpositive_plane(self):
        with pytest.raises(ValueError):
            overlap_eta_numeric(WAVELENGTH, WAIST, 0.0)


def cavity_mode_fraction(wavelength, waist):
    """Share of the free-space dipole power that the two-direction cavity
    mode carries: 2 a^2 Pp, one a^2 Pp per direction, over the dipole-mode power."""
    return 2.0 / validation._dipole_mode_power(1.0, 1.0, wavelength, waist)


class TestCavityModeFraction:
    def test_paper_geometry(self):
        assert cavity_mode_fraction(WAVELENGTH, WAIST) == pytest.approx(
            2.124172346606593e-5, rel=1e-12
        )

    def test_wide_mode_limit(self):
        assert cavity_mode_fraction(WAVELENGTH, 1.0) < 1e-12

    @given(st.floats(200e-9, 2000e-9), st.floats(5e-6, 5e-4))
    @settings(max_examples=100, deadline=None)
    def test_equals_twice_eta_squared(self, wavelength, waist):
        assert cavity_mode_fraction(wavelength, waist) == pytest.approx(
            2.0 * overlap_eta_analytic(wavelength, waist) ** 2, rel=1e-12
        )


class TestDipoleModePower:
    def test_paper_geometry_coefficient(self):
        assert validation._dipole_mode_power(1.0, 1.0, WAVELENGTH, WAIST) == pytest.approx(
            94154.31865474752, rel=1e-9
        )

    def test_unit_power_inversion_point(self):
        waist = WAVELENGTH * math.sqrt(3.0) / (2.0 * math.pi)
        assert validation._dipole_mode_power(1.0, 1.0, WAVELENGTH, waist) == pytest.approx(1.0)


class TestPurcell:
    def test_ratio_at_paper_point(self):
        assert purcell_ratio(1000.0, WAVELENGTH, WAIST) == pytest.approx(
            0.027045802315324007, rel=1e-12
        )

    def test_ratio_scales_linearly_to_high_finesse(self):
        assert purcell_ratio(1e5, WAVELENGTH, WAIST) == pytest.approx(
            2.704580231532401, rel=1e-12
        )

    def test_unit_ratio_crossover(self):
        finesse = math.pi ** 3 * WAIST ** 2 / (6.0 * WAVELENGTH ** 2)
        assert purcell_ratio(finesse, WAVELENGTH, WAIST) == pytest.approx(1.0)

    @pytest.mark.parametrize("wavelength, waist", [(WAVELENGTH, 0.0), (WAVELENGTH, -5e-6),
                                                   (0.0, WAIST), (-WAVELENGTH, WAIST)])
    def test_ratio_rejects_nonpositive_lengths(self, wavelength, waist):
        with pytest.raises(ValueError, match="wavelength and waist must be positive"):
            purcell_ratio(1000.0, wavelength, waist)

    def test_factor_halves_with_doubled_volume(self):
        base = purcell_factor(1e7, WAVELENGTH, 9e-12)
        assert purcell_factor(1e7, WAVELENGTH, 18e-12) == pytest.approx(base / 2.0)

    def test_factor_with_paper_rounded_inputs(self):
        # F=1047 and w0=45 um, the paper's rounded numbers
        d = 6e-3
        q = 2.0 * d * 1047.0 / WAVELENGTH
        v = math.pi * WAIST ** 2 * d / 4.0
        assert purcell_factor(q, WAVELENGTH, v) == pytest.approx(
            0.028316955024144237, rel=1e-12
        )

    def test_factor_chained_through_derived_params(self, reference_params):
        # exact finesse 1045.63 and derived waist 43.60 um
        value = purcell_factor(reference_params.q_factor, WAVELENGTH,
                               reference_params.mode_volume)
        assert value == pytest.approx(0.03012687335894248, rel=1e-12)
        assert value == pytest.approx(
            purcell_ratio(reference_params.finesse, WAVELENGTH,
                          reference_params.waist), rel=1e-12
        )

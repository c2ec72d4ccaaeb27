"""The oracle suite's own bookkeeping: NaN residuals and degenerate draws."""

import math

import numpy as np

from cavray import optics, overlap, validation


def test_nan_residual_fails_its_check(monkeypatch):
    # builtin max(0.0, nan) is 0.0: a NaN oracle used to pass silently
    monkeypatch.setattr(optics, "abcd_roundtrip_waist", lambda d, rc, wl: math.nan)
    result = validation.check_abcd_waist(np.random.default_rng(0), n_draws=5)
    assert not result.passed
    assert "nan" in result.detail


def test_overlap_check_holds_the_closed_form_to_its_quadrature(monkeypatch):
    # 1e-10 off is far inside the far-field bounds, far outside the 1e-12
    closed_form = overlap.overlap_eta_numeric
    monkeypatch.setattr(overlap, "overlap_eta_numeric",
                        lambda *args: closed_form(*args) * (1.0 + 1e-10))
    result = validation.check_overlap_far_field(np.random.default_rng(0))
    assert not result.passed
    assert "off its quadrature by 1.0" in result.detail


def test_worst_keeps_nan_in_any_position():
    assert validation._worst(0.5, 2.0, 1.0) == 2.0
    for residuals in [(math.nan, 1.0), (1.0, math.nan), (0.0, math.nan, 3.0)]:
        assert math.isnan(validation._worst(*residuals))


class ScriptedRng:
    """A generator stand-in whose uniform draws follow a script."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high):
        return self.draws.pop(0)


def test_abcd_waist_check_redraws_confocal_draws():
    # rc, then d/rc exactly at the confocal point, the redraw, the wavelength
    rng = ScriptedRng([0.1, 1.0, 0.5, 532e-9])
    result = validation.check_abcd_waist(rng, n_draws=1)
    assert result.passed, result.detail
    assert rng.draws == []

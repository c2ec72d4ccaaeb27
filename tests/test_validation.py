"""The oracle suite's own bookkeeping: NaN residuals and degenerate draws."""

import math

import numpy as np

from cavray import optics, validation


def test_nan_residual_fails_its_check(monkeypatch):
    # builtin max(0.0, nan) is 0.0: a NaN oracle used to pass silently
    monkeypatch.setattr(optics, "abcd_roundtrip_waist", lambda d, rc, wl: math.nan)
    result = validation.check_abcd_waist(np.random.default_rng(0), n_draws=5)
    assert not result.passed
    assert "nan" in result.detail


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

"""The oracle suite: every check passes, its draws are fixed, and its
bookkeeping handles NaN residuals and degenerate draws."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cavray import field, optics, overlap, validation


@pytest.mark.parametrize("seed", [0, 20260])
@pytest.mark.parametrize("check", validation.ALL_CHECKS,
                         ids=[check.__name__ for check in validation.ALL_CHECKS])
def test_check_passes(check, seed):
    result = check(np.random.default_rng(seed))
    assert result.passed, result.detail


def roundtrip_draws(rng, n_draws=200):
    """The draws of the round-trip check, one scalar draw at a time, in order."""
    draws = []
    for _ in range(n_draws):
        r1 = rng.uniform(0.0, 0.999)
        r2 = rng.uniform(0.0, min(0.997 / max(r1, 1e-12), 0.999))
        cfg = field.ScatterConfig(
            amplitude=rng.uniform(1e-6, 1e-3),
            pump_field=rng.uniform(0.1, 10.0),
            wavenumber=rng.uniform(1e6, 2e7),
            displacement=rng.uniform(-1e-7, 1e-7),
        )
        draws.append((cfg, r1, r2, rng.uniform(1e-3, 1e-2)))
    return draws


def field_average_draws(rng, n_draws=200):
    """The draws of the field-average check, one scalar draw at a time, in order."""
    for _ in range(n_draws):
        for low, high in [(0.0, 0.999), (0.0, 0.999), (1e-6, 1e-3), (0.1, 10.0),
                          (1e6, 2e7)]:
            rng.uniform(low, high)
        rng.integers(1000, 40000)


def purcell_draws(rng, n_draws=1000):
    """The draws of the Purcell check, one scalar draw at a time, in order."""
    return [(rng.uniform(1.0, 1e6), rng.uniform(200e-9, 2000e-9),
             rng.uniform(5e-6, 5e-4), rng.uniform(1e-3, 1.0)) for _ in range(n_draws)]


@pytest.mark.parametrize("check, replay", [
    (validation.check_field_closed_form_vs_roundtrip, roundtrip_draws),
    (validation.check_field_average_quadrature, field_average_draws),
    (validation.check_purcell_equivalence, purcell_draws),
])
@pytest.mark.parametrize("seed", [0, 20260])
def test_check_consumes_the_scalar_draw_sequence(check, replay, seed):
    # the generator stream that every later check of run_all draws from
    checked, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    check(checked)
    replay(replayed)
    assert checked.bit_generator.state == replayed.bit_generator.state


@pytest.mark.parametrize("seed", [0, 20260])
def test_array_recursion_matches_the_scalar_sum_per_draw(seed):
    draws = roundtrip_draws(np.random.default_rng(seed))
    pairs = [field._source_and_feedback(cfg, r1, r2, d) for cfg, r1, r2, d in draws]
    sources, feedbacks = (np.array(column) for column in zip(*pairs))
    summed = field._iterate_roundtrips(sources, feedbacks, 10_000)
    scalar = np.array([field.roundtrip_field_sum(cfg, r1, r2, d, 10_000)
                       for cfg, r1, r2, d in draws])
    assert np.max(np.abs(summed - scalar) / np.abs(scalar)) <= 1e-15
    # and the check reports the residual of exactly these draws
    exact = np.array([field.intracavity_field(*draw) for draw in draws])
    worst = np.max(np.abs(summed - exact) / np.abs(exact))
    result = validation.check_field_closed_form_vs_roundtrip(np.random.default_rng(seed))
    assert result.detail.startswith(f"residual {worst:.3e} ")


def _loop_roundtrips(source, feedback, n_roundtrips):
    """``field._iterate_roundtrips`` as it was before the doubling: the
    recursion field = source + feedback * field, n times from source."""
    summed = source
    for _ in range(n_roundtrips):
        summed = source + feedback * summed
    return summed


@pytest.mark.parametrize("seed", [0, 20260])
def test_doubled_sum_matches_the_round_trip_loop(seed):
    pairs = [field._source_and_feedback(cfg, r1, r2, d)
             for cfg, r1, r2, d in roundtrip_draws(np.random.default_rng(seed))]
    sources, feedbacks = (np.array(column) for column in zip(*pairs))
    doubled = field._iterate_roundtrips(sources, feedbacks, 10_000)
    looped = _loop_roundtrips(sources, feedbacks, 10_000)
    assert np.max(np.abs(doubled - looped) / np.abs(looped)) <= 1e-15


@pytest.mark.parametrize("seed", [0, 20260])
def test_run_all_raises_no_floating_point_error(seed):
    # underflow in the Gaussian tails and the doubled powers is benign
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        results = validation.run_all(seed)
    assert all(result.passed for result in results)


@pytest.mark.parametrize("seed", [0, 20260])
def test_purcell_check_reports_the_residual_of_the_scalar_draws(seed):
    # the (n, 4) array holds the scalar draws exactly, row by row
    rng = np.random.default_rng(seed)
    rows = rng.uniform((1.0, 200e-9, 5e-6, 1e-3), (1e6, 2000e-9, 5e-4, 1.0), size=(1000, 4))
    assert [tuple(row) for row in rows.tolist()] == purcell_draws(np.random.default_rng(seed))
    worst = 0.0
    for f, wavelength, waist, d in purcell_draws(np.random.default_rng(seed)):
        a = overlap.purcell_factor(2.0 * d * f / wavelength, wavelength,
                                   math.pi * waist ** 2 * d / 4.0)
        b = overlap.purcell_ratio(f, wavelength, waist)
        worst = max(worst, abs(a - b) / b)
    result = validation.check_purcell_equivalence(np.random.default_rng(seed))
    assert result.detail.startswith(f"residual {worst:.3e} ")


def test_run_all_stays_within_its_memory_budget():
    # the oracles hold one draw's samples and the Monte-Carlo width one
    # block of its velocity pairs at a time; a draws x samples array or
    # the 1e6 pairs at once would raise the peak well beyond this
    tracemalloc.start()
    try:
        validation.run_all(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_power_budget_check_sees_a_wrong_transmitted_power(monkeypatch):
    # the back-out round trip divides by transmitted_power, so it would
    # cancel the error; the budget's own value must not
    closed_form = field.transmitted_power
    monkeypatch.setattr(field, "transmitted_power", lambda *args: 2.0 * closed_form(*args))
    assert not validation.check_power_budget_identities(np.random.default_rng(0)).passed


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

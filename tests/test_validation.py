"""The oracle suite: every check passes on the stream ``run_all`` gives it
and fails on each named physics mutant of ``MUTANTS``, no check moves
another's inputs, its bookkeeping handles NaN residuals and degenerate
draws, and it is the only module that draws random numbers.

A check shown to fail here is the one home of its comparison. The other
test files hold frozen and paper numbers, and the comparisons whose inputs
or tolerances go beyond a check's.
"""

import ast
import inspect
import math
import pathlib
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

from cavray import experiment, field, optics, overlap, quadrature, spectra, validation


@pytest.mark.parametrize("seed", [0, 20260])
@pytest.mark.parametrize("check", validation.ALL_CHECKS,
                         ids=[check.__name__ for check in validation.ALL_CHECKS])
def test_check_passes(check, seed):
    result = check(validation._check_rngs(seed)(check.__name__))
    assert result.passed, result.detail


@pytest.mark.parametrize("seed", [0, 20260])
def test_check_run_alone_equals_its_run_all_entry(seed):
    alone = [check(validation._check_rngs(seed)(check.__name__))
             for check in validation.ALL_CHECKS]
    assert alone == validation.run_all(seed)


@pytest.mark.parametrize("seed", [0, 20260])
def test_a_check_inserted_first_moves_no_other_result(monkeypatch, seed):
    def check_that_draws(rng):
        rng.standard_normal(1001)
        return validation.CheckResult("draws", True, "")

    before = validation.run_all(seed)
    monkeypatch.setattr(validation, "ALL_CHECKS",
                        (check_that_draws, *validation.ALL_CHECKS))
    assert validation.run_all(seed)[1:] == before


def test_run_all_passes_over_a_seed_sweep():
    failed = [(seed, result.name) for seed in range(30)
              for result in validation.run_all(seed) if not result.passed]
    assert failed == []


def test_every_check_draws_from_a_distinct_stream():
    names = [check.__name__ for check in validation.ALL_CHECKS]
    check_rng = validation._check_rngs(0)
    assert len({check_rng(name).random() for name in names}) == len(names)


def mutant(where, attribute, old, new):
    """``where.attribute`` rebuilt from its own source with ``old`` replaced
    by ``new``: a function's definition, or a module constant's assignment."""
    value = getattr(where, attribute)
    if callable(value):
        source, namespace = textwrap.dedent(inspect.getsource(value)), dict(value.__globals__)
    else:
        [source] = [line for line in inspect.getsource(where).splitlines()
                    if line.startswith(f"{attribute} = ")]
        namespace = dict(vars(where))
    assert source.count(old) == 1, (attribute, old)
    exec(source.replace(old, new), namespace)
    return namespace[attribute]


R2_IN_NUMERATOR = ("r2-in-numerator", validation, "_position_averaged_intensity",
                   "(1.0 + r1 ** 2)", "(1.0 + r2 ** 2)")
ONE_PASS_Q = ("one-pass-q", optics, "q_factor", "2.0 * mirror_separation", "mirror_separation")
MODE_AREA_FOR_VOLUME = ("mode-area-for-volume", optics, "mode_volume",
                        " * mirror_separation / 4.0", " / 4.0")
WAIST_FOR_WIDTH = ("waist-for-width", overlap, "overlap_eta_numeric",
                   "beam_width(waist, wavelength, z)", "waist")
LINEWIDTH_AS_HWHM = ("linewidth-as-hwhm", spectra, "spectral_overlap",
                     "cavity_linewidth / 2.0", "cavity_linewidth")
ANTINODE_FACTOR_3 = ("antinode-factor-3", validation, "_ANTINODE_FACTOR", "2.0", "3.0")

# Every check of ALL_CHECKS and the physics mistakes it fails on, each
# (id, where, attribute, old, new[, text]): ``mutant`` rebuilds the closed
# form at ``where.attribute``, the name ``validation`` reaches it through,
# with ``old`` replaced by ``new``. A text is in the failing check's
# detail: a residual that no draw moves, or the bound that failed.
MUTANTS = {
    "check_field_closed_form_vs_roundtrip": [("mirrors-swapped", validation,
                                              "_intracavity_field", "feedback(r1, r2,",
                                              "feedback(r2, r1,")],
    "check_field_average_quadrature": [
        R2_IN_NUMERATOR,
        # the quadrature integrates ``_intracavity_field``: its source and
        # feedback must agree with the closed-form average
        ("once-reflected-off-r2", validation, "_source_and_feedback", "(1.0 + r1 *",
         "(1.0 + r2 *"),
        ("round-trip-gain-r1-squared", validation, "_source_and_feedback",
         "feedback = r1 * r2", "feedback = r1 * r1"),
        # the quadrature never reads the share: the tie to transmitted_power fails
        ("share-of-left-mirror", field, "outcoupling_share", "return t2 /", "return t1 /",
         "transmitted_power: residual 1.985e+05 ")],
    "check_field_mirror_asymmetry": [R2_IN_NUMERATOR],
    "check_power_budget_identities": [
        ANTINODE_FACTOR_3,
        # the antinode is the larger of the two extremes of the field itself
        ("once-reflected-off-r2", validation, "_source_and_feedback", "(1.0 + r1 *",
         "(1.0 + r2 *")],
    "check_power_linearity": [("pump-power-squared", field, "transmitted_power",
                               "* pump_power *", "* pump_power ** 2 *")],
    "check_finesse_monotone": [("transmissions-for-reflectivities", optics, "finesse",
                                "left_reflectivity * right_reflectivity",
                                "(1.0 - left_reflectivity) * (1.0 - right_reflectivity)")],
    "check_finesse_taylor": [("one-minus-r1r2", optics, "finesse",
                              "(1.0 - math.sqrt(product))", "(1.0 - product)")],
    "check_cavity_params_identities": [ONE_PASS_Q, MODE_AREA_FOR_VOLUME],
    "check_abcd_waist": [("lambda-over-pi", optics, "symmetric_waist",
                          "(2.0 * math.pi)", "math.pi")],
    "check_abcd_mode_spacing": [("arccos-g", optics, "transverse_mode_spacing",
                                 "math.sqrt(g * g)", "g")],
    "check_dipole_normalization": [("prefactor-3-over-4pi", overlap, "DIPOLE_PREFACTOR",
                                    "8.0", "4.0")],
    "check_gaussian_normalization": [("field-normalization", validation, "_radial_field",
                                      "math.pi / 2.0", "math.pi")],
    "check_overlap_far_field": [
        # 1e-10 off is far inside the far-field bounds, far outside the 1e-12
        ("closed-form-1e-10-off", overlap, "overlap_eta_numeric", "return (DIPOLE_PREFACTOR",
         "return (1.0 + 1e-10) * (DIPOLE_PREFACTOR", "off its quadrature by 1.0"),
        WAIST_FOR_WIDTH,
        ("analytic-sqrt3-over-pi", overlap, "overlap_eta_analytic", "(2.0 * math.pi)", "math.pi"),
        # the full field's distance taken as the plane's: 1/4 in place of 3/4
        ("exact-field-at-plane-distance", validation, "_dipole_overlap_quadrature",
         "/ np.sqrt(dist_sq)", "/ z")],
    "check_overlap_monotone": [WAIST_FOR_WIDTH],
    "check_purcell_equivalence": [
        ("ratio-12-over-pi-squared", overlap, "purcell_ratio", "6.0 / math.pi", "12.0 / math.pi"),
        ONE_PASS_Q, MODE_AREA_FOR_VOLUME],
    "check_purcell_separation_cancels": [MODE_AREA_FOR_VOLUME],
    "check_spectral_overlap_closed_form": [LINEWIDTH_AS_HWHM],
    "check_spectral_overlap_limits": [LINEWIDTH_AS_HWHM],
    "check_polarization_sum_rule": [("half-extinction-floor", spectra, "polarization_signal",
                                     "** 2 + extinction", "** 2 + extinction / 2.0")],
    "check_scan_linearity": [("weight-as-amplitude", spectra, "scan_spectrum",
                              "(weight * gas", "(weight ** 2 * gas"),
                             # 2.3e-6 of peak off the series
                             ("table-oversampling-2", spectra, "_TABLE_OVERSAMPLING",
                              "16", "2"),
                             ("harmonics-not-doubled", spectra, "_comb_coefficients",
                              "coefficients[1:] *= 2.0", "coefficients[1:] *= 1.0")],
    # the oracle's width over the observed one is sqrt(2) or 1/sqrt(2)
    "check_doppler_monte_carlo": [
        ("absorption-width-as-observed", spectra, "observed_doppler_fwhm",
         "OBSERVED_WIDTH_FACTOR * ", "", "residual 4.142e-01 "),
        ("oracle-one-wavevector", validation, "_doppler_width",
         "norm(k_out - k_in)", "norm(k_out)", "residual 2.929e-01 "),
        ("oracle-antiparallel", validation, "_doppler_width",
         "norm(k_out - k_in)", "norm(2.0 * k_in)", "residual 4.142e-01 ")],
    "check_species_ratio": [("polarizability-unsquared", spectra, "species_ratio",
                             "polarizability) ** 2", "polarizability)")],
    "check_backout_roundtrip": [("overlap-kept", experiment, "free_space_backout",
                                 "(enhancement * spectral_overlap)", "enhancement")],
    # ``experiment`` imports purcell_ratio by name
    "check_forecast_consistency": [("ratio-12-over-pi-squared", experiment, "purcell_ratio",
                                    "6.0 / math.pi", "12.0 / math.pi"),
                                   ("overlap-penalty-kept", experiment, "ultracold_forecast",
                                    "/ spectral_overlap", "",
                                    "rate residual 2.281e+01 against the back-out route")],
    "check_unit_convention_cancels": [
        ("dipole-power-doubled", validation, "_dipole_mode_power", "4.0 * math.pi ** 2",
         "8.0 * math.pi ** 2"),
        # the back-out divides by transmitted_power, so it would cancel this
        ("transmitted-power-doubled", field, "transmitted_power", "return 4.0", "return 8.0"),
        ANTINODE_FACTOR_3],
}


# oracles that only tier-1 tests run (ROADMAP item 4); this set may only shrink
TIER1_ONLY = set()


def test_validate_runs_every_oracle_but_the_tier1_only_ones():
    """``format_report(run_all(0))`` under a profile hook runs every
    module-level function of ``validation`` but those of ``TIER1_ONLY``:
    an oracle that no check calls checks nothing in ``cavray validate``."""
    called = set()
    previous = sys.getprofile()
    validation._packaged_species.cache_clear()  # so that its body runs too
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        validation.format_report(validation.run_all(0))
    finally:
        sys.setprofile(previous)
    unreached = {node.name for node in ast.parse(inspect.getsource(validation)).body
                 if isinstance(node, ast.FunctionDef)
                 and inspect.unwrap(getattr(validation, node.name)).__code__ not in called}
    assert unreached == TIER1_ONLY


def test_every_check_has_a_mutant():
    assert set(MUTANTS) == {check.__name__ for check in validation.ALL_CHECKS}
    assert all(MUTANTS.values())


@pytest.mark.parametrize("check, row", [
    pytest.param(check, row, id=f"{check.__name__}-{row[0]}")
    for check in validation.ALL_CHECKS for row in MUTANTS.get(check.__name__, ())])
def test_check_fails_on_its_mutant(monkeypatch, check, row):
    _, where, attribute, old, new, *text = row
    # the closed form rebuilt unchanged passes: only the mistake fails it
    rebuilt = [mutant(where, attribute, old, replacement) for replacement in (old, new)]
    for value, passes in zip(rebuilt, (True, False)):
        monkeypatch.setattr(where, attribute, value)
        result = check(validation._check_rngs(0)(check.__name__))
        assert result.passed is passes, result.detail
    assert all(part in result.detail for part in text)


# checks that no mutant of MUTANTS fails alone (ROADMAP item 12); this set
# may only shrink
NO_UNIQUE_MUTANT = {
    "check_backout_roundtrip", "check_cavity_params_identities",
    "check_dipole_normalization", "check_field_closed_form_vs_roundtrip",
    "check_field_mirror_asymmetry", "check_finesse_monotone", "check_finesse_taylor",
    "check_gaussian_normalization", "check_overlap_monotone",
    "check_power_budget_identities", "check_power_linearity", "check_purcell_equivalence",
    "check_purcell_separation_cancels", "check_spectral_overlap_closed_form",
    "check_spectral_overlap_limits",
}


def test_kill_matrix_leaves_only_the_listed_checks_without_a_mutant_of_their_own(
        monkeypatch):
    """Every distinct ``MUTANTS`` row against every check at seed 0: a
    check's own mutant fails it and no other check, and only the checks of
    ``NO_UNIQUE_MUTANT`` have none."""
    rows = {row[1:5] for rows in MUTANTS.values() for row in rows}
    killed = []
    for where, attribute, old, new in rows:
        with monkeypatch.context() as patch:
            patch.setattr(where, attribute, mutant(where, attribute, old, new))
            killed.append({check.__name__ for check in validation.ALL_CHECKS
                           if not check(validation._check_rngs(0)(check.__name__)).passed})
    assert all(killed)
    owned = {name for failed in killed if len(failed) == 1 for name in failed}
    assert {check.__name__ for check in validation.ALL_CHECKS} - owned == NO_UNIQUE_MUTANT


def test_antinode_check_holds_either_reflection_sign(monkeypatch):
    # a source term 1 - r1*... only swaps node and antinode: the check takes
    # the larger extreme, so it reads no reflection-phase convention
    monkeypatch.setattr(validation, "_source_and_feedback",
                        mutant(validation, "_source_and_feedback", "(1.0 + r1 *", "(1.0 - r1 *"))
    check = validation.check_power_budget_identities
    result = check(validation._check_rngs(0)(check.__name__))
    assert result.passed, result.detail


@pytest.mark.xfail(reason="ROADMAP item 6: both routes of the forecast "
                   "check divide by contributing_particles, so a doubled volume cancels; "
                   "a forward power from the pump would catch it")
def test_forecast_check_fails_on_a_doubled_interaction_volume(monkeypatch):
    monkeypatch.setattr(experiment, "interaction_volume",
                        mutant(experiment, "interaction_volume", " / 2.0", ""))
    check = validation.check_forecast_consistency
    result = check(validation._check_rngs(0)(check.__name__))
    assert not result.passed, result.detail


def roundtrip_draws(rng):
    """The draws of the round-trip check, one scalar draw at a time, in order."""
    draws = []
    for _ in range(validation._ROUNDTRIP_DRAWS):
        r1 = rng.uniform(0.0, 0.999)
        r2 = rng.uniform(0.0, min(0.997 / max(r1, 1e-12), 0.999))
        scatterer = dict(
            amplitude=rng.uniform(1e-6, 1e-3),
            pump_field=rng.uniform(0.1, 10.0),
            wavenumber=rng.uniform(1e6, 2e7),
            displacement=rng.uniform(-1e-7, 1e-7),
        )
        draws.append((scatterer, r1, r2, rng.uniform(1e-3, 1e-2)))
    return draws


def purcell_draws(rng):
    """The draws of the Purcell check, one scalar draw at a time, in order."""
    return [(rng.uniform(1.0, 1e6), rng.uniform(200e-9, 2000e-9),
             rng.uniform(5e-6, 5e-4), rng.uniform(1e-3, 1.0))
            for _ in range(validation._PURCELL_DRAWS)]


class CountingRng:
    """A generator proxy that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def test_checks_draw_their_inputs_in_a_few_generator_calls():
    # one call per check that draws, three for the field average (uniforms,
    # integers, the tie's transmissions) and two for the Doppler check
    # (uniforms, normals): 18; a scalar draw per input would make ~4,900
    # calls at ~2 us each
    calls = 0
    for check in validation.ALL_CHECKS:
        rng = CountingRng(validation._check_rngs(0)(check.__name__))
        assert check(rng).passed
        calls += rng.calls
    assert calls <= 20


def test_quadrature_checks_make_one_batch_call_each(monkeypatch):
    # every integral of a check goes into one ``integrate_rows`` call, which
    # runs its integrand once per rule, not once per integral
    batch = quadrature.integrate_rows
    calls = []
    monkeypatch.setattr(quadrature, "integrate_rows",
                        lambda *args, **kwargs: calls.append(1) or batch(*args, **kwargs))
    made = {}
    for check in validation.ALL_CHECKS:
        calls.clear()
        assert check(validation._check_rngs(0)(check.__name__)).passed
        made[check.__name__] = len(calls)
    assert {name: count for name, count in made.items() if count} == {
        "check_dipole_normalization": 1, "check_gaussian_normalization": 1,
        "check_overlap_far_field": 1, "check_spectral_overlap_closed_form": 1}


@pytest.mark.parametrize("seed", [0, 20260])
def test_array_recursion_matches_the_scalar_sum_per_draw(seed):
    draws = roundtrip_draws(np.random.default_rng(seed))
    pairs = [validation._source_and_feedback(r1, r2, d, **scatterer)
             for scatterer, r1, r2, d in draws]
    sources, feedbacks = (np.array(column) for column in zip(*pairs))
    summed = validation._iterate_roundtrips(sources, feedbacks, 10_000)
    scalar = np.array([validation._iterate_roundtrips(source, feedback, 10_000)
                       for source, feedback in pairs])
    assert np.max(np.abs(summed - scalar) / np.abs(scalar)) <= 1e-15
    # and the check reports the residual of exactly these draws
    exact = np.array([validation._intracavity_field(r1, r2, d, **scatterer)
                      for scatterer, r1, r2, d in draws])
    worst = np.max(np.abs(summed - exact) / np.abs(exact))
    result = validation.check_field_closed_form_vs_roundtrip(np.random.default_rng(seed))
    assert result.detail.startswith(f"residual {worst:.3e} ")


def _loop_roundtrips(source, feedback, n_roundtrips):
    """``validation._iterate_roundtrips`` as it was before the doubling: the
    recursion field = source + feedback * field, n times from source."""
    summed = source
    for _ in range(n_roundtrips):
        summed = source + feedback * summed
    return summed


@pytest.mark.parametrize("seed", [0, 20260])
def test_doubled_sum_matches_the_round_trip_loop(seed):
    pairs = [validation._source_and_feedback(r1, r2, d, **scatterer)
             for scatterer, r1, r2, d in roundtrip_draws(np.random.default_rng(seed))]
    sources, feedbacks = (np.array(column) for column in zip(*pairs))
    doubled = validation._iterate_roundtrips(sources, feedbacks, 10_000)
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
    worst = 0.0
    for f, wavelength, waist, d in purcell_draws(np.random.default_rng(seed)):
        a = overlap.purcell_factor(2.0 * d * f / wavelength, wavelength,
                                   math.pi * waist ** 2 * d / 4.0)
        b = overlap.purcell_ratio(f, wavelength, waist)
        worst = max(worst, abs(a - b) / b)
    result = validation.check_purcell_equivalence(np.random.default_rng(seed))
    assert result.detail.startswith(f"residual {worst:.3e} ")


def test_run_all_stays_within_its_memory_budget():
    # the oracles hold one check's quadrature nodes of one rule at a time
    # (~28k for the spectral overlap's 40 windows at 2n), and the draws'
    # round-trip terms or few position-average nodes at once; 10,000 nodes
    # for every draw would raise the peak well beyond this
    tracemalloc.start()
    try:
        validation.run_all(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


PACKAGE_DIR = pathlib.Path(validation.__file__).parent


def _imported_names(tree):
    """Every dotted part of every module and name imported anywhere in a
    module, function bodies included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= set((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for alias in node.names for part in alias.name.split(".")}
    return names


# every module of the package but the oracle suite, read from disk so that
# __main__ is not run and a module added later is scanned too
@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE_DIR.glob("*.py")
                                          if path.stem != "validation"))
def test_production_module_draws_no_random_numbers(module):
    # randomness belongs to the oracle suite: a production output must
    # not depend on a generator's state
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= _imported_names(tree)
    assert not names & {"random", "default_rng", "Generator", "RandomState", "secrets"}


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE_DIR.glob("*.py")))
def test_numpy_and_quadrature_stay_out_of_the_closed_forms(module):
    # the production modules are closed forms: numpy serves the scan
    # (``spectra``), its writer (``trace``) and the oracles, and only the
    # oracles integrate
    imported = _imported_names(ast.parse((PACKAGE_DIR / f"{module}.py").read_text()))
    if module not in {"spectra", "trace", "quadrature", "validation"}:
        assert "numpy" not in imported
    if module != "validation":
        assert "quadrature" not in imported


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: an oracle that reads it lives in its test
    importers = [path.stem for path in PACKAGE_DIR.glob("*.py")
                 if "scipy" in _imported_names(ast.parse(path.read_text()))]
    assert importers == []


def test_experiment_computes_records_and_writes_no_json():
    # every report's keys, schema and layout are chosen in ``cli``
    tree = ast.parse((PACKAGE_DIR / "experiment.py").read_text())
    assert "json" not in _imported_names(tree)


def test_spectra_imports_neither_io_nor_jsontext():
    # ``trace`` writes the scan's text; ``spectra`` computes it from the
    # comb's free spectral range and finesse, with neither ``optics`` nor ``gases``
    tree = ast.parse((PACKAGE_DIR / "spectra.py").read_text())
    assert not {"io", "jsontext", "optics", "gases"} & _imported_names(tree)


def test_no_module_imports_typing_dataclasses_or_records():
    # every value type is a namedtuple subclass and every annotation a
    # ``collections.abc`` or builtin name; read from disk, because ``site``
    # may already have loaded ``typing`` into any interpreter
    importers = {path.stem: names for path in PACKAGE_DIR.glob("*.py")
                 if (names := {"typing", "dataclasses", "records"}
                     & _imported_names(ast.parse(path.read_text())))}
    assert importers == {}


def test_nan_residual_fails_its_check(monkeypatch):
    # builtin max(0.0, nan) is 0.0: a NaN oracle used to pass silently
    monkeypatch.setattr(validation, "_abcd_roundtrip_waist", lambda d, rc, wl: math.nan)
    monkeypatch.setattr(validation, "_ABCD_DRAWS", 5)
    result = validation.check_abcd_waist(np.random.default_rng(0))
    assert not result.passed
    assert "nan" in result.detail


def test_worst_keeps_nan_in_any_position():
    assert validation._worst(0.5, 2.0, 1.0) == 2.0
    for residuals in [(math.nan, 1.0), (1.0, math.nan), (0.0, math.nan, 3.0)]:
        assert math.isnan(validation._worst(*residuals))


class ScriptedRng:
    """A generator stand-in whose uniform draws follow a script, row by row."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.draws.pop(0)
        count = math.prod(size)
        batch, self.draws = self.draws[:count], self.draws[count:]
        return np.array(batch).reshape(size)


def test_abcd_waist_check_redraws_confocal_draws(monkeypatch):
    # the batch (rc, d/rc exactly at the confocal point, the wavelength),
    # then the redraw of d/rc
    monkeypatch.setattr(validation, "_ABCD_DRAWS", 1)
    rng = ScriptedRng([0.1, 1.0, 532e-9, 0.5])
    result = validation.check_abcd_waist(rng)
    assert result.passed, result.detail
    assert rng.draws == []


def _field_average_inputs(monkeypatch, seed):
    """The arguments the field-average check passes its numeric average."""
    calls = []
    numeric = validation._position_averaged_intensity_numeric
    monkeypatch.setattr(validation, "_position_averaged_intensity_numeric",
                        lambda *args: calls.append(args) or numeric(*args))
    assert validation.check_field_average_quadrature(np.random.default_rng(seed)).passed
    (args,) = calls
    return args


@pytest.mark.parametrize("seed", [0, 20260])
def test_few_node_position_average_equals_the_fine_one(monkeypatch, seed):
    # the midpoint rule is exact for n >= 3 nodes: 10,000 only add rounding
    *draws, n_points = _field_average_inputs(monkeypatch, seed)
    assert n_points < 10_000
    few = validation._position_averaged_intensity_numeric(*draws, n_points)
    fine = np.array([validation._position_averaged_intensity_numeric(*row, 10_000)
                     for row in zip(*draws)])
    assert np.max(np.abs(few - fine) / fine) <= 1e-15


def test_overlap_holds_closed_forms_only():
    # the Gaussian mode's width is ``optics.beam_width`` and its normalized
    # field an oracle of ``validation``: no record or class is left here
    tree = ast.parse((PACKAGE_DIR / "overlap.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_every_record_is_an_output_or_a_table_row():
    # an input is passed as its floats, a mirror as its reflectivity: no
    # record wraps arguments that a function could take as they are. A
    # record is a class built on a ``namedtuple(...)`` base.
    records = {node.name for path in PACKAGE_DIR.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                       and base.func.id == "namedtuple" for base in node.bases)}
    assert records == {"CavityParams", "GasSpecies", "FinesseEntry", "EnhancementReport",
                       "ForecastReport", "CheckResult"}

"""The scan trace's CSV and JSON documents, and the token kernel that
formats their values, against Python's own formatting and ``json.dumps``.
"""
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavray import SpectrumTrace, scan_spectrum
from cavray.trace import _BLOCK, _token_tables, _TokenFrame, pieces

WAVELENGTH = 532e-9


# values that "%.12g" and repr(float("%.12g" % x)) lay out differently, or
# nearly do: integral tokens ("0", "-0", "99999999999") that repr ends in
# ".0", magnitudes that round into [1e12, 1e16), where %g writes an exponent
# and repr does not, subnormals whose 12 digits repr shortens ("5e-324"),
# and values just outside those cases
EDGE_VALUES = [0.0, -0.0, 1e-300, 1e11, 123456789012.5, 5e-324, 2.5e-310,
               2.2250738585072014e-308, 99999999999.0, 999999999999.0,
               999999999999.5, 9.99999999999e15, 1e16, 9.999999999995e-5,
               0.9999999999995, 2.5e-320]


def finite_pool():
    """The edge values and 5,396 fixed-seed doubles of both signs: two of
    every binade from 5e-324 to 1.8e308, integral doubles up to 1e16, and
    decimals of 1 to 6 digits at exponents -323..302. An index into a fixed
    list is much cheaper to draw than a value of Hypothesis's float
    strategies."""
    rng = np.random.default_rng(20261019)
    binades = np.ldexp(rng.uniform(1.0, 2.0, (2098, 2)),
                       np.arange(-1074, 1024)[:, None]).ravel()
    integers = rng.integers(0, 10 ** 16, 600).astype(float)
    decimals = [float(f"{m}e{k}") for m, k in zip(rng.integers(1, 10 ** 6, 600).tolist(),
                                                rng.integers(-323, 303, 600).tolist())]
    values = np.concatenate([binades, integers, decimals])
    return EDGE_VALUES + (values * rng.choice([-1.0, 1.0], len(values))).tolist()


FINITE_VALUES = st.sampled_from(finite_pool())


class TestTraceSerialization:
    @pytest.fixture
    def trace(self, reference_comb, species):
        return scan_spectrum(*reference_comb, [(species["Xe"], 1.0)],
                             2e9, 1e7, WAVELENGTH, 295.0, normalize=True)

    def test_csv_header(self, trace):
        buffer = io.StringIO()
        buffer.writelines(pieces(trace, "csv"))
        assert buffer.getvalue().splitlines()[0] == "detuning_Hz,signal_normalized"

    def test_json_schema_versioned(self, trace):
        buffer = io.StringIO()
        buffer.writelines(pieces(trace, "json"))
        assert '"schema": "cavray.spectrum-trace/1"' in buffer.getvalue()

    @pytest.mark.parametrize("n", [0, 1, 3, 8191, 8192, 8192 + 5, 2 * 8192, 2 * 8192 + 40])
    def test_writers_match_per_point_formatting(self, reference_comb, n):
        edges = np.array(EDGE_VALUES)
        rng = np.random.default_rng(n)
        detunings = rng.uniform(0.0, 1e11, n)
        signals = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 12, n)
        # at the start, across the edge of the first 8192-row block, and in
        # the last rows of the final block, where each odd token of either
        # column must land in its own row and column; every other detuning
        # negated
        final = max(0, n - len(edges), (n - 1) // 8192 * 8192)
        for at in (0, 8192 - len(edges) // 2, final):
            placed = edges[:max(0, min(len(edges), n - at))]
            detunings[at:at + len(placed)] = np.where(np.arange(len(placed)) % 2,
                                                      -placed, placed)
            signals[at:at + len(placed)] = placed[::-1]
        assert_writers_format_per_value(
            SpectrumTrace(detunings, signals, 'Xe+"N2"', *reference_comb))

    # the fixture is one fixed comb, so every example may share it; no
    # fill value, so that every element is drawn from the pool on its own
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)),
                      elements=FINITE_VALUES, fill=st.nothing()))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_writers_format_any_finite_values_per_value(self, reference_comb, rows):
        # a trace's signals are nonnegative
        assert_writers_format_per_value(
            SpectrumTrace(rows[:, 0], np.abs(rows[:, 1]), "Xe", *reference_comb))


def assert_writers_format_per_value(trace):
    """The CSV document has each row as ``"%.12g,%.12g"``, and the JSON
    document is ``json.dumps`` of each value rounded to those 12 digits,
    then a newline."""
    buffer = io.StringIO()
    buffer.writelines(pieces(trace, "csv"))
    assert buffer.getvalue() == "detuning_Hz,signal\n" + "".join(
        f"{x:.12g},{y:.12g}\n" for x, y in zip(trace.detunings, trace.signals))
    buffer = io.StringIO()
    buffer.writelines(pieces(trace, "json"))
    assert buffer.getvalue() == json.dumps({
        "schema": "cavray.spectrum-trace/1",
        "species": trace.species,
        "detuning_Hz": [float(f"{x:.12g}") for x in trace.detunings],
        "signal": [float(f"{y:.12g}") for y in trace.signals],
        "cavity": {
            "finesse": trace.finesse,
            "free_spectral_range_Hz": trace.free_spectral_range,
            "linewidth_Hz": trace.free_spectral_range / trace.finesse,
        },
    }, indent=2) + "\n"


def kernel_values():
    """1.01e6 fixed-seed values for the token kernel, in a fixed shuffle, of
    both signs: every binade from 5e-324 to 1.8e308, integers up to 1e16,
    ties at the 12th digit, and neighbours of the powers of ten and of the
    layout edges."""
    rng = np.random.default_rng(20261018)
    binades = np.ldexp(rng.uniform(1.0, 2.0, (2098, 160)),
                       np.arange(-1074, 1024)[:, None]).ravel()
    integers = np.concatenate([rng.integers(0, 10 ** 16, 200_000),
                               rng.integers(0, 10 ** 6, 50_000) * 25_000_000]).astype(float)
    # 12 digits and a 5: exact ties as integers and their halves, near ties
    # (the nearest double to the decimal) at every scale of the kernel
    twelve = rng.integers(10 ** 11, 10 ** 12, 100_000)
    ties = np.concatenate([
        twelve * 10.0 + 5.0, twelve + 0.5,
        (twelve[:50_000] + 0.5) * 10.0 ** rng.integers(-30, 31, 50_000),
        [float(f"{m}5e{k}") for m, k in zip(twelve[:20_000].tolist(),
                                           rng.integers(-320, 296, 20_000).tolist())]])
    # powers of ten, the layout edges 1e-4, 1e12 and 1e16, and the 12-digit
    # rounding boundary below each power; each with 3 neighbours either side
    edges = np.array([float(f"{m}e{k}") for k in range(-323, 309)
                      for m in ("1", "9.999999999995")][:-1])
    neighbours = [edges]
    for direction in (-np.inf, np.inf):
        step = edges
        for _ in range(3):
            step = np.nextafter(step, direction)
            neighbours.append(step)
    scans = rng.uniform(0.0, 1.0, 150_000) * 10.0 ** rng.integers(-12, 12, 150_000)
    values = np.concatenate([binades, integers, ties, *neighbours, scans])
    return rng.permutation(values * rng.choice([-1.0, 1.0], len(values)))


def kernel_text(values, json):
    """The kernel's tokens of ``values``, one to a line, and the number it
    sent to Python in each block."""
    frame = _TokenFrame(_BLOCK, [b"\n"], json)
    pieces, odd = [], []
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        odd.append(frame.fill(block))
        pieces.append(frame.text(len(block)))
    return "".join(pieces), odd


class TestTokenKernel:
    def test_scale_is_exact_where_the_ties_rely_on_it(self):
        scale = _token_tables(json=False)[0]
        powers = np.array([float(f"1e{11 - e}") for e in range(-289, 309)])
        assert np.all(np.abs(scale[1:] - powers) <= np.spacing(powers))
        # e = -11..11
        assert np.array_equal(scale[279:302], powers[278:301])

    def test_equals_python_formatting_on_a_million_values(self):
        # half the shuffled values in each layout: Python's own repr takes
        # ~1.5 us a value on a 2-core Xeon VM, all of them in both layouts ~5 s
        values = kernel_values()
        assert len(values) > 1_000_000
        for json_tokens, half in (False, values[0::2]), (True, values[1::2]):
            tokens = ((b"%.12g\n" * len(half)) % tuple(half.tolist())).decode("ascii").split()
            if json_tokens:
                tokens = list(map(repr, map(float, tokens)))
            text, _ = kernel_text(half, json_tokens)
            if text != "\n".join(tokens) + "\n":
                wrong = [(x, got, want) for x, got, want in zip(
                    half.tolist(), text.split(), tokens) if got != want]
                pytest.fail(f"{len(wrong)} tokens differ, first {wrong[:3]}")

    @pytest.mark.parametrize("points", [1501, 100_000])
    def test_scan_grids_send_at_most_one_token_a_block_to_python(self, reference_comb,
                                                                   points, species):
        # the demo's scan on its 25 MHz integral grid, and a benchmark-shaped
        # grid of 1e5 points over 1.5 FSRs; the one token is the 0 detuning
        span = 37.5e9 if points == 1501 else 1.5 * reference_comb[0]
        trace = scan_spectrum(*reference_comb,
                              [(species[name], 1.0) for name in ("Xe", "CF3H", "N2")],
                              span, span / (points - 1), WAVELENGTH, 295.0,
                              normalize=True)
        assert len(trace.detunings) == points
        for values in trace.detunings, trace.signals:
            assert max(kernel_text(values, json=True)[1]) <= 1


def test_an_unknown_format_is_a_value_error(reference_comb):
    trace = SpectrumTrace(np.arange(3.0), np.ones(3), "Xe", *reference_comb)
    with pytest.raises(ValueError, match="csv or json"):
        next(pieces(trace, "table"))


"""``jsontext.dumps`` against ``json.dumps(value, indent=2)``, byte for byte.

The writer stands in for the json package in every JSON artifact, so it is
checked on what the artifacts hold and past it: nested and empty
containers, ``None``, doubles of every binade, and strings that need each
kind of escape, at the top level and at the trace's two-space indent.
"""

import ast
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from cavray import jsontext

MARGINS = ["", "  "]

STRINGS = ["", " ", "cavray.spectrum-trace/1", "Xe+N2", "~ !#$%&'()*+,-./:;<=>?@[]^_`{|}",
           'say "hi"', "back\\slash", "tab\there", "line\nbreak", "\x00\x1f", "del\x7f",
           "\u00e9t\u00e9", "\U0001f600 astral", "\ud800 lone surrogate"]


def binade_doubles():
    """Fixed-seed doubles of both signs: one from each binade, 5e-324 to
    1.8e308, integral doubles up to 1e16, -0.0 and the largest double."""
    rng = random.Random(20261019)
    binades = [math.ldexp(1.0 + rng.random(), e) for e in range(-1074, 1024)]
    integers = [float(rng.randrange(10 ** 16)) for _ in range(300)]
    integers += [float(10 ** k) for k in range(17)] + [2.0 ** 53, 2.0 ** 53 + 2.0]
    values = binades + integers + [0.0, 5e-324, 2.2250738585072014e-308,
                                   1.7976931348623157e308, 0.1, 1e-5, 1e16]
    return values + [-x for x in values]


DOUBLES = binade_doubles()


def nested(rng, depth):
    """A random nest of dicts and lists, empty ones included, over every
    kind of leaf the writer takes."""
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        return rng.choice(DOUBLES)
    if kind == 1:
        return rng.choice(STRINGS)
    if kind == 2:
        return None
    if kind in (3, 4):
        return [nested(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {rng.choice(STRINGS) + str(i): nested(rng, depth - 1)
            for i in range(rng.randrange(4))}


def assert_matches_json(value):
    # line by line: pytest's diff of two long unequal texts takes minutes
    for margin in MARGINS:
        expected = json.dumps(value, indent=2).replace("\n", "\n" + margin)
        assert jsontext.dumps(value, margin).split("\n") == expected.split("\n"), margin


@pytest.mark.parametrize("value", [
    {}, [], None, [[]], {"a": {}}, {"a": [], "b": None}, [None, {}, [[], [{}]]],
    {"schema": "cavray.cavity-params/1", "finesse": 1000.0, "entries": [
        {"finesse": 400.0, "share": 0.7857142857142857}, {"finesse": 100.0}],
     "enhancement_factor": None},
])
def test_containers_match_json(value):
    assert_matches_json(value)


def test_doubles_of_every_binade_match_json():
    assert_matches_json(DOUBLES)
    assert_matches_json([np.float64(x) for x in DOUBLES])
    for x in (-0.0, 5e-324, 1e16, np.float64(-1e-5)):
        assert_matches_json(x)


@pytest.mark.parametrize("text", STRINGS)
def test_strings_match_json_as_values_and_keys(text):
    assert_matches_json(text)
    assert_matches_json({text: [text]})


def test_random_nests_match_json():
    rng = random.Random(0)
    for _ in range(300):
        assert_matches_json(nested(rng, 4))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                   [1.0, math.inf], {"a": {"b": -math.inf}}])
def test_non_finite_floats_are_a_value_error(value):
    with pytest.raises(ValueError, match="no token"):
        jsontext.dumps(value)


@pytest.mark.parametrize("value", [1, True, (1.0, 2.0), [1.0, (2.0,)], {"a": 0},
                                   {1: 2.0}, {None: 2.0}, np.float32(1.0)])
def test_other_types_are_a_type_error(value):
    with pytest.raises(TypeError):
        jsontext.dumps(value)


@pytest.mark.parametrize("module", ["cli", "trace"])
def test_artifact_writers_import_json_nowhere(module):
    # a JSON report or scan writes through jsontext; only a string that
    # needs an escape loads the json package, from jsontext
    tree = ast.parse(Path(jsontext.__file__).with_name(f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported if name and name.split(".")[0] == "json"}

"""Flat key-value scenario files with dotted section keys.

Every physical quantity carries an explicit unit suffix on its key
(``cavity.separation_mm = 6.0``); the parser strips the suffix and stores
the SI value under the bare key (``cavity.separation``). A key given
without its suffix is read in SI units. Dimensionless values
(reflectivities, finesse, overlaps) take no suffix. ``read_lines`` reads
this file and the species table of :mod:`cavray.gases` alike: UTF-8, with
or without a byte-order mark, lines that end at LF, CR LF or CR alone (so
a form feed or U+2028 ends none), ``#`` comments and blank lines ignored.

``KEYS`` is the one list of accepted keys: each with its unit family and
its range. ``parse_config`` checks every line against it, so an unknown
key, a unit of the wrong family, a word for a number or a value out of
range is a ``ConfigError`` that gives the line and names the key. The
whole sample is at ``gas.temperature``, by default ``DEFAULT_TEMPERATURE``.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

from .errors import ConfigError

# unit family -> {suffix: factor converting to SI}
UNITS = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "pressure": {"Pa": 1.0, "mbar": 1e2, "bar": 1e5},
    "temperature": {"K": 1.0},
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9, "pW": 1e-12, "fW": 1e-15},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
}
UNIT_SUFFIXES = {suffix: (family, factor) for family, units in UNITS.items()
                 for suffix, factor in units.items()}

DEFAULT_TEMPERATURE = 295.0  # K
_LINE_END = re.compile("\r\n?|\n")  # str.splitlines() also splits at \v, \f, U+2028...

# range -> (test of a value, what a value must be)
RANGES = {
    "> 0": (lambda v: v > 0.0, "positive"),
    ">= 0": (lambda v: v >= 0.0, "nonnegative"),
    "[0, 1)": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "(0, 1]": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "0 or 1": (lambda v: v in (0.0, 1.0), "0 or 1"),
    "any": (lambda v: True, ""),
}

# every accepted key -> (unit family or None, range); <i> stands for an
# index 1, 2, ... A "word" key keeps its text. pump.power and
# pump.polarization_angle are read by nothing: documented, ignored keys.
KEYS = {
    "cavity.separation": ("length", "> 0"),
    "cavity.curvature": ("length", "> 0"),
    "cavity.left_reflectivity": (None, "[0, 1)"),
    "cavity.right_reflectivity": (None, "[0, 1)"),
    "cavity.waist": ("length", "> 0"),
    "pump.wavelength": ("length", "> 0"),
    "pump.power": ("power", ">= 0"),
    "pump.waist": ("length", "> 0"),
    "pump.polarization_angle": ("angle", "any"),
    "gas.species": (None, "word"),
    "gas.pressure": ("pressure", ">= 0"),
    "gas.temperature": ("temperature", "> 0"),
    "anchor.measured_power": ("power", "> 0"),
    "anchor.finesse": (None, "> 0"),
    "anchor.spectral_overlap": (None, "(0, 1]"),
    "scan.species": (None, "word"),
    "scan.weight<i>": (None, ">= 0"),
    "scan.range": ("frequency", "> 0"),
    "scan.resolution": ("frequency", "> 0"),
    "scan.normalize": (None, "0 or 1"),
    "overlap.waist": ("length", "> 0"),
    "overlap.plane_factor": (None, "> 0"),
    "purcell.finesse": (None, "> 0"),
    "purcell.waist": ("length", "> 0"),
    "enhance.left_reflectivity": (None, "[0, 1)"),
    "enhance.pairing<i>.finesse": (None, "> 0"),
    "enhance.pairing<i>.right_reflectivity": (None, "[0, 1)"),
    "enhance.pairing<i>.measured_power": ("power", "> 0"),
    "enhance.pairing<i>.spectral_overlap": (None, "(0, 1]"),
    "enhance.free_space_power": ("power", "> 0"),
    "enhance.comparison_power": ("power", "> 0"),
    "forecast.n_molecules": (None, ">= 0"),
    "forecast.target_finesse": (None, "> 0"),
    "forecast.polarizability_factor": (None, "> 0"),
}


class Config(dict):
    """Parsed values by bare key; ``path`` names the file in errors, and a
    key that is read but absent is a ConfigError that names it."""

    def __init__(self, path: str | os.PathLike):
        super().__init__()
        self.path = path

    def __missing__(self, key: str):
        raise ConfigError(self.path, None, f"missing required key {key!r} "
                          "(any unit suffix)")


def read_lines(path: Path) -> list[tuple[int, str]]:
    """(number, text before any ``#``, stripped) of each line of ``path`` that holds
    any. An unreadable file, or a byte that is not UTF-8 (at its line), is a ConfigError."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise ConfigError(path, None, f"cannot read file: {exc}") from None
    except UnicodeDecodeError as exc:
        # exc.object follows any byte-order mark; the bytes before exc.start decode
        lineno = len(_LINE_END.split(exc.object[:exc.start].decode("utf-8")))
        raise ConfigError(path, lineno, f"byte 0x{exc.object[exc.start]:02x} is not "
                          f"UTF-8 ({exc.reason})") from None
    lines = (raw.split("#", 1)[0].strip() for raw in _LINE_END.split(text))
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def _check_magnitude(path, lineno: int, name: str, number: float, value: float,
                     units: str, written: str) -> None:
    """A ConfigError at ``path:lineno``, quoting the value as ``written``, unless
    the ``number`` written is 0 or its ``value`` in ``units`` is of magnitude
    1e-30 to 1e30: no input comes near them, and beyond them arithmetic
    overflows. A nonzero number whose conversion underflows to 0 is beyond them."""
    if number and not 1e-30 <= abs(value) <= 1e30:
        raise ConfigError(path, lineno, f"{name} must be 0 or of magnitude "
                          f"1e-30 to 1e30 in {units}, got {written}")


def parse_config(path: str | os.PathLike) -> Config:
    """Parse a scenario file into {dotted.key: SI value or word}, checking
    each line against ``KEYS``."""
    path = Path(path)
    values = Config(path)
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if not key or not text:
            raise ConfigError(path, lineno, "empty key or value")
        stem, _, unit = key.rpartition("_")
        if not (stem and unit in UNIT_SUFFIXES):
            stem, unit = key, None
        declared = re.sub(r"\d+", "<i>", stem)
        if declared not in KEYS:
            import difflib  # only this error needs it

            guess = difflib.get_close_matches(declared, KEYS, n=1)
            raise ConfigError(path, lineno, f"unknown key {stem!r}"
                              + (f"; did you mean {guess[0]!r}?" if guess else ""))
        family, limits = KEYS[declared]
        if unit is not None and UNIT_SUFFIXES[unit][0] != family:
            wants = f"a {family} unit" if family else "no unit suffix"
            raise ConfigError(path, lineno, f"key {key!r}: {stem} takes {wants}, "
                              f"not {unit!r}")
        if stem in values:
            raise ConfigError(path, lineno, f"duplicate key {stem!r}")
        if limits == "word":
            values[stem] = text
            continue
        try:
            number = float(text)
        except ValueError:
            if unit is not None:
                raise ConfigError(path, lineno, f"key {key!r} has a unit suffix but "
                                  f"value {text!r} is not numeric") from None
            raise ConfigError(path, lineno,
                              f"key {key!r} needs a number, got {text!r}") from None
        value = number * (UNIT_SUFFIXES[unit][1] if unit else 1.0)
        if not math.isfinite(value):
            raise ConfigError(path, lineno, f"key {key!r} has non-finite value {text!r}")
        test, wanted = RANGES[limits]
        written = f"{text} {unit}" if unit else text
        # every unit factor is positive, so the number has its value's sign,
        # and keeps it where the value underflows to 0
        if not test(number):
            raise ConfigError(path, lineno, f"{stem} must be {wanted}, got {written}")
        _check_magnitude(path, lineno, stem, number, value, "SI units", written)
        values[stem] = value
    return values

"""Flat key-value scenario files with dotted section keys.

Every physical quantity carries an explicit unit suffix on its key
(``cavity.separation_mm = 6.0``); the parser strips the suffix and stores
the SI value under the bare key (``cavity.separation``). Dimensionless
values (reflectivities, finesse, overlaps) take no suffix. ``#`` starts a
comment; blank lines are ignored.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from .constants import ATOMIC_UNIT_POLARIZABILITY_A3
from .errors import ConfigError

# suffix -> factor converting to the library's working unit (SI, except
# polarizabilities which stay in cubic angstroms)
UNIT_SUFFIXES = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "nm": 1e-9,
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
    "Pa": 1.0,
    "mbar": 1e2,
    "bar": 1e5,
    "K": 1.0,
    "W": 1.0,
    "mW": 1e-3,
    "uW": 1e-6,
    "nW": 1e-9,
    "pW": 1e-12,
    "fW": 1e-15,
    "rad": 1.0,
    "deg": math.pi / 180.0,
    "A3": 1.0,
    "au": ATOMIC_UNIT_POLARIZABILITY_A3,
}


def _split_unit(key: str) -> tuple[str, float]:
    stem, _, suffix = key.rpartition("_")
    if stem and suffix in UNIT_SUFFIXES:
        return stem, UNIT_SUFFIXES[suffix]
    return key, 1.0


def parse_config(path: str | os.PathLike) -> dict[str, float | str]:
    """Parse a scenario file into {dotted.key: SI value or string}."""
    path = Path(path)
    values: dict[str, float | str] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(path, None, f"cannot read config: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if not key or not text:
            raise ConfigError(path, lineno, "empty key or value")
        stem, factor = _split_unit(key)
        if stem in values:
            raise ConfigError(path, lineno, f"duplicate key {stem!r}")
        try:
            number = float(text)
        except ValueError:
            # unsuffixed keys may carry strings (species names, labels)
            if stem != key:
                raise ConfigError(
                    path, lineno, f"key {key!r} has a unit suffix but value "
                    f"{text!r} is not numeric"
                )
            values[key] = text
            continue
        value = number * factor
        if not math.isfinite(value):
            raise ConfigError(path, lineno, f"key {key!r} has non-finite value {text!r}")
        values[stem] = value
    return values


def require(values: dict[str, float | str], key: str,
            path: str | os.PathLike = "<config>") -> float | str:
    """Fetch a mandatory key, raising a ConfigError that names it."""
    if key not in values:
        raise ConfigError(path, None, f"missing required key {key!r} "
                          "(any unit suffix)")
    return values[key]


_REQUIRED = object()


def numeric(values: dict[str, float | str], key: str,
            path: str | os.PathLike = "<config>", default=_REQUIRED):
    """A numeric key as a float; ``default`` when absent, mandatory as with
    ``require`` without one. A word given for a number names the key."""
    if key not in values and default is not _REQUIRED:
        return default
    value = require(values, key, path)
    if isinstance(value, str):
        raise ConfigError(path, None, f"key {key!r} needs a number, got {value!r}")
    return float(value)


def positive(values: dict[str, float | str], key: str,
             path: str | os.PathLike = "<config>", default=_REQUIRED):
    """A numeric key as with ``numeric`` that must be > 0 when present;
    a ConfigError names the key otherwise."""
    value = numeric(values, key, path, default)
    if key in values and not value > 0.0:
        raise ConfigError(path, None, f"{key} must be positive, got {value}")
    return value


def reflectivity(values: dict[str, float | str], key: str,
                 path: str | os.PathLike = "<config>") -> float:
    """A mandatory intensity reflectivity key as with ``numeric``, which
    must be in [0, 1); a ConfigError names the key otherwise."""
    value = numeric(values, key, path)
    if not 0.0 <= value < 1.0:
        raise ConfigError(path, None, f"{key} must be in [0, 1), got {value}")
    return value

"""Gas species data and the on-disk species table.

The species table is a plain text file of rows ``name molar_mass_g_per_mol
polarizability_A3``, with CGS volume polarizabilities in cubic angstroms,
read by the config's reader, :func:`cavray.config.read_lines`. A species
is its row and holds no temperature: that is the sample's,
``gas.temperature``, which ``cavray.cli`` passes to each function that
reads it. ``CAVRAY_SPECIES_DB`` or an explicit path overrides the
packaged table.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from .config import _check_magnitude, read_lines
from .errors import ConfigError
from .records import record

SPECIES_DB_ENV = "CAVRAY_SPECIES_DB"
_BUILTIN_TABLE = Path(__file__).with_name("data") / "species.txt"


@record
class GasSpecies:
    """A scattering gas, one row of the species table."""

    name: str
    molar_mass: float        # kg/mol
    polarizability: float    # cubic angstroms (CGS volume polarizability)

    def __post_init__(self):
        for field in ("molar_mass", "polarizability"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.name}: {field} must be finite and positive, "
                                 f"got {value}")


def load_species_table(path: str | os.PathLike | None = None) -> dict[str, GasSpecies]:
    """The species table at *path*, else at CAVRAY_SPECIES_DB, else the
    packaged one, as a name -> GasSpecies mapping. A row that is not a name
    and two finite positive numbers of magnitude 1e-30 to 1e30 (the molar
    mass in kg/mol), a repeated name and an empty table are ConfigErrors; a
    number's error quotes it as the row writes it, with its column's unit."""
    if path is None:
        path = os.environ.get(SPECIES_DB_ENV) or _BUILTIN_TABLE
    path = Path(path)
    table: dict[str, GasSpecies] = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 3:
            raise ConfigError(path, lineno, "expected 3 fields (name molar_mass_g_per_mol "
                              f"polarizability_A3), got {len(fields)}")
        name = fields[0]
        try:
            molar_mass_g, polarizability = map(float, fields[1:])
        except ValueError as exc:
            raise ConfigError(path, lineno, f"non-numeric field: {exc}") from None
        if name in table:
            raise ConfigError(path, lineno, f"species {name!r} is listed twice")
        molar_mass = molar_mass_g * 1e-3
        # each number in the unit of its window, and as the row writes it
        for field, column, value, units, written in (
                ("molar_mass", 2, molar_mass, "kg/mol", f"{fields[1]} g/mol"),
                ("polarizability", 3, polarizability, "cubic angstroms",
                 f"{fields[2]} cubic angstroms")):
            if not 0.0 < value < math.inf:  # GasSpecies's own check, quoting the row
                raise ConfigError(path, lineno, f"{name}: {field} must be finite and "
                                  f"positive, got {written}")
            _check_magnitude(path, lineno, f"{name}: {field} (column {column})", value,
                             units, written)
        table[name] = GasSpecies(name, molar_mass, polarizability)
    if not table:
        raise ConfigError(path, None, "species table contains no records")
    return table

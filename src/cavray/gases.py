"""Gas species data and the on-disk species table.

The species database is a plain text file, one record per line:

    name  molar_mass_g_per_mol  polarizability_A3

Blank lines and ``#`` comments are ignored. Polarizabilities are CGS
volume polarizabilities in cubic angstroms. The packaged table can be
overridden with the ``CAVRAY_SPECIES_DB`` environment variable or an
explicit path.
"""

from __future__ import annotations

import math
import os
from importlib import resources
from pathlib import Path

from .config import Config
from .errors import ConfigError
from .records import record

SPECIES_DB_ENV = "CAVRAY_SPECIES_DB"

DEFAULT_TEMPERATURE = 295.0  # K, room temperature of the packaged table


@record
class GasSpecies:
    """A scattering gas: mass, volume polarizability and temperature."""

    name: str
    molar_mass: float        # kg/mol
    polarizability: float    # cubic angstroms (CGS volume polarizability)
    temperature: float = DEFAULT_TEMPERATURE  # K

    def __post_init__(self):
        for field in ("molar_mass", "polarizability", "temperature"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.name}: {field} must be finite and positive, "
                                 f"got {value}")


def _builtin_table_path() -> Path:
    return Path(str(resources.files("cavray").joinpath("data/species.txt")))


def load_species_table(path: str | os.PathLike | None = None) -> dict[str, GasSpecies]:
    """Load the species database into a name -> GasSpecies mapping, each
    species at ``DEFAULT_TEMPERATURE``.

    Resolution order: explicit *path*, the CAVRAY_SPECIES_DB environment
    variable, then the packaged table. A record with a value that is not
    finite and positive, or a name an earlier record took, is a ValueError
    that gives its line.
    """
    if path is None:
        path = os.environ.get(SPECIES_DB_ENV) or _builtin_table_path()
    path = Path(path)
    table: dict[str, GasSpecies] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 fields "
                    f"(name molar_mass_g_per_mol polarizability_A3), got {len(fields)}"
                )
            name = fields[0]
            try:
                molar_mass_g = float(fields[1])
                polarizability = float(fields[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field: {exc}") from None
            if name in table:
                raise ValueError(f"{path}:{lineno}: species {name!r} is listed twice")
            try:
                table[name] = GasSpecies(name, molar_mass_g * 1e-3, polarizability)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not table:
        raise ValueError(f"{path}: species table contains no records")
    return table



def config_species(values: Config, key: str, names: list[str]) -> list[GasSpecies]:
    """The species that config ``key`` lists as ``names``, from the species
    table, at the config's ``gas.temperature``. A name the table lacks is a
    ConfigError that names ``key`` and lists the table."""
    table = load_species_table()
    temperature = values.get("gas.temperature", DEFAULT_TEMPERATURE)
    for name in names:
        if name not in table:
            raise ConfigError(values.path, None, f"{key}: unknown species {name!r}; "
                              "table has: " + ", ".join(sorted(table)))
    return [table[name]._replace(temperature=temperature) for name in names]

"""Gas species data and the on-disk species table.

The species database is a plain text file, one record per line:

    name  molar_mass_g_per_mol  polarizability_A3

Blank lines and ``#`` comments are ignored. Polarizabilities are CGS
volume polarizabilities in cubic angstroms. The packaged table can be
overridden with the ``CAVRAY_SPECIES_DB`` environment variable or an
explicit path.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

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
        if self.molar_mass <= 0.0:
            raise ValueError(f"molar mass must be positive, got {self.molar_mass}")
        if self.polarizability <= 0.0:
            raise ValueError(
                f"polarizability must be positive, got {self.polarizability}"
            )
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def _builtin_table_path() -> Path:
    return Path(str(resources.files("cavray").joinpath("data/species.txt")))


def load_species_table(path: str | os.PathLike | None = None,
                       temperature: float = DEFAULT_TEMPERATURE) -> dict[str, GasSpecies]:
    """Load the species database into a name -> GasSpecies mapping.

    Resolution order: explicit *path*, the CAVRAY_SPECIES_DB environment
    variable, then the packaged table.
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
            table[name] = GasSpecies(
                name=name,
                molar_mass=molar_mass_g * 1e-3,
                polarizability=polarizability,
                temperature=temperature,
            )
    if not table:
        raise ValueError(f"{path}: species table contains no records")
    return table


"""Gas species data and the on-disk species table.

The species database is a plain text file, one record per line:

    name  molar_mass_g_per_mol  polarizability_A3

Blank lines and ``#`` comments are ignored, and the file is UTF-8, with
or without a byte-order mark. Polarizabilities are CGS volume
polarizabilities in cubic angstroms. The packaged table can be overridden
with the ``CAVRAY_SPECIES_DB`` environment variable or an explicit path.
The table gives each species at room temperature; ``cavray.cli`` picks
the species a config names and gives them its ``gas.temperature``.
"""

from __future__ import annotations

import math
import os
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
        for field in ("molar_mass", "polarizability", "temperature"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.name}: {field} must be finite and positive, "
                                 f"got {value}")


def _builtin_table_path() -> Path:
    return Path(__file__).with_name("data") / "species.txt"


def load_species_table(path: str | os.PathLike | None = None) -> dict[str, GasSpecies]:
    """Load the species database into a name -> GasSpecies mapping, each
    species at ``DEFAULT_TEMPERATURE``.

    Resolution order: explicit *path*, the CAVRAY_SPECIES_DB environment
    variable, then the packaged table. A record with a value that is not
    finite and positive, a name an earlier record took, or a byte that is
    not UTF-8 is a ValueError that gives its line.
    """
    if path is None:
        path = os.environ.get(SPECIES_DB_ENV) or _builtin_table_path()
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: byte 0x{exc.object[exc.start]:02x} "
                         f"is not UTF-8 ({exc.reason})") from None
    table: dict[str, GasSpecies] = {}
    for lineno, raw in enumerate(lines, start=1):
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

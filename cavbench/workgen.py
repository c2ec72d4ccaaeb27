"""Seeded scenario configs for the cavray benchmark workloads.

Every config is drawn from ``random.Random(seed)``, so one seed always
gives the same files. The values perturb the demo scenario
(``demos/reference_cavity.cfg``) and are written in the program's own
flat ``key_unit = value`` format.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

SPEED_OF_LIGHT = 2.99792458e8

# name -> (molar mass g/mol, polarizability A^3), as in the packaged table
SPECIES = {"Xe": (131.29, 4.04), "N2": (28.01, 1.74), "CF3H": (70.01, 2.80)}
SCAN_SPECIES = ("Xe", "CF3H", "N2")

# the temperature every scan is computed at today, whatever the config says
TABLE_TEMPERATURE_K = 295.0

REPORT_COMMANDS = ("cavity", "enhance", "purcell", "forecast", "overlap")

# Output format -> (FSRs spanned, grid points) of each size a scan pool
# holds in that format. Every seed gets the same ladders, so runs differ in
# physics, not in the work done. All sizes of a workload cost about the
# same: the wide scans' kernel goes with FSRs x points, a dense scan with
# its points, and JSON costs ~1.75x CSV per point. A run's dozen op times
# then come from one distribution, and its median and low order
# statistics stay put from run to run.
SCAN_LADDERS = {
    "scan-wide": {"csv": ((20.0, 45_000), (25.0, 36_000), (30.0, 30_000))},
    "scan-dense": {"csv": ((1.0, 175_000), (1.5, 175_000), (2.0, 175_000)),
                   "json": ((1.0, 100_000), (1.5, 100_000), (2.0, 100_000))},
}
REPORT_POOL_SIZE = 8


def _cavity(rng: random.Random, reflectivity: tuple[float, float]) -> dict:
    return {
        "cavity.separation_mm": rng.uniform(5.0, 8.0),
        "cavity.curvature_mm": rng.uniform(30.0, 60.0),
        "cavity.left_reflectivity": rng.uniform(*reflectivity),
        "cavity.right_reflectivity": rng.uniform(*reflectivity),
        "pump.wavelength_nm": rng.uniform(505.0, 560.0),
    }


def report_config(rng: random.Random) -> dict:
    """A perturbed demo scenario with every key the report subcommands read."""
    values = _cavity(rng, (0.990, 0.999))
    values.update({
        "cavity.waist_um": rng.uniform(35.0, 55.0),
        "pump.power_W": rng.uniform(0.5, 2.0),
        "pump.waist_um": rng.uniform(40.0, 60.0),
        "pump.polarization_angle_deg": 90.0,
        "gas.species": rng.choice(sorted(SPECIES)),
        "gas.pressure_mbar": rng.uniform(10.0, 100.0),
        "gas.temperature_K": rng.uniform(77.0, 400.0),
        "anchor.measured_power_fW": rng.uniform(20.0, 80.0),
        "anchor.finesse": rng.uniform(500.0, 2000.0),
        "anchor.spectral_overlap": rng.uniform(0.02, 0.1),
        "overlap.plane_factor": rng.uniform(50.0, 200.0),
        "purcell.finesse": rng.uniform(200.0, 5000.0),
        "purcell.waist_um": rng.uniform(30.0, 60.0),
        "enhance.left_reflectivity": rng.uniform(0.990, 0.999),
        "enhance.free_space_power_fW": rng.uniform(0.5, 3.0),
        "enhance.comparison_power_fW": rng.uniform(20.0, 80.0),
        "forecast.n_molecules": rng.uniform(1e4, 1e6),
        "forecast.target_finesse": rng.uniform(1e4, 1e6),
        "forecast.polarizability_factor": rng.uniform(2.0, 20.0),
    })
    finesse = rng.uniform(800.0, 1500.0)
    for i in range(1, rng.randint(2, 4) + 1):
        prefix = f"enhance.pairing{i}"
        values[f"{prefix}.finesse"] = finesse
        values[f"{prefix}.right_reflectivity"] = rng.uniform(0.95, 0.999)
        values[f"{prefix}.measured_power_fW"] = rng.uniform(30.0, 100.0)
        values[f"{prefix}.spectral_overlap"] = rng.uniform(0.02, 0.5)
        finesse *= rng.uniform(0.2, 0.6)
    return values


def scan_config(rng: random.Random, fsr_count: float, points: int,
                temperature: float) -> dict:
    """A three-species scan over ``fsr_count`` FSRs sampled at ``points`` points."""
    values = _cavity(rng, (0.995, 0.999))
    values.update({
        "gas.species": "Xe",
        "gas.pressure_mbar": rng.uniform(10.0, 100.0),
        "gas.temperature_K": temperature,
        "scan.species": ",".join(SCAN_SPECIES),
        "scan.normalize": 1,
    })
    for i in range(1, len(SCAN_SPECIES) + 1):
        values[f"scan.weight{i}"] = rng.uniform(0.5, 2.0)
    fsr = SPEED_OF_LIGHT / (2.0 * values["cavity.separation_mm"] * 1e-3)
    span = fsr_count * fsr
    values["scan.range_GHz"] = span / 1e9
    values["scan.resolution_MHz"] = span / (points - 1) / 1e6
    return values


def make_pool(workload: str, seed: int) -> list[dict]:
    """The seeded config pool that a workload's ops cycle through.

    A scan pool holds each ladder size twice: first at the table
    temperature, then anywhere in 77-400 K, so that a scan which ignores
    gas.temperature_K fails on every odd config.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reports":
        return [report_config(rng) for _ in range(REPORT_POOL_SIZE)]
    if workload in SCAN_LADDERS:
        return [scan_config(rng, fsr_count, points, temperature)
                for ladder in SCAN_LADDERS[workload].values()
                for fsr_count, points in ladder
                for temperature in (TABLE_TEMPERATURE_K, rng.uniform(77.0, 400.0))]
    raise ValueError(f"workload {workload!r} reads no configs")


def scan_formats(workload: str) -> list[str]:
    """The output format of each config in the workload's scan pool."""
    return [fmt for fmt, ladder in SCAN_LADDERS[workload].items()
            for _ in ladder for _ in range(2)]


def render(values: dict) -> str:
    """Config file text; floats keep every digit so files round-trip."""
    lines = []
    for key, value in values.items():
        text = repr(float(value)) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def write_pool(pool: list[dict], directory: Path) -> list[Path]:
    paths = []
    for j, values in enumerate(pool):
        path = directory / f"scenario_{j:02d}.cfg"
        path.write_text(render(values), encoding="utf-8")
        paths.append(path)
    return paths


def si(values: dict, key: str) -> float:
    """The SI value of a generated key given without its unit suffix."""
    factors = {"mm": 1e-3, "um": 1e-6, "nm": 1e-9, "GHz": 1e9, "MHz": 1e6,
               "fW": 1e-15, "mbar": 1e2, "K": 1.0, "W": 1.0, "deg": math.pi / 180.0}
    if key in values:
        return float(values[key])
    for suffix, factor in factors.items():
        if f"{key}_{suffix}" in values:
            return float(values[f"{key}_{suffix}"]) * factor
    raise KeyError(key)

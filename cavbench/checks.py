"""Output checks for every benchmark op, independent of the program's code.

Each check recomputes what it can from the generated config with closed
forms written here, and returns a ``Verdict``. An op whose verdict is not
``ok`` counts as failed. ``known_defect`` names a documented program
defect that explains the failure; a failure without one makes the whole
run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import comb
from workgen import SCAN_SPECIES, SPECIES, SPEED_OF_LIGHT, TABLE_TEMPERATURE_K, si

# largest scan deviation from the infinite comb, as a fraction of peak;
# the program's fixed 8 sigma + 40 hwhm window costs ~1e-5 on these configs
SCAN_TOLERANCE = 1e-4
SCAN_SAMPLES = 2000
CLOSED_FORM_TOLERANCE = 1e-12

TEMPERATURE_DEFECT = "scan ignores gas.temperature_K"


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    known_defect: str | None = None
    points: int = 0
    scan_error: float | None = None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _close(name: str, got: float, want: float, tol: float = CLOSED_FORM_TOLERANCE) -> str:
    if not (math.isfinite(got) and _rel(got, want) <= tol):
        return f"{name} {got!r} != {want!r}"
    return ""


def _finesse(r1: float, r2: float) -> float:
    product = r1 * r2
    return math.pi * product ** 0.25 / (1.0 - math.sqrt(product))


def _purcell_ratio(finesse: float, wavelength: float, waist: float) -> float:
    return 6.0 / math.pi ** 2 * (wavelength / waist) ** 2 * finesse / math.pi


def _verdict(problems: list[str]) -> Verdict:
    problems = [p for p in problems if p]
    return Verdict(not problems, "; ".join(problems))


def check_cavity(cfg: dict, out: dict) -> Verdict:
    d = si(cfg, "cavity.separation")
    fsr = SPEED_OF_LIGHT / (2.0 * d)
    finesse = _finesse(cfg["cavity.left_reflectivity"], cfg["cavity.right_reflectivity"])
    return _verdict([
        _close("free_spectral_range_Hz", out["free_spectral_range_Hz"], fsr),
        _close("finesse", out["finesse"], finesse),
        _close("linewidth_Hz", out["linewidth_Hz"], fsr / finesse),
    ])


def check_purcell(cfg: dict, out: dict) -> Verdict:
    return _verdict([
        _close("purcell_factor_q_over_v", out["purcell_factor_q_over_v"],
               out["interference_power_ratio"]),
        _close("interference_power_ratio", out["interference_power_ratio"],
               _purcell_ratio(cfg["purcell.finesse"], si(cfg, "pump.wavelength"),
                              si(cfg, "purcell.waist"))),
    ])


def check_overlap(cfg: dict, out: dict) -> Verdict:
    wavelength = si(cfg, "pump.wavelength")
    z0 = math.pi * out["waist_m"] ** 2 / wavelength
    bound = (z0 / out["evaluation_plane_m"]) ** 2
    problems = [
        _close("evaluation_plane_m", out["evaluation_plane_m"],
               cfg["overlap.plane_factor"] * z0),
        _close("overlap_analytic", out["overlap_analytic"],
               math.sqrt(3.0) / (2.0 * math.pi) * wavelength / out["waist_m"]),
    ]
    if not out["relative_difference"] < bound:
        problems.append(f"relative_difference {out['relative_difference']:.3e} "
                        f">= (z0/z)^2 = {bound:.3e}")
    return _verdict(problems)


def check_enhance(cfg: dict, out: dict) -> Verdict:
    t_left = 1.0 - cfg["enhance.left_reflectivity"]
    rows = []
    i = 1
    while f"enhance.pairing{i}.finesse" in cfg:
        rows.append({k: cfg[f"enhance.pairing{i}.{k}"] for k in
                     ("finesse", "right_reflectivity", "measured_power_fW",
                      "spectral_overlap")})
        i += 1
    entries = out["entries"]
    if len(entries) != len(rows):
        return Verdict(False, f"{len(entries)} entries for {len(rows)} pairings")
    top = max(r["finesse"] for r in rows)
    problems = []
    for row, entry in zip(rows, entries):
        t_right = 1.0 - row["right_reflectivity"]
        problems += [
            _close("outcoupling_share", entry["outcoupling_share"],
                   t_right / (t_left + t_right), 1e-9),
            _close("at_rest_power_W", entry["at_rest_power_W"],
                   row["measured_power_fW"] * 1e-15 / row["spectral_overlap"]),
            _close("predicted_relative_symmetric", entry["predicted_relative_symmetric"],
                   row["finesse"] / top),
        ]
    problems.append(_close("enhancement_factor", out["enhancement_factor"],
                           cfg["enhance.comparison_power_fW"]
                           / cfg["enhance.free_space_power_fW"]))
    return _verdict(problems)


def check_forecast(cfg: dict, out: dict) -> Verdict:
    ratio = _purcell_ratio(cfg["forecast.target_finesse"], si(cfg, "pump.wavelength"),
                           si(cfg, "cavity.waist"))
    return _verdict([
        _close("ensemble_rate_Hz", out["ensemble_rate_Hz"],
               out["per_molecule_in_cavity_rate_Hz"] * cfg["forecast.n_molecules"]),
        _close("cavity_free_space_ratio", out["cavity_free_space_ratio"], ratio),
        _close("per_molecule_total_rate_Hz", out["per_molecule_total_rate_Hz"],
               out["per_molecule_in_cavity_rate_Hz"] * (1.0 + 1.0 / ratio)),
    ])


REPORT_CHECKS = {
    "cavity": check_cavity,
    "enhance": check_enhance,
    "purcell": check_purcell,
    "forecast": check_forecast,
    "overlap": check_overlap,
}


def check_report(command: str, cfg: dict, text: str) -> Verdict:
    try:
        out = json.loads(text)
        return REPORT_CHECKS[command](cfg, out)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"unreadable {command} report: {exc!r}")


def parse_scan(text: str, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    if fmt == "json":
        payload = json.loads(text)
        return (np.array(payload["detuning_Hz"], dtype=float),
                np.array(payload["signal_normalized"], dtype=float))
    header, _, body = text.partition("\n")
    if header != "detuning_Hz,signal_normalized":
        raise ValueError(f"unexpected CSV header {header!r}")
    values = np.array(body.replace(",", "\n").split(), dtype=float)
    if values.size % 2:
        raise ValueError("ragged CSV body")
    return values[0::2], values[1::2]


def scan_oracle(cfg: dict, detunings: np.ndarray, temperature: float) -> np.ndarray:
    """Peak-normalized infinite-comb signal for a generated scan config.

    Every species' lines sit on the FSR grid starting at zero detuning, so
    the signal peaks at 0, the first grid point, where the program's
    normalization also puts its maximum.
    """
    wavelength = si(cfg, "pump.wavelength")
    fsr = SPEED_OF_LIGHT / (2.0 * si(cfg, "cavity.separation"))
    finesse = _finesse(cfg["cavity.left_reflectivity"], cfg["cavity.right_reflectivity"])
    hwhm = fsr / finesse / 2.0
    lines = []
    for i, name in enumerate(SCAN_SPECIES, start=1):
        molar_mass, polarizability = SPECIES[name]
        lines.append((cfg.get(f"scan.weight{i}", 1.0) * polarizability ** 2,
                      comb.observed_sigma(wavelength, temperature, molar_mass)))
    grid = np.concatenate([[0.0], detunings])
    values = comb.comb(grid, fsr, hwhm, lines)
    return values[1:] / values[0]


def check_scan(cfg: dict, text: str, fmt: str) -> Verdict:
    try:
        detunings, signals = parse_scan(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"unreadable {fmt} scan: {exc!r}")
    span = si(cfg, "scan.range")
    step = si(cfg, "scan.resolution")
    expected_points = math.ceil((span + step / 2.0) / step)
    if detunings.size != expected_points or detunings[0] != 0.0:
        return Verdict(False, f"{detunings.size} points from {detunings[:1]}, "
                              f"expected {expected_points} from 0")
    if not np.all(np.isfinite(signals)):
        return Verdict(False, "non-finite signal")
    index = np.unique(np.linspace(0, detunings.size - 1, SCAN_SAMPLES).astype(int))
    if np.max(np.abs(detunings[index] - index * step)) > 1e-9 * span:
        return Verdict(False, "detunings off the grid i * resolution")

    def error_at(temperature: float) -> float:
        oracle = scan_oracle(cfg, detunings[index], temperature)
        return float(np.max(np.abs(signals[index] - oracle)))

    error = error_at(si(cfg, "gas.temperature"))
    if error <= SCAN_TOLERANCE:
        return Verdict(True, points=detunings.size, scan_error=error)
    detail = f"deviation {error:.3e} of peak from the comb oracle"
    if error_at(TABLE_TEMPERATURE_K) <= SCAN_TOLERANCE:
        return Verdict(False, detail + f"; matches {TABLE_TEMPERATURE_K} K",
                       known_defect=TEMPERATURE_DEFECT, points=detunings.size)
    return Verdict(False, detail, points=detunings.size)


def check_oracles(results) -> Verdict:
    failed = [r.name for r in results if not r.passed]
    if failed or not results:
        return Verdict(False, f"{len(results) - len(failed)}/{len(results)} passed: "
                              + ", ".join(failed))
    return Verdict(True)

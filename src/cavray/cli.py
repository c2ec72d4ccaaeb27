"""Command-line interface: scenario configs in, CSV/JSON/table artifacts out.

Subcommands: cavity, scan, overlap, enhance, purcell, forecast, validate.
Config files use the flat dotted-key format of :mod:`cavray.config`, and
this module is the one that reads their keys: the others take SI values.
The species table shares the config's reader and ``config error:`` lines; a
species is its row, and ``gas.temperature`` is the whole sample's. A
handler reads only the keys its output depends on: ``scan`` reads the
cavity's comb alone, ``cavity.separation`` and the mirror reflectivities.
Two keys are read but move no output: ``purcell`` reads ``cavity.separation``,
which cancels from its Q/V route, and ``forecast`` reads ``gas.species``, which
cancels when the target's polarizability is a multiple of the species'.
``main`` runs a subcommand in three stages: it parses ``--config`` once
(``validate`` reads none and gets ``None``), calls the handler, and writes
what the handler returns once, through ``_write``. A handler only computes:
``cmd_*(args, values) -> (code, filename, pieces)``, the exit code, the file
name under --out and the texts of the output, which may be a generator, so
that a scan's document still streams block by block.
Each handler imports what it uses: a process loads its subcommand's modules only.
JSON artifacts are written by :mod:`cavray.jsontext`, which only a JSON output
imports; a scan's JSON goes through :mod:`cavray.trace` and then ``jsontext``.
The json package loads only for a string that needs an escape, and none of
the report schemas or species-table names does.

The collector policy has three parts. ``main``, not the import, so that an
importer's collector stays untouched, sets the hook that freezes the heap at
exit, which spares the shutdown walk over it. The numpy import of ``scan``
and ``validate`` runs in ``_aged_imports``, which moves the ~1e4 objects it
leaves, live until exit, to the oldest generation. The work itself runs
with the collector as the caller left it: pausing it saved nothing, since
the first young collection after would walk everything made meanwhile.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import sys
from pathlib import Path

from .config import DEFAULT_TEMPERATURE, parse_config
from .errors import ConfigError, ConvergenceError


# file suffix under --out of each output format
SUFFIXES = {"table": "txt", "csv": "csv", "json": "json"}


@contextlib.contextmanager
def _aged_imports():
    """Run an import block with the collector paused, then move every tracked
    object into the oldest generation, so that no young collection walks
    what the import made. ``freeze`` then ``unfreeze`` does that without a
    walk, and only if the block loaded a module and nothing is frozen: a
    caller's frozen objects are never thawed, and no moved object is frozen,
    so a full collection still reclaims garbage among them."""
    enabled = gc.isenabled()
    loaded = len(sys.modules)
    gc.disable()
    try:
        yield
    finally:
        if len(sys.modules) != loaded and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def _write(args, filename: str, pieces) -> None:
    """Stream the texts of ``pieces`` to ``filename`` in the --out directory, or stdout."""
    if args.out:
        path = Path(args.out) / filename
        # made here, so that a run that fails before it writes leaves none
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            stream.writelines(pieces)
        print(f"wrote {path}")
    else:
        sys.stdout.writelines(pieces)


def _emit(args, stem: str, schema: str, fields: dict) -> tuple[str, list[str]]:
    """The file name and text of named values as a table, CSV or a JSON object
    tagged ``schema``; it formats them and writes nothing. The JSON text comes
    from :mod:`cavray.jsontext`, imported in that branch only, and is what
    ``json.dumps(..., indent=2)`` would write."""
    if args.format == "json":
        from .jsontext import dumps

        text = dumps({"schema": schema, **fields}) + "\n"
    else:
        rows = [(name, f"{value:.12g}") for name, value in fields.items()]
        if args.format == "table":
            width = max(len(name) for name, _ in rows)
            text = "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"
        else:
            text = "name,value\n" + "\n".join(f"{n},{v}" for n, v in rows) + "\n"
    return f"{stem}.{SUFFIXES[args.format]}", [text]


def _reject_unread_indices(values, prefix: str, count: int, why: str) -> None:
    """A ConfigError naming the first ``<prefix><i>...`` key whose index i
    is not one of the 1..count its handler read: declared, but ignored."""
    read = {str(i) for i in range(1, count + 1)}
    for key in values:
        if key.startswith(prefix) and key[len(prefix):].split(".")[0] not in read:
            raise ConfigError(values.path, None, f"{key} is never read: {why}")


def _mirror_finesse(values) -> float:
    """The ``cavity.*`` mirror pair's finesse; a zero one is a ValueError naming both."""
    from .optics import _buildup_finesse

    return _buildup_finesse(values["cavity.left_reflectivity"],
                            values["cavity.right_reflectivity"])


def _geometry_waist(values, wavelength: float) -> float:
    """The fundamental-mode waist of the ``cavity.*`` geometry, from its
    separation and curvature alone: the mirrors' reflectivities do not set
    the mode. A given waist key is positive, so ``values.get(key) or`` falls
    back here when absent."""
    from .optics import symmetric_waist

    return symmetric_waist(values["cavity.separation"], values["cavity.curvature"],
                           wavelength)


def _species(values, key: str, names: list[str]):
    """The rows of the species table that config ``key`` lists as ``names``.
    A name the table lacks is a ConfigError that names ``key`` and lists the
    table; a name listed twice is one that names ``key`` and the name."""
    from .gases import load_species_table

    table = load_species_table()
    for name in names:
        if name not in table:
            raise ConfigError(values.path, None, f"{key}: unknown species {name!r}; "
                              "table has: " + ", ".join(sorted(table)))
        if names.count(name) > 1:
            raise ConfigError(values.path, None, f"{key}: species {name!r} is listed twice")
    return [table[name] for name in names]


def cmd_cavity(args, values):
    from .optics import derive_cavity_params

    params = derive_cavity_params(values["cavity.separation"], values["cavity.curvature"],
                                  values["cavity.left_reflectivity"],
                                  values["cavity.right_reflectivity"],
                                  values["pump.wavelength"])
    fields = {
        "finesse": params.finesse,
        "free_spectral_range_Hz": params.free_spectral_range,
        "linewidth_Hz": params.linewidth,
        "q_factor": params.q_factor,
        "waist_m": params.waist,
        "rayleigh_length_m": params.rayleigh_length,
        "transverse_mode_spacing_Hz": params.transverse_mode_spacing,
        "mode_volume_m3": params.mode_volume,
    }
    return 0, *_emit(args, "cavity_params", "cavray.cavity-params/1", fields)


def cmd_scan(args, values):
    from .optics import free_spectral_range
    with _aged_imports():
        from .spectra import scan_spectrum
        from .trace import pieces

    fsr = free_spectral_range(values["cavity.separation"])
    finesse = _mirror_finesse(values)
    species = _species(values, "scan.species",
                       [name.strip() for name in values["scan.species"].split(",")])
    weights = [(gas, values.get(f"scan.weight{i}", 1.0))
               for i, gas in enumerate(species, start=1)]
    _reject_unread_indices(values, "scan.weight", len(weights),
                           f"scan.species lists {len(weights)} species")
    if not any(weight > 0.0 for _, weight in weights):
        keys = ", ".join(f"scan.weight{i}" for i in range(1, len(weights) + 1))
        raise ConfigError(values.path, None, f"no scan.weight<i> is positive ({keys} "
                          "are 0): the scan would have no signal")
    trace = scan_spectrum(
        fsr, finesse, weights, scan_range=values["scan.range"],
        resolution=values["scan.resolution"], wavelength=values["pump.wavelength"],
        temperature=values.get("gas.temperature", DEFAULT_TEMPERATURE),
        normalize=bool(values.get("scan.normalize", 1.0)))
    return (0, f"scan_{trace.species.replace('+', '_')}.{args.format}",
            pieces(trace, args.format))


def cmd_overlap(args, values):
    from .optics import rayleigh_length
    from .overlap import overlap_eta_analytic, overlap_eta_numeric

    wavelength = values["pump.wavelength"]
    waist = values.get("overlap.waist") or _geometry_waist(values, wavelength)
    z = values.get("overlap.plane_factor", 100.0) * rayleigh_length(waist, wavelength)
    analytic = overlap_eta_analytic(wavelength, waist)
    on_plane = overlap_eta_numeric(wavelength, waist, z)
    fields = {
        "waist_m": waist,
        "evaluation_plane_m": z,
        "overlap_analytic": analytic,
        "overlap_numeric": on_plane,
        "relative_difference": abs(on_plane - analytic) / analytic,
    }
    return 0, *_emit(args, "overlap_report", "cavray.overlap-report/1", fields)


def cmd_enhance(args, values):
    from .experiment import build_enhancement_report

    pairings = []
    i = 1
    # pairing 1 is required; later ones are read while they continue
    while i == 1 or f"enhance.pairing{i}.finesse" in values:
        pairings.append((values[f"enhance.pairing{i}.finesse"],
                         values[f"enhance.pairing{i}.right_reflectivity"],
                         values[f"enhance.pairing{i}.measured_power"],
                         values[f"enhance.pairing{i}.spectral_overlap"]))
        i += 1
    _reject_unread_indices(values, "enhance.pairing", i - 1,
                           "pairings are read from 1 up to the first missing "
                           f"enhance.pairing<i>.finesse, enhance.pairing{i}.finesse")
    report = build_enhancement_report(
        values["enhance.left_reflectivity"], pairings,
        values.get("enhance.free_space_power"),
        values.get("enhance.comparison_power"),
    )
    if args.format == "json":
        return 0, *_emit(args, "enhancement_report", "cavray.enhancement-report/1", {
            **report._asdict(), "entries": [e._asdict() for e in report.entries]})
    return 0, "enhancement_report.txt", [_enhancement_table(report) + "\n"]


def _enhancement_table(report) -> str:
    """The enhancement report as one column-aligned row per pairing, then
    the back-out and the measured comparison."""
    lines = [
        f"{'finesse':>9} {'share':>7} {'measured':>12} {'overlap':>9} "
        f"{'at-rest':>12} {'rel meas':>9} {'rel pred':>9}"
    ]
    for e in report.entries:
        lines.append(
            f"{e.finesse:9.4g} {e.outcoupling_share:7.3f} "
            f"{e.measured_power_W:12.6g} {e.spectral_overlap:9.4f} "
            f"{e.at_rest_power_W:12.6g} {e.relative_measured:9.4f} "
            f"{e.predicted_relative:9.4f}"
        )
    lines.append(f"free-space back-out: {report.free_space_backout_W:.6g} W")
    if report.free_space_measured_W is not None:
        lines.append(f"free-space measured: {report.free_space_measured_W:.6g} W")
    if report.enhancement_factor is not None:
        lines.append(f"enhancement factor:  {report.enhancement_factor:.4g}")
    return "\n".join(lines)


def cmd_purcell(args, values):
    from .optics import mode_volume, q_factor
    from .overlap import purcell_factor, purcell_ratio

    wavelength = values["pump.wavelength"]
    # the mirrors are read only for a finesse, the curvature only for a waist,
    # that the config does not give
    finesse = values.get("purcell.finesse") or _mirror_finesse(values)
    waist = values.get("purcell.waist") or _geometry_waist(values, wavelength)
    d = values["cavity.separation"]
    from_ratio = purcell_ratio(finesse, wavelength, waist)
    from_qv = purcell_factor(q_factor(d, finesse, wavelength), wavelength,
                             mode_volume(waist, d))
    fields = {
        "finesse": finesse,
        "waist_m": waist,
        "interference_power_ratio": from_ratio,
        "purcell_factor_q_over_v": from_qv,
        "absolute_difference": abs(from_ratio - from_qv),
    }
    return 0, *_emit(args, "purcell_report", "cavray.purcell-report/1", fields)


def cmd_forecast(args, values):
    from .experiment import (POLARIZABILITY_FACTOR, ultracold_forecast,
                             ultracold_target_species)

    [gas] = _species(values, "gas.species", [values["gas.species"]])
    wavelength = values["pump.wavelength"]
    target = ultracold_target_species(
        gas, values.get("forecast.polarizability_factor", POLARIZABILITY_FACTOR))
    report = ultracold_forecast(
        target, values["forecast.n_molecules"], values["forecast.target_finesse"],
        gas=gas, temperature=values.get("gas.temperature", DEFAULT_TEMPERATURE),
        pressure=values["gas.pressure"], wavelength=wavelength,
        pump_waist=values["pump.waist"],
        cavity_waist=values.get("cavity.waist") or _geometry_waist(values, wavelength),
        measured_power=values["anchor.measured_power"],
        anchor_finesse=values["anchor.finesse"],
        spectral_overlap=values["anchor.spectral_overlap"])
    return 0, *_emit(args, "forecast_report", "cavray.forecast-report/2", report._asdict())


def cmd_validate(args, values):
    with _aged_imports():
        from . import validation

    results = validation.run_all(seed=args.seed)
    return (0 if all(r.passed for r in results) else 1, "validation_report.txt",
            [validation.format_report(results)])


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``cavray`` parser. Given one of the subcommand names as ``command``,
    it registers that subcommand's parser only, and its usage line still lists
    every name; given anything else it registers them all, for help and for
    the error on a missing or unknown subcommand."""
    # the formats each subcommand writes, its default first; validate
    # reads no config and writes one text report
    named_values = ("table", "json", "csv")
    reports = ("table", "json")
    commands = {
        "cavity": (cmd_cavity, "derive resonator parameters", named_values),
        "scan": (cmd_scan, "simulate a cavity scan", ("csv", "json")),
        "overlap": (cmd_overlap, "dipole/cavity mode overlap", named_values),
        "enhance": (cmd_enhance, "finesse dependence and free-space back-out", reports),
        "purcell": (cmd_purcell, "compare the two Purcell expressions", named_values),
        "forecast": (cmd_forecast, "ultracold-molecule detection forecast", reports),
        "validate": (cmd_validate, "run the oracle validation suite", None),
    }
    parser = argparse.ArgumentParser(
        prog="cavray",
        description="Cavity-enhanced Rayleigh scattering model",
    )
    # a metavar would rename the subcommand in the full parser's errors,
    # so only the one-subcommand parser spells out the names it lacks
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(commands) + "}" if command in commands else None))
    for name, (handler, help_text, formats) in commands.items():
        if command in commands and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        if formats:
            p.add_argument("--config", required=True, help="scenario config file")
            p.add_argument("--format", default=formats[0], choices=formats,
                           help="output format")
        else:
            p.add_argument("--seed", type=_seed, default=0,
                           help="seed from which each check's stream is derived")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the shutdown collections skip frozen objects, so a process that ends
    # here exits without walking its heap; one hook however often main runs
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        values = parse_config(args.config) if "config" in args else None
        code, filename, pieces = args.handler(args, values)
        _write(args, filename, pieces)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

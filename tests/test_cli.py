"""The ``cavray`` command line on the reference scenario.

``tests/golden/<subcommand>.<format>`` holds the exact stdout bytes of
every (subcommand, format) pair the CLI accepts on
``demos/reference_cavity.cfg``, ``tests/golden/cold_pair/`` those on
``tests/golden/cold_pair.cfg``, and ``validate.txt`` that of ``cavray
validate``. They pin "same outputs" for every config subcommand;
regenerate them only for an intended change of output. ``scan.csv`` was
rewritten when the scan became the Fourier series of the infinite comb,
which moved it by 8.3e-6 of the peak, the old fixed-window truncation.
The three ``overlap`` files were rewritten when the on-axis overlap
became the closed form of its integral: ``overlap_numeric`` moved by
-3.4e-15 relative, and ``relative_difference`` came to 1.2e-12 from the
exact sqrt(1 + (z0/z)^2) - 1 (the Gauss-Legendre rule it replaced was
6.8e-11 from it). The four ``forecast`` files were rewritten when the
forecast took the ``key  value`` writer of the other reports: its JSON
lost ``purcell_2c``, a copy of ``cavity_free_space_ratio``, and went to
schema ``cavray.forecast-report/2``.
"""

import argparse
import atexit
import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavray import free_spectral_range, scan_spectrum, symmetric_waist
from cavray.cli import _mirror_finesse, _species, build_parser, main
from cavray.config import KEYS, parse_config
from cavray.gases import _BUILTIN_TABLE
from cavray.trace import pieces

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "reference_cavity.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"

REPORTS = ["cavity", "enhance", "purcell", "forecast", "overlap"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_demo_variant(tmp_path, **replacements):
    """Copy of the demo config with whole 'key = value' lines swapped."""
    lines = []
    for line in DEMO.read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {replacements[key]}" if key in replacements else line)
    path = tmp_path / "variant.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


# a second scenario that leaves the demo on every path it shares with it:
# gas temperature, scan weights, asymmetric mirrors, given and derived waists
COLD = GOLDEN / "cold_pair.cfg"


def _outputs(scan_stem):
    """(subcommand, format, file written under --out) of every pair the CLI accepts."""
    return [
        *((command, fmt, f"{stem}.{suffix}")
          for command, stem in [("cavity", "cavity_params"), ("overlap", "overlap_report"),
                                ("purcell", "purcell_report")]
          for fmt, suffix in [("table", "txt"), ("csv", "csv"), ("json", "json")]),
        *((command, fmt, f"{stem}.{suffix}")
          for command, stem in [("enhance", "enhancement_report"),
                                ("forecast", "forecast_report")]
          for fmt, suffix in [("table", "txt"), ("json", "json")]),
        ("scan", "csv", f"scan_{scan_stem}.csv"),
        ("scan", "json", f"scan_{scan_stem}.json"),
    ]


# (config, its golden directory, subcommand, format, file written under --out)
OUTPUTS = [
    *(pytest.param(DEMO, GOLDEN, *row, id="-".join(row)) for row in _outputs("Xe_CF3H_N2")),
    *(pytest.param(COLD, GOLDEN / "cold_pair", *row, id="-".join(("cold_pair", *row)))
      for row in _outputs("Xe_N2")),
]


@pytest.mark.parametrize("config, golden, command, fmt, filename", OUTPUTS)
def test_output_is_byte_identical_to_golden(capsys, config, golden, command, fmt,
                                            filename):
    code, out, err = run_cli(capsys, command, "--config", str(config), "--format", fmt)
    assert code == 0, err
    assert out.encode("utf-8") == (golden / f"{command}.{fmt}").read_bytes()


@pytest.mark.parametrize("config, golden, command, fmt, filename", OUTPUTS)
def test_out_dir_gets_the_stdout_bytes(capsys, tmp_path, config, golden, command, fmt,
                                       filename):
    code, out, err = run_cli(capsys, command, "--config", str(config), "--format", fmt,
                             "--out", str(tmp_path))
    assert code == 0, err
    assert out == f"wrote {tmp_path / filename}\n"
    assert [p.name for p in tmp_path.iterdir()] == [filename]
    assert (tmp_path / filename).read_bytes() == (golden / f"{command}.{fmt}").read_bytes()


def _without_residual_figures(text):
    # oracle residuals are rounding noise of the quadrature and matrix
    # routes; each check already holds its own to a tolerance
    return re.sub(r"residual [-+.0-9e]+", "residual *", text)


def test_validate_report_matches_golden(capsys, tmp_path):
    want = _without_residual_figures((GOLDEN / "validate.txt").read_text())
    code, out, err = run_cli(capsys, "validate")
    assert code == 0, err
    assert _without_residual_figures(out) == want
    code, printed, err = run_cli(capsys, "validate", "--out", str(tmp_path))
    assert code == 0, err
    assert printed == f"wrote {tmp_path / 'validation_report.txt'}\n"
    assert (tmp_path / "validation_report.txt").read_text() == out


@pytest.mark.parametrize("argv", [
    ["scan", "--format", "table"],
    ["enhance", "--format", "csv"],
    ["forecast", "--format", "csv"],
    ["cavity", "--seed", "1"],
    ["purcell", "--seed", "1"],
    ["overlap", "--format", "xml"],
    ["validate", "--format", "json"],
    ["validate", "--config", str(DEMO)],
], ids=lambda argv: " ".join(argv[:2]))
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    if argv[0] != "validate":
        argv = [argv[0], "--config", str(DEMO), *argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_that_is_no_generator_seed_is_a_usage_error_naming_it(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--seed", seed])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--seed" in err and repr(seed) in err


def _argv_id(value):
    """A test id for a command line, with the demo config's path shortened."""
    if not isinstance(value, list):
        return str(value)
    return " ".join("DEMO" if word == str(DEMO) else word for word in value) or "[]"


def _parsed(parser, argv):
    """``vars`` of the namespace ``parser`` makes of ``argv``, or the exit code
    and the stdout and stderr text of its help or usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _parser_cases():
    """Command lines for each subcommand: every format it takes, --out, --seed,
    -h, and the usage errors of a missing --config, a format it does not take,
    a bad --seed and another subcommand's option."""
    config = ["--config", str(DEMO)]
    formats = {}
    for command, fmt, _ in _outputs(""):
        formats.setdefault(command, []).append(fmt)
    cases = [["validate"], ["validate", "--seed", "7"], ["validate", "--out", "d"],
             ["validate", "--seed", "-1"], ["validate", "--seed", "1.5"],
             ["validate", "--seed"], ["validate", *config], ["validate", "--format", "json"],
             ["validate", "-h"], ["validate", "validate"]]
    for command, taken in formats.items():
        cases += [[command, *config, "--format", fmt] for fmt in taken]
        untaken = [fmt for fmt in ("table", "csv", "json", "xml") if fmt not in taken]
        cases += [[command, *config, "--format", fmt] for fmt in untaken]
        cases += [[command, *config], [command, *config, "--out", "d", "--format", taken[-1]],
                  [command], [command, "--format", taken[0]], [command, *config, "--seed", "1"],
                  [command, *config, "--format"], [command, "-h"], [command, "--help", *config]]
    return cases


@pytest.mark.parametrize("argv", _parser_cases(), ids=_argv_id)
def test_one_subcommand_parser_parses_as_the_full_parser(argv):
    """``build_parser(command)`` gives the namespace the full parser gives, or
    exits with the same code and prints the same help or usage error."""
    assert _parsed(build_parser(argv[0]), argv) == _parsed(build_parser(), argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["nosuch"], ["nosuch", "-h"],
                                  ["--out", "d", "cavity"]], ids=_argv_id)
def test_main_without_a_subcommand_prints_what_the_full_parser_prints(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == _parsed(build_parser(), argv)


@pytest.mark.parametrize("argv, parsers", [
    *(([command, "-h"], 2) for command in [*REPORTS, "scan", "validate"]),
    (["overlap", "--config", str(DEMO), "--format", "json"], 2),
    (["scan", "--config", str(DEMO), "--format", "table"], 2),
    ([], 8), (["-h"], 8), (["nosuch"], 8),
], ids=_argv_id)
def test_main_builds_the_named_subcommands_parser_only(capsys, monkeypatch, argv, parsers):
    """A named subcommand costs ``main`` the top parser and its own; help and
    the error on a missing or unknown subcommand build all eight."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    assert len(built) == parsers


def test_validate_passes_every_check(capsys):
    from cavray import validation

    code, out, err = run_cli(capsys, "validate")
    n = len(validation.ALL_CHECKS)
    assert n == 25
    assert code == 0, out + err
    assert f"{n}/{n} checks passed" in out


def test_validate_reads_the_packaged_species_table(capsys, monkeypatch, tmp_path):
    # the checks' expected values are those of the packaged table; a user
    # table, here one without Xe, redirects scan and forecast only
    table = tmp_path / "species.txt"
    table.write_text("Ar 39.948 1.6411\n")
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, "validate")
    assert code == 0, out + err
    assert out.endswith("25/25 checks passed\n")


def test_validate_that_fails_a_check_exits_1_and_writes_its_report(capsys, monkeypatch,
                                                                    tmp_path):
    """A failed check makes ``validate`` exit 1, and only after the whole
    report is written, to stdout or to its --out file alike."""
    from cavray import validation

    def check_that_fails(rng):
        return validation.CheckResult(name="a check that fails", passed=False,
                                      detail="forced")

    monkeypatch.setattr(validation, "ALL_CHECKS",
                        (check_that_fails, *validation.ALL_CHECKS[1:]))
    code, out, err = run_cli(capsys, "validate")
    assert (code, err) == (1, "")
    assert out.startswith("FAIL  a check that fails: forced\n")
    assert out.endswith("\n24/25 checks passed\n")
    code, written, err = run_cli(capsys, "validate", "--out", str(tmp_path))
    path = tmp_path / "validation_report.txt"
    assert (code, written, err) == (1, f"wrote {path}\n", "")
    assert path.read_text() == out


def test_a_byte_order_mark_is_read_past(capsys, monkeypatch, tmp_path):
    # a UTF-8 byte-order mark, which some editors write, used to become part
    # of the config's first line and of the species table's first record
    def golden(command, fmt):
        return 0, (GOLDEN / f"{command}.{fmt}").read_bytes(), b""

    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbf" + DEMO.read_bytes())
    for command, fmt in ("cavity", "json"), ("scan", "csv"):
        code, out, err = run_cli(capsys, command, "--config", str(config), "--format", fmt)
        assert (code, out.encode("utf-8"), err.encode("utf-8")) == golden(command, fmt)
    table = tmp_path / "species.txt"
    table.write_bytes(b"\xef\xbb\xbf" + _BUILTIN_TABLE.read_bytes())
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, "scan", "--config", str(DEMO), "--format", "csv")
    assert (code, out.encode("utf-8"), err.encode("utf-8")) == golden("scan", "csv")


@pytest.mark.parametrize("command", ["scan", "forecast"])
@pytest.mark.parametrize("rows, line, problem", [
    ("Xe 131.29 inf\n", 3, "polarizability must be finite and positive, got inf"),
    ("Xe nan 4.04\n", 3, "molar_mass must be finite and positive, got nan"),
    ("Xe -131.29 4.04\n", 3, "Xe: molar_mass must be finite and positive, got -131.29 g/mol\n"),
    # nonzero as written: 1e-322 g/mol underflows to 0 kg/mol
    ("Xe 1e-322 4.04\n", 3, "Xe: molar_mass (column 2) must be 0 or of magnitude 1e-30 to "
                           "1e30 in kg/mol, got 1e-322 g/mol\n"),
    ("Xe 131.29 4.04\nN2 28.01 1.74\n", 4, "species 'N2' is listed twice"),
], ids=["inf", "nan", "negative", "underflow", "duplicate"])
def test_species_table_row_that_cannot_be_used_is_named(capsys, monkeypatch, tmp_path,
                                                        command, rows, line, problem):
    # an infinite polarizability used to reach the scan as three numpy
    # RuntimeWarnings, and a repeated name to replace the earlier row
    table = tmp_path / "species.txt"
    table.write_text("CF3H 70.01 2.80\nN2 28.01 1.74\n" + rows)
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, command, "--config", str(DEMO))
    assert code == 2
    assert out == ""
    assert f"{table}:{line}: " in err and problem in err


@pytest.mark.parametrize("command", ["scan", "forecast"])
@pytest.mark.parametrize("row, problem", [
    # the value as written, with its column's unit
    ("Xe 1e-300 4.04\n", "Xe: molar_mass (column 2) must be 0 or of magnitude 1e-30 to "
                         "1e30 in kg/mol, got 1e-300 g/mol"),
    ("Xe 131.29 1e200\n", "Xe: polarizability (column 3) must be 0 or of magnitude 1e-30 "
                          "to 1e30 in cubic angstroms, got 1e200 cubic angstroms"),
], ids=["tiny-mass", "huge-polarizability"])
def test_species_table_value_beyond_the_config_magnitudes_is_named(capsys, monkeypatch,
                                                                   tmp_path, command, row,
                                                                   problem):
    # a 1e-300 g/mol row ended the scan in a ZeroDivisionError traceback, a
    # polarizability of 1e200 in an OverflowError one
    table = tmp_path / "species.txt"
    table.write_text("CF3H 70.01 2.80\nN2 28.01 1.74\n" + row)
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, command, "--config", str(DEMO))
    assert (code, out) == (2, "")
    assert err == f"config error: {table}:3: {problem}\n"


def test_missing_species_table_is_a_config_error(capsys, monkeypatch, tmp_path):
    table = tmp_path / "missing.txt"
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, "scan", "--config", str(DEMO))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {table}: cannot read file: ")


SEPARATORS = pytest.mark.parametrize("separator", ["\f", "\v", "\u2028"],
                                     ids=["form-feed", "vertical-tab", "line-separator"])


@SEPARATORS
def test_a_separator_inside_a_config_comment_ends_no_line(capsys, tmp_path, separator):
    # str.splitlines() split there too, and the rest of the comment became
    # a line of its own: "expected 'key = value'"
    config = tmp_path / "separated.cfg"
    config.write_bytes(DEMO.read_bytes().replace(b"scenario: thermal",
                                                 f"scenario:{separator} thermal".encode()))
    code, out, err = run_cli(capsys, "cavity", "--config", str(config), "--format", "json")
    assert (code, out.encode("utf-8"), err) == (0, (GOLDEN / "cavity.json").read_bytes(), "")


@SEPARATORS
def test_a_separator_inside_a_species_comment_ends_no_line(capsys, monkeypatch, tmp_path,
                                                           separator):
    # split there, the row's comment became a row of 1 field, on the wrong line
    table = tmp_path / "species.txt"
    table.write_bytes(_BUILTIN_TABLE.read_bytes().replace(
        b"4.04", f"4.04  # xenon{separator} reference".encode()))
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, "scan", "--config", str(DEMO), "--format", "csv")
    assert (code, out.encode("utf-8"), err) == (0, (GOLDEN / "scan.csv").read_bytes(), "")


@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_a_bad_byte_is_counted_on_the_lines_the_reader_splits(capsys, monkeypatch, tmp_path,
                                                              end):
    # the count took \n alone, so a file with \r line ends named line 1
    def with_ends(path, line, tail):
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] += tail
        return end.encode().join(lines)

    config = tmp_path / "ends.cfg"
    config.write_bytes(with_ends(DEMO, 10, b"  # 532 nm, caf\xe9"))
    assert DEMO.read_text().splitlines()[9] == "pump.wavelength_nm = 532.0"
    code, out, err = run_cli(capsys, "cavity", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {config}:10: byte 0xe9 is not UTF-8")
    table = tmp_path / "species.txt"
    table.write_bytes(with_ends(_BUILTIN_TABLE, 11, b"  # caf\xe9"))
    monkeypatch.setenv("CAVRAY_SPECIES_DB", str(table))
    code, out, err = run_cli(capsys, "scan", "--config", str(DEMO))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {table}:11: byte 0xe9 is not UTF-8")


@pytest.mark.parametrize("command, key, names", [
    ("scan", "scan.species", "Xe, Kr"),
    ("forecast", "gas.species", "Kr"),
])
def test_unknown_species_names_its_key_and_the_table(capsys, tmp_path, command, key,
                                                     names):
    code, out, err = run_on_key_variant(capsys, tmp_path, command, key, names)
    assert code == 2
    assert out == ""
    assert f"{key}: unknown species 'Kr'; table has: CF3H, N2, Xe" in err


def test_species_listed_twice_names_its_key_and_the_name(capsys, tmp_path):
    code, out, err = run_on_key_variant(capsys, tmp_path, "scan", "scan.species", "Xe,Xe,N2")
    assert (code, out) == (2, "")
    assert "scan.species: species 'Xe' is listed twice" in err


def _scan_csv(capsys, path):
    code, out, err = run_cli(capsys, "scan", "--config", str(path), "--format", "csv")
    assert code == 0, err
    return out


def _expected_scan(path):
    """``scan_spectrum`` on what ``cavray scan`` reads from the config at
    ``path``, which gives no ``scan.weight<i>``."""
    values = parse_config(path)
    names = [name.strip() for name in values["scan.species"].split(",")]
    return scan_spectrum(
        free_spectral_range(values["cavity.separation"]), _mirror_finesse(values),
        [(gas, 1.0) for gas in _species(values, "scan.species", names)],
        scan_range=values["scan.range"], resolution=values["scan.resolution"],
        wavelength=values["pump.wavelength"], temperature=values["gas.temperature"],
        normalize=True,
    )


@pytest.mark.parametrize("path", [DEMO, COLD], ids=["demo", "cold_pair"])
def test_scan_grid_folds_with_fmod_as_with_mod(path):
    # scan_spectrum folds its grid into one FSR with np.fmod: on a grid from
    # 0 up that is np.mod to the bit, so every table cell is the same
    trace = _expected_scan(path)
    fsr = trace.free_spectral_range
    assert np.array_equal(np.fmod(trace.detunings, fsr), np.mod(trace.detunings, fsr))


def test_scan_uses_the_config_temperature(capsys, tmp_path):
    cold_cfg = write_demo_variant(tmp_path, **{"gas.temperature_K": "150.0"})
    warm = np.loadtxt(io.StringIO(_scan_csv(capsys, DEMO)), delimiter=",", skiprows=1)
    cold_text = _scan_csv(capsys, cold_cfg)
    cold = np.loadtxt(io.StringIO(cold_text), delimiter=",", skiprows=1)
    # normalized peaks: a colder gas has a narrower Doppler width, so fewer
    # samples sit above half the peak
    assert np.count_nonzero(cold[:, 1] > 0.5) < np.count_nonzero(warm[:, 1] > 0.5)

    assert cold_text == "".join(pieces(_expected_scan(cold_cfg), "csv"))


def test_scan_on_a_non_integral_grid_matches_per_point_formatting(capsys, tmp_path):
    # the demo's 25 MHz grid makes every detuning an integer in Hz, the
    # tokens the JSON writer rewrites; 25.01370137 MHz makes few of them one
    cfg = write_demo_variant(tmp_path, **{"scan.resolution_MHz": "25.01370137"})
    trace = _expected_scan(cfg)
    assert np.count_nonzero(trace.detunings == np.rint(trace.detunings)) < 30
    pairs = list(zip(trace.detunings.tolist(), trace.signals.tolist()))
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--format", "csv")
    assert code == 0, err
    assert out == "detuning_Hz,signal_normalized\n" + "".join(
        f"{x:.12g},{y:.12g}\n" for x, y in pairs)
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--format", "json")
    assert code == 0, err
    payload = {
        "schema": "cavray.spectrum-trace/1",
        "species": trace.species,
        "detuning_Hz": [float(f"{x:.12g}") for x, _ in pairs],
        "signal_normalized": [float(f"{y:.12g}") for _, y in pairs],
        "cavity": {
            "finesse": trace.finesse,
            "free_spectral_range_Hz": trace.free_spectral_range,
            "linewidth_Hz": trace.free_spectral_range / trace.finesse,
        },
    }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_forecast_at_zero_pressure_is_a_clean_error(capsys, tmp_path):
    cfg = write_demo_variant(tmp_path, **{"gas.pressure_mbar": "0"})
    code, out, err = run_cli(capsys, "forecast", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "gas.pressure" in err


def test_forecast_without_anchor_power_names_the_key(capsys, tmp_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(re.sub(r"^anchor\.measured_power_fW = .*\n", "", DEMO.read_text(),
                          flags=re.MULTILINE))
    code, out, err = run_cli(capsys, "forecast", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "missing required key 'anchor.measured_power'" in err


def test_overlap_without_a_waist_needs_no_finesse(capsys, tmp_path):
    # the mode of the geometry sets the waist; a left mirror of
    # reflectivity 0 gives the cavity no finesse, but the same mode
    cfg = write_demo_variant(tmp_path, **{"cavity.left_reflectivity": "0"})
    code, out, err = run_cli(capsys, "overlap", "--config", str(cfg), "--format", "json")
    assert code == 0, err
    values = parse_config(cfg)
    assert json.loads(out)["waist_m"] == symmetric_waist(
        values["cavity.separation"], values["cavity.curvature"], values["pump.wavelength"])


def test_purcell_with_a_given_finesse_and_waist_needs_no_mirrors(capsys, tmp_path):
    # purcell.finesse and purcell.waist are both given, so a left mirror of
    # reflectivity 0 changes nothing
    cfg = write_demo_variant(tmp_path, **{"cavity.left_reflectivity": "0"})
    code, out, err = run_cli(capsys, "purcell", "--config", str(cfg), "--format", "json")
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / "purcell.json").read_bytes()
    # without the given finesse it is derived, and the mirror has none
    cfg.write_text(re.sub(r"^purcell\.finesse = .*\n", "", cfg.read_text(),
                          flags=re.MULTILINE))
    code, out, err = run_cli(capsys, "purcell", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "cavity.left_reflectivity" in err


def test_forecast_whose_rates_overflow_names_the_keys(capsys, tmp_path):
    # each input (in SI units) inside the parse window; the rates' product
    # is beyond the largest double
    text = DEMO.read_text()
    for key, value in [("gas.pressure", "1e-30"), ("anchor.measured_power", "1e30"),
                       ("anchor.finesse", "1e-30"), ("anchor.spectral_overlap", "1e-30"),
                       ("pump.waist", "1e-30"), ("cavity.waist", "1e-30"),
                       ("forecast.target_finesse", "1e30"),
                       ("forecast.polarizability_factor", "1e30")]:
        text = re.sub(rf"^{re.escape(key)}(_\w+)? = .*$", f"{key} = {value}", text,
                      flags=re.MULTILINE)
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "forecast", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "forecast rates are not finite" in err
    assert "anchor.measured_power" in err and "forecast.target_finesse" in err


def test_scan_with_every_weight_zero_names_the_weights(capsys, tmp_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(DEMO.read_text() + "scan.weight1 = 0\nscan.weight2 = 0\nscan.weight3 = 0\n")
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "no scan.weight<i> is positive (scan.weight1, scan.weight2, scan.weight3" in err


PAIRING5 = "".join(f"enhance.pairing5.{line}\n" for line in [
    "finesse = 50", "right_reflectivity = 0.9", "measured_power_fW = 80",
    "spectral_overlap = 0.5"])


@pytest.mark.parametrize("command, replacements, added, key", [
    ("scan", {"scan.species": "Xe"}, "scan.weight7 = 2\n", "scan.weight7"),
    ("scan", {}, "scan.weight4 = 1\n", "scan.weight4"),
    ("scan", {}, "scan.weight0 = 1\n", "scan.weight0"),
    # pairing 5 after a gap: the handler stops at the missing pairing 4
    ("enhance", {}, PAIRING5, "enhance.pairing5.finesse"),
    ("enhance", {}, "enhance.pairing4.measured_power_fW = 80\n",
     "enhance.pairing4.measured_power"),
])
def test_indexed_key_no_handler_reads_is_named(capsys, tmp_path, command,
                                               replacements, added, key):
    """A declared ``scan.weight<i>`` or ``enhance.pairing<i>.*`` key whose
    index the handler never reaches is an error, not silently ignored."""
    cfg = write_demo_variant(tmp_path, **replacements)
    cfg.write_text(cfg.read_text() + added)
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {cfg}: {key} is never read: ")


def run_on_key_variant(capsys, tmp_path, command, key, value):
    """``command`` on the demo config with the line of ``key``, unit suffix
    and all, made 'key = value' (so a number is in SI units); a key the
    demo leaves out is added."""
    text, count = re.subn(rf"^{re.escape(key)}(_\w+)? = .*$", f"{key} = {value}",
                          DEMO.read_text(), flags=re.MULTILINE)
    if not count:
        text += f"{key} = {value}\n"
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(text)
    fmt = "csv" if command == "scan" else "json"
    return run_cli(capsys, command, "--config", str(cfg), "--format", fmt)


@pytest.mark.parametrize("command, key, word", [
    ("overlap", "overlap.plane_factor", "abc"),
    ("forecast", "gas.temperature", "hot"),
    ("forecast", "gas.pressure", "lots"),
    ("scan", "scan.normalize", "no"),
])
def test_non_numeric_value_names_its_key(capsys, tmp_path, command, key, word):
    code, out, err = run_on_key_variant(capsys, tmp_path, command, key, word)
    assert code == 2
    assert out == ""
    assert f"{key!r} needs a number, got {word!r}" in err


@pytest.mark.parametrize("command, key, value", [
    ("forecast", "forecast.polarizability_factor", "0"),
    ("forecast", "forecast.target_finesse", "-1"),
    ("forecast", "forecast.n_molecules", "-5"),
    ("forecast", "gas.temperature", "0"),
    ("scan", "gas.temperature", "0"),
    ("forecast", "pump.wavelength", "0"),
    ("cavity", "pump.wavelength", "0"),
    ("overlap", "pump.wavelength", "-5e-7"),
    ("purcell", "pump.wavelength", "0"),
    ("scan", "pump.wavelength", "0"),
    ("cavity", "cavity.separation", "0"),
    ("cavity", "cavity.curvature", "-0.045"),
    ("overlap", "overlap.waist", "0"),
    ("scan", "scan.range", "-1"),
    ("scan", "scan.resolution", "0"),
    ("enhance", "enhance.pairing2.finesse", "0"),
    ("cavity", "cavity.left_reflectivity", "1.5"),
    ("scan", "cavity.right_reflectivity", "-0.1"),
    ("enhance", "enhance.left_reflectivity", "1"),
    ("enhance", "enhance.pairing2.right_reflectivity", "1.5"),
    ("scan", "scan.weight1", "-1"),
    ("scan", "scan.weight3", "-0.5"),
    ("forecast", "pump.waist", "0"),
    ("forecast", "cavity.waist", "0"),
    ("forecast", "cavity.waist", "-5e-6"),
    ("overlap", "overlap.plane_factor", "0"),
    ("overlap", "overlap.plane_factor", "-3"),
    ("purcell", "purcell.waist", "0"),
    ("purcell", "purcell.waist", "-5e-6"),
    ("enhance", "enhance.pairing1.measured_power", "0"),
    ("enhance", "enhance.pairing2.spectral_overlap", "0"),
    ("enhance", "enhance.pairing3.spectral_overlap", "1.5"),
    ("enhance", "enhance.comparison_power", "0"),
    ("scan", "scan.normalize", "0.5"),
    ("scan", "scan.normalize", "-1"),
    # two keys in one condition: d < 2 Rc, and a grid finer than the lines
    ("cavity", "cavity.separation", "0.1"),
    ("scan", "scan.resolution", "1e9"),
])
def test_out_of_range_value_names_its_key(capsys, tmp_path, command, key, value):
    code, out, err = run_on_key_variant(capsys, tmp_path, command, key, value)
    assert code == 2
    assert out == ""
    assert f"{key} must be" in err


@pytest.mark.parametrize("command, old, new", [
    ("forecast", "gas.temperature_K = 295.0", "gas.temperature_mbar = 295"),
    ("purcell", "purcell.finesse = 1000.0", "purcell.finese = 1000"),
    ("cavity", "cavity.separation_mm = 6.0", "cavity.separation_GHz = 6"),
])
def test_undeclared_key_or_unit_is_a_line_anchored_error(capsys, tmp_path, command,
                                                         old, new):
    text = DEMO.read_text()
    lineno = text[:text.index(old)].count("\n") + 1
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {cfg}:{lineno}: ")
    assert repr(new.split(" = ")[0]) in err


def test_out_dir_that_cannot_be_made_is_a_clean_error(capsys, tmp_path):
    # a regular file where --out needs a parent directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "cavity", "--config", str(DEMO),
                             "--out", str(blocker / "reports"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oversized_scan_is_a_clean_error(capsys, tmp_path):
    # 1e9 GHz at 25 MHz: 4e10 points, which used to end in a MemoryError
    cfg = write_demo_variant(tmp_path, **{"scan.range_GHz": "1e9"})
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--format", "csv")
    assert code == 2
    assert out == ""
    assert "scan.range" in err and "scan.resolution" in err


@pytest.mark.parametrize("fmt, points", [("csv", 175_000), ("json", 100_000)])
def test_scan_writes_its_document_block_by_block(capsys, tmp_path, fmt, points):
    """``cavray scan --out`` holds a few float64 arrays of its grid and one
    block of text, never its whole document: under ``tracemalloc`` these
    scans peaked at about 14 MB (a 5.5 MB CSV) and 10 MB (a 4.1 MB JSON) when
    each document was built in memory before it was written."""
    import tracemalloc

    import cavray.spectra  # noqa: F401  (an import is not the scan's memory)

    cfg = write_demo_variant(tmp_path, **{
        "scan.resolution_MHz": repr(37.5e3 / (points - 1))})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["scan", "--config", str(cfg), "--format", fmt, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    written = out / f"scan_Xe_CF3H_N2.{fmt}"
    assert written.read_text().count("\n") > points
    # 8 float64 values per grid point: 11.2 MB for the CSV, 6.4 MB for the JSON
    assert peak < 64 * points


def test_non_finite_config_value_is_a_config_error(capsys, tmp_path):
    cfg = write_demo_variant(tmp_path, **{"cavity.separation_mm": "nan"})
    code, out, err = run_cli(capsys, "cavity", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "cavity.separation_mm" in err and "variant.cfg:4" in err


IMPORT_PROBE = textwrap.dedent("""
    import contextlib, gc, io, sys

    def watched_modules():
        return sorted(m for m in sys.modules if m.startswith(("numpy", "scipy", "cavray"))
                      or m in ("dataclasses", "inspect", "difflib", "json"))

    # the collections that start while main runs, counted by generation
    collections = None

    def count(phase, info):
        if phase == "start" and collections is not None:
            collections[info["generation"]] += 1

    gc.callbacks.append(count)
    stages, stage_collections = {}, {}
    import cavray
    stages["import cavray"] = watched_modules()
    import cavray.cli
    stages["import cavray.cli"] = watched_modules()
    config = sys.argv[1]
    # a stage is a subcommand, or "scan:json" for a scan in another format
    for stage in sys.argv[2:]:
        command, _, fmt = stage.partition(":")
        fmt = fmt or ("csv" if command == "scan" else "json")
        argv = [command] if command == "validate" else [command, "--config", config,
                                                        "--format", fmt]
        collections = [0] * len(gc.get_count())
        with contextlib.redirect_stdout(io.StringIO()):
            code = cavray.cli.main(argv)
        stage_collections[stage], collections = collections, None
        assert code == 0, stage
        stages[stage] = watched_modules()
    import json
    print(json.dumps({"modules": stages, "collections": stage_collections}))
""")


def _src_env():
    """The environment with ``src`` first on PYTHONPATH, for a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _probe(*commands):
    """The ``IMPORT_PROBE`` record of ``commands`` run in turn in a fresh process:
    per stage, the watched modules loaded so far and the collections, by
    generation, that ran inside ``main``."""
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(DEMO), *commands],
        capture_output=True, text=True, env=_src_env(), timeout=120, check=True,
    )
    return json.loads(result.stdout)


def test_report_subcommands_load_no_scipy():
    """``import cavray`` loads the package alone; ``cavray.cli`` and the
    five JSON reports, run in turn in one process, load no numpy, scipy,
    ``json``, ``dataclasses`` or ``inspect`` module, and ``cavity``, run
    first, loads neither ``experiment`` nor ``field``; ``enhance`` takes its
    back-out from ``field``, the interference model. ``validate`` and then
    ``scan``, run after them, load numpy and still no scipy, and only the
    scan loads its writer, ``cavray.trace``. No stage loads ``difflib``,
    which only an unknown config key needs. A CSV scan and then a JSON
    scan, run in a fresh process, load ``cavray.trace`` and no ``json``, and
    the CSV scan not even ``cavray.jsontext``."""
    assert REPORTS[0] == "cavity"
    stages = _probe(*REPORTS, "validate", "scan")["modules"]
    assert stages["import cavray"] == ["cavray"]
    assert "cavray.jsontext" not in stages["import cavray.cli"]
    for stage in ["import cavray.cli", *REPORTS]:
        assert not [m for m in stages[stage] if not m.startswith("cavray")], stage
    assert not {"cavray.experiment", "cavray.field"} & set(stages["cavity"])
    assert "cavray.field" in stages["enhance"]
    for stage in ["scan", "validate"]:
        assert "numpy" in stages[stage], stage
        assert not any(m.startswith("scipy") for m in stages[stage]), stage
    assert [stage for stage, modules in stages.items() if "cavray.trace" in modules] == ["scan"]
    assert not [stage for stage, modules in stages.items() if "difflib" in modules]
    scans = _probe("scan", "scan:json")["modules"]
    assert "cavray.trace" in scans["scan"]
    assert "cavray.jsontext" not in scans["scan"]
    assert "cavray.jsontext" in scans["scan:json"]
    assert not [stage for stage, modules in scans.items() if "json" in modules]


CONFIG_ERROR_PROBE = textwrap.dedent("""
    import sys
    from cavray.cli import main

    code = main(["scan", "--config", sys.argv[1]])
    print(code, "numpy" in sys.modules)
""")


def test_scan_config_error_is_reported_before_numpy_loads(tmp_path):
    """``main`` parses a scan's config before the scan imports numpy, so a
    fresh process reports a config error without that import."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cavity.separation_mm = -1\n")
    result = subprocess.run([sys.executable, "-c", CONFIG_ERROR_PROBE, str(cfg)],
                            capture_output=True, text=True, env=_src_env(), timeout=120)
    assert result.stdout == "2 False\n"
    assert result.stderr.startswith(
        f"config error: {cfg}:1: cavity.separation must be positive")


@pytest.mark.parametrize("stage", ["scan", "scan:json", "validate"])
def test_numpy_loading_subcommands_run_few_collections_in_main(stage):
    """A fresh ``scan`` (CSV or JSON) or ``validate`` process loads numpy
    inside ``main`` and moves what the import made into the oldest
    generation, so its collections walk the work's objects only: at most 8,
    none above generation 0, where a plain import ran 28 + 2 (scan) and
    34 + 3 (validate)."""
    young, *older = _probe(stage)["collections"][stage]
    assert young <= 8 and not any(older), (young, *older)


COLLECTOR_PROBE = textwrap.dedent("""
    import contextlib, gc, io, json, sys, weakref
    import cavray.cli

    class Node:
        pass

    setup, config = sys.argv[1:]
    if setup == "disabled":
        gc.disable()
    elif setup == "frozen":
        gc.freeze()
    # cyclic garbage that only a collection reclaims, made before main runs
    node = Node()
    node.cycle = node
    garbage = weakref.ref(node)
    del node

    def state():
        return [gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()]

    before, loaded_before = state(), "numpy" in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        code = cavray.cli.main(["scan", "--config", config])
    after = state()
    gc.collect()
    print(json.dumps({"code": code, "before": before, "after": after,
                      "numpy_loaded_in_main": not loaded_before and "numpy" in sys.modules,
                      "garbage_reclaimed": garbage() is None}))
""")


@pytest.mark.parametrize("setup", ["enabled", "disabled", "frozen"])
def test_scan_leaves_a_fresh_callers_collector_as_it_was(setup):
    """A caller that has not loaded numpy, so that ``scan`` loads it inside
    ``main``, finds its collector on or off as it was, its frozen objects
    still frozen (the count unchanged) and its thresholds unchanged; and the
    cyclic garbage it made before is not frozen, so a full collection
    reclaims it."""
    result = subprocess.run(
        [sys.executable, "-c", COLLECTOR_PROBE, setup, str(DEMO)],
        capture_output=True, text=True, env=_src_env(), timeout=120, check=True,
    )
    record = json.loads(result.stdout)
    assert record["code"] == 0 and record["numpy_loaded_in_main"]
    assert record["after"] == record["before"]
    assert record["before"][0] is (setup != "disabled")
    assert (record["before"][1] > 0) is (setup == "frozen")
    assert record["garbage_reclaimed"]


REACH_PROBE = textwrap.dedent("""
    import ast, contextlib, importlib, inspect, io, json, sys

    # set before cavray loads, so that what runs at import time counts too
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    import cavray.cli

    for config, command, fmt in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cavray.cli.main([command, "--config", config, "--format", fmt]) == 0
    sys.setprofile(None)
    unreached = []
    for name in sys.argv[2:]:
        module = importlib.import_module(f"cavray.{name}")
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.FunctionDef):
                function = inspect.unwrap(getattr(module, node.name))
                if function.__code__ not in called:
                    unreached.append(f"{name}.{node.name}")
    print(json.dumps(unreached))
""")

# the production modules whose every module-level function an output runs;
# ``validation`` and ``quadrature`` hold oracles, and ``cli`` also ``validate``
PRODUCTION_MODULES = ["config", "gases", "optics", "field", "overlap", "experiment",
                      "spectra", "trace", "jsontext"]
# what no report or scan runs yet, each with the ROADMAP item that gives it
# an output; this list may only shrink
NOT_YET_REACHED = {
    "spectra._erfcx": "item 3",  # through spectral_overlap
    "spectra.spectral_overlap": "item 3",
    "spectra.species_ratio": "item 3",
    "spectra.polarization_signal": "item 6",
}


def test_every_production_function_runs_in_some_output():
    """Every report and scan subcommand, in every format it accepts, on the
    demo and on ``cold_pair``, run in a fresh interpreter under a profile
    hook, so that what runs only at import time or behind a cache counts,
    runs every module-level function of the production modules but those
    of ``NOT_YET_REACHED``, and none of those: a derivation that only
    ``validate`` reaches is an oracle and lives in ``validation``."""
    runs = [(str(param.values[0]), *param.values[2:4]) for param in OUTPUTS]
    result = subprocess.run(
        [sys.executable, "-c", REACH_PROBE, json.dumps(runs), *PRODUCTION_MODULES],
        capture_output=True, text=True, env=_src_env(), timeout=120, check=True,
    )
    assert sorted(json.loads(result.stdout)) == sorted(NOT_YET_REACHED)


def _python_m_cavray(*argv):
    """``python -m cavray`` with ``argv``, run as a child process."""
    return subprocess.run([sys.executable, "-m", "cavray", *argv], capture_output=True,
                          env=_src_env(), timeout=120)


def test_python_m_cavray_is_the_cli():
    result = _python_m_cavray("cavity", "--config", str(DEMO), "--format", "json")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "cavity.json").read_bytes()
    # and exits with main's code: 2 for a config error
    assert _python_m_cavray("cavity", "--config", str(ROOT / "no_such.cfg")).returncode == 2
    # main reads sys.argv, so its help lists every subcommand
    result = _python_m_cavray("-h")
    assert (result.returncode, result.stderr) == (0, b"")
    listed = re.findall(rb"^ {4}(\w+) ", result.stdout, re.MULTILINE)
    assert sorted(listed) == sorted(name.encode() for name in [*REPORTS, "scan", "validate"])


def test_python_m_cavray_scan_writes_every_byte_at_exit(tmp_path):
    """Processes that load numpy end with the heap frozen and still write
    every byte, to stdout and to an --out file alike."""
    result = _python_m_cavray("scan", "--config", str(DEMO), "--format", "csv")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / "scan.csv").read_bytes()
    result = _python_m_cavray("scan", "--config", str(DEMO), "--format", "json",
                              "--out", str(tmp_path))
    assert (result.returncode, result.stderr) == (0, b"")
    [path] = tmp_path.iterdir()
    assert path.read_bytes() == (GOLDEN / "scan.json").read_bytes()
    result = _python_m_cavray("validate")
    assert (result.returncode, result.stderr) == (0, b"")
    assert (_without_residual_figures(result.stdout.decode("utf-8"))
            == _without_residual_figures((GOLDEN / "validate.txt").read_text()))


def test_in_process_main_leaves_the_collector_as_it_was(capsys, monkeypatch, tmp_path):
    """``main`` leaves its caller's collector on or off as it was, its frozen
    objects frozen and its thresholds unchanged, and, however often it runs,
    one exit hook that freezes the heap. It does move the caller's tracked
    objects into the oldest generation when a handler's import loads new
    modules; pytest has loaded numpy already, so here none does."""
    hooks = []
    register, unregister = atexit.register, atexit.unregister

    def counted_register(func, *args, **kwargs):
        hooks.append(func)
        return register(func, *args, **kwargs)

    def counted_unregister(func):
        hooks[:] = [hook for hook in hooks if hook != func]
        unregister(func)

    monkeypatch.setattr(atexit, "register", counted_register)
    monkeypatch.setattr(atexit, "unregister", counted_unregister)
    before = gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()
    bad = write_demo_variant(tmp_path, **{"cavity.separation_mm": "-1"})
    for argv, want in [(["cavity", "--config", str(DEMO), "--format", "json"], 0),
                       (["scan", "--config", str(DEMO), "--format", "csv"], 0),
                       (["cavity", "--config", str(bad)], 2)]:
        code, _, err = run_cli(capsys, *argv)
        assert code == want, err
        assert (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()) == before
    assert hooks == [gc.freeze]


def test_main_is_the_one_stage_that_reads_the_config_and_writes_output():
    """In ``cli.py``, ``main`` holds the one call of ``parse_config`` and the
    one of ``_write``, and no ``cmd_*`` handler calls ``print`` or names
    ``sys.stdout``: the handlers only compute and return what ``main`` writes."""
    import ast

    import cavray.cli

    tree = ast.parse(Path(cavray.cli.__file__).read_text(encoding="utf-8"))
    callers = {"parse_config": [], "_write": []}
    handlers = []
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        nodes = list(ast.walk(statement))
        called = [node.func.id for node in nodes
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        for name in called:
            if name in callers:
                callers[name].append(owner)
        if isinstance(statement, ast.FunctionDef) and owner.startswith("cmd_"):
            handlers.append(owner)
            assert not {"parse_config", "_write", "print"} & set(called), owner
            assert not [node for node in nodes if isinstance(node, ast.Attribute)
                        and node.attr == "stdout" and isinstance(node.value, ast.Name)
                        and node.value.id == "sys"], owner
    assert len(handlers) == 7
    assert callers == {"parse_config": ["main"], "_write": ["main"]}


def test_package_namespace_resolves_every_exported_name():
    import cavray
    import cavray.spectra

    for name in cavray.__all__:
        assert getattr(cavray, name) is not None, name
    # each module exports exactly its public functions and classes (and
    # ``constants`` its numbers): none deleted but exported, none left out
    for module_name, names in cavray._EXPORTS.items():
        module = importlib.import_module(f"cavray.{module_name}")
        exported = set(names.split())
        assert all(hasattr(module, name) for name in exported), module_name
        public = {name for name, value in vars(module).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(value) or inspect.isclass(value))
                  and value.__module__ == module.__name__}
        assert {name for name in exported if callable(getattr(module, name))} == public
    assert cavray.scan_spectrum is cavray.spectra.scan_spectrum
    with pytest.raises(AttributeError, match="no_such_name"):
        cavray.no_such_name


DEMO_LINES = [line.split("#", 1)[0].strip() for line in DEMO.read_text().splitlines()]
DEMO_KEYS = [line.split("=")[0].strip() for line in DEMO_LINES if line]
# "" drops a demo line, any other text replaces its value
PERTURBATIONS = ["", "0", "-1", "1e300", "nan", "word"]
NAMES_A_KEY = re.compile("|".join(re.escape(key).replace("<i>", r"\d+") for key in KEYS))


def _finite_numbers(command, text):
    if command == "scan":
        return np.isfinite(np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)).all()
    non_finite = []  # the NaN and Infinity tokens json.dumps writes
    json.loads(text, parse_constant=non_finite.append)
    return not non_finite


@settings(max_examples=60, deadline=None)
@given(change=st.dictionaries(st.sampled_from(DEMO_KEYS), st.sampled_from(PERTURBATIONS),
                              max_size=4),
       extra=st.tuples(st.sampled_from(sorted(KEYS)), st.integers(1, 5),
                       st.sampled_from(["", "_mm", "_GHz", "_K", "_fW", "x"]),
                       st.sampled_from(["0", "-1", "0.5", "2", "1e300", "nan", "word"])))
def test_perturbed_demo_gives_finite_output_or_names_a_key(change, extra):
    """Every subcommand on a copy of the demo with a few keys dropped or
    given a bad value, and one key added, exits 0 with finite numbers or
    exits 2 with an error that names a config key. The scan grid stays at
    most the demo's 1,501 points: no perturbation lowers
    ``scan.resolution`` and keeps it positive."""
    lines = []
    for line in DEMO_LINES:
        key = line.split("=")[0].strip()
        if key not in change:
            lines.append(line)
        elif change[key]:
            lines.append(f"{key} = {change[key]}")
    pattern, index, suffix, value = extra
    extra_key = pattern.replace("<i>", str(index)) + suffix
    lines.append(f"{extra_key} = {value}")
    with tempfile.TemporaryDirectory() as directory:
        cfg = Path(directory) / "fuzz.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        for command in [*REPORTS, "scan"]:
            fmt = "csv" if command == "scan" else "json"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--format", fmt])
            if code == 0:
                assert _finite_numbers(command, out.getvalue()), (command, out.getvalue())
            else:
                assert code == 2, (command, err.getvalue())
                assert NAMES_A_KEY.search(err.getvalue()) or extra_key in err.getvalue(), (
                    command, err.getvalue())


SPECIES_ROWS = [["Xe", "131.29", "4.04"], ["CF3H", "70.01", "2.80"], ["N2", "28.01", "1.74"]]
SPECIES_VALUES = ["0", "-1", "1e-31", "1e-30", "1e30", "1e31", "1e200", "nan", "inf", "word"]


@settings(max_examples=60, deadline=None)
@given(changes=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(1, 2)),
                               st.sampled_from(SPECIES_VALUES), min_size=1, max_size=2))
def test_perturbed_species_table_gives_finite_output_or_names_its_line(changes):
    """``scan`` and ``forecast`` on the demo, with one or two values of the
    species table replaced, exit 0 with finite numbers or exit 2 with an
    error at ``path:line`` of a replaced row, or one that names the config
    key a row within the magnitudes defeats: a mass of 1e30 g/mol narrows
    its line below what ``scan.resolution`` resolves."""
    rows = [list(row) for row in SPECIES_ROWS]
    for (row, column), value in changes.items():
        rows[row][column] = value
    with tempfile.TemporaryDirectory() as directory:
        table = Path(directory) / "species.txt"
        table.write_text("".join(" ".join(row) + "\n" for row in rows))
        lines = {f"{table}:{row + 1}: " for row, _ in changes}
        for command, fmt in ("scan", "csv"), ("forecast", "json"):
            out, err = io.StringIO(), io.StringIO()
            with (mock.patch.dict(os.environ, {"CAVRAY_SPECIES_DB": str(table)}),
                  contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
                code = main([command, "--config", str(DEMO), "--format", fmt])
            if code == 0:
                assert _finite_numbers(command, out.getvalue()), (command, out.getvalue())
            else:
                assert code == 2, (command, err.getvalue())
                assert (any(line in err.getvalue() for line in lines)
                        or NAMES_A_KEY.search(err.getvalue())), (command, err.getvalue())


def _json_report(command, lines):
    """(exit code, stdout) of ``command --format json`` on a config of ``lines``."""
    with tempfile.TemporaryDirectory() as directory:
        cfg = Path(directory) / "variant.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(cfg), "--format", "json"])
    return code, out.getvalue()


def _other_value(text):
    """A valid value other than the demo's ``text``: 0.9 times a number,
    another species for a word."""
    try:
        return repr(0.9 * float(text))
    except ValueError:
        return "Xe" if text == "N2" else "N2"


# keys of the demo that a report reads only to derive a value the demo gives
DERIVED_ONLY = {
    "overlap": {"cavity.left_reflectivity", "cavity.right_reflectivity"},
    "purcell": {"cavity.left_reflectivity", "cavity.right_reflectivity",
                "cavity.curvature_mm"},
}


# keys a report needs although their value cancels from its bytes, up to
# rounding: the separation enters purcell's Q and V alike, and the forecast's
# target polarizability is forecast.polarizability_factor times the anchor
# species' own. They stay needed until the reports stop reading them.
CANCELLED = {"purcell": ["cavity.separation_mm"], "forecast": ["gas.species"]}


@pytest.mark.parametrize("command", [*REPORTS, "scan"])
def test_a_key_whose_change_moves_no_report_can_be_left_out(command):
    """If another value of a demo key leaves a report's bytes as they were,
    the demo without that key gives the same bytes too: a report needs no
    key that its output does not read."""
    lines = [line for line in DEMO_LINES if line]
    baseline = _json_report(command, lines)
    assert baseline[0] == 0
    unread, needed = set(), []
    for i, line in enumerate(lines):
        key, _, text = (part.strip() for part in line.partition("="))
        if _json_report(command, [*lines[:i], f"{key} = {_other_value(text)}",
                                  *lines[i + 1:]]) != baseline:
            continue
        unread.add(key)
        if _json_report(command, lines[:i] + lines[i + 1:]) != baseline:
            needed.append(key)
    assert needed == CANCELLED.get(command, [])
    assert DERIVED_ONLY.get(command, set()) <= unread


def demo_without(tmp_path, *keys, **replacements):
    """The demo variant of ``replacements`` without the lines of ``keys``,
    whatever their unit suffix."""
    cfg = write_demo_variant(tmp_path, **replacements)
    text = cfg.read_text()
    for key in keys:
        text = re.sub(rf"^{re.escape(key)}(_[a-zA-Z]+)? = .*\n", "", text, flags=re.MULTILINE)
    cfg.write_text(text)
    return cfg


def test_reports_run_without_the_mirror_keys_they_do_not_read(capsys, tmp_path):
    mirrors = ("cavity.left_reflectivity", "cavity.right_reflectivity")
    cfg = demo_without(tmp_path, *mirrors)
    for command in ("overlap", "purcell"):
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--format", "json")
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"{command}.json").read_bytes()
    # the derived cavity waist needs the geometry, not the mirrors
    outputs = []
    for dropped in [("cavity.waist",), ("cavity.waist", *mirrors)]:
        cfg = demo_without(tmp_path, *dropped)
        code, out, err = run_cli(capsys, "forecast", "--config", str(cfg), "--format", "json")
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode("utf-8") != (GOLDEN / "forecast.json").read_bytes()


def test_purcell_that_derives_its_finesse_names_a_missing_mirror(capsys, tmp_path):
    # a mirror of reflectivity 0 is in the test of a given finesse and waist
    cfg = demo_without(tmp_path, "purcell.finesse", "cavity.right_reflectivity")
    code, out, err = run_cli(capsys, "purcell", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "missing required key 'cavity.right_reflectivity'" in err


@pytest.mark.parametrize("command, waist_key", [
    ("overlap", "overlap.waist"), ("purcell", "purcell.waist"), ("forecast", "cavity.waist")])
def test_derived_waist_of_an_unstable_geometry_names_its_keys(capsys, tmp_path, command,
                                                             waist_key):
    # 6 mm apart, mirrors of 2 mm curvature have no Gaussian eigenmode
    cfg = demo_without(tmp_path, waist_key, **{"cavity.curvature_mm": "2.0"})
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "cavity.separation must be in (0, 2 * cavity.curvature)" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_reads_the_comb_and_no_curvature(capsys, tmp_path, fmt):
    # the demo without a curvature, and with one of 2 mm that has no Gaussian
    # eigenmode at 6 mm: the scan gives its golden, cavity (the mode) exits 2
    for cfg in (demo_without(tmp_path, "cavity.curvature"),
                write_demo_variant(tmp_path, **{"cavity.curvature_mm": "2.0"})):
        code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--format", fmt)
        assert code == 0, err
        assert out.encode("utf-8") == (GOLDEN / f"scan.{fmt}").read_bytes()
    code, out, err = run_cli(capsys, "cavity", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert "cavity.separation must be in (0, 2 * cavity.curvature)" in err


@pytest.mark.parametrize("mirror", ["cavity.left_reflectivity", "cavity.right_reflectivity"])
def test_scan_through_a_mirror_of_reflectivity_0_names_the_mirror_keys(capsys, tmp_path,
                                                                       mirror):
    cfg = write_demo_variant(tmp_path, **{mirror: "0"})
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "cavity.left_reflectivity or cavity.right_reflectivity is 0" in err


@pytest.mark.xfail(reason="enhance takes a pairing's finesse unchecked: "
                   "cavbench/workgen.py draws over-finesse pairings until ROADMAP item 1a, "
                   "and item 13b then rejects them")
def test_enhance_rejects_a_finesse_that_its_mirrors_cannot_give(capsys, tmp_path):
    # R = 0.997 and 0.959 allow F <= 140 without loss; no loss explains 1e5
    cfg = write_demo_variant(tmp_path, **{"enhance.pairing3.finesse": "100000"})
    code, out, err = run_cli(capsys, "enhance", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "enhance.pairing3.finesse" in err


@pytest.mark.parametrize("normalize, column", [("1", "signal_normalized"), ("0", "signal")])
def test_scan_signal_is_named_normalized_only_when_it_is(capsys, tmp_path, normalize,
                                                         column):
    cfg = write_demo_variant(tmp_path, **{"scan.normalize": normalize})
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--format", "csv")
    assert code == 0, err
    assert out.startswith(f"detuning_Hz,{column}\n")
    code, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert list(payload) == ["schema", "species", "detuning_Hz", column, "cavity"]
    assert (max(payload[column]) == 1.0) is (normalize == "1")

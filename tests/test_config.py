"""Species database loading and the flat key-value config format."""

import ast
import math
from pathlib import Path

import pytest

import cavray
from cavray import ConfigError, GasSpecies, load_species_table
from cavray.config import KEYS, parse_config
from cavray.gases import SPECIES_DB_ENV


class TestSpeciesTable:
    def test_builtin_defaults(self):
        table = load_species_table()
        assert set(table) == {"Xe", "N2", "CF3H"}
        assert table["Xe"].molar_mass == pytest.approx(0.13129)
        assert table["Xe"].polarizability == pytest.approx(4.04)
        assert table["N2"].molar_mass == pytest.approx(0.02801)
        assert table["N2"].polarizability == pytest.approx(1.74)
        assert table["CF3H"].molar_mass == pytest.approx(0.07001)
        assert table["CF3H"].polarizability == pytest.approx(2.80)
        for name, species in table.items():
            assert species.name == name

    def test_xenon_matches_atomic_unit_conversion(self, species):
        # 27.3 a.u. at 0.148 A^3 per a.u., as the species table's header states
        assert 27.3 * 0.148 == pytest.approx(
            species["Xe"].polarizability, rel=1e-3
        )

    def test_custom_file(self, tmp_path):
        db = tmp_path / "species.txt"
        db.write_text("# comment\nAr  39.95  1.64\n\n")
        table = load_species_table(db)
        assert table["Ar"].molar_mass == pytest.approx(0.03995)

    def test_environment_override(self, tmp_path, monkeypatch):
        db = tmp_path / "alt.txt"
        db.write_text("He 4.0026 0.205\n")
        monkeypatch.setenv(SPECIES_DB_ENV, str(db))
        table = load_species_table()
        assert list(table) == ["He"]

    def test_malformed_record_names_line(self, tmp_path):
        db = tmp_path / "bad.txt"
        db.write_text("Xe 131.29 4.04\nN2 28.01\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            load_species_table(db)

    def test_non_numeric_field(self, tmp_path):
        db = tmp_path / "bad.txt"
        db.write_text("Xe heavy 4.04\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_species_table(db)

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        db = tmp_path / "bad.txt"
        db.write_bytes(b"Xe 131.29 4.04\nN2 28.01 1.74  # r\xe9f\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: byte 0xe9 is not UTF-8"):
            load_species_table(db)

    def test_empty_table_rejected(self, tmp_path):
        db = tmp_path / "empty.txt"
        db.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no records"):
            load_species_table(db)


class TestGasSpecies:
    @pytest.mark.parametrize("kwargs", [
        dict(molar_mass=0.0, polarizability=1.0),
        dict(molar_mass=0.1, polarizability=-1.0),
        dict(molar_mass=0.1, polarizability=math.nan),
    ])
    def test_rejects_nonpositive_fields(self, kwargs):
        with pytest.raises(ValueError):
            GasSpecies(name="x", **kwargs)


class TestConfigParser:
    def test_unit_suffixes_normalize_to_si(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(
            "cavity.separation_mm = 6.0\n"
            "pump.wavelength_nm = 532\n"
            "gas.pressure_mbar = 100.0  # operating point\n"
            "gas.temperature_K = 295\n"
            "anchor.measured_power_fW = 50\n"
            "pump.polarization_angle_deg = 90\n"
            "cavity.left_reflectivity = 0.997\n"
            "gas.species = Xe\n"
        )
        values = parse_config(cfg)
        assert values["cavity.separation"] == pytest.approx(6e-3)
        assert values["pump.wavelength"] == pytest.approx(532e-9)
        assert values["gas.pressure"] == pytest.approx(1e4)
        assert values["gas.temperature"] == pytest.approx(295.0)
        assert values["anchor.measured_power"] == pytest.approx(50e-15)
        assert values["pump.polarization_angle"] == pytest.approx(math.pi / 2.0)
        assert values["cavity.left_reflectivity"] == pytest.approx(0.997)
        assert values["gas.species"] == "Xe"

    def test_malformed_line_is_line_anchored(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("cavity.separation_mm = 6.0\nnonsense line\n")
        with pytest.raises(ConfigError, match=r"a\.cfg:2"):
            parse_config(cfg)

    def test_suffixed_key_with_string_value_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("pump.wavelength_nm = green\n")
        with pytest.raises(ConfigError, match="not numeric"):
            parse_config(cfg)

    def test_duplicate_normalized_key_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("cavity.separation_mm = 6.0\ncavity.separation_um = 6000\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg)

    @pytest.mark.parametrize("lines", [
        "gas.species = Xe\ngas.species = N2\n",
        "gas.species = Xe\ngas.species = 3\n",
        "gas.species = 3\ngas.species = Xe\n",
        "scan.range_GHz = 37.5\nscan.range = wide\n",
    ])
    def test_duplicate_string_key_rejected(self, tmp_path, lines):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("pump.wavelength_nm = 532\n" + lines)
        key = lines.split("\n")[1].split("=")[0].strip()
        with pytest.raises(ConfigError, match=rf"a\.cfg:3: duplicate key '{key}'"):
            parse_config(cfg)

    @pytest.mark.parametrize("line", [
        "cavity.separation_mm = nan",
        "cavity.separation_mm = inf",
        "cavity.separation_mm = -inf",
        "anchor.finesse = NaN",
        # finite as written, overflows to inf once scaled to Hz
        "scan.range_GHz = 1e300",
    ])
    def test_non_finite_value_rejected(self, tmp_path, line):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"pump.wavelength_nm = 532\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=rf"a\.cfg:2: key '{key}' has non-finite"):
            parse_config(cfg)

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        # after a byte-order mark, which the line count must not see
        cfg = tmp_path / "a.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfpump.wavelength_nm = 532\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"a\.cfg:2: byte 0xe9 is not UTF-8"):
            parse_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_missing_key_is_named_when_read(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("gas.pressure_mbar = 100\ngas.species = Xe\n")
        values = parse_config(cfg)
        assert values["gas.pressure"] == 1e4
        assert values.get("gas.temperature", 295.0) == 295.0
        assert values.get("cavity.waist") is None
        assert "scan.range" not in values
        with pytest.raises(ConfigError,
                           match=r"a\.cfg: missing required key 'scan\.range'"):
            values["scan.range"]

    def test_word_for_a_number_names_its_key(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("gas.species = Xe\ngas.temperature = hot\n")
        with pytest.raises(ConfigError,
                           match=r"a\.cfg:2: key 'gas\.temperature' needs a number, got 'hot'"):
            parse_config(cfg)

    def test_word_key_keeps_its_text(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("gas.species = 3\nscan.species = Xe,N2\n")
        assert parse_config(cfg) == {"gas.species": "3", "scan.species": "Xe,N2"}

    @pytest.mark.parametrize("line, guess", [
        ("purcell.finese = 1000", "purcell.finesse"),
        ("overlap.plane_factr = 3", "overlap.plane_factor"),
        ("cavity.finesse = 1000", "cavity."),
        ("scan.weigth2 = 1", "scan.weight<i>"),
        ("gas.temp_K = 295", "gas.temperature"),
    ])
    def test_unknown_key_gets_a_did_you_mean(self, tmp_path, line, guess):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"pump.wavelength_nm = 532\n{line}\n")
        stem = line.split("=")[0].strip().removesuffix("_K")
        with pytest.raises(ConfigError, match=rf"a\.cfg:2: unknown key '{stem}'; "
                           rf"did you mean '{guess}"):
            parse_config(cfg)

    @pytest.mark.parametrize("line, stem, wants", [
        ("gas.temperature_mbar = 295", "gas.temperature", "a temperature unit"),
        ("cavity.separation_GHz = 6", "cavity.separation", "a length unit"),
        ("anchor.measured_power_K = 50", "anchor.measured_power", "a power unit"),
        ("purcell.finesse_Hz = 1000", "purcell.finesse", "no unit suffix"),
    ])
    def test_unit_from_another_family_rejected(self, tmp_path, line, stem, wants):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"pump.wavelength_nm = 532\n{line}\n")
        key, unit = line.split("=")[0].strip(), line.split("_")[-1].split(" ")[0]
        with pytest.raises(ConfigError, match=rf"a\.cfg:2: key '{key}': {stem} takes "
                           rf"{wants}, not '{unit}'"):
            parse_config(cfg)

    @pytest.mark.parametrize("line, message", [
        ("cavity.left_reflectivity = 1.5", r"cavity\.left_reflectivity must be in \[0, 1\)"),
        ("anchor.spectral_overlap = 0", r"anchor\.spectral_overlap must be in \(0, 1\]"),
        # the value as written, with its key's unit suffix
        ("gas.pressure_mbar = -1", r"gas\.pressure must be nonnegative, got -1 mbar$"),
        ("purcell.waist_um = 0", r"purcell\.waist must be positive, got 0 um$"),
        ("enhance.pairing12.finesse = -3", r"enhance\.pairing12\.finesse must be positive, "
         r"got -3$"),
        # overflowed purcell_ratio and interaction_volume downstream
        ("cavity.waist_um = 1e300", r"cavity\.waist must be 0 or of magnitude "
         r"1e-30 to 1e30 in SI units, got 1e300 um$"),
        ("cavity.separation_mm = 1e-35", r"cavity\.separation must be 0 or of magnitude "
         r"1e-30 to 1e30 in SI units, got 1e-35 mm$"),
        ("purcell.waist = 1e-31", r"purcell\.waist must be 0 or of magnitude "
         r"1e-30 to 1e30 in SI units, got 1e-31$"),
        # nonzero as written, 0 once converted to m
        ("cavity.separation_nm = 1e-320", r"cavity\.separation must be 0 or of magnitude "
         r"1e-30 to 1e30 in SI units, got 1e-320 nm$"),
    ])
    def test_out_of_range_value_is_line_anchored(self, tmp_path, line, message):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"pump.wavelength_nm = 532\n{line}\n")
        with pytest.raises(ConfigError, match=rf"a\.cfg:2: {message}"):
            parse_config(cfg)


def _key_read(node):
    """The key text of ``values[...]`` or ``values.get(...)``, with ``<i>`` for
    each f-string field; None for other nodes, "?" for any other index: a
    name, a number or a slice."""
    if isinstance(node, ast.Subscript):
        owner, key = node.value, node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get"):
        owner, key = node.func.value, node.args[0]
    else:
        return None
    if not (isinstance(owner, ast.Name) and owner.id == "values"):
        return None
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    if isinstance(key, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "<i>"
                       for part in key.values)
    return "?"


def test_declared_keys_are_the_keys_the_handlers_read():
    reads = {}
    for path in sorted(Path(cavray.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads[path.stem] = {_key_read(node) for node in ast.walk(tree)} - {None}
    read = reads.pop("cli")
    assert "?" not in read, "every key cli reads is written out"
    # the other modules take SI values: config's stores and the numeric
    # indexing in spectra and validation are no key reads
    assert {module: keys for module, keys in reads.items() if keys - {"?"}} == {}
    assert read <= set(KEYS), read - set(KEYS)
    # read by nothing, accepted so that configs that give them still parse
    assert set(KEYS) - read == {"pump.power", "pump.polarization_angle"}


def test_config_is_the_one_reader_of_an_input_file():
    # the species table once had a reader of its own, which every fix of
    # the config's reader then had to be made to again
    readers = set()
    for path in sorted(Path(cavray.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr in ("read_bytes", "read_text")
               for node in ast.walk(tree)):
            readers.add(path.stem)
    assert readers == {"config"}

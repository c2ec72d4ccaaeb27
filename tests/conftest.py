import pytest

from cavray import derive_cavity_params, gases, load_species_table

WAVELENGTH = 532e-9


@pytest.fixture
def reference_params():
    """The d=6 mm / Rc=45 mm cavity with the 99.7% mirror pair."""
    return derive_cavity_params(6e-3, 45e-3, 0.997, 0.997, WAVELENGTH)


@pytest.fixture
def reference_comb(reference_params):
    """(free spectral range, finesse) of the reference cavity: all a scan reads of it."""
    return reference_params.free_spectral_range, reference_params.finesse


@pytest.fixture(scope="session")
def species():
    """The species table shipped with the package, whatever CAVRAY_SPECIES_DB names."""
    return load_species_table(gases._BUILTIN_TABLE)

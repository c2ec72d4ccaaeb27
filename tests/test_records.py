"""Value records, the package's ``namedtuple`` subclasses: construction paths,
checks, equality and immutability."""

import numpy as np
import pytest

from cavray import (CavityParams, EnhancementReport, FinesseEntry, ForecastReport,
                    GasSpecies, SpectrumTrace, derive_cavity_params)
from cavray.validation import CheckResult

CAVITY = derive_cavity_params(6e-3, 45e-3, 0.997, 0.997, 532e-9)

# (record, valid fields in field order, a change its check rejects)
VALIDATING = [
    (GasSpecies, {"name": "Xe", "molar_mass": 0.13129, "polarizability": 4.04},
     {"polarizability": 0.0}),
    (SpectrumTrace, {"detunings": np.arange(3.0), "signals": np.ones(3), "species": "Xe",
                     "free_spectral_range": CAVITY.free_spectral_range,
                     "finesse": CAVITY.finesse}, {"signals": np.array([1.0, -1.0, 1.0])}),
]
FROZEN = [case[:2] for case in VALIDATING if case[0] is not SpectrumTrace]
IDS = [case[0].__name__ for case in VALIDATING]
RECORDS = [CavityParams, GasSpecies, FinesseEntry, EnhancementReport, ForecastReport,
           CheckResult]


def changed(instance, changes):
    """A copy of ``instance`` with ``changes``: ``_replace`` on a record, a
    new instance from the fields of the mutable ``SpectrumTrace``."""
    if isinstance(instance, SpectrumTrace):
        return SpectrumTrace(**{**vars(instance), **changes})
    return instance._replace(**changes)


@pytest.mark.parametrize("cls, fields, bad", VALIDATING, ids=IDS)
def test_every_construction_path_runs_the_check(cls, fields, bad):
    valid = cls(**fields)
    assert type(cls(*fields.values())) is cls
    assert type(changed(valid, {})) is cls
    invalid = {**fields, **bad}
    with pytest.raises(ValueError):
        cls(*invalid.values())
    with pytest.raises(ValueError):
        cls(**invalid)
    with pytest.raises(ValueError):
        changed(valid, bad)
    if cls is not SpectrumTrace:
        with pytest.raises(ValueError):
            cls._make(invalid.values())


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS[:-1])
def test_frozen_records_are_values(cls, fields):
    one, other = cls(**fields), cls(*fields.values())
    assert one == other and hash(one) == hash(other)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(one, name, fields[name])
    with pytest.raises(AttributeError):
        one.unknown = 1.0
    with pytest.raises(AttributeError):
        delattr(one, name)
    assert one == other


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_every_record_takes_no_new_attribute(cls):
    # a subclass without ``__slots__ = ()`` would give each instance a __dict__
    one = cls._make(range(1, len(cls._fields) + 1))
    with pytest.raises(AttributeError):
        one.unknown = 1.0


def test_gas_species_is_its_table_row():
    # the sample's temperature is an argument of each function that reads it
    assert GasSpecies._fields == ("name", "molar_mass", "polarizability")
    assert repr(GasSpecies("Xe", 0.13129, 4.04)) == (
        "GasSpecies(name='Xe', molar_mass=0.13129, polarizability=4.04)")
    with pytest.raises(TypeError):
        GasSpecies("Xe", 0.13129)

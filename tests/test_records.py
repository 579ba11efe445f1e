"""The ten record classes behave as frozen dataclasses do: every record
refuses assignment, hashes by value and pickles and copies through its
constructor, slotted records have no __dict__, fields come in declaration
order, ``replace`` validates again, and a record equals only a record of its
own class."""

import copy
import itertools
import pickle

import pytest

from jcaslink.errors import DomainError
from jcaslink.linkbudget import LinkResult, Scenario
from jcaslink.performance import PerformanceResult
from jcaslink.records import fields, record, replace
from jcaslink.spectrum import BandRecord, PairingReport, check_jcas_pairing, parse_record
from jcaslink.sweep import ResultTable, SweepRow, SweepSpec, run_sweep
from jcaslink.waveform import OfdmNumerology, SubcarrierPlan, numerology, partition

LINK_VALUES = tuple(float(i) for i in range(11))


def link_result():
    return LinkResult(*LINK_VALUES)


def performance_result():
    return PerformanceResult(1.0, 2.0, 3.0, 4.0, 2.0, True)


DICT_BACKED = {
    Scenario: Scenario,
    OfdmNumerology: lambda: numerology(1e8, 1024, 72),
    SubcarrierPlan: lambda: partition(1024, 800, 224),
    SweepSpec: lambda: SweepSpec(power_axis_dbw=(1.0, 2.0), element_axis=(1,)),
    ResultTable: lambda: run_sweep(SweepSpec(power_axis_dbw=(1.0, 2.0), element_axis=(1,))),
    BandRecord: lambda: parse_record("communications|C|3400000000|7025000000|satellite TV"),
    PairingReport: lambda: check_jcas_pairing(5.4, 100.0),
}
SLOTTED = {
    LinkResult: link_result,
    PerformanceResult: performance_result,
    SweepRow: lambda: SweepRow(1.0, 1, link_result(), performance_result()),
}
RECORDS = {**DICT_BACKED, **SLOTTED}
# A ResultTable holds its columns in dicts, so it is frozen but not hashable.
HASHABLE = [cls for cls in RECORDS if cls is not ResultTable]


def values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in fields(record))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_record_refuses_assignment_and_del(cls):
    record = RECORDS[cls]()
    name = fields(cls)[0].name
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_equal_frozen_records_hash_equal(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert a is not b and a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_slotted_record_has_no_dict(cls):
    assert not hasattr(RECORDS[cls](), "__dict__")


def test_table_rows_refuse_assignment_and_still_equal_the_columns():
    table = run_sweep(SweepSpec())
    with pytest.raises(AttributeError):
        table.rows[0].link.comm_snr_db = -1.0
    with pytest.raises(AttributeError):
        table.rows[0].tx_power_dbw = 0.0
    assert tuple(row.link.comm_snr_db for row in table.rows) == tuple(table.link["comm_snr_db"])
    assert tuple(row.tx_power_dbw for row in table.rows) == table.powers * len(table.elements)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trip_through_the_constructor(cls):
    record = RECORDS[cls]()
    assert record.__reduce__() == (cls, values(record))
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_give_names_and_annotations_in_declaration_order(cls):
    declared = list(cls.__annotations__.items())
    assert [(f.name, f.type) for f in fields(cls)] == declared
    assert [(f.name, f.type) for f in fields(RECORDS[cls]())] == declared


def test_fields_pinned_for_one_class():
    expected = [("tx_power_dbw", float), ("n_elements", int), ("link", LinkResult), ("perf", PerformanceResult)]
    assert [(f.name, f.type) for f in fields(SweepRow)] == expected
    assert fields(Scenario)[-1].type == float | None
    assert [f.name for f in fields(OfdmNumerology)] == [
        "bandwidth_hz", "n_subcarriers", "subcarrier_spacing_hz", "t_symbol_s", "cp_overhead",
    ]
    assert [f.name for f in fields(SubcarrierPlan)] == ["n_data", "n_sense", "data_fraction", "sense_fraction"]


def test_replace_runs_validation_again():
    with pytest.raises(DomainError) as excinfo:
        replace(Scenario(), carrier_hz=-1.0)
    assert str(excinfo.value) == "carrier_hz must be > 0"
    changed = replace(Scenario(), tx_power_dbw=7)
    assert type(changed.tx_power_dbw) is float and changed.tx_power_dbw == 7.0
    assert replace(changed, tx_power_dbw=Scenario().tx_power_dbw) == Scenario()


def test_constructors_refuse_unknown_and_missing_fields():
    with pytest.raises(TypeError):
        Scenario(foo=1)
    with pytest.raises(TypeError):
        LinkResult()
    with pytest.raises(TypeError):
        LinkResult(*LINK_VALUES, 11.0)


def test_records_take_positional_and_keyword_fields_alike():
    names = [f.name for f in fields(LinkResult)]
    assert LinkResult(*LINK_VALUES) == LinkResult(**dict(zip(names, LINK_VALUES)))
    assert values(link_result()) == LINK_VALUES


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_no_record_equals_the_tuple_of_its_values(cls):
    record = RECORDS[cls]()
    assert record != values(record)
    assert values(record) != record


def test_records_of_different_classes_never_compare_equal():
    for a, b in itertools.permutations(RECORDS, 2):
        assert RECORDS[a]() != RECORDS[b]()


def test_repr_names_the_class_and_every_field():
    assert repr(partition(8, 4, 2)) == (
        "SubcarrierPlan(n_data=4, n_sense=2, data_fraction=0.5, sense_fraction=0.25)"
    )


def test_positional_match_patterns_and_replace_protocol():
    match link_result():
        case LinkResult(0.0, 1.0, comm_snr_db=2.0):
            matched = True
        case _:
            matched = False
    assert matched
    assert Scenario.__match_args__ == tuple(f.name for f in fields(Scenario))
    # copy.replace (Python 3.13+) calls the class's __replace__.
    for obj in (Scenario(), link_result()):
        changed = type(obj).__replace__(obj, **{fields(obj)[1].name: 3.0})
        assert type(changed) is type(obj) and getattr(changed, fields(obj)[1].name) == 3.0
    if hasattr(copy, "replace"):
        assert copy.replace(Scenario(), tx_power_dbw=7.0) == replace(Scenario(), tx_power_dbw=7.0)
    with pytest.raises(DomainError):
        Scenario().__replace__(carrier_hz=-1.0)


@pytest.mark.parametrize("slots", [False, True], ids=["dict", "slots"])
def test_fields_come_from_the_annotations_attribute_not_the_class_dict(slots):
    # From Python 3.14 a class __dict__ holds no __annotations__ key; the annotations
    # are evaluated when the attribute is first read. A metaclass property stands in.
    class LazyAnnotations(type):
        @property
        def __annotations__(cls):
            return {"x": int, "y": float}

    class Point(metaclass=LazyAnnotations):
        y = 2.0

    assert "__annotations__" not in Point.__dict__
    Point = record(slots=slots)(Point)
    assert [(f.name, f.type) for f in fields(Point)] == [("x", int), ("y", float)]
    assert repr(Point(1)).endswith("<locals>.Point(x=1, y=2.0)")
    assert Point(1) == Point(x=1, y=2.0) != Point(1, 3.0)


# Records with no default for at least one field: leaving one out is a TypeError.
REQUIRED_FIELDS = (OfdmNumerology, SubcarrierPlan, ResultTable, BandRecord, PairingReport, *SLOTTED)


def misuse_message(call) -> str:
    with pytest.raises(TypeError) as excinfo:
        call()
    return str(excinfo.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_constructor_misuse_names_the_class_and_the_argument(cls):
    record = RECORDS[cls]()
    given = {f.name: getattr(record, f.name) for f in fields(cls)}
    first, *_ = given
    too_many = misuse_message(lambda: cls(*given.values(), 0.0))
    assert cls.__name__ in too_many and str(len(given) + 1) in too_many
    unknown = misuse_message(lambda: cls(**given, not_a_field=1))
    assert cls.__name__ in unknown and "'not_a_field'" in unknown
    twice = misuse_message(lambda: cls(given[first], **given))
    assert cls.__name__ in twice and repr(first) in twice


@pytest.mark.parametrize("cls", REQUIRED_FIELDS, ids=lambda cls: cls.__name__)
def test_frozen_constructor_names_each_missing_field(cls):
    record = RECORDS[cls]()
    given = {f.name: getattr(record, f.name) for f in fields(cls)}
    # A default stays a class attribute; a slotted record's fields are slots, none with a default.
    required = [name for name in given if name not in cls.__dict__ or name in getattr(cls, "__slots__", ())]
    assert required
    for name in required:
        message = misuse_message(lambda: cls(**{k: v for k, v in given.items() if k != name}))
        assert cls.__name__ in message and repr(name) in message


def test_frozen_record_attributes_come_in_declaration_order():
    assert list(vars(Scenario())) == [f.name for f in fields(Scenario)]
    assert list(vars(Scenario(rx_gain_dbi=1.0, carrier_hz=5e9))) == [f.name for f in fields(Scenario)]


def test_frozen_records_share_one_binder():
    assert len({cls.__init__.__code__ for cls in RECORDS}) == 1
    assert all(cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__" for cls in RECORDS)

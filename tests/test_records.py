"""model.record_from_dict is the inverse of model.record_dict for every
record class read from JSON, and refuses, naming the field, each field's
missing key, an unknown key and every JSON value of another type."""
import json
import math
import re
import typing
from dataclasses import dataclass

import pytest

from scoopgp.checkpoint import Checkpoint, Normalization
from scoopgp.cli import KShotTable, Suite, SuiteTask
from scoopgp.data import DatasetHeader, RecordEntry
from scoopgp.decision import EpisodeStep, EpisodeTrace
from scoopgp.gp import KernelParams
from scoopgp.model import (
    Architecture,
    ScoopAction,
    TrajectoryConstants,
    read_fields,
    read_record,
    record_dict,
    record_from_dict,
)
from scoopgp.terrain import LatentMaterial

_ACTION = ScoopAction(0.25, 0.4, 3, 0.05, 1)
_MATERIALS = [LatentMaterial("loam", (0.2, 0.5, 0.9), 0.3, 40.0, 0.05, 0.02, 1.5, 0),
              LatentMaterial("clay", (0.6, 0.4, 0.3), 0.1, 20.0, 0.04, 0.03, 0.5, 1)]
_SUITE_TASK = SuiteTask("test-00", True, "Layers", _MATERIALS, 4, 0.05, (0.01, 0.01), 0.01)
RECORDS = [
    TrajectoryConstants(),
    _ACTION,
    Architecture(channels=3, extractor_widths=(48, 24), mean_widths=(), embed_dim=8),
    LatentMaterial("loam", (0.2, 0.5, 0.9), 0.3, 40.0, 0.05, 0.02, 1.5, 0),
    KernelParams(0.3, -0.2, -2.5),
    EpisodeStep(7, _ACTION, 31.5, 2.25),
    Normalization(30.0, 5.5),
    Checkpoint(2, "kcmd-ot", 2, Architecture(), True, Normalization(30.0, 5.5), KernelParams(), "ab12"),
    RecordEntry(_ACTION, 12.5),
    DatasetHeader(2, "test-00", (4, 16, 16), TrajectoryConstants(), {"collect_seed": 3},
                  [RecordEntry(_ACTION, 12.5), RecordEntry(ScoopAction(0.5, 0.1, 0, 0.08, 0), -1.0)]),
    _SUITE_TASK,
    Suite(2, 3, 4, 2, 30, [SuiteTask("train-00", False, "Single", _MATERIALS[:1], 7, None, (0.9, 0.6), 0.01),
                           _SUITE_TASK]),
    KShotTable("dkmt", 2, 0, [0, 5], {"test-00": {"0": 12.5, "5": 9.25}}, {"0": 12.5, "5": 9.25}),
]
# one JSON value of each kind; a field refuses every kind its annotation does not take
WRONG = {
    "boolean": True,
    "fraction": 2.7,
    "string": "abc",
    "null": None,
    "array": ["abc"],
    "nan": math.nan,
    "infinity": -math.inf,
    "huge_integer": 10**400,
}
TAKES = {float: {"fraction"}, int: {"huge_integer"}, str: {"string"}, bool: {"boolean"}, dict | None: {"null"},
         float | None: {"fraction", "null"}}


FIELDS = [
    pytest.param(record, name, hint, id=f"{type(record).__name__}.{name}")
    for record in RECORDS
    for name, hint in typing.get_type_hints(type(record)).items()
]
WRONG_VALUES = [
    pytest.param(*field.values[:2], value, id=f"{field.id}-{kind}")
    for field in FIELDS
    for kind, value in WRONG.items()
    if kind not in TAKES.get(field.values[2], ())
]


def _json(record) -> dict:
    return json.loads(json.dumps(record_dict(record)))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_roundtrip_before_and_after_json(record):
    cls = type(record)
    assert record_from_dict(cls, _json(record)) == record
    assert record_from_dict(cls, record_dict(record)) == record  # tuples as well as lists


@pytest.mark.parametrize("record,name,hint", FIELDS)
def test_missing_key_is_refused(record, name, hint):
    d = _json(record)
    del d[name]
    with pytest.raises(ValueError, match=f"{type(record).__name__} needs an object with the keys"):
        record_from_dict(type(record), d)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_unknown_key_and_non_object_are_refused(record):
    cls = type(record)
    for bad in ({**_json(record), "extra": 1.0}, list(_json(record).values()), None, "abc"):
        with pytest.raises(ValueError, match=f"{cls.__name__} needs an object"):
            record_from_dict(cls, bad)


@pytest.mark.parametrize("record,name,value", WRONG_VALUES)
def test_value_of_another_json_type_is_refused(record, name, value):
    d = _json(record)
    d[name] = value
    with pytest.raises(ValueError, match=re.escape(f"{type(record).__name__}.{name}: ")):
        record_from_dict(type(record), d)


def test_integer_number_is_kept_and_array_length_is_checked():
    d = {**_json(_ACTION), "x": 1}
    assert type(record_from_dict(ScoopAction, d).x) is int
    material = _json(RECORDS[3])
    for color in ([0.2, 0.5], [0.2, 0.5, 0.9, 0.1]):
        with pytest.raises(ValueError, match="LatentMaterial.color"):
            record_from_dict(LatentMaterial, {**material, "color": color})


def test_trace_reads_optional_fault_and_checks_attempts():
    trace = EpisodeTrace("t", "ucb(2)", 10.0, 20, [RECORDS[5]], success=True, meta={"method": "sl"})
    for fault in (None, "RuntimeError: boom"):
        trace.fault = fault
        assert EpisodeTrace.from_dict(json.loads(json.dumps(trace.to_dict()))) == trace
    for key, value, match in [("fault", 5, "EpisodeTrace.fault"), ("meta", None, "EpisodeTrace.meta"),
                              ("attempts", 2, "attempts 2"), ("attempts", True, "attempts True")]:
        with pytest.raises(ValueError, match=match):
            EpisodeTrace.from_dict({**trace.to_dict(), key: value})


@dataclass
class _Kelvin:
    degrees: float

    @classmethod
    def from_dict(cls, d):
        t = read_fields(cls, d)
        if t.degrees < 0.0:
            raise ValueError(f"{t.degrees} K is below absolute zero")
        return t


@dataclass
class _Reading:
    where: str
    temperature: _Kelvin


def test_a_class_own_reader_is_used_at_top_level_and_nested():
    trace = EpisodeTrace("t", "ucb(2)", 10.0, 20, [RECORDS[5]], success=True, meta={"method": "sl"})
    assert record_from_dict(EpisodeTrace, json.loads(json.dumps(trace.to_dict()))) == trace  # attempts read
    with pytest.raises(ValueError, match="success flag"):
        record_from_dict(EpisodeTrace, {**trace.to_dict(), "threshold": 40.0})  # fails validate()
    assert record_from_dict(_Reading, {"where": "lab", "temperature": {"degrees": 4}}) == _Reading("lab", _Kelvin(4))
    with pytest.raises(ValueError, match="below absolute zero"):
        record_from_dict(_Reading, {"where": "lab", "temperature": {"degrees": -1.5}})


class _Refused(ValueError):
    pass


def test_read_record_checks_the_schema_and_names_where():
    checkpoint = RECORDS[7]
    text = json.dumps(record_dict(checkpoint))
    assert read_record(Checkpoint, text, "ckpt.json", schema=2) == checkpoint
    assert read_record(Checkpoint, text, "ckpt.json") == checkpoint
    for bad, match in [
        (text[:-1], "ckpt.json: not JSON: "),
        ("[2]", "ckpt.json: schema_version None not supported"),
        (json.dumps({**record_dict(checkpoint), "schema_version": 1}), "ckpt.json: schema_version 1 not supported"),
        (json.dumps({**record_dict(checkpoint), "schema_version": True}), "ckpt.json: schema_version True"),
        (json.dumps({**record_dict(checkpoint), "seed": "2"}), "ckpt.json: Checkpoint.seed"),
    ]:
        with pytest.raises(_Refused, match=re.escape(match)):
            read_record(Checkpoint, bad, "ckpt.json", schema=2, error=_Refused)

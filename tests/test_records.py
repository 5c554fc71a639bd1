"""model.read_fields is the inverse of model.record_dict for every
record class read from JSON, and refuses, naming the field, each field's
missing key, an unknown key and every JSON value of another type, a
typed dict's keys and values included. A trace's own invariants, checked
by EpisodeTrace.validate at construction, are refused the same way."""
import json
import math
import re
import typing

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
)
from scoopgp.terrain import LatentMaterial

_ACTION = ScoopAction(0.25, 0.4, 3, 0.05, 1)
_MATERIALS = [LatentMaterial("loam", (0.2, 0.5, 0.9), 0.3, 40.0, 0.05, 0.02, 1.5, 0),
              LatentMaterial("clay", (0.6, 0.4, 0.3), 0.1, 20.0, 0.04, 0.03, 0.5, 1)]
_STEP = EpisodeStep(7, _ACTION, 31.5, 2.25)
# a faulted trace and a successful one: the two shapes a trace's fault field takes
_FAULTED = EpisodeTrace("test-00", "ucb(2)", 40.0, 20, False, 1, "RuntimeError: boom",
                        {"mode": "live", "method": "sl", "env_seed": 5}, [_STEP])
_SUCCEEDED = EpisodeTrace("test-01", "greedy", 30.0, 3, True, 2, None, {"method": "dkmt", "rep": 0},
                          [EpisodeStep(2, _ACTION, 12.0, 9.5), _STEP])
_SUITE_TASK = SuiteTask("test-00", True, "Layers", _MATERIALS, 4, 0.05, (0.01, 0.01), 0.01)
RECORDS = [
    TrajectoryConstants(),
    _ACTION,
    Architecture(channels=3, extractor_widths=(48, 24), mean_widths=(), embed_dim=8),
    LatentMaterial("loam", (0.2, 0.5, 0.9), 0.3, 40.0, 0.05, 0.02, 1.5, 0),
    KernelParams(0.3, -0.2, -2.5),
    _STEP,
    Normalization(30.0, 5.5),
    Checkpoint(2, "kcmd-ot", 2, Architecture(), True, Normalization(30.0, 5.5), KernelParams(), "ab12"),
    RecordEntry(_ACTION, 12.5),
    DatasetHeader(2, "test-00", (4, 16, 16), TrajectoryConstants(), {"collect_seed": 3},
                  [RecordEntry(_ACTION, 12.5), RecordEntry(ScoopAction(0.5, 0.1, 0, 0.08, 0), -1.0)]),
    _SUITE_TASK,
    Suite(2, 3, 4, 2, 30, [SuiteTask("train-00", False, "Single", _MATERIALS[:1], 7, None, (0.9, 0.6), 0.01),
                           _SUITE_TASK]),
    KShotTable("dkmt", 2, 0, [0, 5], {"test-00": {"0": 12.5, "5": 9.25}}, {"0": 12.5, "5": 9.25}),
    _FAULTED,
    _SUCCEEDED,
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
         float | None: {"fraction", "null"}, str | None: {"string", "null"}}


def _label(record) -> str:
    """The record's class name, a faulted trace's marked as such."""
    return type(record).__name__ + ("-faulted" if getattr(record, "fault", None) else "")


FIELDS = [
    pytest.param(record, name, hint, id=f"{_label(record)}.{name}")
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


@pytest.mark.parametrize("record", RECORDS, ids=_label)
def test_roundtrip_before_and_after_json(record):
    cls = type(record)
    assert read_fields(cls, _json(record)) == record
    assert read_fields(cls, record_dict(record)) == record  # tuples as well as lists


@pytest.mark.parametrize("record,name,hint", FIELDS)
def test_missing_key_is_refused(record, name, hint):
    d = _json(record)
    del d[name]
    with pytest.raises(ValueError, match=f"{type(record).__name__} needs an object with the keys"):
        read_fields(type(record), d)


@pytest.mark.parametrize("record", RECORDS, ids=_label)
def test_unknown_key_and_non_object_are_refused(record):
    cls = type(record)
    for bad in ({**_json(record), "extra": 1.0}, list(_json(record).values()), None, "abc"):
        with pytest.raises(ValueError, match=f"{cls.__name__} needs an object"):
            read_fields(cls, bad)


@pytest.mark.parametrize("record,name,value", WRONG_VALUES)
def test_value_of_another_json_type_is_refused(record, name, value):
    d = _json(record)
    d[name] = value
    with pytest.raises(ValueError, match=re.escape(f"{type(record).__name__}.{name}: ")):
        read_fields(type(record), d)


def test_integer_number_is_kept_and_array_length_is_checked():
    d = {**_json(_ACTION), "x": 1}
    assert type(read_fields(ScoopAction, d).x) is int
    material = _json(RECORDS[3])
    for color in ([0.2, 0.5], [0.2, 0.5, 0.9, 0.1]):
        with pytest.raises(ValueError, match="LatentMaterial.color"):
            read_fields(LatentMaterial, {**material, "color": color})


# a typed dict's keys and values are read by the field rule, one level down
INNER_VALUES = {
    "per_task_string": ("per_task", {"test-00": "x"}),
    "per_task_null": ("per_task", {"test-00": None}),
    "per_task_infinity": ("per_task", {"test-00": {"0": math.inf}}),
    "per_task_boolean": ("per_task", {"test-00": {"0": True}}),
    "mean_infinity": ("mean", {"0": math.inf}),
    "mean_nan": ("mean", {"0": math.nan}),
    "mean_string": ("mean", {"0": "12.5"}),
    "mean_null": ("mean", {"0": None}),
    "mean_integer_key": ("mean", {0: 12.5}),
}


@pytest.mark.parametrize("name,value", INNER_VALUES.values(), ids=INNER_VALUES)
def test_a_typed_dict_reads_its_keys_and_values(name, value):
    d = {**_json(RECORDS[12]), name: value}
    with pytest.raises(ValueError, match=re.escape(f"KShotTable.{name}: ")):
        read_fields(KShotTable, d)


# edits of the faulted or the successful trace that no episode writes
UNWRITTEN_TRACES = {
    "attempts_not_steps": (_FAULTED, {"attempts": 2}, "attempts 2 must equal the number of steps (1)"),
    "attempts_above_cap": (_SUCCEEDED, {"max_attempts": 1}, "at most max_attempts (1)"),
    "zero_cap": (_FAULTED, {"max_attempts": 0, "attempts": 0, "steps": [], "fault": None}, "max_attempts 0 is below 1"),
    "negative_cap": (_FAULTED, {"max_attempts": -3}, "max_attempts -3 is below 1"),
    "success_with_fault": (_SUCCEEDED, {"fault": "RuntimeError: boom"}, "a successful trace has the fault"),
    "success_below_threshold": (_SUCCEEDED, {"threshold": 40.0}, "success flag True"),
    "success_without_steps": (_SUCCEEDED, {"attempts": 0, "steps": []}, "success flag True"),
    "failure_at_threshold": (_FAULTED, {"fault": None, "threshold": 31.5}, "success flag False"),
    "early_step_at_threshold": (_SUCCEEDED, {"threshold": 12.0}, "non-final step already met the threshold"),
    "attempts_boolean": (_FAULTED, {"attempts": True}, "EpisodeTrace.attempts: True"),
    "fault_number": (_FAULTED, {"fault": 5}, "EpisodeTrace.fault: 5"),
    "meta_null": (_FAULTED, {"meta": None}, "EpisodeTrace.meta: None"),
}


@pytest.mark.parametrize("trace,edit,match", UNWRITTEN_TRACES.values(), ids=UNWRITTEN_TRACES)
def test_a_trace_no_episode_writes_is_refused(trace, edit, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        read_fields(EpisodeTrace, {**_json(trace), **edit})


def test_a_trace_line_is_its_fields_in_order():
    line = ('{"task_id": "test-00", "policy": "ucb(2)", "threshold": 40.0, "max_attempts": 20, '
            '"success": false, "attempts": 1, "fault": "RuntimeError: boom", '
            '"meta": {"mode": "live", "method": "sl", "env_seed": 5}, '
            '"steps": [{"index": 7, "action": {"x": 0.25, "y": 0.4, "yaw": 3, "depth": 0.05, "stiffness": 1}, '
            '"reward": 31.5, "score": 2.25}]}')
    assert json.dumps(record_dict(_FAULTED)) == line
    assert read_record(EpisodeTrace, line, "traces.jsonl: line 1") == _FAULTED


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

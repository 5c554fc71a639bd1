"""Task datasets: one terrain's scoop records, with JSON persistence.

The on-disk format segregates simulator ground truth (material table,
composition, hidden layers) under a single "ground_truth" key. The
default learner view drops that key at load time, so model and
evaluation code cannot read latent fields; the oracle view keeps it for
the manual-split trainer and for reporting.

Saving and loading both refuse, with DatasetError, a record whose patch
is non-finite or has appearance outside [0, 1], whose action is invalid
or whose reward is non-finite. Loading names the file. It also refuses a
patch value or reward that is not a JSON number (a boolean is not one)
and a patch_shape that is not three positive integers, and it reads each
action and the trajectory constants with model.record_from_dict: keys
are exactly the record's fields, floats are finite numbers and booleans
are not numbers. The writer's bytes are json.dumps of the payload dict
with every float rounded by round(v, DECIMALS); it builds them in a few
numpy passes per task instead of one call per value.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    JSON_NUMBERS,
    Architecture,
    ScoopAction,
    TrajectoryConstants,
    action_rows,
    check_patch_shape,
    feature_rows,
    record_dict,
    record_from_dict,
    validate_patches,
)

SCHEMA_VERSION = 1
# patch values and rewards are written rounded to this many decimal places
DECIMALS = 6
_SCALE = 10.0**DECIMALS


class DatasetError(ValueError):
    """A dataset that is unreadable, of another schema, or holds a record
    no learner may use; refused on save and on load."""


@dataclass
class ScoopRecord:
    obs: np.ndarray  # the (C, H, W) patch observed before the scoop
    action: ScoopAction
    reward: float


@dataclass
class TaskDataset:
    """All scoop records collected on one terrain. features is their
    (N, C * H * W + 2) feature_rows matrix, from the loader or built here;
    each record's obs is a view into its row."""

    task_id: str
    records: list[ScoopRecord]
    constants: TrajectoryConstants = field(default_factory=TrajectoryConstants)
    ground_truth: dict | None = None
    features: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.features is None:
            self.features = feature_rows([(r.obs, r.action) for r in self.records])
            self.records = [ScoopRecord(p, r.action, r.reward) for p, r in zip(self.patches, self.records)]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.records], dtype=np.float64)

    @property
    def patches(self) -> np.ndarray:
        """(N, C, H, W) view of the records' patches in features."""
        return self.features[:, :-2].reshape(len(self.features), *self.records[0].obs.shape)

    def feature_matrix(self, arch: Architecture) -> np.ndarray:
        """The held (N, input_dim) features themselves; callers must not write them."""
        check_patch_shape(arch, self.records[0].obs.shape)
        return self.features


def _check_records(where, patches: np.ndarray, actions, rewards) -> None:
    """Raise DatasetError unless every record is valid: finite patches with
    appearance in [0, 1], valid actions and finite rewards."""
    try:
        validate_patches(patches)
    except ValueError as err:
        raise DatasetError(f"{where}: {err}") from err
    for i, (action, reward) in enumerate(zip(actions, rewards)):
        try:
            action.validate()
        except ValueError as err:
            raise DatasetError(f"{where}: record {i}: action {err}") from err
        if not math.isfinite(reward):
            raise DatasetError(f"{where}: record {i}: reward {reward} is not finite")


def round_exact(x: np.ndarray) -> np.ndarray:
    """Python's round(v, DECIMALS) of every element of a finite array, bit
    for bit, from one rint pass.

    rint(x * 10**DECIMALS) is the correct rounding of the exact product
    unless the computed product lies within its own rounding error of a
    half-integer, or is too large to carry fraction bits; those few
    elements are rounded by Python.
    """
    big = np.abs(x) >= 2.0**52 / _SCALE
    s = np.where(big, 0.0, x) * _SCALE
    out = np.rint(s) / _SCALE
    near_tie = np.abs(s - np.floor(s) - 0.5) <= np.abs(s) * 2.0**-50
    for i in np.flatnonzero(near_tie | big):
        out.flat[i] = round(float(x.flat[i]), DECIMALS)
    return out


def _json_rows(rounded: np.ndarray) -> list[str]:
    """One JSON array body ("v, v, ...", no brackets) per row of an (m, n)
    array of values already rounded to DECIMALS places, each equal to
    json.dumps of the row's floats.

    A rounded value is the double nearest k / 10**6. When it is 0 or
    1e-4 <= |v| < 10 (k == 0 or 100 <= |k| < 10**7), its repr is the
    sign, one integer digit, ".", and the fraction digits up to the last
    non-zero one (at least one); those are built as digit bytes. Every
    other value (exponent form below 1e-4, more integer digits from 10 up)
    is left as a NUL placeholder and spliced in from json.dumps.
    """
    # the layout below is for DECIMALS == 6
    m, n = rounded.shape
    flat = rounded.ravel()
    mag = np.abs(flat)
    fixed = (mag == 0.0) | ((mag >= 1e-4) & (mag < 10.0))
    k = np.rint(np.where(fixed, mag, 0.0) * _SCALE).astype(np.int32)
    frac = k % 1_000_000
    # per value: sign, integer digit, ".", six fraction digits, ", "
    chars = np.empty((m * n, 11), dtype=np.uint8)
    keep = np.ones((m * n, 11), dtype=bool)
    chars[:, 0] = ord("-")
    keep[:, 0] = np.signbit(flat)
    chars[:, 1] = k // 1_000_000 + ord("0")
    chars[:, 2] = ord(".")
    for j in range(6):
        chars[:, 3 + j] = frac // 10 ** (5 - j) % 10 + ord("0")
        if j:
            keep[:, 3 + j] = frac % 10 ** (6 - j) != 0
    chars[:, 9] = ord(",")
    chars[:, 10] = ord(" ")
    other = np.flatnonzero(~fixed)
    chars[other, 1] = 0
    keep[other, 0] = False
    keep[other, 2:9] = False
    keep.reshape(m, n, 11)[:, -1, 9:] = False
    text = chars[keep].tobytes().decode("ascii")
    row_len = keep.reshape(m, -1).sum(axis=1)
    if other.size:
        reprs = [json.dumps(v) for v in flat[other].tolist()]
        pieces = text.split("\0")
        text = pieces[0] + "".join(r + p for r, p in zip(reprs, pieces[1:]))
        np.add.at(row_len, other // n, [len(r) - 1 for r in reprs])
    ends = np.cumsum(row_len).tolist()
    return [text[start:end] for start, end in zip([0] + ends[:-1], ends)]


def save_task_dataset(ds: TaskDataset, path) -> None:
    """Write one dataset as JSON, patch values and rewards rounded to
    DECIMALS places; the bytes are json.dumps of the payload dict."""
    patches = ds.patches
    if patches.ndim != 4:
        raise DatasetError(f"{ds.task_id}: patches must be (C, H, W), got {patches.shape[1:]}")
    rounded = round_exact(patches)
    rewards = [round(float(r.reward), DECIMALS) for r in ds.records]
    _check_records(ds.task_id, rounded, [r.action for r in ds.records], rewards)
    header = {
        "schema_version": SCHEMA_VERSION,
        "task_id": ds.task_id,
        "patch_shape": list(patches.shape[1:]),
        "trajectory_constants": record_dict(ds.constants),
        "ground_truth": ds.ground_truth,
    }
    # "patch" is the last key of a record and "records" the last key of
    # the payload, so each closing brace is cut and the list spliced in
    records = [
        json.dumps({"action": record_dict(r.action), "reward": reward})[:-1]
        + ', "patch": [' + body + "]}"
        for r, reward, body in zip(ds.records, rewards, _json_rows(rounded.reshape(len(rewards), -1)))
    ]
    text = json.dumps(header)[:-1] + ', "records": [' + ", ".join(records) + "]}"
    Path(path).write_text(text)


def _patch_values(path, raw, X: np.ndarray) -> np.ndarray:
    """Write the raw records' patch values into the leading (n, size)
    columns of X, and return them; DatasetError when one is not a JSON number.

    struct's "d" packing writes each record straight into its row and
    refuses a string or null, where numpy's conversion parses "0.5" as
    0.5; it is also a third of numpy's time. It takes a boolean as 0.0
    or 1.0, so the values equal to those are looked up by type; a patch
    strictly inside (0, 1) has none.
    """
    size = X.shape[1] - 2
    row = struct.Struct(f"{size}d")
    for i, rec in enumerate(raw):
        try:
            row.pack_into(X, i * X.strides[0], *rec["patch"])
        except (struct.error, OverflowError) as err:
            raise DatasetError(f"{path}: record {i}: patch values are not numbers: {err}") from err
    values = X[:, :size]
    if not (values.min() > 0.0 and values.max() < 1.0):
        for k in np.flatnonzero((values == 0.0) | (values == 1.0)).tolist():
            i, j = divmod(k, size)
            if type(raw[i]["patch"][j]) is bool:
                raise DatasetError(f"{path}: record {i}: patch value {j} is a boolean, not a number")
    return values


def load_task_dataset(path, view: str = "learner") -> TaskDataset:
    """Load a dataset; view='learner' strips ground truth, 'oracle' keeps it.

    Raises DatasetError for a file that is not a valid dataset."""
    if view not in ("learner", "oracle"):
        raise ValueError(f"unknown view {view!r}; use 'learner' or 'oracle'")
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise DatasetError(f"{path}: not JSON: {err}") from err
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise DatasetError(
            f"{path}: schema_version {version} not supported (expected {SCHEMA_VERSION})"
        )
    try:
        constants = record_from_dict(TrajectoryConstants, payload["trajectory_constants"])
    except (KeyError, ValueError) as err:
        raise DatasetError(f"{path}: trajectory constants: {err}") from err
    try:
        shape = payload["patch_shape"]
        raw = payload["records"]
        lengths = [len(rec["patch"]) for rec in raw]
        actions = [record_from_dict(ScoopAction, rec["action"]) for rec in raw]
        rewards = [rec["reward"] for rec in raw]
        ground_truth = payload["ground_truth"]
        task_id = payload["task_id"]
    except (KeyError, TypeError, ValueError) as err:
        raise DatasetError(f"{path}: malformed dataset: {err!r}") from err
    if not (type(shape) is list and len(shape) == 3 and all(type(d) is int and d >= 1 for d in shape)):
        raise DatasetError(f"{path}: patch_shape {shape!r} is not three positive integers (C, H, W)")
    if not raw:
        raise DatasetError(f"{path}: no records")
    size = math.prod(shape)
    for i, (length, reward) in enumerate(zip(lengths, rewards)):
        if length != size:
            raise DatasetError(
                f"{path}: record {i}: patch has {length} values, shape {list(shape)} needs {size}"
            )
        if type(reward) not in JSON_NUMBERS:
            raise DatasetError(f"{path}: record {i}: reward {reward!r} is not a number")
    X = np.empty((len(raw), size + 2))
    patches = _patch_values(path, raw, X).reshape(len(raw), *shape)
    _check_records(path, patches, actions, rewards)
    X[:, -2:] = action_rows(actions, 0)
    records = [
        ScoopRecord(obs=patch, action=action, reward=float(reward))
        for patch, action, reward in zip(patches, actions, rewards)
    ]
    return TaskDataset(
        task_id=task_id,
        records=records,
        constants=constants,
        ground_truth=ground_truth if view == "oracle" else None,
        features=X,
    )

"""Task datasets: one terrain's scoop records, as a JSON header and a
.npy file of patches.

A dataset saved as <id>.json is two files. <id>.json is a DatasetHeader
record: the schema version, task id, patch shape, trajectory constants,
ground truth, and each record's action and reward. The sidecar
<id>.json.patches.npy holds every record's (C, H, W) patch as one
(N, C, H, W) float64 array. Patch values and rewards are rounded by
round(v, DECIMALS) before they are written.

The header segregates simulator ground truth (material table,
composition, hidden layers) under a single "ground_truth" key. The
default learner view drops that key at load time, so model and
evaluation code cannot read latent fields; the oracle view keeps it for
the manual-split trainer and for reporting.

Saving and loading both refuse, with DatasetError, a record whose patch
is non-finite or has appearance outside [0, 1], whose action is invalid
or whose reward is non-finite. Loading names the file. It reads the
header with model.read_record, which checks the schema version: keys
are exactly the record's fields, floats are finite numbers and booleans
are not numbers. It refuses a patch_shape that is not three positive
integers or, given an architecture, not its patch shape, a missing or
unreadable sidecar, and patches that are not float64 of the header's
patch shape, one per record; the sidecar is read without unpickling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    Architecture,
    ScoopAction,
    TrajectoryConstants,
    check_patch_shape,
    feature_rows,
    read_record,
    record_dict,
    validate_patches,
)

SCHEMA_VERSION = 2
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
class RecordEntry:
    """A record in a dataset's header; its patch is in the sidecar."""

    action: ScoopAction
    reward: float


@dataclass
class DatasetHeader:
    """A dataset file's JSON payload."""

    schema_version: int
    task_id: str
    patch_shape: tuple[int, int, int]
    trajectory_constants: TrajectoryConstants
    ground_truth: dict | None
    records: list[RecordEntry]


@dataclass
class TaskDataset:
    """All scoop records collected on one terrain. features is their
    (N, C * H * W + 2) feature_rows matrix, built here from the records'
    patches; each record is then replaced by one whose obs views its row."""

    task_id: str
    records: list[ScoopRecord]
    constants: TrajectoryConstants = field(default_factory=TrajectoryConstants)
    ground_truth: dict | None = None
    features: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
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


def patches_path(path) -> Path:
    """The sidecar holding the patches of the dataset saved as path."""
    return Path(str(path) + ".patches.npy")


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


def save_task_dataset(ds: TaskDataset, path) -> None:
    """Write one dataset's header to path and its patches to
    patches_path(path), patch values and rewards rounded to DECIMALS places."""
    patches = ds.patches
    if patches.ndim != 4:
        raise DatasetError(f"{ds.task_id}: patches must be (C, H, W), got {patches.shape[1:]}")
    rounded = round_exact(patches)
    entries = [RecordEntry(r.action, round(float(r.reward), DECIMALS)) for r in ds.records]
    _check_records(ds.task_id, rounded, [e.action for e in entries], [e.reward for e in entries])
    header = DatasetHeader(SCHEMA_VERSION, ds.task_id, patches.shape[1:], ds.constants, ds.ground_truth, entries)
    Path(path).write_text(json.dumps(record_dict(header)))
    with patches_path(path).open("wb") as fh:
        np.save(fh, rounded, allow_pickle=False)


def _read_patches(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 array of the given shape that the .npy file at path holds;
    DatasetError for any other file."""
    try:
        with path.open("rb") as fh:
            patches = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as err:
        raise DatasetError(f"{path}: cannot read the patches: {err}") from err
    if patches.dtype != np.float64 or patches.shape != shape:
        raise DatasetError(f"{path}: patches are {patches.dtype} {patches.shape}, the header needs float64 {shape}")
    return patches


def load_task_dataset(path, view: str = "learner", arch: Architecture | None = None) -> TaskDataset:
    """Load a dataset; view='learner' strips ground truth, 'oracle' keeps it.

    Raises DatasetError for a file that is not a valid dataset or, given arch, not of its patch shape."""
    if view not in ("learner", "oracle"):
        raise ValueError(f"unknown view {view!r}; use 'learner' or 'oracle'")
    header = read_record(DatasetHeader, Path(path).read_text(), path, SCHEMA_VERSION, DatasetError)
    if min(header.patch_shape) < 1:
        raise DatasetError(f"{path}: patch_shape {list(header.patch_shape)} is not three positive integers (C, H, W)")
    if not header.records:
        raise DatasetError(f"{path}: no records")
    if arch is not None:
        try:
            check_patch_shape(arch, header.patch_shape)
        except ValueError as err:
            raise DatasetError(f"{path}: {err}") from err
    entries = header.records
    patches = _read_patches(patches_path(path), (len(entries), *header.patch_shape))
    _check_records(path, patches, [e.action for e in entries], [e.reward for e in entries])
    return TaskDataset(
        task_id=header.task_id,
        records=[ScoopRecord(obs, e.action, float(e.reward)) for obs, e in zip(patches, entries)],
        constants=header.trajectory_constants,
        ground_truth=header.ground_truth if view == "oracle" else None,
    )

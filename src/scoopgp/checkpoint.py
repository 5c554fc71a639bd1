"""Model checkpoints: a JSON file with architecture, GP hyperparameters
and reward normalization, and a .npz file of weights.

A checkpoint saved as <ckpt> is two files. <ckpt> is a Checkpoint record
that model.record_dict writes, floats through repr. The sidecar
<ckpt>.weights.npz holds each weight as a float64 array under its name,
written by np.savez without compression. Load followed by save
reproduces both byte for byte. Loading reads the record with
model.read_record, which checks the schema version: keys are exactly
each record's fields, floats are finite numbers and booleans are not
numbers. It refuses, with CheckpointError naming the file, any other
JSON, an empty extractor_widths, a missing or unreadable weights file,
weights that are not float64 or not exactly the architecture's names and
shapes, a non-finite weight, a log hyperparameter whose exp is not a
positive, finite double, and a reward std that is not positive.
Neither file is unpickled.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .gp import KernelParams
from .model import Architecture, DeepGPModel, read_arrays, read_record, record_dict

SCHEMA_VERSION = 2


class CheckpointError(ValueError):
    """Unreadable, version-mismatched or corrupt checkpoint."""


@dataclass(frozen=True)
class Normalization:
    """The reward standardization the model was trained with."""

    reward_mean: float
    reward_std: float


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint file's payload; the weights are in its sidecar."""

    schema_version: int
    method: str
    seed: int
    architecture: Architecture
    has_kernel: bool
    normalization: Normalization
    kernel_params: KernelParams
    manifest_digest: str


def weights_path(path) -> Path:
    """The sidecar holding the weights of the checkpoint saved as path."""
    return Path(str(path) + ".weights.npz")


def save_checkpoint(
    model: DeepGPModel,
    path,
    method: str,
    seed: int = 0,
    manifest_digest: str = "",
) -> None:
    ckpt = Checkpoint(SCHEMA_VERSION, method, seed, model.arch, model.has_kernel,
                      Normalization(model.reward_mean, model.reward_std), model.kp, manifest_digest)
    Path(path).write_text(json.dumps(record_dict(ckpt)))
    with weights_path(path).open("wb") as fh:
        np.savez(fh, **{name: t.data for name, t in sorted(model.weights.items())})


def _read_weights(path: Path) -> dict[str, T.Tensor]:
    """The float64 arrays of the .npz file at path as trainable tensors, by name."""
    arrays = read_arrays(path, path, CheckpointError)
    for name, a in arrays.items():
        if a.dtype != np.float64:
            raise CheckpointError(f"{path}: weight {name} is {a.dtype}, not float64")
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: weight {name} has non-finite values")
    return {name: T.Tensor(a, requires_grad=True, name=name) for name, a in arrays.items()}


def load_checkpoint(path) -> tuple[DeepGPModel, Checkpoint]:
    """Returns (model, the checkpoint's record)."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    ckpt = read_record(Checkpoint, text, path, SCHEMA_VERSION, CheckpointError)
    try:
        ckpt.kernel_params.validate()
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    norm, arch = ckpt.normalization, ckpt.architecture
    if not norm.reward_std > 0.0:
        raise CheckpointError(f"{path}: normalization ({norm.reward_mean}, {norm.reward_std}) needs a positive std")
    if not arch.extractor_widths:
        raise CheckpointError(f"{path}: the architecture's extractor_widths is empty; it needs a layer")
    wpath = weights_path(path)
    try:
        model = DeepGPModel(arch, _read_weights(wpath), ckpt.kernel_params,
                            norm.reward_mean, norm.reward_std, ckpt.has_kernel)
    except T.ShapeError as err:
        raise CheckpointError(f"{wpath}: {err}") from err
    return model, ckpt

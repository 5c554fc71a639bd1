"""Model checkpoints: one JSON file with architecture, weights, GP
hyperparameters, and reward normalization.

The file is a Checkpoint record that model.record_dict writes, floats
through repr, so load followed by save reproduces it byte for byte.
Loading reads it with model.record_from_dict: keys are exactly each
record's fields, floats are finite numbers and booleans are not numbers.
It refuses, with CheckpointError naming the file, any other JSON, a
non-finite weight, a log hyperparameter whose exp is not a positive,
finite double, and a reward std that is not positive.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .gp import KernelParams
from .model import Architecture, DeepGPModel, record_dict, record_from_dict

SCHEMA_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, version-mismatched or corrupt checkpoint."""


@dataclass(frozen=True)
class Normalization:
    """The reward standardization the model was trained with."""

    reward_mean: float
    reward_std: float


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint file's payload; weights is T.weights_to_json of the weights in name order."""

    schema_version: int
    method: str
    seed: int
    architecture: Architecture
    has_kernel: bool
    normalization: Normalization
    kernel_params: KernelParams
    manifest_digest: str
    weights: dict


def save_checkpoint(
    model: DeepGPModel,
    path,
    method: str,
    seed: int = 0,
    manifest_digest: str = "",
) -> None:
    ckpt = Checkpoint(SCHEMA_VERSION, method, seed, model.arch, model.has_kernel,
                      Normalization(model.reward_mean, model.reward_std), model.kp, manifest_digest,
                      T.weights_to_json(dict(sorted(model.weights.items()))))
    Path(path).write_text(json.dumps(record_dict(ckpt)))


def load_checkpoint(path) -> tuple[DeepGPModel, Checkpoint]:
    """Returns (model, the checkpoint's record without its weights)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema {version} not supported (expected {SCHEMA_VERSION})"
        )
    try:
        ckpt = record_from_dict(Checkpoint, payload)
        ckpt.kernel_params.validate()
        norm = ckpt.normalization
        model = DeepGPModel(ckpt.architecture, T.weights_from_json(ckpt.weights), ckpt.kernel_params,
                            norm.reward_mean, norm.reward_std, ckpt.has_kernel)
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint: {err!r}") from err
    bad = [name for name, w in sorted(model.weights.items()) if not np.isfinite(w.data).all()]
    if bad:
        raise CheckpointError(f"{path}: weight {bad[0]} has non-finite values")
    if not norm.reward_std > 0.0:
        raise CheckpointError(f"{path}: normalization ({norm.reward_mean}, {norm.reward_std}) needs a positive std")
    # the weights' JSON lists are not kept alive beside the model's arrays
    return model, replace(ckpt, weights={})

"""Model checkpoints: one JSON file with architecture, weights, GP
hyperparameters, and reward normalization.

The payload is rebuilt in a canonical key order on every save and floats
serialize through repr, so load followed by save reproduces the file
byte for byte.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import tensor as T
from .gp import KernelParams
from .model import Architecture, DeepGPModel, record_dict

SCHEMA_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, version-mismatched or corrupt checkpoint."""


def save_checkpoint(
    model: DeepGPModel,
    path,
    method: str,
    seed: int = 0,
    manifest_digest: str = "",
) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "seed": seed,
        "architecture": record_dict(model.arch),
        "has_kernel": model.has_kernel,
        "normalization": {
            "reward_mean": model.reward_mean,
            "reward_std": model.reward_std,
        },
        "kernel_params": record_dict(model.kp),
        "manifest_digest": manifest_digest,
        "weights": T.weights_to_json(dict(sorted(model.weights.items()))),
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> tuple[DeepGPModel, dict]:
    """Returns (model, meta) where meta carries method and digest."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema {version} not supported (expected {SCHEMA_VERSION})"
        )
    try:
        arch = Architecture.from_dict(payload["architecture"])
        weights = T.weights_from_json(payload["weights"])
        kp = KernelParams.from_dict(payload["kernel_params"])
        kp.validate()
        norm = payload["normalization"]
        model = DeepGPModel(
            arch,
            weights,
            kp,
            reward_mean=norm["reward_mean"],
            reward_std=norm["reward_std"],
            has_kernel=payload["has_kernel"],
        )
        meta = {
            "method": payload["method"],
            "seed": payload["seed"],
            "manifest_digest": payload["manifest_digest"],
        }
        reward_mean, reward_std = float(norm["reward_mean"]), float(norm["reward_std"])
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint: {err!r}") from err
    bad = [name for name, w in sorted(weights.items()) if not np.isfinite(w.data).all()]
    if bad:
        raise CheckpointError(f"{path}: weight {bad[0]} has non-finite values")
    if not (math.isfinite(reward_mean) and 0.0 < reward_std < math.inf):
        raise CheckpointError(
            f"{path}: normalization ({reward_mean}, {reward_std}) needs a finite mean "
            "and a positive, finite std"
        )
    return model, meta

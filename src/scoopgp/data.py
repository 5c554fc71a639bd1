"""Task datasets: one terrain's scoop records, with JSON persistence.

The on-disk format segregates simulator ground truth (material table,
composition, hidden layers) under a single "ground_truth" key. The
default learner view drops that key at load time, so model and
evaluation code cannot read latent fields; the oracle view keeps it for
the manual-split trainer and for reporting.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    Architecture,
    Observation,
    ScoopAction,
    TrajectoryConstants,
    feature_matrix,
)

SCHEMA_VERSION = 1


@dataclass
class ScoopRecord:
    obs: Observation
    action: ScoopAction
    reward: float


@dataclass
class TaskDataset:
    """All scoop records collected on one terrain."""

    task_id: str
    records: list[ScoopRecord]
    constants: TrajectoryConstants = field(default_factory=TrajectoryConstants)
    ground_truth: dict | None = None
    _feat_cache: tuple[Architecture, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.records], dtype=np.float64)

    def feature_matrix(self, arch: Architecture) -> np.ndarray:
        """(N, input_dim) model features for every record; cached per arch."""
        if self._feat_cache is not None and self._feat_cache[0] == arch:
            return self._feat_cache[1]
        X = feature_matrix(arch, [(r.obs, r.action) for r in self.records])
        self._feat_cache = (arch, X)
        return X

    def support_tuples(self, indices) -> list[tuple[Observation, ScoopAction, float]]:
        return [(self.records[i].obs, self.records[i].action, self.records[i].reward) for i in indices]


def save_task_dataset(ds: TaskDataset, path, round_decimals: int = 6) -> None:
    """Write one dataset as JSON; patch values rounded for compactness."""
    if not ds.records:
        raise ValueError(f"refusing to save empty dataset {ds.task_id}")
    patch_shape = list(ds.records[0].obs.patch.shape)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "task_id": ds.task_id,
        "patch_shape": patch_shape,
        "trajectory_constants": ds.constants.to_dict(),
        "ground_truth": ds.ground_truth,
        "records": [
            {
                "action": r.action.to_dict(),
                "reward": round(float(r.reward), round_decimals),
                "patch": [
                    round(float(v), round_decimals) for v in r.obs.patch.ravel()
                ],
            }
            for r in ds.records
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_task_dataset(path, view: str = "learner") -> TaskDataset:
    """Load a dataset; view='learner' strips ground truth, 'oracle' keeps it."""
    if view not in ("learner", "oracle"):
        raise ValueError(f"unknown view {view!r}; use 'learner' or 'oracle'")
    payload = json.loads(Path(path).read_text())
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {payload.get('schema_version')} "
            f"not supported (expected {SCHEMA_VERSION})"
        )
    shape = tuple(payload["patch_shape"])
    records = [
        ScoopRecord(
            obs=Observation(np.array(rec["patch"], dtype=np.float64).reshape(shape)),
            action=ScoopAction.from_dict(rec["action"]),
            reward=float(rec["reward"]),
        )
        for rec in payload["records"]
    ]
    return TaskDataset(
        task_id=payload["task_id"],
        records=records,
        constants=TrajectoryConstants.from_dict(payload["trajectory_constants"]),
        ground_truth=payload["ground_truth"] if view == "oracle" else None,
    )

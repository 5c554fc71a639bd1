"""Action selection and episodic rollouts.

A policy scores a discrete candidate set with the model posterior
(greedy uses the mean, UCB adds a multiple of the standard deviation)
and picks the argmax, breaking ties toward the lowest candidate index.
Candidates and the support set are model feature rows. Episodes loop
observe / select / execute until the reward threshold is met or the
attempt budget runs out; the growing history, kept as copied feature
rows and rewards, is the support set handed to the model at each step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TaskDataset
from .model import DEPTH_MAX, DEPTH_MIN, N_YAW, STIFFNESSES, ScoopAction, action_rows, feature_rows, record_dict
from .terrain import (
    PATCH_CHANNELS,
    TerrainTask,
    execute_scoop,
    feasible,  # noqa: F401 - perfbench patches decision.feasible by name
    feasible_mask,
    patch_cells,
    render_patches,
    skip_uniforms,
)

# the grid's starts keep this far from the tray wall: close enough that
# outward-facing border scoops fail the feasibility predicate and
# exercise action masking
GRID_MARGIN = 0.05


@dataclass(frozen=True)
class ActionGrid:
    """Uniform grid over starts and depths, every yaw and stiffness; depths sit at bin midpoints."""

    nx: int = 8
    ny: int = 6
    nd: int = 2

    @classmethod
    def paper_scale(cls) -> "ActionGrid":
        return cls(nx=15, ny=12, nd=4)

    def depths(self) -> np.ndarray:
        step = (DEPTH_MAX - DEPTH_MIN) / self.nd
        return DEPTH_MIN + (np.arange(self.nd) + 0.5) * step

    def enumerate(self, extent: tuple[float, float]) -> list[ScoopAction]:
        xs = np.linspace(GRID_MARGIN, extent[0] - GRID_MARGIN, self.nx)
        ys = np.linspace(GRID_MARGIN, extent[1] - GRID_MARGIN, self.ny)
        depths = self.depths()
        actions = []
        for x in xs:
            for y in ys:
                for yaw in range(N_YAW):
                    for d in depths:
                        for s in STIFFNESSES:
                            actions.append(ScoopAction(float(x), float(y), yaw, float(d), s))
        return actions


@dataclass(frozen=True)
class Policy:
    kind: str  # "ucb" or "greedy"
    gamma: float = 0.0

    @classmethod
    def ucb(cls, gamma: float = 2.0) -> "Policy":
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        return cls("ucb", gamma)

    @classmethod
    def greedy(cls) -> "Policy":
        return cls("greedy", 0.0)

    def scores(self, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
        if self.kind == "greedy":
            return means
        if self.kind == "ucb":
            return means + self.gamma * np.sqrt(variances)
        raise ValueError(f"unknown policy kind {self.kind!r}")

    def label(self) -> str:
        return "greedy" if self.kind == "greedy" else f"ucb({self.gamma:g})"


def select_action(
    model, features: np.ndarray, support, policy: Policy, excluded=frozenset()
) -> tuple[int, float]:
    """Argmax of the policy score over the non-excluded rows of a
    candidate feature matrix; support is (feature rows, rewards).

    Returns (row index, score); ties go to the lowest index.
    """
    keep = np.ones(len(features), dtype=bool)
    keep[list(excluded)] = False
    allowed = np.flatnonzero(keep)
    if not allowed.size:
        raise ValueError("no candidates left after exclusion")
    rows = features if allowed.size == len(features) else features.take(allowed, axis=0)
    means, variances = model.predict_rows(rows, *support)
    scores = policy.scores(means, variances)
    best = int(np.argmax(scores))
    return int(allowed[best]), float(scores[best])


@dataclass
class EpisodeStep:
    index: int
    action: ScoopAction
    reward: float
    score: float

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeStep":
        return cls(d["index"], ScoopAction.from_dict(d["action"]), d["reward"], d["score"])


@dataclass
class EpisodeTrace:
    """Ordered record of one deployment trial."""

    task_id: str
    policy: str
    threshold: float
    max_attempts: int
    steps: list[EpisodeStep] = field(default_factory=list)
    success: bool = False
    fault: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def attempts(self) -> int:
        return len(self.steps)

    def validate(self) -> None:
        if self.success:
            if not self.steps or self.steps[-1].reward < self.threshold:
                raise ValueError("success flag without a final reward above threshold")
            for s in self.steps[:-1]:
                if s.reward >= self.threshold:
                    raise ValueError("non-final step already met the threshold")

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "policy": self.policy,
            "threshold": self.threshold,
            "max_attempts": self.max_attempts,
            "success": self.success,
            "attempts": self.attempts,
            "fault": self.fault,
            "meta": self.meta,
            "steps": [record_dict(s) for s in self.steps],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeTrace":
        return cls(
            task_id=d["task_id"],
            policy=d["policy"],
            threshold=d["threshold"],
            max_attempts=d["max_attempts"],
            steps=[EpisodeStep.from_dict(s) for s in d["steps"]],
            success=d["success"],
            fault=d["fault"],
            meta=d.get("meta", {}),
        )


class ReplayEnvironment:
    """Replays a task's recorded scoops; each record is selectable once
    and pays the reward observed in the dataset."""

    def __init__(self, dataset: TaskDataset):
        self.task_id = dataset.task_id
        self._records = dataset.records
        self._actions = [r.action for r in self._records]
        self._features = feature_rows((r.obs, r.action) for r in self._records)
        self._indices = np.arange(len(self._records))
        self._used: set[int] = set()

    def candidates(self) -> tuple[np.ndarray, list[ScoopAction], np.ndarray]:
        """(feature rows, actions, indices) with one row per record, used
        or not: row k is record indices[k] = k."""
        return self._features, self._actions, self._indices

    def excluded(self) -> set[int]:
        return set(self._used)

    def execute(self, index: int) -> float:
        if index in self._used:
            raise RuntimeError(f"record {index} already replayed")
        self._used.add(index)
        return self._records[index].reward


class LiveEnvironment:
    """Runs scoops on a mutating terrain copy; the observation patches
    are re-rendered from the current terrain at every step.

    The actions, their feasibility and their patch cells are fixed for
    the episode, so they are computed once, here; a start outside the
    terrain raises BoundsError at construction. Only feasible actions
    get a feature row.
    """

    def __init__(self, task: TerrainTask, grid: ActionGrid, seed: int):
        self.task_id = task.task_id
        self.terrain = task.terrain.copy()
        self.actions = grid.enumerate(self.terrain.extent)
        cells = patch_cells(self.terrain, self.actions)
        mask = feasible_mask(self.terrain, self.actions)
        self._indices = np.flatnonzero(mask)
        self._infeasible = set(np.flatnonzero(~mask).tolist())
        self._cells = cells[mask]
        noise = PATCH_CHANNELS * cells[0].size  # uniforms per patch
        self._features = action_rows([self.actions[i] for i in self._indices], noise)
        # each contiguous run of feasible actions as (uniforms to skip
        # before it, its actions, its rows), then the uniforms after the last
        edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
        self._runs, done, row = [], 0, 0
        for start, stop in zip(edges[::2], edges[1::2]):
            rows = slice(row, row + stop - start)
            self._runs.append(((start - done) * noise, self.actions[start:stop], rows))
            done, row = stop, rows.stop
        self._tail = (len(self.actions) - done) * noise
        self.rng = np.random.default_rng(seed)

    def candidates(self) -> tuple[np.ndarray, list[ScoopAction], np.ndarray]:
        """(feature rows, actions, indices): row k is the feasible grid
        action actions[indices[k]], rendered from the current terrain into
        one matrix that the next call reuses. The noise of infeasible
        actions is skipped, never drawn, so each call leaves the generator
        where rendering every grid action would."""
        for skip, actions, rows in self._runs:
            skip_uniforms(self.rng, skip)
            render_patches(self.terrain, actions, self.rng, cells=self._cells[rows], out=self._features[rows])
        skip_uniforms(self.rng, self._tail)
        return self._features, self.actions, self._indices

    def excluded(self) -> set[int]:
        return set(self._infeasible)

    def execute(self, index: int) -> float:
        if index in self._infeasible:
            raise RuntimeError(f"action {index} is kinematically infeasible")
        return execute_scoop(self.terrain, self.actions[index], self.rng)


def run_episode(
    model, env, threshold: float, max_attempts: int, policy: Policy
) -> EpisodeTrace:
    """Observe, select, execute until a reward reaches the threshold.

    An environment's candidates() gives (feature rows, actions, indices),
    row k being actions[indices[k]]; excluded() and execute() speak of
    indices into actions, and so does each trace step's index.
    The support set at attempt n holds exactly the n-1 earlier records.
    Environment faults abort the episode and leave a partial trace.
    """
    trace = EpisodeTrace(
        task_id=env.task_id,
        policy=policy.label(),
        threshold=threshold,
        max_attempts=max_attempts,
    )
    rows: list[np.ndarray] = []
    rewards: list[float] = []
    for _ in range(max_attempts):
        try:
            features, actions, indices = env.candidates()
        except Exception as e:  # noqa: BLE001 - env fault ends the trial
            trace.fault = f"{type(e).__name__}: {e}"
            break
        excluded = env.excluded()
        if len(excluded) >= len(actions):
            break
        support = (np.array(rows).reshape(len(rows), features.shape[1]), rewards)
        blocked = np.zeros(len(actions), dtype=bool)
        blocked[list(excluded)] = True
        excluded_rows = np.flatnonzero(blocked[indices]).tolist()
        row, score = select_action(model, features, support, policy, excluded_rows)
        index = int(indices[row])
        try:
            reward = env.execute(index)
        except Exception as e:  # noqa: BLE001
            trace.fault = f"{type(e).__name__}: {e}"
            break
        trace.steps.append(EpisodeStep(index=index, action=actions[index], reward=reward, score=score))
        if reward >= threshold:
            trace.success = True
            break
        rows.append(features[row].copy())
        rewards.append(reward)
    return trace

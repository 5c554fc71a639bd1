"""Action selection and episodic rollouts.

A policy scores a discrete candidate set with the model posterior
(greedy uses the mean, UCB adds a multiple of the standard deviation)
and picks the argmax, breaking ties toward the lowest candidate index.
Episodes loop observe / select / execute until the reward threshold is
met or the attempt budget runs out. The candidates' feature rows go
through the network once per episode when they cannot change (replay)
and once per step when they are re-rendered (live). One gp.Posterior
of their embeddings grows by the chosen row after each attempt and
re-projects a live step's new embeddings: no step refactorizes it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gp
from .data import TaskDataset
from .model import DEPTH_MAX, DEPTH_MIN, N_YAW, STIFFNESSES, ScoopAction, action_rows, read_fields, record_dict
from .terrain import (
    PATCH_CHANNELS,
    TerrainTask,
    execute_scoop,
    feasible,
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
        if not (np.isfinite(gamma) and gamma >= 0):
            raise ValueError(f"gamma must be finite and nonnegative, not {gamma}")
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


def select_action(model, means, post, policy: Policy, allowed: np.ndarray) -> tuple[int, float]:
    """Argmax of the policy score over the candidate rows in the increasing
    index array allowed, scored by model.condition from their mean-head
    outputs and post, the gp.Posterior of their embeddings (None without a kernel).

    Returns (row index, score); ties go to the lowest index.
    """
    if not allowed.size:
        raise ValueError("no candidates left after exclusion")
    scores = policy.scores(*model.condition(means, post))[allowed]
    best = int(np.argmax(scores))
    return int(allowed[best]), float(scores[best])


@dataclass
class EpisodeStep:
    index: int
    action: ScoopAction
    reward: float
    score: float


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
    def from_dict(cls, d) -> "EpisodeTrace":
        """read_fields of d less its derived attempts key, which must be the
        number of steps; refuses, with ValueError, a trace that fails validate()."""
        trace = read_fields(cls, {k: v for k, v in d.items() if k != "attempts"} if type(d) is dict else d)
        attempts = d.get("attempts")
        if type(attempts) is not int or attempts != trace.attempts:
            raise ValueError(f"attempts {attempts!r} is not the number of steps, {trace.attempts}")
        trace.validate()
        return trace


class ReplayEnvironment:
    """Replays a task's recorded scoops; each record is selectable once
    and pays the reward observed in the dataset."""

    def __init__(self, dataset: TaskDataset):
        self.task_id = dataset.task_id
        self._records = dataset.records
        self._actions = [r.action for r in self._records]
        self._features = dataset.features.view()
        self._features.flags.writeable = False
        self._indices = np.arange(len(self._records))
        self._used: set[int] = set()

    def candidates(self) -> tuple[np.ndarray, list[ScoopAction], np.ndarray]:
        """(feature rows, actions, indices) with one row per record, used
        or not: row k is record indices[k] = k. The rows are a read-only
        view of the dataset's matrix, the same array at every call."""
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
        mask = np.fromiter((feasible(self.terrain, a) for a in self.actions), bool, len(self.actions))
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
    indices into actions, and so does each trace step's index. Each step
    reads excluded() once; a step that it leaves no row ends the episode.
    The rows are embedded once per episode when candidates() hands out
    the same read-only array at every step (replay), else at every step
    (live), where one gp.Posterior re-projects them. It grows by the
    chosen row after each attempt but the last, so at attempt n it holds
    exactly the n-1 earlier records: their rows' embeddings from the
    step that chose them, and their residual rewards.
    Environment faults abort the episode and leave a partial trace.
    """
    trace = EpisodeTrace(
        task_id=env.task_id,
        policy=policy.label(),
        threshold=threshold,
        max_attempts=max_attempts,
    )
    fixed, post = None, None
    for _ in range(max_attempts):
        try:
            features, actions, indices = env.candidates()
        except Exception as e:  # noqa: BLE001 - env fault ends the trial
            trace.fault = f"{type(e).__name__}: {e}"
            break
        blocked = np.zeros(len(actions), dtype=bool)
        blocked[list(env.excluded())] = True
        allowed = np.flatnonzero(~blocked[indices])
        if not allowed.size:
            break
        if features is not fixed:
            means, Z = model.embed_rows(features)
            fixed = None if features.flags.writeable else features
            if post is not None:
                post.project(Z)
            elif Z is not None:
                post = gp.Posterior(model.kp, Z)
        row, score = select_action(model, means, post, policy, allowed)
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
        if post is not None and trace.attempts < max_attempts:
            post.grow(Z[row], model.residuals(means[row], reward))
    return trace

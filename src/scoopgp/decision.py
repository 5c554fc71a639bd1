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

from dataclasses import dataclass

import numpy as np

from . import gp
from .data import TaskDataset
from .model import DEPTH_MAX, DEPTH_MIN, N_YAW, STIFFNESSES, ScoopAction, SharedPatchRows, action_rows, record_dict
from .terrain import (
    PATCH_CHANNELS,
    TerrainTask,
    execute_scoop,
    feasible,
    patch_cells,
    render_patches,
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
    """UCB with exploration weight gamma, or greedy where gamma is None."""

    gamma: float | None

    @classmethod
    def ucb(cls, gamma: float = 2.0) -> "Policy":
        if not (np.isfinite(gamma) and gamma >= 0):
            raise ValueError(f"gamma must be finite and nonnegative, not {gamma}")
        return cls(gamma)

    @classmethod
    def greedy(cls) -> "Policy":
        return cls(None)

    def scores(self, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
        return means if self.gamma is None else means + self.gamma * np.sqrt(variances)

    def label(self) -> str:
        return "greedy" if self.gamma is None else f"ucb({self.gamma:g})"


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
    """Ordered record of one deployment trial, its fields in the order of
    its JSON line; validate() runs at construction."""

    task_id: str
    policy: str
    threshold: float
    max_attempts: int
    success: bool
    attempts: int
    fault: str | None
    meta: dict
    steps: list[EpisodeStep]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """ValueError for a trace no episode writes: a budget below 1, an
        attempt count that is not the number of steps or exceeds the budget,
        a fault on a success, a step with a negative index or an action
        ScoopAction.validate refuses, or a step at the threshold that is not
        the last, or is the last but the success flag says otherwise."""
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts {self.max_attempts} is below 1")
        if not self.attempts == len(self.steps) <= self.max_attempts:
            raise ValueError(f"attempts {self.attempts} must equal the number of steps ({len(self.steps)}) "
                             f"and be at most max_attempts ({self.max_attempts})")
        if self.success and self.fault is not None:
            raise ValueError(f"a successful trace has the fault {self.fault!r}")
        for n, step in enumerate(self.steps):
            try:
                if step.index < 0:
                    raise ValueError(f"index {step.index} is negative")
                step.action.validate()
            except ValueError as err:
                raise ValueError(f"step {n}: {err}") from None
        met = [s.reward >= self.threshold for s in self.steps]
        if any(met[:-1]):
            raise ValueError("non-final step already met the threshold")
        if self.success != any(met[-1:]):
            raise ValueError(f"success flag {self.success} disagrees with the final reward against the threshold")

    def to_dict(self) -> dict:
        return record_dict(self)


class ReplayEnvironment:
    """Replays a task's recorded scoops; each record is selectable once
    and pays the reward observed in the dataset."""

    def __init__(self, dataset: TaskDataset):
        self.task_id = dataset.task_id
        self._actions = dataset.actions
        self._rewards = dataset.rewards
        self._features = dataset.features.view()
        self._features.flags.writeable = False
        self._indices = np.arange(len(self._actions))
        self._used: set[int] = set()

    def candidates(self) -> tuple[np.ndarray, list[ScoopAction], np.ndarray]:
        """(feature rows, actions, indices) with one row per record, used
        or not: row k is record indices[k] = k. The rows are a read-only
        view of the dataset's matrix, the same array at every call."""
        return self._features, self._actions, self._indices

    def excluded(self) -> set[int]:
        return set(self._used)

    def execute(self, index: int) -> float:
        if not 0 <= index < len(self._actions):
            raise IndexError(f"record {index} is not in 0..{len(self._actions) - 1}")
        if index in self._used:
            raise RuntimeError(f"record {index} already replayed")
        self._used.add(index)
        return float(self._rewards[index])


class LiveEnvironment:
    """Runs scoops on a mutating terrain copy; the observation patches
    are re-rendered from the current terrain at every step.

    A patch depends only on an action's (x, y, yaw), its geometry, and so
    does feasibility; the grid lists each geometry's depth and stiffness
    variants contiguously. The actions, the feasible geometries and their
    patch cells are fixed for the episode, so they are computed once,
    here; a start outside the terrain raises BoundsError at construction.
    Only feasible actions get a feature row.
    """

    def __init__(self, task: TerrainTask, grid: ActionGrid, seed: int):
        self.task_id = task.task_id
        self.terrain = task.terrain.copy()
        self.actions = grid.enumerate(self.terrain.extent)
        variants = grid.nd * len(STIFFNESSES)
        heads = self.actions[::variants]  # one action per geometry
        cells = patch_cells(self.terrain, heads)
        mask = np.fromiter((feasible(self.terrain, a) for a in heads), bool, len(heads))
        geometries = np.flatnonzero(mask)
        self._heads = [heads[g] for g in geometries]
        self._cells = cells[mask]
        self._indices = (geometries[:, None] * variants + np.arange(variants)).ravel()
        self._infeasible = set(np.flatnonzero(~np.repeat(mask, variants)).tolist())
        tail = action_rows([self.actions[i] for i in self._indices], 0)
        self._rows = SharedPatchRows(np.empty((len(geometries), PATCH_CHANNELS * cells[0].size)), tail)
        self._patches = self._rows.patches.reshape(len(geometries), PATCH_CHANNELS, *cells.shape[1:])
        self.rng = np.random.default_rng(seed)

    def candidates(self) -> tuple[SharedPatchRows, list[ScoopAction], np.ndarray]:
        """(feature rows, actions, indices): row k is the feasible grid
        action actions[indices[k]], its patch rendered from the current
        terrain into one SharedPatchRows that the next call reuses.

        Noise contract: one observation per geometry per step. Each
        feasible geometry's patch is rendered once, and all its variants'
        rows share it: a call draws exactly PATCH_CHANNELS * PATCH_H *
        PATCH_W uniforms per feasible geometry, in grid order, into the
        rows' patch block, which one render_patches call then turns into
        the patches in place."""
        render_patches(self.terrain, self._heads, self.rng.random(out=self._patches), self._cells)
        return self._rows, self.actions, self._indices

    def excluded(self) -> set[int]:
        return set(self._infeasible)

    def execute(self, index: int) -> float:
        if not 0 <= index < len(self.actions):
            raise IndexError(f"action {index} is not in 0..{len(self.actions) - 1}")
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
    The rows are embedded once per episode only when candidates() hands
    out the same read-only ndarray at every step (replay); anything else
    (live's SharedPatchRows, re-rendered in place) is embedded at every
    step, and one gp.Posterior re-projects it. The posterior grows by the
    chosen row after each attempt but the last, so at attempt n it holds
    exactly the n-1 earlier records: their rows' embeddings from the
    step that chose them, and their residual rewards.
    Environment faults abort the episode and leave a partial trace. The
    trace is built at the end and validated, so a budget below 1 raises ValueError.
    """
    steps, success, fault = [], False, None
    fixed, post = None, None
    for _ in range(max_attempts):
        try:
            features, actions, indices = env.candidates()
        except Exception as e:  # noqa: BLE001 - env fault ends the trial
            fault = f"{type(e).__name__}: {e}"
            break
        blocked = np.zeros(len(actions), dtype=bool)
        blocked[list(env.excluded())] = True
        allowed = np.flatnonzero(~blocked[indices])
        if not allowed.size:
            break
        if features is not fixed:
            means, Z = model.embed_rows(features)
            fixed = features if isinstance(features, np.ndarray) and not features.flags.writeable else None
            if post is not None:
                post.project(Z)
            elif Z is not None:
                post = gp.Posterior(model.kp, Z)
        row, score = select_action(model, means, post, policy, allowed)
        index = int(indices[row])
        try:
            reward = env.execute(index)
        except Exception as e:  # noqa: BLE001
            fault = f"{type(e).__name__}: {e}"
            break
        steps.append(EpisodeStep(index=index, action=actions[index], reward=reward, score=score))
        if reward >= threshold:
            success = True
            break
        if post is not None and len(steps) < max_attempts:
            post.grow(Z[row], model.residuals(means[row], reward))
    return EpisodeTrace(env.task_id, policy.label(), threshold, max_attempts, success, len(steps), fault, {}, steps)

"""Small builders and reference oracles shared across test modules."""
import numpy as np

from scoopgp.data import ScoopRecord, TaskDataset
from scoopgp.model import Observation, ScoopAction
from scoopgp.terrain import HEIGHT_NOISE, PATCH_LEN, BoundsError, _direction


def random_action(rng, extent=(0.9, 0.6)) -> ScoopAction:
    return ScoopAction(
        x=float(rng.uniform(0.1, extent[0] - 0.1)),
        y=float(rng.uniform(0.1, extent[1] - 0.1)),
        yaw=int(rng.integers(8)),
        depth=float(rng.uniform(0.03, 0.08)),
        stiffness=int(rng.integers(2)),
    )


def make_task(
    task_id: str,
    n: int,
    seed: int,
    channels: int = 2,
    h: int = 4,
    w: int = 4,
    reward_shift: float = 0.0,
) -> TaskDataset:
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        patch = rng.uniform(0.0, 1.0, size=(channels, h, w))
        patch[-1] = rng.uniform(0.0, 0.2, size=(h, w))
        records.append(
            ScoopRecord(
                obs=Observation(patch),
                action=random_action(rng),
                reward=float(rng.uniform(0.0, 30.0)) + reward_shift,
            )
        )
    return TaskDataset(task_id, records)


def render_patches_reference(terrain, actions, rng=None, patch_h=16, patch_w=16):
    """One action at a time, drawing each action's noise as it goes: the
    oracle for terrain.render_patches, which must match it byte for byte
    and leave the generator in the same state."""
    n = len(actions)
    nx, ny = terrain.surface.shape
    colors = np.array([m.color for m in terrain.materials])
    textures = np.array([m.texture_scale for m in terrain.materials])
    du = (np.arange(patch_w) + 0.5) / patch_w * PATCH_LEN
    dv = ((np.arange(patch_h) + 0.5) / patch_h - 0.5) * PATCH_LEN
    DU, DV = np.meshgrid(du, dv)  # (H, W)
    out = np.empty((n, 4, patch_h, patch_w))
    for i, act in enumerate(actions):
        if not (0.0 <= act.x <= terrain.extent[0] and 0.0 <= act.y <= terrain.extent[1]):
            raise BoundsError(f"action start ({act.x}, {act.y}) outside extent {terrain.extent}")
        d, p = _direction(act.yaw)
        px = act.x + d[0] * DU + p[0] * DV
        py = act.y + d[1] * DU + p[1] * DV
        ix = np.clip((px / terrain.cell).astype(np.int64), 0, nx - 1)
        iy = np.clip((py / terrain.cell).astype(np.int64), 0, ny - 1)
        mats = terrain.surface[ix, iy]
        out[i, :3] = colors[mats].transpose(2, 0, 1)
        out[i, 3] = terrain.heightfield[ix, iy]
        if rng is not None:
            scale = textures[mats]
            out[i, :3] += rng.uniform(-1.0, 1.0, size=(3, patch_h, patch_w)) * scale
            out[i, 3] += rng.uniform(-HEIGHT_NOISE, HEIGHT_NOISE, size=(patch_h, patch_w))
    np.clip(out[:, :3], 0.0, 1.0, out=out[:, :3])
    return out

"""Synthetic scooping world: materials, terrains, rendering, outcomes.

Materials carry a latent depth-response curve (peak volume, peak depth,
width), a jam penalty on slopes, a preferred controller stiffness, and
an appearance color. Terrains compose materials as Single, Partition,
Mixture, or Layers grids over a heightfield. Within the training pool,
brighter appearance correlates with higher yield; the novel test
materials break that correlation (and one is not scoopable at all),
which is what makes the test tasks out-of-distribution.

Rendering and rewards are pure given an rng, so episodes are
reproducible; execute_scoop additionally mutates the terrain (lowers
the heightfield and may expose a hidden layer).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import ScoopRecord, TaskDataset
from .model import (
    DEPTH_MAX,
    DEPTH_MIN,
    JSON_NUMBERS,
    N_YAW,
    STIFF_HARD,
    STIFF_SOFT,
    STIFFNESSES,
    ScoopAction,
    TrajectoryConstants,
    record_dict,
)

EXTENT = (0.9, 0.6)
CELL = 0.01
MAX_ELEVATION = 0.2
MAX_SLOPE_DEG = 30.0
PATCH_LEN = 0.16
SCOOP_WIDTH = 0.06
FOOT_MARGIN = 0.02
REWARD_NOISE_SIGMA = 0.25
NOISE_FLOOR_STD = 0.4
SLOPE_FREE_DEG = 15.0
STIFF_MISMATCH = 0.85
APPEARANCE_MARGIN = 0.12
HEIGHT_NOISE = 0.002
# three appearance channels, then the height
PATCH_CHANNELS = 4
PATCH_H = PATCH_W = 16  # cells of a patch across and along the scoop direction

COMPOSITIONS = ("Single", "Partition", "Mixture", "Layers")


@dataclass(frozen=True)
class LatentMaterial:
    """Ground-truth material parameters; never exposed to the learner."""

    id: str
    color: tuple[float, float, float]
    texture_scale: float
    peak_volume: float  # cm^3 at the best depth, zero when unscoopable
    peak_depth: float
    depth_width: float
    jam_penalty: float  # cm^3 lost per degree of slope beyond the free range
    stiffness_pref: int

    @classmethod
    def from_dict(cls, d: dict) -> "LatentMaterial":
        """Refuses, with ValueError, parameters that are not finite numbers
        in range and a stiffness preference other than 0 or 1."""
        mat = cls(
            id=d["id"],
            color=tuple(d["color"]),
            texture_scale=d["texture_scale"],
            peak_volume=d["peak_volume"],
            peak_depth=d["peak_depth"],
            depth_width=d["depth_width"],
            jam_penalty=d["jam_penalty"],
            stiffness_pref=d["stiffness_pref"],
        )
        values = (*mat.color, mat.texture_scale, mat.peak_volume, mat.peak_depth,
                  mat.depth_width, mat.jam_penalty)
        if not (
            all(type(v) in JSON_NUMBERS and math.isfinite(v) for v in values)
            and len(mat.color) == 3 and all(0.0 <= c <= 1.0 for c in mat.color)
            and min(mat.texture_scale, mat.peak_volume, mat.jam_penalty) >= 0.0 < mat.depth_width
            and type(mat.stiffness_pref) is int and mat.stiffness_pref in STIFFNESSES
        ):
            raise ValueError(f"material {mat.id!r} has parameters out of range: {d}")
        return mat


@dataclass
class TerrainInstance:
    """Material grids plus a heightfield over a fixed extent."""

    surface: np.ndarray  # (nx, ny) int indices into materials
    heightfield: np.ndarray  # (nx, ny) meters
    materials: list[LatentMaterial]
    composition: str
    seed: int
    hidden: np.ndarray | None = None
    layer_depth: float | None = None
    extent: tuple[float, float] = EXTENT
    cell: float = CELL

    def copy(self) -> "TerrainInstance":
        return replace(
            self,
            surface=self.surface.copy(),
            heightfield=self.heightfield.copy(),
            hidden=None if self.hidden is None else self.hidden.copy(),
        )

    def material_ids(self) -> list[str]:
        ids = {self.materials[i].id for i in np.unique(self.surface)}
        if self.hidden is not None:
            ids |= {self.materials[i].id for i in np.unique(self.hidden)}
        return sorted(ids)

    def to_dict(self) -> dict:
        return {
            "surface": self.surface.astype(int).tolist(),
            "heightfield": np.round(self.heightfield, 6).tolist(),
            "materials": [record_dict(m) for m in self.materials],
            "composition": self.composition,
            "seed": self.seed,
            "hidden": None if self.hidden is None else self.hidden.astype(int).tolist(),
            "layer_depth": self.layer_depth,
            "extent": list(self.extent),
            "cell": self.cell,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TerrainInstance":
        """Refuses, with ValueError, a grid that is not a rectangle of JSON
        numbers (of integers for material indices) and a terrain that
        fails validate()."""
        t = cls(
            surface=_grid(d["surface"], "iu"),
            heightfield=_grid(d["heightfield"], "iuf").astype(np.float64),
            materials=[LatentMaterial.from_dict(m) for m in d["materials"]],
            composition=d["composition"],
            seed=int(d["seed"]),
            hidden=None if d["hidden"] is None else _grid(d["hidden"], "iu"),
            layer_depth=d["layer_depth"],
            extent=tuple(d["extent"]),
            cell=d["cell"],
        )
        t.validate()
        return t

    def validate(self) -> None:
        """ValueError unless every grid has the shape of a positive extent
        at a positive cell size, the heights are finite, the material
        indices are in range, and a hidden layer comes with a positive
        layer depth and only with one."""
        numbers = (*self.extent, self.cell)
        if len(self.extent) != 2 or not all(type(v) in JSON_NUMBERS and 0 < v < math.inf for v in numbers):
            raise ValueError(f"extent {self.extent} and cell {self.cell} must be positive numbers")
        shape = _grid_shape(self.extent, self.cell)
        indices = [self.surface] + ([] if self.hidden is None else [self.hidden])
        if any(grid.shape != shape for grid in [self.heightfield, *indices]):
            raise ValueError(f"grids must have the shape {shape} of extent {self.extent} at cell {self.cell}")
        if not np.isfinite(self.heightfield).all():
            raise ValueError("heightfield contains non-finite values")
        if any(grid.min() < 0 or grid.max() >= len(self.materials) for grid in indices):
            raise ValueError(f"material indices must lie in 0..{len(self.materials) - 1}")
        depth = self.layer_depth
        if (self.hidden is None) != (depth is None) or not (
            depth is None or type(depth) in JSON_NUMBERS and 0 < depth < math.inf
        ):
            raise ValueError(f"hidden and a positive layer_depth must come together, got layer_depth {depth!r}")


def _grid(values, kinds: str) -> np.ndarray:
    """values as a 2-D array whose numpy kind is one of `kinds`; a string,
    a boolean or a fractional index is refused, never converted."""
    grid = np.array(values)
    if grid.ndim != 2 or grid.dtype.kind not in kinds:
        raise ValueError(f"a grid must be a rectangle of JSON numbers of kind {kinds!r}, got {grid.dtype}")
    return grid


@dataclass
class TerrainTask:
    """One terrain plus its identity within a generated suite."""

    task_id: str
    terrain: TerrainInstance
    is_test: bool

    @property
    def composition(self) -> str:
        return self.terrain.composition


class BoundsError(ValueError):
    """Action or patch falls outside the terrain extent."""


# --- material pools -------------------------------------------------------

_TRAIN_SCOOPABILITY = (0.90, 0.75, 0.55, 0.40, 0.22, 0.08)


def _volume_from_scoopability(g: float) -> float:
    return 10.0 + 95.0 * g


def _brightness_from_scoopability(g: float) -> float:
    return 0.25 + 0.55 * g


def _jittered_color(base: float, rng: np.random.Generator) -> tuple[float, float, float]:
    tint = rng.uniform(-0.05, 0.05, size=3)
    return tuple(float(np.clip(base + t, 0.03, 0.97)) for t in tint)


def training_materials(rng: np.random.Generator) -> list[LatentMaterial]:
    """Pool where brightness tracks scoopability (the learnable trend)."""
    mats = []
    for i, g in enumerate(_TRAIN_SCOOPABILITY):
        mats.append(
            LatentMaterial(
                id=f"train-{i}",
                color=_jittered_color(_brightness_from_scoopability(g), rng),
                texture_scale=float(rng.uniform(0.02, 0.05)),
                peak_volume=_volume_from_scoopability(g),
                peak_depth=float(rng.uniform(0.058, 0.070)),
                depth_width=float(rng.uniform(0.020, 0.030)),
                jam_penalty=0.4 + 1.2 * (1.0 - g),
                stiffness_pref=STIFF_HARD if g < 0.5 else STIFF_SOFT,
            )
        )
    return mats


def novel_materials(rng: np.random.Generator) -> list[LatentMaterial]:
    """Test-only pool that breaks the brightness trend; one is unscoopable."""
    return [
        LatentMaterial(
            id="novel-gleam",
            color=(0.74, 0.52, 0.80),  # bright but nearly barren
            texture_scale=float(rng.uniform(0.015, 0.025)),
            peak_volume=6.0,
            peak_depth=0.062,
            depth_width=0.025,
            jam_penalty=1.2,
            stiffness_pref=STIFF_SOFT,
        ),
        LatentMaterial(
            id="novel-dense",
            color=(0.36, 0.60, 0.44),  # drab but high-yield
            texture_scale=float(rng.uniform(0.02, 0.04)),
            peak_volume=85.0,
            peak_depth=0.0675,
            depth_width=0.012,
            jam_penalty=0.8,
            stiffness_pref=STIFF_SOFT,
        ),
        LatentMaterial(
            id="novel-sheet",
            color=(0.70, 0.48, 0.76),  # unscoopable, yet dressed like the lure
            texture_scale=0.015,
            peak_volume=0.0,
            peak_depth=0.060,
            depth_width=0.025,
            jam_penalty=0.0,
            stiffness_pref=STIFF_HARD,
        ),
        LatentMaterial(
            id="novel-fluff",
            color=(0.55, 0.74, 0.60),  # mid-bright, yields less than the trend says
            texture_scale=float(rng.uniform(0.03, 0.05)),
            peak_volume=34.0,
            peak_depth=0.060,
            depth_width=0.026,
            jam_penalty=0.5,
            stiffness_pref=STIFF_SOFT,
        ),
    ]


def appearance_gap(train: list[LatentMaterial], novel: list[LatentMaterial]) -> float:
    gaps = [
        float(np.linalg.norm(np.array(n.color) - np.array(t.color)))
        for n in novel
        for t in train
    ]
    return min(gaps)


# --- terrain construction -------------------------------------------------


def _grid_shape(extent=EXTENT, cell=CELL) -> tuple[int, int]:
    return int(round(extent[0] / cell)), int(round(extent[1] / cell))


def _cell_centers(shape):
    xs = (np.arange(shape[0]) + 0.5) * CELL
    ys = (np.arange(shape[1]) + 0.5) * CELL
    return np.meshgrid(xs, ys, indexing="ij")


def _gen_heightfield(rng: np.random.Generator, shape) -> np.ndarray:
    X, Y = _cell_centers(shape)
    h = np.zeros(shape)
    for _ in range(int(rng.integers(2, 6))):
        cx = rng.uniform(0.0, shape[0] * CELL)
        cy = rng.uniform(0.0, shape[1] * CELL)
        amp = rng.uniform(0.03, 0.14)
        sx = rng.uniform(0.10, 0.30)
        sy = sx * rng.uniform(0.4, 1.0)  # anisotropic bumps double as ridges
        h += amp * np.exp(-(((X - cx) / sx) ** 2 + ((Y - cy) / sy) ** 2) / 2.0)
    h = np.minimum(h, MAX_ELEVATION * 0.95)
    gx, gy = np.gradient(h, CELL)
    max_slope = math.degrees(math.atan(float(np.sqrt(gx**2 + gy**2).max())))
    if max_slope > MAX_SLOPE_DEG:
        h *= math.tan(math.radians(MAX_SLOPE_DEG)) / math.tan(math.radians(max_slope)) * 0.98
    return h


def _partition_grid(shape, mat_indices, rng, cut_range) -> np.ndarray:
    X, Y = _cell_centers(shape)
    grid = np.full(shape, mat_indices[0], dtype=np.int64)
    axis = 0 if rng.random() < 0.5 else 1
    axis_vals = X if axis == 0 else Y
    extent = shape[axis] * CELL
    cuts = np.sort(rng.uniform(*cut_range, size=len(mat_indices) - 1)) * extent
    for k, cut in enumerate(cuts):
        grid[axis_vals > cut] = mat_indices[k + 1]
    return grid


def _mixture_grid(shape, mat_indices, rng) -> np.ndarray:
    X, Y = _cell_centers(shape)
    n_blobs = int(rng.integers(6, 13))
    px = rng.uniform(0, shape[0] * CELL, size=n_blobs)
    py = rng.uniform(0, shape[1] * CELL, size=n_blobs)
    blob_mat = np.array(
        [mat_indices[i % len(mat_indices)] for i in range(n_blobs)], dtype=np.int64
    )
    rng.shuffle(blob_mat)
    d2 = (X[..., None] - px) ** 2 + (Y[..., None] - py) ** 2
    return blob_mat[np.argmin(d2, axis=-1)]


def _make_terrain(
    composition, mat_indices, materials, rng, seed, cut_range=(0.3, 0.7)
) -> TerrainInstance:
    shape = _grid_shape()
    height = _gen_heightfield(rng, shape)
    hidden = None
    layer_depth = None
    if composition == "Single":
        surface = np.full(shape, mat_indices[0], dtype=np.int64)
    elif composition == "Partition":
        surface = _partition_grid(shape, mat_indices, rng, cut_range)
    elif composition == "Mixture":
        surface = _mixture_grid(shape, mat_indices, rng)
    elif composition == "Layers":
        # first index is the visible lid, second the buried material,
        # remaining indices tile the rest of the surface
        surface = _partition_grid(shape, [mat_indices[0], *mat_indices[2:]], rng, cut_range)
        hidden = surface.copy()
        hidden[surface == mat_indices[0]] = mat_indices[1]
        layer_depth = float(rng.uniform(0.045, 0.055))
    else:
        raise ValueError(f"unknown composition {composition!r}")
    return TerrainInstance(
        surface=surface,
        heightfield=height,
        materials=materials,
        composition=composition,
        seed=seed,
        hidden=hidden,
        layer_depth=layer_depth,
    )


def _train_composition_counts(n_train: int) -> tuple[int, int, int]:
    # proportions follow the offline database make-up (roughly 16/49/35)
    n_single = max(1, round(0.16 * n_train))
    n_partition = max(1, round(0.49 * n_train))
    n_mixture = n_train - n_single - n_partition
    if n_mixture < 1:
        n_partition -= 1 - n_mixture
        n_mixture = 1
    return n_single, n_partition, n_mixture


def generate_suite(
    seed: int, n_train_tasks: int = 12, n_test_tasks: int = 4
) -> tuple[list[TerrainTask], list[TerrainTask]]:
    """Training tasks over the training pool; test tasks with novel
    materials (every test task contains at least one) and the Layers
    composition held out for testing."""
    if n_train_tasks < 2 or n_test_tasks < 1:
        raise ValueError("need at least 2 training and 1 test task")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        train_mats = training_materials(rng)
        novel = novel_materials(rng)
        if appearance_gap(train_mats, novel) >= APPEARANCE_MARGIN:
            break
    else:
        raise RuntimeError("could not place novel materials at the appearance margin")
    materials = train_mats + novel
    train_idx = list(range(len(train_mats)))
    novel_idx = list(range(len(train_mats), len(materials)))
    gleam, dense, sheet, fluff = novel_idx

    n_single, n_partition, n_mixture = _train_composition_counts(n_train_tasks)
    train_tasks = []
    mat_cycle = 0
    for composition, count in (
        ("Single", n_single),
        ("Partition", n_partition),
        ("Mixture", n_mixture),
    ):
        for _ in range(count):
            if composition == "Single":
                picks = [train_idx[mat_cycle % len(train_idx)]]
            else:
                k = 2 if composition == "Partition" and rng.random() < 0.6 else 3
                first = train_idx[mat_cycle % len(train_idx)]
                rest = [i for i in train_idx if i != first]
                picks = [first, *rng.choice(rest, size=k - 1, replace=False).tolist()]
            mat_cycle += 1
            tid = f"train-{len(train_tasks):02d}"
            train_tasks.append(
                TerrainTask(
                    task_id=tid,
                    terrain=_make_terrain(
                        composition, picks, materials, rng, seed=int(rng.integers(2**31))
                    ),
                    is_test=False,
                )
            )

    # held-out picks and cut ranges. Deceptive compositions get a majority
    # share of the lure material, so a non-adaptive ranking has plenty of
    # attractive bad actions; the layered tray (a deceptive lid over an
    # unscoopable layer, next to high yield) keeps its yielding region
    # small so random records undersample it and the threshold stays fair
    test_specs = {
        "Single": ([dense], (0.3, 0.7)),
        "Partition": ([gleam, 2], (0.55, 0.65)),
        "Mixture": ([sheet, 2, gleam, fluff], (0.3, 0.7)),
        "Layers": ([gleam, sheet, dense], (0.78, 0.84)),
    }
    test_tasks = []
    for i in range(n_test_tasks):
        tid = f"test-{i:02d}"
        composition = COMPOSITIONS[i % len(COMPOSITIONS)]
        picks, cut_range = test_specs[composition]
        terrain = _make_terrain(
            composition, picks, materials, rng, seed=int(rng.integers(2**31)),
            cut_range=cut_range,
        )
        if composition == "Layers":
            # a deliberately gentle tray: the lid's deception, not the
            # topography, is what the layered test task probes
            terrain.heightfield *= 0.25
        task = TerrainTask(task_id=tid, terrain=terrain, is_test=True)
        if not (set(terrain.material_ids()) & {materials[j].id for j in novel_idx}):
            raise RuntimeError(f"test task {tid} carries no novel material")
        test_tasks.append(task)
    return train_tasks, test_tasks


# --- rendering -------------------------------------------------------------


# per yaw index a = k 2 pi / N_YAW: the drag axis (d_x, d_y) = (cos a, sin a)
# and the side axis (p_x, p_y) = (-sin a, cos a), by math's cos and sin
# (numpy's may differ in the last bit)
_YAW_AXES = np.array([
    (math.cos(a), math.sin(a), -math.sin(a), math.cos(a))
    for a in (k * (2.0 * math.pi / N_YAW) for k in range(N_YAW))
])


def _patch_cells(start, along, across, du, dv, cell, count) -> np.ndarray:
    """(n, H, W) grid cell indices, clipped to [0, count), along one axis
    of every patch: start + along * du + across * dv, the same operations
    element for element as on a full (H, W) mesh, with each product
    formed once per patch column or row."""
    pos = along[:, None, None] * du[None, None, :] + start[:, None, None]
    pos = pos + across[:, None, None] * dv[None, :, None]
    pos /= cell
    cells = pos.astype(np.int64)
    return np.clip(cells, 0, count - 1, out=cells)


def patch_cells(terrain: TerrainInstance, actions: list[ScoopAction]) -> np.ndarray:
    """(n, PATCH_H, PATCH_W) flat indices into the terrain's grids of
    every action's patch cells, oriented along its yaw with the left edge
    at the scoop start. They depend only on the actions and the grid's
    shape, extent and cell size, never on what a scoop changes.

    Raises BoundsError, naming the first such action, when a start lies
    outside the terrain extent.
    """
    nx, ny = terrain.surface.shape
    xs = np.array([a.x for a in actions], dtype=np.float64)
    ys = np.array([a.y for a in actions], dtype=np.float64)
    inside = (0.0 <= xs) & (xs <= terrain.extent[0]) & (0.0 <= ys) & (ys <= terrain.extent[1])
    if not inside.all():
        act = actions[int(np.argmin(inside))]
        raise BoundsError(f"action start ({act.x}, {act.y}) outside extent {terrain.extent}")
    axes = _YAW_AXES[np.array([a.yaw for a in actions], dtype=np.int64)]
    du = (np.arange(PATCH_W) + 0.5) / PATCH_W * PATCH_LEN
    dv = ((np.arange(PATCH_H) + 0.5) / PATCH_H - 0.5) * PATCH_LEN
    flat = _patch_cells(xs, axes[:, 0], axes[:, 2], du, dv, terrain.cell, nx)
    flat *= ny
    flat += _patch_cells(ys, axes[:, 1], axes[:, 3], du, dv, terrain.cell, ny)
    return flat


# actions rendered per pass: a block's noise, materials and cells stay in
# a core's L2 cache between the passes over it
_RENDER_BLOCK = 64


def render_patches(
    terrain: TerrainInstance,
    actions: list[ScoopAction],
    rng: np.random.Generator | None = None,
    *,
    cells: np.ndarray | None = None,
    out: np.ndarray | None = None,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """(n, 4, H, W) patches, H = PATCH_H and W = PATCH_W, oriented along
    each action's yaw, left edge at the scoop start, their noise from
    exactly one of rng and uniforms (all-0.5 uniforms render the patches
    without noise).

    `cells`, when given, is patch_cells(terrain, actions) from earlier;
    only the surface and height gathers and the noise then run here.
    `out`, when given, is an (n, m) array with m >= 4 * H * W, such as a
    feature matrix: the patches are written into its first 4 * H * W
    columns, and the returned array is a view of them.

    Noise contract: with an rng, all noise is one stream of uniforms
    drawn in action-major (n, 4, H, W) order, three texture channels then
    the height channel of each action in turn. That is the same stream,
    and the same values, as drawing each action's (3, H, W) texture
    uniforms and then its (H, W) height uniforms one action at a time, so
    the patches and the generator's final state do not depend on how the
    actions are batched. `uniforms`, given in place of rng, is that
    (n, 4, H, W) array of rng.random draws, drawn beforehand; the patches
    are then those an rng at the start of the same draws renders. An
    action that is not rendered never has its noise drawn: a caller that
    skips actions moves the stream past them with skip_uniforms.
    """
    if (rng is None) == (uniforms is None):
        raise ValueError("pass exactly one of an rng and uniforms")
    n = len(actions)
    if cells is None:
        cells = patch_cells(terrain, actions)
    size = PATCH_CHANNELS * PATCH_H * PATCH_W
    if out is None:
        out = np.empty((n, size))
    patches = out[:, :size].reshape(n, PATCH_CHANNELS, PATCH_H, PATCH_W)
    surface = np.ravel(terrain.surface)
    heights = np.ravel(terrain.heightfield)
    # per material: twice the texture scale, then the three color channels
    materials = np.array([(2.0 * m.texture_scale, *m.color) for m in terrain.materials]).T
    buf = np.empty((min(n, _RENDER_BLOCK), PATCH_CHANNELS, PATCH_H, PATCH_W))
    for start in range(0, n, _RENDER_BLOCK):
        stop = min(start + _RENDER_BLOCK, n)
        flat = cells[start:stop]
        mat = materials.take(surface.take(flat), axis=1)
        block = buf[: stop - start]
        texture, height = block[:, :3], block[:, 3]
        if rng is not None:
            rng.random(out=block)
        else:
            block[...] = uniforms[start:stop]
        # Generator.uniform(low, high) computes low + (high - low) * u.
        # For the texture, (-1 + 2u) * scale: u is a multiple of 2**-53
        # in [0, 1), so -1 + 2u and u - 0.5 are exact, and (u - 0.5) *
        # (2 * scale) rounds the same exact product in one pass less.
        texture -= 0.5
        texture *= mat[0][:, None]
        height *= HEIGHT_NOISE - -HEIGHT_NOISE
        height += -HEIGHT_NOISE
        texture += mat[1:].transpose(1, 0, 2, 3)
        np.clip(texture, 0.0, 1.0, out=patches[start:stop, :3])
        np.add(height, heights.take(flat), out=patches[start:stop, 3])
    return patches


def skip_uniforms(rng: np.random.Generator, count: int) -> None:
    """Leave rng exactly as rng.random(count) leaves it, without drawing.

    Generator.random takes one 64-bit output per double, so this is PCG64's
    O(log count) jump ahead by count outputs. The jump drops the buffered
    32-bit half that integer draws keep; doubles never touch it, so it is
    put back. Raises TypeError for any other bit generator.
    """
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        raise TypeError(f"skip_uniforms needs a PCG64 generator, got {type(bits).__name__}")
    before = bits.state
    bits.advance(count)
    if before["has_uint32"]:
        after = bits.state
        after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
        bits.state = after


# --- scooping ---------------------------------------------------------------


# the swath's four corners, each at (along the drag, across it): from
# the foot margin behind the start to past the drag's end, and the scoop's
# half width plus the foot margin to either side
_HALF_SWATH = SCOOP_WIDTH / 2.0 + FOOT_MARGIN
_DRAG_END = TrajectoryConstants().drag_length_m + FOOT_MARGIN
_CORNER_ALONG = np.array([-FOOT_MARGIN, -FOOT_MARGIN, _DRAG_END, _DRAG_END])
_CORNER_SIDE = np.array([-_HALF_SWATH, _HALF_SWATH, -_HALF_SWATH, _HALF_SWATH])


def feasible_mask(terrain: TerrainInstance, actions: list[ScoopAction]) -> np.ndarray:
    """(n,) bool: whether each action's swath, from the start through the
    drag and widened by the foot margin, stays inside the tray. Each
    corner coordinate is start + d * along + p * side, summed left to
    right, with (d, p) the yaw's drag and side axes."""
    starts = np.array([(a.x, a.y) for a in actions], dtype=np.float64).reshape(-1, 2, 1)
    axes = _YAW_AXES[np.array([a.yaw for a in actions], dtype=np.int64)].reshape(-1, 2, 2, 1)
    corners = starts + axes[:, 0] * _CORNER_ALONG + axes[:, 1] * _CORNER_SIDE  # (n, xy, 4)
    inside = (0.0 <= corners) & (corners <= np.reshape(terrain.extent, (2, 1)))
    return inside.all(axis=(1, 2))


def feasible(terrain: TerrainInstance, act: ScoopAction) -> bool:
    """Swath from start through the drag must stay inside the tray."""
    return bool(feasible_mask(terrain, [act])[0])


def _footprint_cells(terrain: TerrainInstance, act: ScoopAction):
    d_x, d_y, p_x, p_y = _YAW_AXES[act.yaw]
    drag = TrajectoryConstants().drag_length_m
    along = np.linspace(0.0, drag, 7)
    side = np.linspace(-SCOOP_WIDTH / 2, SCOOP_WIDTH / 2, 7)
    A, S = np.meshgrid(along, side)
    px = act.x + d_x * A + p_x * S
    py = act.y + d_y * A + p_y * S
    nx, ny = terrain.surface.shape
    ix = np.clip((px / terrain.cell).astype(np.int64), 0, nx - 1)
    iy = np.clip((py / terrain.cell).astype(np.int64), 0, ny - 1)
    return ix.ravel(), iy.ravel()


def _center_cell(terrain: TerrainInstance, act: ScoopAction):
    d_x, d_y = _YAW_AXES[act.yaw, :2]
    drag = TrajectoryConstants().drag_length_m
    cx = act.x + d_x * drag / 2.0
    cy = act.y + d_y * drag / 2.0
    nx, ny = terrain.surface.shape
    # the value first: max and min then keep a NaN, and int() refuses it
    return (
        int(min(max(cx / terrain.cell, 0), nx - 1)),
        int(min(max(cy / terrain.cell, 0), ny - 1)),
    )


def _local_slope_deg(terrain: TerrainInstance, ix: int, iy: int) -> float:
    h = terrain.heightfield
    nx, ny = h.shape
    x0, x1 = max(ix - 1, 0), min(ix + 1, nx - 1)
    y0, y1 = max(iy - 1, 0), min(iy + 1, ny - 1)
    gx = (h[x1, iy] - h[x0, iy]) / ((x1 - x0) * terrain.cell) if x1 > x0 else 0.0
    gy = (h[ix, y1] - h[ix, y0]) / ((y1 - y0) * terrain.cell) if y1 > y0 else 0.0
    return math.degrees(math.atan(math.hypot(gx, gy)))


def _pierces_layer(terrain: TerrainInstance, act: ScoopAction) -> bool:
    """Whether the scoop goes below the boundary of a hidden layer."""
    return (
        terrain.hidden is not None
        and terrain.layer_depth is not None
        and act.depth > terrain.layer_depth
    )


def effective_material(terrain: TerrainInstance, act: ScoopAction) -> LatentMaterial:
    """Material the scoop actually engages: the hidden layer when the
    scoop pierces it."""
    ix, iy = _center_cell(terrain, act)
    grid = terrain.hidden if _pierces_layer(terrain, act) else terrain.surface
    return terrain.materials[int(grid[ix, iy])]


def base_reward(terrain: TerrainInstance, act: ScoopAction) -> float:
    """Noise-free scoop volume in cm^3."""
    mat = effective_material(terrain, act)
    depth_factor = math.exp(-(((act.depth - mat.peak_depth) / mat.depth_width) ** 2))
    stiff = 1.0 if act.stiffness == mat.stiffness_pref else STIFF_MISMATCH
    ix, iy = _center_cell(terrain, act)
    slope = _local_slope_deg(terrain, ix, iy)
    raw = mat.peak_volume * depth_factor * stiff
    raw -= mat.jam_penalty * max(0.0, slope - SLOPE_FREE_DEG)
    return max(raw, 0.0)


def sample_reward(
    terrain: TerrainInstance, act: ScoopAction, rng: np.random.Generator
) -> float:
    """base_reward scaled by mean-one lognormal noise, plus a small
    measurement floor so unscoopable material still reads near zero."""
    noise = math.exp(
        REWARD_NOISE_SIGMA * rng.standard_normal() - REWARD_NOISE_SIGMA**2 / 2.0
    )
    floor = abs(rng.normal(0.0, NOISE_FLOOR_STD))
    return base_reward(terrain, act) * noise + floor


def execute_scoop(
    terrain: TerrainInstance, act: ScoopAction, rng: np.random.Generator
) -> float:
    """Sample a reward, then mutate the terrain: the footprint sinks and
    a pierced layer becomes exposed surface."""
    reward = sample_reward(terrain, act, rng)
    ix, iy = _footprint_cells(terrain, act)
    terrain.heightfield[ix, iy] = np.maximum(
        terrain.heightfield[ix, iy] - 0.6 * act.depth, 0.0
    )
    if _pierces_layer(terrain, act):
        terrain.surface[ix, iy] = terrain.hidden[ix, iy]
    return reward


def compute_threshold(rewards) -> float:
    """Success threshold: the 5th largest reward among the records."""
    seq = list(rewards)
    if seq and isinstance(seq[0], ScoopRecord):
        seq = [r.reward for r in seq]
    values = np.asarray(seq, dtype=np.float64)
    if values.size < 5:
        raise ValueError(f"need at least 5 records, got {values.size}")
    return float(np.sort(values)[-5])


def sample_random_action(
    terrain: TerrainInstance, rng: np.random.Generator
) -> ScoopAction:
    return ScoopAction(
        x=float(rng.uniform(0.0, terrain.extent[0])),
        y=float(rng.uniform(0.0, terrain.extent[1])),
        yaw=int(rng.integers(N_YAW)),
        depth=float(rng.uniform(DEPTH_MIN, DEPTH_MAX)),
        stiffness=int(rng.integers(2)),
    )


def collect_offline(task: TerrainTask, n_samples: int = 100, seed: int = 0) -> TaskDataset:
    """Uniformly random feasible scoops on the pristine terrain.

    The terrain is treated as reset between scoops, so records are
    i.i.d.; infeasible draws are discarded and redrawn. Each sample
    draws, in this order, its action, then (when feasible) its patch
    noise and its reward. The noise goes into one (n, 4, H, W) array of
    uniforms, and one render_patches pass over all the records turns it
    into their patches: the same patches as rendering each record as it
    is drawn.
    """
    rng = np.random.default_rng(seed)
    terrain = task.terrain
    actions, rewards = [], []
    uniforms = np.empty((n_samples, PATCH_CHANNELS, PATCH_H, PATCH_W))
    while len(actions) < n_samples:
        act = sample_random_action(terrain, rng)
        if not feasible(terrain, act):
            continue
        rng.random(out=uniforms[len(actions)])
        rewards.append(sample_reward(terrain, act, rng))
        actions.append(act)
    patches = render_patches(terrain, actions, uniforms=uniforms)
    records = [
        ScoopRecord(obs=patch, action=act, reward=reward)
        for patch, act, reward in zip(patches, actions, rewards)
    ]
    material_ids = terrain.material_ids()
    return TaskDataset(
        task_id=task.task_id,
        records=records,
        constants=TrajectoryConstants(),
        ground_truth={
            "composition": task.composition,
            "materials": material_ids,
            "material_table": {
                m.id: record_dict(m) for m in terrain.materials if m.id in material_ids
            },
            "layer_depth": terrain.layer_depth,
            "collect_seed": seed,
        },
    )

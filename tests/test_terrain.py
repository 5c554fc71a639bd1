import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    LiveEnvironmentReference,
    UniformStream,
    base_reward_reference,
    collect_offline_reference,
    direction,
    feasible_by_mask,
    feasible_mask,
    feasible_reference,
    render_patch,
    render_patches_reference,
    sample_random_action_reference,
    shared_rows_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from scoopgp import decision, terrain
from scoopgp.data import save_task_dataset
from scoopgp.decision import ActionGrid, LiveEnvironment
from scoopgp.model import (
    DEPTH_MAX,
    DEPTH_MIN,
    STIFF_HARD,
    STIFF_SOFT,
    Architecture,
    ScoopAction,
    TrajectoryConstants,
    action_rows,
    feature_matrix,
)


@pytest.fixture(scope="module")
def suite():
    return terrain.generate_suite(seed=0)


def flat_terrain(mat_indices, materials, composition="Single", hidden=None, layer_depth=None):
    shape = terrain._grid_shape()
    surface = np.full(shape, mat_indices[0], dtype=np.int64)
    return terrain.TerrainInstance(
        surface=surface,
        heightfield=np.zeros(shape),
        materials=materials,
        composition=composition,
        seed=0,
        hidden=hidden,
        layer_depth=layer_depth,
    )


def test_suite_counts_and_compositions(suite):
    train, test = suite
    assert len(train) == 12 and len(test) == 4
    comps = [t.composition for t in train]
    assert comps.count("Single") == 2
    assert comps.count("Partition") == 6
    assert comps.count("Mixture") == 4
    assert sorted(t.composition for t in test) == sorted(
        ["Single", "Partition", "Mixture", "Layers"]
    )


def test_every_test_task_has_a_novel_material(suite):
    _, test = suite
    for task in test:
        assert any(m.startswith("novel-") for m in task.terrain.material_ids())


def test_train_tasks_use_only_training_materials(suite):
    train, _ = suite
    for task in train:
        assert all(m.startswith("train-") for m in task.terrain.material_ids())


def test_novel_pool_has_unscoopable_and_appearance_margin(suite):
    _, test = suite
    materials = test[0].terrain.materials
    train_mats = [m for m in materials if m.id.startswith("train-")]
    novel = [m for m in materials if m.id.startswith("novel-")]
    assert any(not m.peak_volume > 0 for m in novel)
    assert terrain.appearance_gap(train_mats, novel) >= terrain.APPEARANCE_MARGIN


def test_heightfield_limits(suite):
    train, test = suite
    for task in train + test:
        h = task.terrain.heightfield
        assert h.max() <= terrain.MAX_ELEVATION
        gx, gy = np.gradient(h, terrain.CELL)
        slope = np.degrees(np.arctan(np.sqrt(gx**2 + gy**2)))
        assert slope.max() <= terrain.MAX_SLOPE_DEG + 1e-6


def test_render_uniform_flat_terrain_is_constant():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    t = flat_terrain([2], mats)
    patch = render_patch(t, ScoopAction(0.4, 0.3, 3, 0.05, 0))
    for c in range(3):
        assert np.all(patch[c] == patch[c, 0, 0])
        assert patch[c, 0, 0] == pytest.approx(mats[2].color[c])
    assert np.all(patch[3] == 0.0)


def test_render_never_shows_hidden_layer():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    shape = terrain._grid_shape()
    hidden = np.full(shape, 5, dtype=np.int64)
    t = flat_terrain([0], mats, composition="Layers", hidden=hidden, layer_depth=0.05)
    patch = render_patch(t, ScoopAction(0.4, 0.3, 0, 0.07, 0))
    for c in range(3):
        assert np.all(patch[c] == pytest.approx(mats[0].color[c]))


def test_render_rotation_equivariance():
    rng = np.random.default_rng(4)
    mats = terrain.training_materials(rng)
    n = 60
    surface = rng.integers(0, len(mats), size=(n, n))
    height = rng.uniform(0, 0.1, size=(n, n))
    t1 = terrain.TerrainInstance(
        surface=surface, heightfield=height, materials=mats,
        composition="Mixture", seed=0, extent=(0.6, 0.6),
    )
    t2 = terrain.TerrainInstance(
        surface=np.rot90(surface).copy(), heightfield=np.rot90(height).copy(),
        materials=mats, composition="Mixture", seed=0, extent=(0.6, 0.6),
    )
    # rotate the start about the tray center along with the terrain
    x, y, c = 0.2, 0.3, 0.3
    act1 = ScoopAction(x, y, 0, 0.05, 0)
    act2 = ScoopAction(c - (y - c), c + (x - c), 2, 0.05, 0)
    p1 = render_patch(t1, act1)
    p2 = render_patch(t2, act2)
    assert np.array_equal(p1, p2)


def test_render_determinism_with_seeded_noise():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    t = flat_terrain([1], mats)
    act = ScoopAction(0.4, 0.3, 1, 0.05, 0)
    a = render_patch(t, act, np.random.default_rng(11))
    b = render_patch(t, act, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert a[:3].min() >= 0.0 and a[:3].max() <= 1.0


def test_render_out_of_extent_raises():
    rng = np.random.default_rng(0)
    t = flat_terrain([0], terrain.training_materials(rng))
    with pytest.raises(terrain.BoundsError):
        render_patch(t, ScoopAction(1.5, 0.3, 0, 0.05, 0))


def reference_feature_rows(ref, actions, start, stop):
    """Rows start:stop of the reference patches stacked by feature_matrix."""
    pairs = [(p, a) for p, a in zip(ref[start:stop], actions[start:stop])]
    return feature_matrix(Architecture(), pairs)


def assert_render_matches_reference(t, actions, seed):
    """Same bytes as the per-action oracle, whether the uniforms are
    drawn into a new array or, as a live step draws them, into a
    preallocated patch block that is rendered in place from precomputed
    cells; and each time the generators end in the same state. Seed None
    renders from all-0.5 uniforms, which must give the oracle's
    noise-free patches."""
    rngs = []

    def uniforms(out):
        if seed is None:
            out[...] = 0.5
            return out
        rngs.append(np.random.default_rng(seed))
        return rngs[-1].random(out=out)

    rng_ref = None if seed is None else np.random.default_rng(seed)
    ref = render_patches_reference(t, actions, rng_ref)
    shape = (len(actions), 4, terrain.PATCH_H, terrain.PATCH_W)
    new = terrain.render_patches(t, actions, uniforms(np.empty(shape)))
    assert new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()
    del new
    block = np.empty((len(actions), Architecture().patch_size))
    view = terrain.render_patches(t, actions, uniforms(block.reshape(shape)), terrain.patch_cells(t, actions))
    assert view.shape == ref.shape and np.shares_memory(view, block)
    assert block.tobytes() == ref.tobytes()
    for rng in rngs:
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("seed", [None, 5], ids=["noise-free", "seeded"])
def test_render_patches_matches_per_action_reference(suite, seed):
    """On every composition, Layers included; noise-free means from
    all-0.5 uniforms."""
    _, test = suite
    assert sorted(task.composition for task in test) == sorted(terrain.COMPOSITIONS)
    for task in test:
        t = task.terrain
        assert_render_matches_reference(t, ActionGrid().enumerate(t.extent), seed)


def test_render_patches_matches_reference_on_paper_grid(suite):
    t = suite[1][0].terrain
    assert_render_matches_reference(t, ActionGrid.paper_scale().enumerate(t.extent), 5)


def test_render_patches_matches_reference_after_a_scoop(suite):
    _, test = suite
    layers = next(task for task in test if task.composition == "Layers")
    t = layers.terrain.copy()
    surface_before = t.surface.copy()
    terrain.execute_scoop(t, ScoopAction(0.12, 0.3, 0, 0.075, 0), np.random.default_rng(2))
    assert not np.array_equal(t.surface, surface_before), "the scoop should expose the layer"
    actions = ActionGrid().enumerate(t.extent)
    assert_render_matches_reference(t, actions, None)
    assert_render_matches_reference(t, actions, 9)


@pytest.mark.parametrize("count", [1, 37, 1001])
def test_render_patches_matches_reference_on_partial_blocks(suite, count):
    """Action counts that are no multiple of a render block."""
    t = suite[1][2].terrain
    actions = ActionGrid().enumerate(t.extent)[::-1][:count]
    assert_render_matches_reference(t, actions, 7)


def test_render_patches_matches_reference_where_the_clip_binds():
    """A material whose texture noise reaches past both ends of [0, 1]:
    the texture channels are clipped in place, as the oracle clips them."""
    mats = terrain.training_materials(np.random.default_rng(0))
    mats[0] = replace(mats[0], color=(0.99, 0.01, 0.5), texture_scale=0.3)
    t = flat_terrain([0], mats)
    actions = ActionGrid().enumerate(t.extent)[:100]
    assert_render_matches_reference(t, actions, 5)
    patches = terrain.render_patches(t, actions, np.random.default_rng(5).random((100, 4, 16, 16)))
    assert patches[:, 0].max() == 1.0 and patches[:, 1].min() == 0.0


def test_live_environment_rows_match_reference_across_scoops(suite):
    """Each step's render buffer, reused from step to step, holds the
    oracle's patch of every feasible geometry in grid order, and the rows
    it stands for equal the oracle's rows of the feasible actions, stacked
    by feature_matrix, byte for byte, as the terrain changes under the
    scoops; the two generators end every render and every scoop in the
    same state."""
    task = next(task for task in suite[1] if task.composition == "Layers")
    env = LiveEnvironment(task, ActionGrid(), seed=8)
    ref = LiveEnvironmentReference(task, ActionGrid(), 8)
    actions = ActionGrid().enumerate(task.terrain.extent)
    feasible = [i for i in range(len(actions)) if i not in ref.excluded()]
    assert env.excluded() == ref.excluded()
    kept = [actions[i] for i in feasible]
    size, variants = 4 * terrain.PATCH_H * terrain.PATCH_W, ActionGrid().nd * 2
    held = []
    for index in (feasible[5], feasible[400], feasible[900]):
        rows, acts, indices = env.candidates()
        held.append(rows)
        assert acts == actions and indices.tolist() == feasible
        patches = ref.candidates()[0][feasible, :size]
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
        assert rows.patches.tobytes() == patches[::variants].tobytes()
        patches = patches.reshape(len(kept), 4, terrain.PATCH_H, terrain.PATCH_W)
        assert shared_rows_matrix(rows).tobytes() == reference_feature_rows(patches, kept, 0, len(kept)).tobytes()
        assert env.execute(index) == ref.execute(index)
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
    assert held[0] is held[1] is held[2], "each step re-renders into the same rows"
    assert env.rng.random() == ref.rng.random()


@pytest.mark.parametrize(
    "grid, rows, geometries", [(ActionGrid(), 1196, 299), (ActionGrid.paper_scale(), 10168, 1271)],
    ids=["desk", "paper"],
)
def test_live_environment_renders_each_geometry_once(suite, grid, rows, geometries):
    """One row per feasible action, in grid order, and one rendered patch
    per feasible geometry, which the rows of its depth and stiffness
    variants share: each row's tail is its own action's. At every step
    the generator advances by one patch's uniforms per feasible geometry,
    then by the scoop's reward draws."""
    task = suite[1][0]
    env = LiveEnvironment(task, grid, seed=0)
    mask = feasible_mask(task.terrain, env.actions)
    t, rng = task.terrain.copy(), np.random.default_rng(0)
    size = 4 * terrain.PATCH_H * terrain.PATCH_W
    for _ in range(2):
        X, actions, indices = env.candidates()
        assert indices.tolist() == np.flatnonzero(mask).tolist()
        assert X.shape == (rows, size + 2) and env.excluded() == set(np.flatnonzero(~mask).tolist())
        assert X.patches.shape == (geometries, size) and X.tail.shape == (rows, 2)
        assert X.tail.tobytes() == action_rows([actions[i] for i in indices], 0).tobytes()
        assert len({patch.tobytes() for patch in X.patches}) == geometries
        rng.random(geometries * size)
        assert env.rng.bit_generator.state == rng.bit_generator.state
        index = int(indices[len(indices) // 2])
        assert env.execute(index) == terrain.execute_scoop(t, actions[index], rng)
        assert env.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("grid", [ActionGrid(), ActionGrid.paper_scale()], ids=["desk", "paper"])
def test_feasible_mask_matches_per_action_feasible(suite, grid):
    for task in suite[0][:2] + suite[1]:
        t = task.terrain
        actions = grid.enumerate(t.extent) + [ScoopAction(0.0, 0.3, 4, 0.05, 0)]
        mask = feasible_mask(t, actions)
        assert mask.tolist() == [feasible_reference(t, a) for a in actions]
        assert mask.tolist() == [terrain.feasible(t, a) for a in actions]
        assert 0 < mask.sum() < len(actions)


def test_feasible_mask_matches_reference_on_random_and_boundary_actions():
    """Random starts, and starts a few ulps either side of putting a swath
    corner exactly on a tray wall, where only the same rounding, summed
    in the same order, gives the same verdict."""
    rng = np.random.default_rng(12)
    t = flat_terrain([0], terrain.training_materials(rng))
    actions = [terrain.sample_random_action(t, rng) for _ in range(2000)]
    for yaw in range(8):
        (dx, dy), (px, py) = direction(yaw)
        for along in (-terrain.FOOT_MARGIN, terrain._DRAG_END):
            for side in (-terrain._HALF_SWATH, terrain._HALF_SWATH):
                for wall_x in (0.0, t.extent[0]):
                    x0 = wall_x - (dx * along + px * side)
                    xs = x0 + np.spacing(max(abs(x0), 1e-3)) * np.arange(-4, 5)
                    actions += [ScoopAction(float(x), 0.3, yaw, 0.05, 0) for x in xs]
                for wall_y in (0.0, t.extent[1]):
                    y0 = wall_y - (dy * along + py * side)
                    ys = y0 + np.spacing(max(abs(y0), 1e-3)) * np.arange(-4, 5)
                    actions += [ScoopAction(0.45, float(y), yaw, 0.05, 0) for y in ys]
    mask = feasible_mask(t, actions)
    assert mask.tolist() == [feasible_reference(t, a) for a in actions]
    assert mask.tolist() == [terrain.feasible(t, a) for a in actions]
    assert 0 < mask[2000:].sum() < len(actions) - 2000


@pytest.mark.parametrize("extent", [terrain.EXTENT, (0.6, 0.6), (1.37, 0.05)], ids=str)
def test_sample_random_action_matches_uniform_draws(extent):
    """The same actions as drawing each float by rng.uniform, and the same
    generator state after each, over many seeds, whether or not an integer
    draw has left half a 64-bit output buffered."""
    t = terrain.TerrainInstance(np.zeros((1, 1), np.int64), np.zeros((1, 1)), [], "Single", 0, extent=extent)
    for seed in range(200):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            assert terrain.sample_random_action(t, new) == sample_random_action_reference(t, ref)
        assert new.bit_generator.state == ref.bit_generator.state, seed


def test_base_reward_matches_reference(suite):
    """The same float as the reward that finds the centre cell twice and
    reads numpy scalars, on every composition, the layered tray's pierced
    and unpierced depths included, and on starts clamped to the tray."""
    train, test = suite
    rng = np.random.default_rng(21)
    for task in train[:4] + test:
        t = task.terrain
        actions = [sample_random_action_reference(t, rng) for _ in range(500)]
        actions += [ScoopAction(x, y, yaw, depth, 1)
                    for x in (0.0, 0.004, 0.45, t.extent[0]) for y in (0.0, 0.3, t.extent[1])
                    for yaw in range(8) for depth in (0.03, 0.05, 0.0501, 0.08)]
        for act in actions:
            assert terrain.base_reward(t, act) == base_reward_reference(t, act), (task.task_id, act)


_EDGE_TERRAIN = flat_terrain([0], terrain.training_materials(np.random.default_rng(5)))
_EDGE_TERRAIN.heightfield[:] = np.random.default_rng(6).uniform(0.0, 0.05, _EDGE_TERRAIN.heightfield.shape)


@settings(max_examples=300, deadline=None)
@given(
    yaw=st.integers(0, 7),
    wall_x=st.sampled_from([0.0, 1.0, None]),
    wall_y=st.sampled_from([0.0, 1.0, None]),
    corner=st.integers(0, 3),
    u=st.floats(0.0, 1.0),
    depth=st.sampled_from([DEPTH_MIN, 0.05, DEPTH_MAX]),
    on_corner=st.booleans(),
    ulps=st.integers(-4, 4),
)
def test_feasible_and_reward_match_oracles_on_edges_and_corners(yaw, wall_x, wall_y, corner, u, depth, on_corner,
                                                                ulps):
    """Starts exactly on the tray's edges and corners, or placed within a
    few ulps of putting a swath corner on a wall, where a verdict turns on
    the last bit: feasible is feasible_mask's, and base_reward the oracle's."""
    t = _EDGE_TERRAIN
    w, h = t.extent
    x, y = (u * w if wall_x is None else wall_x * w), (u * h if wall_y is None else wall_y * h)
    if on_corner:
        along, side = terrain._CORNERS[corner]
        (dx, dy), (px, py) = direction(yaw)
        x = x - (dx * along + px * side) + ulps * np.spacing(max(abs(x), 1e-3))
        y = y - (dy * along + py * side) + ulps * np.spacing(max(abs(y), 1e-3))
    act = ScoopAction(float(x), float(y), yaw, depth, yaw % 2)
    assert terrain.feasible(t, act) == feasible_by_mask(t, act)
    assert terrain.base_reward(t, act) == base_reward_reference(t, act)


def test_render_patches_from_uniforms_matches_rng(suite):
    t = suite[1][3].terrain
    actions = ActionGrid().enumerate(t.extent)[::7]
    rng = np.random.default_rng(3)
    uniforms = np.random.default_rng(3).random((len(actions), 4, 16, 16))
    ref = render_patches_reference(t, actions, rng)
    assert render_patches_reference(t, actions, UniformStream(uniforms)).tobytes() == ref.tobytes()
    assert terrain.render_patches(t, actions, uniforms).tobytes() == ref.tobytes()


@pytest.mark.parametrize("value", [
    0.0, -0.0, 0.4, 1.0 - 1e-16, 58.999999, 59.0, 59.5, 60.0, 89.2, 89.999, 90.0, 1e300,
    -1e-300, -0.999, -1.0, -57.3, -1e300, math.inf, -math.inf,
])
def test_center_cell_clamps_like_np_clip(value):
    """The centre cell's Python clamp gives np.clip's integers, and a NaN
    still raises."""
    t = flat_terrain([0], terrain.training_materials(np.random.default_rng(0)))
    nx, ny = t.surface.shape
    # yaw 0 drags along +x, so the centre sits half a drag past the start
    drag = TrajectoryConstants().drag_length_m
    act = ScoopAction(value * t.cell - drag / 2.0, value * t.cell, 0, 0.05, 0)
    d = direction(0)[0]
    cx, cy = act.x + d[0] * drag / 2.0, act.y + d[1] * drag / 2.0
    expected = (int(np.clip(cx / t.cell, 0, nx - 1)), int(np.clip(cy / t.cell, 0, ny - 1)))
    assert terrain._center_cell(t, act) == expected


def test_center_cell_refuses_nan():
    t = flat_terrain([0], terrain.training_materials(np.random.default_rng(0)))
    with pytest.raises(ValueError):
        terrain._center_cell(t, ScoopAction(math.nan, 0.3, 0, 0.05, 0))
    with pytest.raises(ValueError):
        terrain._center_cell(t, ScoopAction(0.3, math.nan, 0, 0.05, 0))


def test_live_environment_checks_bounds_at_construction(suite, monkeypatch):
    task = suite[1][0]
    monkeypatch.setattr(decision, "GRID_MARGIN", -0.1)
    with pytest.raises(terrain.BoundsError):
        LiveEnvironment(task, ActionGrid(), seed=0)


def test_render_patches_names_the_one_action_out_of_extent(suite):
    t = suite[1][0].terrain
    actions = ActionGrid().enumerate(t.extent)
    stray = ScoopAction(0.45, 0.61, 3, 0.05, 1)
    actions.insert(700, stray)
    with pytest.raises(terrain.BoundsError, match=r"action start \(0\.45, 0\.61\) outside"):
        terrain.render_patches(t, actions, np.random.default_rng(0).random((len(actions), 4, 16, 16)))


def test_layers_reward_switches_at_boundary():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    shape = terrain._grid_shape()
    hidden = np.full(shape, 5, dtype=np.int64)  # weakest material below
    t = flat_terrain([0], mats, composition="Layers", hidden=hidden, layer_depth=0.05)
    shallow = ScoopAction(0.4, 0.3, 0, 0.045, mats[0].stiffness_pref)
    deep = ScoopAction(0.4, 0.3, 0, 0.055, mats[5].stiffness_pref)
    r_shallow = terrain.base_reward(t, shallow)
    r_deep = terrain.base_reward(t, deep)
    exp_shallow = mats[0].peak_volume * math.exp(
        -(((0.045 - mats[0].peak_depth) / mats[0].depth_width) ** 2)
    )
    exp_deep = mats[5].peak_volume * math.exp(
        -(((0.055 - mats[5].peak_depth) / mats[5].depth_width) ** 2)
    )
    assert r_shallow == pytest.approx(exp_shallow)
    assert r_deep == pytest.approx(exp_deep)
    assert r_shallow > r_deep


def test_unscoopable_reward_is_noise_floor():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng) + terrain.novel_materials(rng)
    sheet = next(i for i, m in enumerate(mats) if not m.peak_volume > 0)
    t = flat_terrain([sheet], mats)
    rewards = [
        terrain.sample_reward(t, ScoopAction(0.4, 0.3, 0, 0.06, 1), np.random.default_rng(s))
        for s in range(20)
    ]
    assert max(rewards) < 4.0 * terrain.NOISE_FLOOR_STD


def test_reward_determinism():
    rng = np.random.default_rng(0)
    t = flat_terrain([0], terrain.training_materials(rng))
    act = ScoopAction(0.4, 0.3, 2, 0.06, 0)
    r1 = terrain.sample_reward(t, act, np.random.default_rng(5))
    r2 = terrain.sample_reward(t, act, np.random.default_rng(5))
    assert r1 == r2


def test_stiffness_preference_matters():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    t = flat_terrain([0], mats)
    good = ScoopAction(0.4, 0.3, 0, mats[0].peak_depth, mats[0].stiffness_pref)
    bad = ScoopAction(0.4, 0.3, 0, mats[0].peak_depth, 1 - mats[0].stiffness_pref)
    assert terrain.base_reward(t, good) == pytest.approx(
        terrain.base_reward(t, bad) / terrain.STIFF_MISMATCH
    )


def test_execute_scoop_mutates_heightfield_and_exposes_layer():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    shape = terrain._grid_shape()
    hidden = np.full(shape, 4, dtype=np.int64)
    t = flat_terrain([0], mats, composition="Layers", hidden=hidden, layer_depth=0.05)
    t.heightfield += 0.1
    act = ScoopAction(0.4, 0.3, 0, 0.07, 0)
    terrain.execute_scoop(t, act, np.random.default_rng(0))
    assert t.heightfield.min() < 0.1
    assert np.any(t.surface == 4)
    # shallow scoops on the crater now engage the exposed material
    ix, iy = terrain._center_cell(t, act)
    assert t.surface[ix, iy] == 4


def test_compute_threshold_cases():
    assert terrain.compute_threshold(list(range(1, 101))) == 96
    assert terrain.compute_threshold([7.0] * 30) == 7.0
    assert terrain.compute_threshold([5, 5, 5, 5, 5, 4, 3, 2]) == 5
    with pytest.raises(ValueError):
        terrain.compute_threshold([1, 2, 3, 4])


def test_collect_offline_protocol(suite):
    train, _ = suite
    ds = terrain.collect_offline(train[0], n_samples=100, seed=3)
    assert len(ds) == 100
    depths = np.array([a.depth for a in ds.actions])
    assert depths.min() >= 0.03 and depths.max() <= 0.08
    yaws = np.array([a.yaw for a in ds.actions])
    counts = np.bincount(yaws, minlength=8)
    assert counts.min() >= 3 and counts.max() <= 30  # loose uniformity check
    stiff = {a.stiffness for a in ds.actions}
    assert stiff == {STIFF_SOFT, STIFF_HARD}
    for a in ds.actions:
        assert terrain.feasible(train[0].terrain, a)
    assert ds.ground_truth is not None and "material_table" in ds.ground_truth


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_collect_offline_writes_the_reference_bytes(seed, tmp_path):
    """One batched render per task, with the collector's own draws,
    feasibility and rewards, saves the datasets that rendering each record
    as it is drawn with the oracles' saves, byte for byte, on every task."""
    train, test = terrain.generate_suite(seed)
    assert "Layers" in {task.composition for task in test}
    for index, task in enumerate(train + test):
        ds_seed = seed * 100_003 + index
        save_task_dataset(terrain.collect_offline(task, 100, ds_seed), tmp_path / "new.json")
        save_task_dataset(collect_offline_reference(task, 100, ds_seed), tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes(), task.task_id


def test_collect_offline_deterministic(suite):
    train, _ = suite
    a = terrain.collect_offline(train[1], 20, seed=9)
    b = terrain.collect_offline(train[1], 20, seed=9)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.patches[7], b.patches[7])


def test_border_actions_are_infeasible(suite):
    train, _ = suite
    t = train[0].terrain
    assert not terrain.feasible(t, ScoopAction(0.0, 0.3, 4, 0.05, 0))
    assert terrain.feasible(t, ScoopAction(0.45, 0.3, 0, 0.05, 0))


def test_suite_reward_scale(suite):
    train, test = suite
    rewards = []
    for i, task in enumerate(train):
        rewards.extend(terrain.collect_offline(task, 100, seed=100 + i).rewards)
    rewards = np.array(rewards)
    assert 20.0 < rewards.mean() < 45.0
    assert rewards.max() <= 260.8

import math

import numpy as np
import pytest

from helpers import render_patches_reference

from scoopgp import terrain
from scoopgp.decision import ActionGrid, LiveEnvironment
from scoopgp.model import (
    STIFF_HARD,
    STIFF_SOFT,
    Architecture,
    Observation,
    ScoopAction,
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
    assert any(not m.scoopable for m in novel)
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
    obs = terrain.render_patch(t, ScoopAction(0.4, 0.3, 3, 0.05, 0))
    for c in range(3):
        assert np.all(obs.patch[c] == obs.patch[c, 0, 0])
        assert obs.patch[c, 0, 0] == pytest.approx(mats[2].color[c])
    assert np.all(obs.patch[3] == 0.0)


def test_render_never_shows_hidden_layer():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    shape = terrain._grid_shape()
    hidden = np.full(shape, 5, dtype=np.int64)
    t = flat_terrain([0], mats, composition="Layers", hidden=hidden, layer_depth=0.05)
    obs = terrain.render_patch(t, ScoopAction(0.4, 0.3, 0, 0.07, 0))
    for c in range(3):
        assert np.all(obs.patch[c] == pytest.approx(mats[0].color[c]))


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
    p1 = terrain.render_patch(t1, act1).patch
    p2 = terrain.render_patch(t2, act2).patch
    assert np.array_equal(p1, p2)


def test_render_determinism_with_seeded_noise():
    rng = np.random.default_rng(0)
    mats = terrain.training_materials(rng)
    t = flat_terrain([1], mats)
    act = ScoopAction(0.4, 0.3, 1, 0.05, 0)
    a = terrain.render_patch(t, act, np.random.default_rng(11)).patch
    b = terrain.render_patch(t, act, np.random.default_rng(11)).patch
    assert np.array_equal(a, b)
    assert a[:3].min() >= 0.0 and a[:3].max() <= 1.0


def test_render_out_of_extent_raises():
    rng = np.random.default_rng(0)
    t = flat_terrain([0], terrain.training_materials(rng))
    with pytest.raises(terrain.BoundsError):
        terrain.render_patch(t, ScoopAction(1.5, 0.3, 0, 0.05, 0))


def reference_feature_rows(ref, actions, start, stop):
    """Rows start:stop of the reference patches stacked by feature_matrix."""
    pairs = [(Observation(p), a) for p, a in zip(ref[start:stop], actions[start:stop])]
    return feature_matrix(Architecture(), pairs)


def assert_render_matches_reference(t, actions, seed):
    """Same bytes as the per-action oracle, whether rendered into a new
    array or, from precomputed cells, into feature rows; and each time
    the generators end in the same state."""
    def rng():
        return None if seed is None else np.random.default_rng(seed)

    rng_ref = rng()
    ref = render_patches_reference(t, actions, rng_ref)
    rng_new = rng()
    new = terrain.render_patches(t, actions, rng_new)
    assert new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()
    del new
    rng_rows = rng()
    X = action_rows(actions, Architecture().patch_size)
    view = terrain.render_patches(t, actions, rng_rows, cells=terrain.patch_cells(t, actions), out=X)
    assert view.shape == ref.shape and np.shares_memory(view, X)
    for start in range(0, len(actions), 2048):
        stop = start + 2048
        assert X[start:stop].tobytes() == reference_feature_rows(ref, actions, start, stop).tobytes()
    if seed is not None:
        state = rng_ref.bit_generator.state
        assert rng_new.bit_generator.state == state
        assert rng_rows.bit_generator.state == state


@pytest.mark.parametrize("seed", [None, 5], ids=["noise-free", "seeded"])
def test_render_patches_matches_per_action_reference(suite, seed):
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


def test_live_environment_rows_match_reference_across_scoops(suite):
    """Each step's feature matrix, rendered into the same reused rows,
    equals the reference patches stacked by feature_matrix, as the terrain
    changes under the scoops and the generator runs on."""
    task = next(task for task in suite[1] if task.composition == "Layers")
    env = LiveEnvironment(task, ActionGrid(), seed=8)
    t, rng = task.terrain.copy(), np.random.default_rng(8)
    actions = ActionGrid().enumerate(t.extent)
    feasible = [i for i in range(len(actions)) if i not in env.excluded()]
    for index in (feasible[5], feasible[400], feasible[900]):
        X, acts = env.candidates()
        assert acts == actions
        ref = render_patches_reference(t, actions, rng)
        assert X.tobytes() == reference_feature_rows(ref, actions, 0, len(actions)).tobytes()
        assert env.execute(index) == terrain.execute_scoop(t, actions[index], rng)
    assert env.rng.random() == rng.random()


def test_live_environment_checks_bounds_at_construction(suite):
    task = suite[1][0]
    with pytest.raises(terrain.BoundsError):
        LiveEnvironment(task, ActionGrid(margin=-0.1), seed=0)


def test_render_patches_names_the_one_action_out_of_extent(suite):
    t = suite[1][0].terrain
    actions = ActionGrid().enumerate(t.extent)
    stray = ScoopAction(0.45, 0.61, 3, 0.05, 1)
    actions.insert(700, stray)
    with pytest.raises(terrain.BoundsError, match=r"action start \(0\.45, 0\.61\) outside"):
        terrain.render_patches(t, actions, np.random.default_rng(0))


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
    sheet = next(i for i, m in enumerate(mats) if not m.scoopable)
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
    depths = np.array([r.action.depth for r in ds.records])
    assert depths.min() >= 0.03 and depths.max() <= 0.08
    yaws = np.array([r.action.yaw for r in ds.records])
    counts = np.bincount(yaws, minlength=8)
    assert counts.min() >= 3 and counts.max() <= 30  # loose uniformity check
    stiff = {r.action.stiffness for r in ds.records}
    assert stiff == {STIFF_SOFT, STIFF_HARD}
    for r in ds.records:
        assert terrain.feasible(train[0].terrain, r.action)
    assert ds.ground_truth is not None and "material_table" in ds.ground_truth


def test_collect_offline_deterministic(suite):
    train, _ = suite
    a = terrain.collect_offline(train[1], 20, seed=9)
    b = terrain.collect_offline(train[1], 20, seed=9)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.records[7].obs.patch, b.records[7].obs.patch)


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


def test_terrain_dict_roundtrip(suite):
    _, test = suite
    t = test[3].terrain
    back = terrain.TerrainInstance.from_dict(t.to_dict())
    assert np.array_equal(back.surface, t.surface)
    assert np.allclose(back.heightfield, t.heightfield, atol=1e-6)
    assert back.layer_depth == t.layer_depth
    assert back.materials[0].id == t.materials[0].id

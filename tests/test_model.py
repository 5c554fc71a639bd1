import numpy as np
import pytest

from scoopgp import gp, terrain
from scoopgp import model as M
from scoopgp import tensor as T
from scoopgp import training as TR
from scoopgp.checkpoint import load_checkpoint, save_checkpoint, weights_path
from scoopgp.data import load_task_dataset, save_task_dataset
from scoopgp.decision import ActionGrid, LiveEnvironment
from helpers import (
    dense_chain_reference,
    soft_normalize_reference,
    embed_batch,
    extract_features,
    feature_vector,
    flip_patch,
    make_task,
    mean,
    predict,
    predict_mean,
    random_action,
    shared_rows_matrix,
    square,
)

SMALL = M.Architecture(
    channels=2, patch_h=4, patch_w=4,
    extractor_widths=(12, 8), mean_widths=(6,), kernel_widths=(6,), embed_dim=3,
)


def small_obs_act(seed=0, arch=SMALL):
    rng = np.random.default_rng(seed)
    patch = rng.uniform(0, 1, size=(arch.channels, arch.patch_h, arch.patch_w))
    return patch, random_action(rng)


def test_action_validation():
    M.ScoopAction(0.1, 0.1, 3, 0.05, 1).validate()
    with pytest.raises(ValueError):
        M.ScoopAction(0.1, 0.1, 8, 0.05, 1).validate()
    with pytest.raises(ValueError):
        M.ScoopAction(0.1, 0.1, 0, 0.09, 1).validate()
    with pytest.raises(ValueError):
        M.ScoopAction(0.1, 0.1, 0, 0.05, 2).validate()
    with pytest.raises(ValueError, match="finite"):
        M.ScoopAction(float("nan"), 0.1, 0, 0.05, 1).validate()


def test_observation_validation():
    M.validate_patches(np.zeros((3, 2, 4, 4)))
    nan = np.zeros((3, 2, 4, 4))
    nan[1, 1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="patch 1 contains non-finite"):
        M.validate_patches(nan)
    bad = np.zeros((3, 2, 4, 4))
    bad[2, 0, 0, 0] = 1.5
    with pytest.raises(ValueError, match="patch 2: appearance"):
        M.validate_patches(bad)
    # the last channel is the height, which is not bounded
    tall = np.zeros((1, 2, 4, 4))
    tall[0, 1] = 1.5
    M.validate_patches(tall)


def test_feature_vector_layout():
    obs, act = small_obs_act()
    x = feature_vector(SMALL, obs, act)
    assert x.shape == (SMALL.input_dim,)
    assert x[-1] == float(act.stiffness)
    assert -1.0 <= x[-2] <= 1.0
    with pytest.raises(Exception):
        feature_vector(M.Architecture(), obs, act)  # wrong patch shape


def test_feature_matrix_equals_stacked_feature_vectors():
    rng = np.random.default_rng(4)
    pairs = [small_obs_act(seed) for seed in range(7)]
    X = M.feature_matrix(SMALL, pairs)
    rows = np.stack([feature_vector(SMALL, obs, act) for obs, act in pairs])
    # the layout written out by hand: flattened patch, depth, stiffness
    by_hand = np.stack([
        np.concatenate([
            obs.ravel(),
            [(act.depth - M._DEPTH_MID) / M._DEPTH_HALF, float(act.stiffness)],
        ])
        for obs, act in pairs
    ])
    assert X.shape == (7, SMALL.input_dim)
    assert X.tobytes() == rows.tobytes() == by_hand.tobytes()
    bad = rng.uniform(0, 1, size=(2, 4, 5))
    with pytest.raises(M.T.ShapeError):
        M.feature_matrix(SMALL, pairs[:3] + [(bad, pairs[3][1])] + pairs[4:])


@pytest.mark.parametrize("has_kernel", [True, False], ids=["kernel", "mean-only"])
@pytest.mark.parametrize(
    "grid, rows, geometries", [(ActionGrid(), 1196, 299), (ActionGrid.paper_scale(), 10168, 1271)],
    ids=["desk", "paper"],
)
def test_shared_patch_rows_embed_as_their_dense_matrix(grid, rows, geometries, has_kernel):
    """A live step's SharedPatchRows embed as the dense matrix they stand
    for, within 1e-12 of the largest output: the rows' patch and tail
    products meet the first layer's bias in another order than one
    product over the whole row. The weights and biases are all nonzero."""
    _, suite_test = terrain.generate_suite(seed=0)
    X, _, _ = LiveEnvironment(suite_test[1], grid, seed=2).candidates()
    assert X.shape == (rows, M.Architecture().input_dim) and len(X.patches) == geometries
    m = M.DeepGPModel.init(M.Architecture(), seed=5, has_kernel=has_kernel)
    rng = np.random.default_rng(5)
    for name, t in m.weights.items():
        if name.endswith(".b") or name == "mean.1.w":
            t.data[:] = rng.normal(scale=0.3, size=t.shape)
    shared, dense = m.embed_rows(X), m.embed_rows(shared_rows_matrix(X))
    assert (shared[1] is None) == (dense[1] is None) == (not has_kernel)
    for a, b in zip(shared, dense):
        if b is not None:
            assert a.shape == b.shape and np.abs(b).max() > 0
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_shared_patch_rows_of_another_patch_width_are_refused():
    m = M.DeepGPModel.init(SMALL, seed=0)
    tail = np.zeros((6, 2))
    for width in (SMALL.patch_size - 1, SMALL.patch_size + 1):
        with pytest.raises(T.ShapeError, match=f"have {width + 2} columns"):
            m.embed_rows(M.SharedPatchRows(np.zeros((3, width)), tail))
    means, Z = m.embed_rows(M.SharedPatchRows(np.zeros((3, SMALL.patch_size)), tail))
    assert means.shape == (6,) and Z.shape == (6, SMALL.embed_dim)


def test_flip_permutation_matches_flipped_patch():
    obs, act = small_obs_act(3)
    x = feature_vector(SMALL, obs, act)
    flipped = feature_vector(SMALL, flip_patch(obs), act)
    perm = M.flip_permutation(SMALL)
    assert np.array_equal(x[perm], flipped)


def test_extract_features_deterministic_and_sized():
    m = M.DeepGPModel.init(SMALL, seed=0)
    obs, act = small_obs_act(1)
    f1 = extract_features(m, obs, act)
    f2 = extract_features(m, obs, act)
    assert np.array_equal(f1, f2)
    assert f1.shape == (SMALL.feature_dim,)
    default = M.DeepGPModel.init(M.Architecture(), seed=0)
    rng = np.random.default_rng(0)
    obs4 = rng.uniform(0, 1, size=(4, 16, 16))
    assert extract_features(default, obs4, act).shape == (64,)


def test_stiffness_flip_changes_one_feature_and_output():
    m = M.DeepGPModel.init(SMALL, seed=2)
    obs, act = small_obs_act(5)
    other = M.ScoopAction(act.x, act.y, act.yaw, act.depth, 1 - act.stiffness)
    x1 = feature_vector(SMALL, obs, act)
    x2 = feature_vector(SMALL, obs, other)
    assert np.sum(x1 != x2) == 1
    assert not np.array_equal(extract_features(m, obs, act), extract_features(m, obs, other))


def test_zero_initialized_mean_head_predicts_dataset_mean():
    m = M.DeepGPModel.init(SMALL, seed=0)
    m.reward_mean, m.reward_std = 31.3, 12.0
    obs, act = small_obs_act(7)
    assert predict_mean(m, obs, act) == 31.3


def test_zero_shot_predict_equals_mean():
    m = M.DeepGPModel.init(SMALL, seed=1)
    m.reward_mean, m.reward_std = 10.0, 4.0
    obs, act = small_obs_act(2)
    post = predict(m, obs, act, support=[])
    assert post.mean == predict_mean(m, obs, act)
    assert post.variance == pytest.approx(
        (m.kp.outputscale + m.kp.noise**2) * m.reward_std**2
    )


@pytest.mark.parametrize("has_kernel", [True, False])
def test_predict_rows_with_empty_support_is_the_prior(has_kernel):
    """No support: the de-standardized mean head, with gp.posterior_batch's
    prior variance (outputscale + noise^2) std^2, or zero without a kernel."""
    m = M.DeepGPModel.init(SMALL, seed=8, has_kernel=has_kernel)
    rng = np.random.default_rng(8)
    m.weights["mean.1.w"].data[:] = rng.normal(size=m.weights["mean.1.w"].shape)
    m.kp = gp.KernelParams(log_outputscale=0.3, log_noise=-1.7)
    m.reward_mean, m.reward_std = 12.5, 3.25
    X = rng.uniform(0.0, 1.0, size=(7, SMALL.input_dim))
    means, variances = m.predict_rows(X, X[[]], np.empty(0))
    assert means.tobytes() == (m.embed_rows(X)[0] * m.reward_std + m.reward_mean).tobytes()
    prior = (m.kp.outputscale + m.kp.noise**2) * m.reward_std**2 if has_kernel else 0.0
    assert variances.tobytes() == np.full(7, prior).tobytes()


def test_support_at_query_with_tiny_noise_interpolates():
    m = M.DeepGPModel.init(SMALL, seed=3)
    m.kp = gp.KernelParams(log_noise=np.log(1e-7))
    m.reward_mean, m.reward_std = 5.0, 2.0
    obs, act = small_obs_act(4)
    post = predict(m, obs, act, support=[(obs, act, 42.0)])
    assert post.mean == pytest.approx(42.0, abs=1e-3)
    assert post.variance <= 1e-4


def test_predict_composes_mean_and_gp_oracle():
    m = M.DeepGPModel.init(SMALL, seed=4)
    # give the mean head nonzero output so composition is visible
    m.weights["mean.1.w"].data[:] = np.random.default_rng(0).normal(
        size=m.weights["mean.1.w"].shape
    )
    m.reward_mean, m.reward_std = 20.0, 6.0
    rng = np.random.default_rng(9)
    support = []
    for s in range(3):
        obs, act = small_obs_act(20 + s)
        support.append((obs, act, float(rng.uniform(0, 40))))
    query_obs, query_act = small_obs_act(99)
    post = predict(m, query_obs, query_act, support)

    Xs = np.stack([m.feature_vector(o, a) for o, a, _ in support])
    Zs = embed_batch(m, Xs)
    ms = m.embed_rows(Xs)[0]
    resid = (np.array([r for _, _, r in support]) - 20.0) / 6.0 - ms
    zq = embed_batch(m, m.feature_vector(query_obs, query_act)[None, :])[0]
    ref = gp.posterior(Zs, resid, zq, m.kp)
    mq = m.embed_rows(m.feature_vector(query_obs, query_act)[None, :])[0][0]
    assert post.mean == pytest.approx((mq + ref.mean) * 6.0 + 20.0, abs=1e-10)
    assert post.variance == pytest.approx(ref.variance * 36.0, abs=1e-10)


def test_residual_zero_support_leaves_prediction_unchanged():
    m = M.DeepGPModel.init(SMALL, seed=5)
    m.reward_mean, m.reward_std = 15.0, 5.0
    obs, act = small_obs_act(11)
    base = predict_mean(m, obs, act)
    post = predict(m, obs, act, support=[(obs, act, base)])
    assert post.mean == pytest.approx(base, abs=1e-9)


def test_model_without_kernel_ignores_support():
    m = M.DeepGPModel.init(SMALL, seed=6, has_kernel=False)
    m.reward_mean, m.reward_std = 10.0, 3.0
    obs, act = small_obs_act(1)
    sup_obs, sup_act = small_obs_act(2)
    p0 = predict(m, obs, act, [])
    p1 = predict(m, obs, act, [(sup_obs, sup_act, 99.0)])
    assert p0.mean == p1.mean
    assert p0.variance == p1.variance == 0.0
    with pytest.raises(RuntimeError):
        m.kernel_t(None)


def test_dataset_roundtrip_and_views(tmp_path):
    task = make_task("t0", 6, seed=0)
    task.ground_truth = {"composition": "Single", "materials": ["train-1"]}
    path = tmp_path / "t0.json"
    save_task_dataset(task, path)
    learner = load_task_dataset(path)
    oracle = load_task_dataset(path, view="oracle")
    assert learner.ground_truth is None
    assert oracle.ground_truth["materials"] == ["train-1"]
    assert len(learner) == 6
    assert np.allclose(learner.rewards, np.round(task.rewards, 6))
    assert M.record_dict(learner.actions[2]) == M.record_dict(task.actions[2])
    assert np.allclose(
        learner.patches[3], task.patches[3], atol=1e-6
    )
    with pytest.raises(ValueError):
        load_task_dataset(path, view="secret")


@pytest.mark.parametrize("has_kernel", [True, False])
def test_checkpoint_roundtrip_keeps_weights_bit_exact(tmp_path, has_kernel):
    """Every weight, extreme values included, loads with its name, shape
    and bits, and saving the loaded model rewrites both files' bytes."""
    model = M.DeepGPModel.init(SMALL, seed=3, has_kernel=has_kernel)
    extremes = [-0.0, 5e-324, -1.7976931348623157e308, 1e-300, 0.1, -2.25]
    model.weights["mean.0.b"].data[0, : len(extremes)] = extremes
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, a, method="sl", seed=3)
    back, ckpt = load_checkpoint(a)
    assert (ckpt.method, ckpt.seed, ckpt.has_kernel) == ("sl", 3, has_kernel)
    assert list(back.weights) == sorted(model.weights)
    for name, w in model.weights.items():
        assert back.weights[name].shape == w.shape and back.weights[name].data.tobytes() == w.data.tobytes()
    save_checkpoint(back, b, method="sl", seed=3)
    assert a.read_bytes() == b.read_bytes()
    assert weights_path(a).read_bytes() == weights_path(b).read_bytes()


def test_dataset_schema_version_rejected(tmp_path):
    import json

    task = make_task("t1", 5, seed=1)
    path = tmp_path / "t1.json"
    save_task_dataset(task, path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema_version"):
        load_task_dataset(path)


def _mean_and_kernel_passes(model, X, y):
    """Outputs and parameter gradients of the mean-phase MSE pass and of
    the kernel-phase NLML pass, as bytes."""
    kpt = TR._kp_tensors(model.kp)
    mean_params = model.segment_params("extractor") + model.segment_params("mean")
    kernel_params = model.segment_params("kernel") + list(kpt.values())
    with T.Tape() as tape:
        pred = model.mean_t(model.extractor_t(T.Tensor(X)))
        loss = mean(square(T.sub(pred, T.Tensor(y[:, None]))))
        tape.backward(loss)
    out = [pred.data.tobytes(), loss.data.tobytes()]
    out += [p.grad.tobytes() for p in mean_params]
    F = T.Tensor(model.extract_batch(X))
    with T.Tape() as tape:
        Z = model.kernel_t(F)
        Kbar = gp.gram_objective(
            Z, kpt["log_lengthscale"], kpt["log_outputscale"], kpt["log_noise"]
        )
        loss = gp.nlml_objective(Kbar, T.Tensor(y[:, None]))
        tape.backward(loss)
    out += [Z.data.tobytes(), loss.data.tobytes()]
    out += [p.grad.tobytes() for p in kernel_params]
    return out


# 128 is a full batch; 112 and 56 rows are the last batches of the
# sl phase and of a fold on the default suite
@pytest.mark.parametrize("n", [128, 112, 56])
def test_fused_dense_matches_unfused_reference(n, monkeypatch):
    arch = M.Architecture()
    rng = np.random.default_rng(n)
    model = M.DeepGPModel.init(arch, seed=n)
    # the final mean layer starts at zero, which would zero every mean-path gradient
    model.weights["mean.1.w"].data = rng.normal(scale=0.3, size=model.weights["mean.1.w"].shape)
    X = rng.uniform(0.0, 1.0, size=(n, arch.input_dim))
    y = rng.normal(size=n)
    fused = _mean_and_kernel_passes(model, X, y)
    monkeypatch.setattr(M, "dense_chain", dense_chain_reference)
    assert _mean_and_kernel_passes(model, X, y) == fused


@pytest.mark.parametrize("n", [1, 2, 37, 100])
def test_fused_kernel_t_matches_op_by_op_oracle(n, monkeypatch):
    """kernel_t's one-op normalization has the bytes of the ten-op
    composition in the embeddings and in the gradient of the kernel head's
    input and weights, under the NLML's upstream gradient."""
    arch = M.Architecture()
    rng = np.random.default_rng(n)
    model = M.DeepGPModel.init(arch, seed=n)
    F0 = rng.uniform(0.0, 1.0, size=(n, arch.extractor_widths[-1]))
    y = T.Tensor(rng.normal(size=(n, 1)))
    kpt = TR._kp_tensors(model.kp)

    def run():
        F = T.Tensor(F0, requires_grad=True)
        with T.Tape() as tape:
            Z = model.kernel_t(F)
            Kbar = gp.gram_objective(
                Z, kpt["log_lengthscale"], kpt["log_outputscale"], kpt["log_noise"]
            )
            tape.backward(gp.nlml_objective(Kbar, y))
        params = [F] + model.segment_params("kernel")
        return [Z.data.tobytes()] + [p.grad.tobytes() for p in params]

    fused = run()
    monkeypatch.setattr(M, "soft_normalize", soft_normalize_reference)
    assert run() == fused

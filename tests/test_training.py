import itertools
import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    adam_step_reference,
    dense_chain_reference,
    embed_batch,
    flip_patch,
    gram_objective_reference,
    make_task,
    median_distance_reference,
    mse_reference,
    nlml_terms_reference,
    noisy_batch_reference,
    pool_reference,
    predict,
    predict_mean,
    soft_normalize_reference,
    training_rows_reference,
)

from scoopgp import gp
from scoopgp import model as M
from scoopgp import ot
from scoopgp import tensor as T
from scoopgp import training as TR
from scoopgp.model import Architecture

ARCH = Architecture(
    channels=2, patch_h=4, patch_w=4,
    extractor_widths=(12, 8), mean_widths=(6,), kernel_widths=(6,), embed_dim=3,
)


def small_cfg(**kw):
    base = dict(
        k_folds=2, seed=0, batch_size=16, max_epochs_mean=60, max_epochs_meta=30,
        arch=ARCH,
    )
    base.update(kw)
    return TR.TrainConfig(**base)


def material_task(task_id, n, seed, materials):
    t = make_task(task_id, n, seed)
    t.ground_truth = {"composition": "Mixture", "materials": list(materials)}
    return t


@pytest.fixture(scope="module")
def tiny_tasks():
    return [make_task(f"t{i}", 14, seed=i) for i in range(4)]


def test_config_validation():
    small_cfg().validate()
    with pytest.raises(ValueError):
        small_cfg(k_folds=1).validate()
    with pytest.raises(ValueError):
        small_cfg(k_folds=9).validate(n_tasks=4)
    with pytest.raises(ValueError):
        small_cfg(validation_fraction=1.0).validate()
    with pytest.raises(ValueError):
        small_cfg(split_rule="best").validate()
    for field in ("max_epochs_mean", "max_epochs_meta"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_epochs"):
                small_cfg(**{field: bad}).validate()
    small_cfg(seed=0).validate()
    with pytest.raises(ValueError, match="seed"):
        small_cfg(seed=-1).validate()


def test_train_sl_memorizes_single_sample():
    task = make_task("solo", 1, seed=3)
    model, manifest = TR.train_sl([task], small_cfg())
    pred = predict_mean(model, task.patches[0], task.actions[0])
    assert abs(pred - task.rewards[0]) < 1.0
    assert manifest.events == ["phase:sl:start", "phase:sl:done"]


def test_train_sl_validation_split_size(tiny_tasks):
    model, manifest = TR.train_sl(tiny_tasks, small_cfg(max_epochs_mean=3))
    n = sum(len(t) for t in tiny_tasks)
    assert manifest.stats["sl.val_size"] == math.ceil(0.1 * n)


def test_train_sl_early_stopping_patience(tiny_tasks):
    cfg = small_cfg()
    model, manifest = TR.train_sl(tiny_tasks, cfg)
    curve = manifest.loss_curves["sl"]
    best = manifest.stats["sl.best_epoch"]
    assert len(curve) <= best + cfg.patience + 1
    vals = [v for _, v in curve]
    assert vals[best] == min(vals)


def test_train_sl_reduces_training_loss(tiny_tasks):
    _, manifest = TR.train_sl(tiny_tasks, small_cfg())
    curve = manifest.loss_curves["sl"]
    assert curve[-1][0] < curve[0][0]


def test_train_dkmt_task_order_and_loss(tiny_tasks):
    cfg = small_cfg(max_epochs_meta=12)
    model, manifest = TR.train_dkmt(tiny_tasks, cfg)
    orders = manifest.stats["task_orders"]
    ids = sorted(t.task_id for t in tiny_tasks)
    for epoch_order in orders:
        assert sorted(epoch_order) == ids  # each task exactly once per epoch
    assert orders[0] != ids or orders[1] != ids  # shuffled, not fixed order
    curve = manifest.loss_curves["dkmt"]
    assert curve[min(9, len(curve) - 1)] < curve[0]
    assert model.has_kernel
    model.kp.validate()


def test_train_dkmt_constant_rewards_zero_data_fit():
    rng = np.random.default_rng(0)
    task = make_task("const", 10, seed=5)
    task.rewards[:] = 12.5
    model, _ = TR.train_dkmt([task], small_cfg(max_epochs_meta=6))
    X = task.feature_matrix(ARCH)
    resid = (task.rewards - model.reward_mean) / model.reward_std - model.embed_rows(X)[0]
    Z = embed_batch(model, X)
    _, data_fit, _ = nlml_terms_reference(Z, resid, model.kp)
    assert data_fit < 1e-4


def test_dkmt_reproducible(tiny_tasks):
    cfg = small_cfg(max_epochs_meta=5)
    m1, man1 = TR.train_dkmt(tiny_tasks, cfg)
    m2, man2 = TR.train_dkmt(tiny_tasks, small_cfg(max_epochs_meta=5))
    for name in m1.weights:
        assert np.array_equal(m1.weights[name].data, m2.weights[name].data)
    assert man1.stats["task_orders"] == man2.stats["task_orders"]


def _train_meta(tasks, method, **kw):
    """(model, manifest, loss curve, best epoch) of one meta-trained run."""
    cfg = small_cfg(k_folds=2, **kw)
    if method == "dkmt":
        model, manifest = TR.train_dkmt(tasks, cfg)
        return model, manifest, manifest.loss_curves["dkmt"], manifest.stats["best_epoch"]
    model, manifest = TR.train_kcmd(tasks, cfg, split_method="random")
    return model, manifest, manifest.loss_curves["kernel"], manifest.stats["kernel_best_epoch"]


@pytest.mark.parametrize("method", ["dkmt", "kcmd-random"])
@pytest.mark.parametrize("max_epochs_meta", [30, 4])
def test_meta_training_stops_patience_after_the_best_epoch(tiny_tasks, method, max_epochs_meta):
    model, manifest, curve, best = _train_meta(tiny_tasks, method, max_epochs_meta=max_epochs_meta)
    assert curve.index(min(curve)) == best
    assert len(curve) == min(best + small_cfg().patience + 1, max_epochs_meta)
    assert M.record_dict(model.kp) == manifest.kernel_params


@pytest.mark.parametrize("method", ["dkmt", "kcmd-random"])
def test_meta_training_returns_the_best_epochs_weights(tiny_tasks, method):
    """A run cut off right after its best epoch ends on that epoch's
    weights, so the full run must restore the same ones."""
    full, _, curve, best = _train_meta(tiny_tasks, method)
    assert best < len(curve) - 1  # early stopping restored an earlier epoch
    cut, _, cut_curve, _ = _train_meta(tiny_tasks, method, max_epochs_meta=best + 1)
    assert cut_curve == curve[: best + 1]
    for name, w in full.weights.items():
        assert w.data.tobytes() == cut.weights[name].data.tobytes(), name
    assert full.kp == cut.kp


def test_kcmd_smallest_instance_structure():
    tasks = [make_task("a", 10, seed=1), make_task("b", 10, seed=2)]
    model, manifest = TR.train_kcmd(tasks, small_cfg(k_folds=2), split_method="random")
    assert len(manifest.splits) == 2
    for plan in manifest.splits:
        assert len(plan["mean_task_ids"]) == 1
        assert len(plan["kernel_task_ids"]) == 1
    cells = manifest.stats["residual_db_cells"]
    assert len(cells) == 2 and all(c["count"] == 10 for c in cells)


def test_kcmd_phase_order_in_events(tiny_tasks):
    _, manifest = TR.train_kcmd(tiny_tasks, small_cfg(k_folds=3), split_method="random")
    ev = manifest.events
    sl_done = ev.index("phase:sl:done")
    kernel_start = ev.index("phase:kernel:start")
    fold_events = [i for i, e in enumerate(ev) if e.startswith("fold:")]
    assert all(sl_done < i < kernel_start for i in fold_events)
    assert ev[-1] == "phase:kernel:done"
    folds_seen = [e for e in ev if e.endswith("mean-trained")]
    assert len(folds_seen) == 3


def test_kcmd_returns_bit_identical_sl_weights(tiny_tasks):
    cfg = small_cfg(k_folds=2)
    model, manifest = TR.train_kcmd(tiny_tasks, cfg, split_method="random")
    sl_model, sl_manifest = TR.train_sl(tiny_tasks, small_cfg(k_folds=2))
    for name, tensor in sl_model.weights.items():
        assert np.array_equal(tensor.data, model.weights[name].data), name
    assert manifest.stats["sl_weight_digest"] == sl_manifest.stats["sl_weight_digest"]
    # zero-shot predictions equal the mean path exactly
    obs, action = tiny_tasks[0].patches[0], tiny_tasks[0].actions[0]
    post = predict(model, obs, action, support=[])
    assert post.mean == predict_mean(sl_model, obs, action)


def test_kcmd_residual_count_oracle(tiny_tasks):
    _, manifest = TR.train_kcmd(tiny_tasks, small_cfg(k_folds=3), split_method="random")
    expected = 0
    for plan in manifest.splits:
        expected += sum(len(tiny_tasks[i]) for i in plan["kernel_task_ids"])
    assert manifest.stats["residual_db_size"] == expected


def test_kcmd_reproducible_splits_and_weights(tiny_tasks):
    m1, man1 = TR.train_kcmd(tiny_tasks, small_cfg(k_folds=2), split_method="random")
    m2, man2 = TR.train_kcmd(tiny_tasks, small_cfg(k_folds=2), split_method="random")
    assert man1.splits == man2.splits
    for name in m1.weights:
        assert np.array_equal(m1.weights[name].data, m2.weights[name].data)
    assert man1.kernel_params == man2.kernel_params


def test_kcmd_ot_split_method_uses_distances(tiny_tasks):
    model, manifest = TR.train_kcmd(tiny_tasks, small_cfg(k_folds=2), split_method="ot")
    assert "distance_matrix" in manifest.stats
    D = np.array(manifest.stats["distance_matrix"])
    assert D.shape == (4, 4)
    params = ot.SampleCostParams.from_tasks(tiny_tasks)
    want, eps = ot.task_distance_matrix(tiny_tasks, params)
    assert D.tolist() == np.round(want, 6).tolist()
    assert manifest.stats["distance_eps"] == eps
    assert np.allclose(D, D.T, atol=1e-5)
    for plan in manifest.splits:
        assert plan["ref_task"] in plan["mean_task_ids"]


def test_kcmd_huge_anchor_pins_fold_extractors(tiny_tasks):
    cfg = small_cfg(k_folds=2, l2_anchor_coeff=1e6)
    _, manifest = TR.train_kcmd(tiny_tasks, cfg, split_method="random")
    for k in range(2):
        assert manifest.stats[f"fold-{k}.anchor_drift_inf"] < 1e-3


def test_fold_divergence_names_the_fold_once(tiny_tasks, monkeypatch):
    """An optimizer error in fold 1 raises one TrainingError that names
    the fold once, by its curve tag."""
    train_mean = TR._train_mean

    def adam_step(*args):
        raise T.OptimizerError("non-finite gradient for parameter extractor.0.w")

    def diverge_in_fold_1(*args, curve_tag, **kwargs):
        if curve_tag == "fold-1":
            monkeypatch.setattr(T, "adam_step", adam_step)
        return train_mean(*args, curve_tag=curve_tag, **kwargs)

    monkeypatch.setattr(TR, "_train_mean", diverge_in_fold_1)
    with pytest.raises(TR.TrainingError) as err:
        TR.train_kcmd(tiny_tasks, small_cfg(k_folds=2), split_method="random")
    assert str(err.value) == "fold-1: diverged at epoch 0: non-finite gradient for parameter extractor.0.w"
    assert isinstance(err.value.__cause__, T.OptimizerError)


@pytest.mark.parametrize("phase", ["sl", "dkmt", "kernel"])
def test_no_finite_loss_names_the_phase(tiny_tasks, monkeypatch, phase):
    """A phase none of whose epochs reaches a finite early-stopping loss
    names itself in the TrainingError: a NaN validation loss for sl, a NaN
    NLML with finite gradients for dkmt and kcmd's kernel phase."""
    if phase == "sl":
        monkeypatch.setattr(M.DeepGPModel, "embed_rows", lambda self, X: (np.full(len(X), np.nan), None))
    else:
        def nlml(Kbar, resid):
            return T.custom_op(np.asarray(np.nan), (Kbar, resid),
                               lambda g: (np.zeros(Kbar.shape), np.zeros(resid.shape)))
        monkeypatch.setattr(gp, "nlml_objective", nlml)
    train = {"sl": TR.train_sl, "dkmt": TR.train_dkmt,
             "kernel": lambda tasks, cfg: TR.train_kcmd(tasks, cfg, split_method="random")}[phase]
    with pytest.raises(TR.TrainingError) as err:
        train(tiny_tasks, small_cfg(max_epochs_mean=3, max_epochs_meta=3))
    assert str(err.value) == f"{phase}: no epoch reached a finite loss"


def test_kcmd_rejects_bad_split_method(tiny_tasks):
    with pytest.raises(ValueError):
        TR.train_kcmd(tiny_tasks, small_cfg(), split_method="best")


def test_flip_invariance_after_flip_augmented_training():
    # the toy set is symmetric by construction: training consumes both
    # orientations, so converged predictions should match across flips

    task = make_task("sym", 8, seed=21)
    model, _ = TR.train_sl([task], small_cfg(max_epochs_mean=120))
    diffs = []
    for obs, action in zip(task.patches, task.actions):
        p1 = predict_mean(model, obs, action)
        p2 = predict_mean(model, flip_patch(obs), action)
        diffs.append(abs(p1 - p2))
    assert max(diffs) < 0.2 * model.reward_std


def test_manual_split_disjoint_materials():
    tasks = [
        material_task("a", 5, 0, ["A"]),
        material_task("b", 5, 1, ["A"]),
        material_task("c", 5, 2, ["B"]),
        material_task("d", 5, 3, ["B"]),
    ]
    plans = TR.manual_split(tasks, k_folds=1, seed=0)
    plan = plans[0]
    sides = {frozenset(plan.mean_task_ids), frozenset(plan.kernel_task_ids)}
    assert sides == {frozenset({0, 1}), frozenset({2, 3})}
    assert plan.material_overlap == 0 and not plan.degenerate


def test_manual_split_single_material_errors():
    tasks = [material_task(f"t{i}", 5, i, ["A"]) for i in range(3)]
    with pytest.raises(ot.SplitError):
        TR.manual_split(tasks)


def test_manual_split_overlap_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    mats = ["A", "B", "C", "D"]
    for trial in range(5):
        tasks = []
        for i in range(6):
            picks = rng.choice(mats, size=rng.integers(1, 3), replace=False)
            tasks.append(material_task(f"x{i}", 4, i, sorted(set(picks.tolist()))))
        try:
            plan = TR.manual_split(tasks, seed=trial)[0]
        except ot.SplitError:
            continue
        # oracle: brute force all material bipartitions independently
        best = None
        for r in range(1, len(mats)):
            for mean_side in itertools.combinations(mats, r):
                mean_side = set(mean_side)
                overlap, mean_ids, kernel_ids = 0, [], []
                for idx, t in enumerate(tasks):
                    tm = set(t.ground_truth["materials"])
                    inside, outside = len(tm & mean_side), len(tm - mean_side)
                    if inside and outside:
                        overlap += 1
                    (mean_ids if inside >= outside else kernel_ids).append(idx)
                if mean_ids and kernel_ids:
                    best = overlap if best is None else min(best, overlap)
        assert plan.material_overlap == best
        assert plan.degenerate == (best > 0)


def test_manual_split_produces_distinct_folds():
    tasks = [
        material_task("a", 5, 0, ["A"]),
        material_task("b", 5, 1, ["B"]),
        material_task("c", 5, 2, ["C"]),
        material_task("d", 5, 3, ["D"]),
    ]
    plans = TR.manual_split(tasks, k_folds=4, seed=1)
    assert len(plans) == 4
    assert len({frozenset(p.mean_task_ids) for p in plans}) > 1


@pytest.mark.parametrize("n", [16, 7])
def test_noisy_batch_matches_uniform_draws(n):
    data_rng = np.random.default_rng(n)
    Xtr = data_rng.normal(size=(40, ARCH.input_dim))
    idx = data_rng.permutation(40)[:n]
    amp2 = 2.0 * TR._noise_amplitudes(ARCH)
    buf = np.empty((16, ARCH.input_dim))
    noise = np.empty_like(buf)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    xb = TR._noisy_batch(Xtr, idx, amp2, rng, buf, noise)
    ref = noisy_batch_reference(Xtr, idx, amp2, ref_rng, None, None)
    assert xb.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()


def test_noisy_batch_matches_the_docstring_over_many_batches():
    """Xtr[idx] + rng.uniform(-1, 1, size) * amp, bit for bit, over 200
    batches drawn in turn from one generator, and the generators agree
    after."""
    data_rng = np.random.default_rng(21)
    Xtr = data_rng.normal(size=(300, ARCH.input_dim))
    amp = TR._noise_amplitudes(ARCH)
    buf = np.empty((32, ARCH.input_dim))
    noise = np.empty_like(buf)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(200):
        idx = data_rng.permutation(300)[: int(data_rng.integers(1, 33))]
        xb = TR._noisy_batch(Xtr, idx, 2.0 * amp, rng, buf, noise)
        ref = Xtr[idx] + ref_rng.uniform(-1.0, 1.0, size=(len(idx), Xtr.shape[1])) * amp
        assert xb.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_train_mean_noises_batches_at_the_model_amplitudes(tiny_tasks, monkeypatch):
    """_train_mean hands _noisy_batch twice the architecture's noise
    amplitudes, which _noisy_batch's contract takes as amp2."""
    seen = []
    noisy_batch = TR._noisy_batch

    def spy(Xtr, idx, amp2, *rest):
        seen.append(amp2)
        return noisy_batch(Xtr, idx, amp2, *rest)

    monkeypatch.setattr(TR, "_noisy_batch", spy)
    TR.train_sl(tiny_tasks, small_cfg(max_epochs_mean=1, batch_size=12))
    amp = TR._noise_amplitudes(ARCH)
    assert seen and all(a.tobytes() == (2.0 * amp).tobytes() for a in seen)


def test_train_sl_matches_unfused_reference(tiny_tasks, monkeypatch):
    """Fused dense layers, the one-op loss, flat Adam and in-place batch
    noise give the weights of the per-op, per-parameter, allocating
    training loop."""
    cfg = small_cfg(max_epochs_mean=4, batch_size=12)
    fused, _ = TR.train_sl(tiny_tasks, cfg)
    monkeypatch.setattr(M, "dense_chain", dense_chain_reference)
    monkeypatch.setattr(TR, "_mse", mse_reference)
    monkeypatch.setattr(T, "adam_step", adam_step_reference)
    monkeypatch.setattr(TR, "_noisy_batch", noisy_batch_reference)
    reference, _ = TR.train_sl(tiny_tasks, cfg)
    for name, w in fused.weights.items():
        assert w.data.tobytes() == reference.weights[name].data.tobytes(), name


def test_train_dkmt_matches_op_by_op_reference(tiny_tasks, monkeypatch):
    """The one-op dense layers, kernel-head normalization and Gram matrix
    give the weights and hyperparameters of the op-by-op tape."""
    cfg = small_cfg(max_epochs_meta=5)
    fused, _ = TR.train_dkmt(tiny_tasks, cfg)
    monkeypatch.setattr(M, "dense_chain", dense_chain_reference)
    monkeypatch.setattr(M, "soft_normalize", soft_normalize_reference)
    monkeypatch.setattr(gp, "gram_objective", gram_objective_reference)
    reference, _ = TR.train_dkmt(tiny_tasks, cfg)
    for name, w in fused.weights.items():
        assert w.data.tobytes() == reference.weights[name].data.tobytes(), name
    assert fused.kp == reference.kp


def test_train_dkmt_flips_picked_rows_like_precomputed_flipped_matrices(tiny_tasks, monkeypatch):
    """dkmt hands _meta_train each task's flip permutation, not a flipped
    copy of its features; flipping only the rows an epoch picks gives the
    weights, hyperparameters and loss curve of precomputed flipped rows."""
    cfg = small_cfg(max_epochs_meta=5)
    picked, picked_manifest = TR.train_dkmt(tiny_tasks, cfg)
    meta_train, seen = TR._meta_train, []

    def precomputed(model, batches, *args):
        seen.extend(flipped.ndim for _, _, flipped, _ in batches)
        batches = [(label, X, X[:, flipped], y) for label, X, flipped, y in batches]
        return meta_train(model, batches, *args)

    monkeypatch.setattr(TR, "_meta_train", precomputed)
    reference, reference_manifest = TR.train_dkmt(tiny_tasks, cfg)
    assert seen == [1] * len(tiny_tasks)
    for name, w in picked.weights.items():
        assert w.data.tobytes() == reference.weights[name].data.tobytes(), name
    assert picked.kp == reference.kp
    assert picked_manifest.loss_curves == reference_manifest.loss_curves


def _run_train_mean(model, Xs, ys, cfg, **anchor):
    manifest = TR.TrainingManifest("t", 0, {})
    TR._train_mean(model, Xs, ys, cfg, np.random.default_rng(7), manifest, "t", **anchor)
    return manifest


# 12 and 128 are full batches, 1 and 56 the last batch of an epoch
@pytest.mark.parametrize("n", [1, 12, 128, 56])
def test_mse_matches_three_op_reference(n):
    """The one-op loss has the value and the prediction gradient of
    mean(square(pred - y)) recorded op by op, bit for bit."""
    rng = np.random.default_rng(n)
    P = rng.normal(scale=2.0, size=(n, 1))
    y = rng.normal(size=(n, 1))

    def run(loss_fn):
        pred = T.Tensor(P, requires_grad=True)
        with T.Tape() as tape:
            loss = loss_fn(pred, y)
            tape.backward(loss)
        return loss.data.tobytes(), pred.grad.tobytes()

    assert run(TR._mse) == run(mse_reference)


def test_train_mean_step_records_one_loss_op(tiny_tasks, monkeypatch):
    """A _train_mean step records one dense op per extractor and mean
    layer and one op for the loss."""
    model = M.DeepGPModel.init(ARCH, seed=0, has_kernel=False)
    expected = len(model._layers("extractor")) + len(model._layers("mean")) + 1
    counts = []
    backward = T.Tape.backward

    def spy(tape, loss):
        counts.append(len(tape._records))
        return backward(tape, loss)

    monkeypatch.setattr(T.Tape, "backward", spy)
    Xs = [t.feature_matrix(ARCH) for t in tiny_tasks]
    _run_train_mean(model, Xs, [t.rewards for t in tiny_tasks], small_cfg(max_epochs_mean=1, batch_size=12))
    assert counts and set(counts) == {expected}


@pytest.mark.parametrize("validation_fraction", [0.1, 0.0])
def test_train_mean_gathers_the_pooled_rows(monkeypatch, validation_fraction):
    """The training and validation rows _train_mean gathers from per-task
    matrices of unequal sizes, a one-record task among them, are those
    np.take gives from the pooled matrix, in the same order."""
    tasks = [make_task(f"u{i}", n, seed=i) for i, n in enumerate((14, 1, 9, 20))]
    cfg = small_cfg(max_epochs_mean=1, batch_size=12, validation_fraction=validation_fraction)
    seen = {}
    noisy_batch = TR._noisy_batch

    def train_spy(Xtr, *rest):
        seen.setdefault("train", Xtr.copy())
        return noisy_batch(Xtr, *rest)

    monkeypatch.setattr(TR, "_noisy_batch", train_spy)
    model = M.DeepGPModel.init(ARCH, seed=0, has_kernel=False)
    embed_rows = model.embed_rows

    def val_spy(X):
        seen.setdefault("val", X.copy())
        return embed_rows(X)

    model.embed_rows = val_spy
    _run_train_mean(model, [t.feature_matrix(ARCH) for t in tasks], [t.rewards for t in tasks], cfg)
    X, _ = pool_reference(tasks, ARCH, 0.0, 1.0)
    n_val = min(math.ceil(validation_fraction * len(X)), len(X) - 1)
    perm = np.random.default_rng(7).permutation(len(X))
    Xtr, Xval = training_rows_reference(X, perm, n_val, M.flip_permutation(ARCH))
    assert seen["train"].tobytes() == Xtr.tobytes()
    assert seen["val"].tobytes() == Xval.tobytes()


@pytest.mark.parametrize("anchored", [False, True])
def test_train_mean_per_task_equals_the_pooled_path(tiny_tasks, anchored):
    """Weights, loss curve and stats of _train_mean on the per-task
    matrices equal, bit for bit, those on the one pooled matrix."""
    cfg = small_cfg(max_epochs_mean=6, batch_size=12, l2_anchor_coeff=1.0)
    tasks = tiny_tasks[1:] if anchored else tiny_tasks
    anchor = {}
    if anchored:
        init = M.DeepGPModel.init(ARCH, seed=9, has_kernel=False)
        anchor = {"anchor": {p.name: p.data + 0.01 for p in init.segment_params("extractor")}}
    Xs = [t.feature_matrix(ARCH) for t in tasks]
    ys = [(t.rewards - 14.0) / 8.0 for t in tasks]
    X, y = pool_reference(tasks, ARCH, 14.0, 8.0)
    per_task = M.DeepGPModel.init(ARCH, seed=3, has_kernel=False)
    pooled = M.DeepGPModel.init(ARCH, seed=3, has_kernel=False)
    m_per_task = _run_train_mean(per_task, Xs, ys, cfg, **anchor)
    m_pooled = _run_train_mean(pooled, [X], [y], cfg, **anchor)
    assert m_per_task.loss_curves == m_pooled.loss_curves
    assert m_per_task.stats == m_pooled.stats
    for name, w in per_task.weights.items():
        assert w.data.tobytes() == pooled.weights[name].data.tobytes(), name


def _normalized_rows(n, seed):
    raw = np.random.default_rng(seed).normal(size=(n, 16))
    raw[n // 2 :: 7] = raw[0]  # repeated rows: zero distances
    return raw / np.sqrt((raw * raw).sum(axis=1, keepdims=True) + 1e-4)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 100, 256])
def test_median_distance_matches_the_broadcast_oracle(n):
    Z = _normalized_rows(n, seed=n)
    assert TR._median_distance(Z).hex() == median_distance_reference(Z).hex()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_median_distance_memory_stays_below_the_broadcast_temporaries():
    """The lengthscale start on 256 embeddings peaks below 4 MB traced;
    the broadcast (256, 256, 16) difference and its square take 17 MB."""
    Z = _normalized_rows(256, seed=1)
    peak = _peak_bytes(TR._median_distance, Z)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
    assert _peak_bytes(median_distance_reference, Z) > 4 * peak

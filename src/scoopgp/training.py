"""Training procedures for the reward model.

Three entry points:

- train_sl: pooled MSE training of the extractor and mean head, with a
  validation split, early stopping, and flip/noise augmentation.
- train_dkmt: joint NLML meta-training of mean, kernel, and GP
  hyperparameters, one task per batch.
- train_kcmd: the fold procedure. Phase 1 trains and retains a pooled
  mean model. Each fold then splits the tasks around a reference task
  (by transport distance, at random, or by material knowledge), retrains
  a fold mean from scratch on the similar side with an L2 anchor to the
  retained extractor, and collects that mean's residuals on the far
  side. A single kernel is finally meta-trained on all collected
  residuals, embedding each fold's records through that fold's frozen
  extractor, and the retained phase-1 weights are returned untouched.

train_dkmt and train_kcmd's kernel phase share one NLML meta-training
loop, _meta_train; they differ only in their batches, in the forward
pass in front of the kernel head, and in which weights besides the
kernel head and hyperparameters move.

Every procedure emits a manifest with ordered phase events, split
plans, loss curves, and weight digests.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import gp
from . import ot
from . import tensor as T
from .data import TaskDataset
from .model import Architecture, DeepGPModel, flip_permutation, init_segment_weights, record_dict

SPLIT_METHODS = ("ot", "random", "manual")
DISTANCE_BLOCK = 16  # rows per block of the lengthscale start's distances


class TrainingError(RuntimeError):
    """Training diverged or a fold could not be completed."""


@dataclass
class TrainConfig:
    k_folds: int = 10
    lr_mean: float = 5e-3
    lr_kernel: float = 1e-2
    patience: int = 5
    validation_fraction: float = 0.1
    l2_anchor_coeff: float = 1.0
    seed: int = 0
    batch_size: int = 128
    max_epochs_mean: int = 150
    max_epochs_meta: int = 150
    split_rule: str = "median"
    arch: Architecture = field(default_factory=Architecture)

    def validate(self, n_tasks: int | None = None) -> None:
        if self.k_folds < 2:
            raise ValueError("k_folds must be at least 2")
        if n_tasks is not None and self.k_folds > n_tasks:
            raise ValueError(f"k_folds={self.k_folds} exceeds task count {n_tasks}")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.patience < 1 or self.batch_size < 1:
            raise ValueError("patience and batch_size must be positive")
        if self.max_epochs_mean < 1 or self.max_epochs_meta < 1:
            raise ValueError("max_epochs_mean and max_epochs_meta must be at least 1")
        if self.split_rule not in ot.SPLIT_RULES:
            raise ValueError(f"unknown split_rule {self.split_rule!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")



@dataclass
class TrainingManifest:
    method: str
    seed: int
    config: dict
    events: list[str] = field(default_factory=list)
    splits: list[dict] = field(default_factory=list)
    loss_curves: dict = field(default_factory=dict)
    kernel_params: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def log(self, event: str) -> None:
        self.events.append(event)


def weight_digest(weights: dict[str, T.Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(weights):
        h.update(name.encode())
        h.update(np.ascontiguousarray(weights[name].data).tobytes())
    return h.hexdigest()


class _EarlyStop:
    """Early stopping on a per-epoch loss: snapshots params at every
    improvement and restores the best epoch's values."""

    def __init__(self, params: list[T.Tensor], patience: int):
        self.params = params
        self.patience = patience
        self.best = math.inf
        self.best_epoch = -1
        self._snapshot: list[np.ndarray] = []

    def update(self, epoch: int, value: float) -> bool:
        """Record improvements; True once patience epochs passed without one."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self._snapshot = [p.data.copy() for p in self.params]
        return epoch - self.best_epoch >= self.patience

    def restore(self, tag: str) -> None:
        """Restore the best epoch; TrainingError naming tag when no epoch's loss was finite."""
        if self.best_epoch < 0:
            raise TrainingError(f"{tag}: no epoch reached a finite loss")
        for p, data in zip(self.params, self._snapshot):
            p.data = data


def _noise_amplitudes(arch: Architecture) -> np.ndarray:
    hw = arch.patch_h * arch.patch_w
    amp = np.concatenate(
        [
            np.full((arch.channels - 1) * hw, 0.02),  # appearance jitter
            np.full(hw, 0.002),  # height noise, meters
            np.zeros(2),
        ]
    )
    return amp


def _noisy_batch(
    Xtr: np.ndarray,
    idx: np.ndarray,
    amp2: np.ndarray,
    rng: np.random.Generator,
    buf: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Xtr[idx] + rng.uniform(-1, 1, size) * amp, with amp2 = 2 * amp,
    written into the leading rows of buf: the same doubles from the same
    draws. The noise is drawn into noise with rng.random. uniform maps u
    to -1 + 2u; u is a multiple of 2**-53 in [0, 1), so -1 + 2u and
    u - 0.5 are exact, and (u - 0.5) * amp2 rounds the same exact product
    as (-1 + 2u) * amp, in one pass less."""
    n = len(idx)
    # idx is a slice of a permutation, so "clip" never clips; it spares
    # the temporary copy that take(out=...) makes in its default mode
    xb = np.take(Xtr, idx, axis=0, out=buf[:n], mode="clip")
    u = rng.random(out=noise[:n])
    u -= 0.5
    u *= amp2
    xb += u
    return xb


def _mse(pred: T.Tensor, y: np.ndarray) -> T.Tensor:
    """The mean of (pred - y)^2 over all elements as one tape op, y a
    constant. Value and gradient equal, bit for bit, those of the op-by-op
    oracle in tests/helpers.py, which keeps trained weights stable: the
    backward takes 2 d times the mean's share g / n of the upstream gradient."""
    d = pred.data - y
    n = d.size
    return T.custom_op((d * d).mean(), (pred,), lambda g: (2.0 * d * (g / n),))


def _train_mean(
    model: DeepGPModel,
    Xs: list[np.ndarray],
    ys: list[np.ndarray],
    cfg: TrainConfig,
    rng: np.random.Generator,
    manifest: TrainingManifest,
    curve_tag: str,
    anchor: dict[str, np.ndarray] | None = None,
) -> None:
    """MSE training of extractor+mean on per-task rows Xs, ys, with val-loss early stopping.

    Training data is doubled with flipped patches and gets fresh additive
    noise per batch; validation stays clean. With an anchor, the quadratic
    penalty cfg.l2_anchor_coeff * ||w - a||^2 on the extractor weights
    is applied as its exact proximal step once per epoch (decoupled, like
    AdamW weight decay): feeding the penalty through Adam's normalized
    steps cannot reach the anchor for large coefficients, while a
    per-batch proximal step overpins the extractor at the paper-scale
    coefficient and flattens the deployment gap between folds."""
    y_std = np.concatenate(ys)
    n, d = len(y_std), Xs[0].shape[1]
    n_val = min(math.ceil(cfg.validation_fraction * n), n - 1)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    n_tr = len(train_idx)
    # the tasks' rows in perm's order, validation rows first, then the
    # training rows flipped; "clip" never clips and spares take(out=...)'s copy
    task = np.concatenate([np.full(len(X), i) for i, X in enumerate(Xs)])[perm]
    local = np.concatenate([np.arange(len(X)) for X in Xs])[perm]
    rows = np.empty((n + n_tr, d))
    for i, X in enumerate(Xs):
        rows[:n][task == i] = X[local[task == i]]
    Xtr = rows[n_val:]
    np.take(Xtr[:n_tr], flip_permutation(cfg.arch), axis=1, out=Xtr[n_tr:], mode="clip")
    ytr = np.concatenate([y_std[train_idx], y_std[train_idx]])
    Xval, yval = (rows[:n_val], y_std[val_idx]) if n_val else (Xtr[:n_tr], y_std[train_idx])
    amp2 = 2.0 * _noise_amplitudes(cfg.arch)

    params = model.segment_params("extractor") + model.segment_params("mean")
    extractor_params = model.segment_params("extractor")
    state = T.AdamState()
    stopper = _EarlyStop(params, cfg.patience)
    curve = []
    buf = np.empty((min(cfg.batch_size, len(Xtr)), d))
    noise = np.empty_like(buf)
    for epoch in range(cfg.max_epochs_mean):
        order = rng.permutation(len(Xtr))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(Xtr), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = _noisy_batch(Xtr, idx, amp2, rng, buf, noise)
            yb = ytr[idx][:, None]
            with T.Tape() as tape:
                pred = model.mean_t(model.extractor_t(T.Tensor(xb)))
                loss = _mse(pred, yb)
                tape.backward(loss)
            try:
                T.adam_step(params, [p.grad for p in params], state, cfg.lr_mean)
            except T.OptimizerError as err:
                raise TrainingError(f"{curve_tag}: diverged at epoch {epoch}: {err}") from err
            epoch_loss += loss.item()
            n_batches += 1
        if anchor is not None and cfg.l2_anchor_coeff > 0.0:
            shrink = 1.0 / (1.0 + 2.0 * cfg.l2_anchor_coeff * cfg.lr_mean)
            for p in extractor_params:
                a = anchor[p.name]
                p.data = a + (p.data - a) * shrink
        val_pred = model.embed_rows(Xval)[0]
        val_mse = float(np.mean((val_pred - yval) ** 2))
        curve.append([epoch_loss / max(n_batches, 1), val_mse])
        if stopper.update(epoch, val_mse):
            break
    stopper.restore(curve_tag)
    manifest.loss_curves[curve_tag] = curve
    manifest.stats[f"{curve_tag}.val_size"] = int(n_val)
    manifest.stats[f"{curve_tag}.best_epoch"] = stopper.best_epoch
    manifest.stats[f"{curve_tag}.best_val_mse"] = stopper.best


def _reward_stats(tasks: list[TaskDataset]) -> tuple[float, float]:
    y = np.concatenate([t.rewards for t in tasks])
    return float(y.mean()), float(max(y.std(), 1e-6))


def train_sl(
    tasks: list[TaskDataset], cfg: TrainConfig
) -> tuple[DeepGPModel, TrainingManifest]:
    """Pooled supervised training of extractor and mean (no kernel)."""
    if not tasks:
        raise ValueError("train_sl needs at least one task")
    cfg.validate()
    manifest = TrainingManifest("sl", cfg.seed, record_dict(cfg))
    rng = np.random.default_rng(cfg.seed)
    model = DeepGPModel.init(cfg.arch, seed=cfg.seed, has_kernel=False)
    model.reward_mean, model.reward_std = _reward_stats(tasks)
    Xs = [t.feature_matrix(cfg.arch) for t in tasks]
    ys = [(t.rewards - model.reward_mean) / model.reward_std for t in tasks]
    manifest.log("phase:sl:start")
    _train_mean(model, Xs, ys, cfg, rng, manifest, curve_tag="sl")
    manifest.log("phase:sl:done")
    manifest.stats["reward_mean"] = model.reward_mean
    manifest.stats["reward_std"] = model.reward_std
    manifest.stats["sl_weight_digest"] = weight_digest(model.weights)
    return model, manifest


def _kp_tensors(kp: gp.KernelParams) -> dict[str, T.Tensor]:
    return {
        name: T.Tensor(np.asarray(value), requires_grad=True, name=f"kp.{name}")
        for name, value in record_dict(kp).items()
    }


def _median_distance(Z: np.ndarray) -> float:
    """Median distance between distinct rows of Z, 1.0 for one row: bit for bit
    one broadcast (n, n, d) difference's, taken DISTANCE_BLOCK rows at a time."""
    n = len(Z)
    sq = np.empty((n, n))
    for start in range(0, n, DISTANCE_BLOCK):
        D = Z[start : start + DISTANCE_BLOCK, None, :] - Z[None, :, :]
        sq[start : start + DISTANCE_BLOCK] = (D * D).sum(-1)
    return float(np.median(np.sqrt(np.maximum(sq[np.triu_indices(n, k=1)], 0.0)))) if n > 1 else 1.0


def _meta_train(
    model: DeepGPModel,
    batches: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]],
    forward,
    groups: list[tuple[list[T.Tensor], float]],
    cfg: TrainConfig,
    rng: np.random.Generator,
    manifest: TrainingManifest,
    curve_tag: str,
) -> tuple[int, list[np.ndarray]]:
    """NLML meta-training of model's kernel head and GP hyperparameters,
    and of the groups' parameters, one batch at a time, early-stopped on
    the mean epoch loss.

    batches are (label, plain rows, flipped rows, targets), where a 1-D
    flipped is the column permutation that flips a plain row. Each epoch
    visits them in a fresh permutation and takes each row flipped with
    probability 1/2. forward(rows, targets) returns the kernel head's
    input tensor and the residual tensor the NLML scores. groups are
    (params, learning rate), stepped with Adam in order before the kernel
    head and hyperparameters at cfg.lr_kernel. The hyperparameters start
    from the data: the lengthscale at the median distance between the
    embeddings of the first 256 pooled rows (a unit lengthscale against
    raw embedding distances saturates the RBF to zero, its gradient
    vanishes, and NLML settles into the no-correlation optimum), the
    outputscale at the targets' variance. The best epoch's weights are
    restored and written to model.kp. Returns the best epoch and every
    epoch's batch order."""
    kpt = _kp_tensors(model.kp)
    head, head_y, n = [], [], 0
    for _, plain, _, y in batches:
        if n >= 256:
            break
        head.append(plain[: 256 - n])
        head_y.append(y[: 256 - n])
        n += len(head[-1])
    Z = model.kernel_t(forward(np.vstack(head), np.concatenate(head_y))[0]).data
    kpt["log_lengthscale"].data = np.asarray(math.log(max(_median_distance(Z), 1e-3)))
    y_all = np.concatenate([y for *_, y in batches])
    kpt["log_outputscale"].data = np.asarray(math.log(max(float(np.var(y_all)), 1e-4)))

    groups = [*groups, (model.segment_params("kernel") + list(kpt.values()), cfg.lr_kernel)]
    states = [T.AdamState() for _ in groups]
    stopper = _EarlyStop([p for params, _ in groups for p in params], cfg.patience)
    curve, orders = [], []
    for epoch in range(cfg.max_epochs_meta):
        orders.append(rng.permutation(len(batches)))
        epoch_loss = 0.0
        for i in orders[-1]:
            label, plain, flipped, y = batches[i]
            mask = rng.random(len(plain)) < 0.5
            rows = plain.copy()
            rows[mask] = flipped[mask] if flipped.ndim > 1 else plain[np.ix_(mask, flipped)]
            try:
                with T.Tape() as tape:
                    F, resid = forward(rows, y)
                    Kbar = gp.gram_objective(
                        model.kernel_t(F),
                        kpt["log_lengthscale"],
                        kpt["log_outputscale"],
                        kpt["log_noise"],
                    )
                    loss = gp.nlml_objective(Kbar, resid)
                    tape.backward(loss)
                for (params, lr), state in zip(groups, states):
                    T.adam_step(params, [p.grad for p in params], state, lr)
            except (gp.ConditioningError, T.OptimizerError) as err:
                raise TrainingError(f"{label} epoch {epoch}: {err}") from err
            epoch_loss += loss.item()
        curve.append(epoch_loss / len(batches))
        if stopper.update(epoch, curve[-1]):
            break
    stopper.restore(curve_tag)
    model.kp = gp.KernelParams(**{name: float(t.data) for name, t in kpt.items()})
    manifest.loss_curves[curve_tag] = curve
    manifest.kernel_params = record_dict(model.kp)
    return stopper.best_epoch, orders


def train_dkmt(
    tasks: list[TaskDataset], cfg: TrainConfig
) -> tuple[DeepGPModel, TrainingManifest]:
    """Joint NLML meta-training of mean, kernel, and hyperparameters,
    one task per batch, early-stopped on the training loss."""
    if not tasks:
        raise ValueError("train_dkmt needs at least one task")
    cfg.validate()
    manifest = TrainingManifest("dkmt", cfg.seed, record_dict(cfg))
    rng = np.random.default_rng(cfg.seed)
    model = DeepGPModel.init(cfg.arch, seed=cfg.seed, has_kernel=True)
    model.reward_mean, model.reward_std = _reward_stats(tasks)
    flip_cols = flip_permutation(cfg.arch)
    batches = []
    for t in tasks:
        X = t.feature_matrix(cfg.arch)
        y_std = (t.rewards - model.reward_mean) / model.reward_std
        batches.append((f"dkmt: task {t.task_id}", X, flip_cols, y_std))

    def forward(rows, y):
        F = model.extractor_t(T.Tensor(rows))
        return F, T.sub(T.Tensor(y[:, None]), model.mean_t(F))

    mean_params = model.segment_params("extractor") + model.segment_params("mean")
    manifest.log("phase:dkmt:start")
    best_epoch, orders = _meta_train(
        model, batches, forward, [(mean_params, cfg.lr_mean)], cfg, rng, manifest, "dkmt"
    )
    manifest.log("phase:dkmt:done")
    manifest.stats["task_orders"] = [[tasks[i].task_id for i in order] for order in orders[:3]]
    manifest.stats["best_epoch"] = best_epoch
    return model, manifest


def manual_split(
    tasks: list[TaskDataset], k_folds: int = 1, seed: int = 0
) -> list[ot.SplitPlan]:
    """Splits built from ground-truth material ids so the two sides use
    different materials where achievable; tasks mixing both sides count
    as overlap, minimized exactly by enumerating material bipartitions."""
    task_mats = []
    for t in tasks:
        if not t.ground_truth or "materials" not in t.ground_truth:
            raise ot.SplitError(f"task {t.task_id} carries no material metadata")
        task_mats.append(frozenset(t.ground_truth["materials"]))
    materials = sorted(set().union(*task_mats))
    if len(materials) < 2:
        raise ot.SplitError("manual split needs at least 2 distinct materials")
    if len(materials) > 16:
        raise ot.SplitError("manual split supports at most 16 distinct materials")

    candidates = []
    for bits in range(1, 2 ** len(materials) - 1):
        mean_mats = {m for i, m in enumerate(materials) if bits >> i & 1}
        mean_ids, kernel_ids, overlap = [], [], 0
        for idx, mats in enumerate(task_mats):
            inside = len(mats & mean_mats)
            outside = len(mats) - inside
            if inside and outside:
                overlap += 1
            if inside >= outside:
                mean_ids.append(idx)
            else:
                kernel_ids.append(idx)
        if mean_ids and kernel_ids:
            candidates.append((overlap, bits, mean_ids, kernel_ids))
    if not candidates:
        raise ot.SplitError("no material bipartition separates the tasks")
    best_overlap = min(c[0] for c in candidates)
    best = [c for c in candidates if c[0] == best_overlap]
    rng = np.random.default_rng(seed)
    rng.shuffle(best)
    plans = []
    for k in range(k_folds):
        overlap, _, mean_ids, kernel_ids = best[k % len(best)]
        plans.append(
            ot.SplitPlan(
                fold_index=k,
                ref_task=mean_ids[0],
                mean_task_ids=list(mean_ids),
                kernel_task_ids=list(kernel_ids),
                split_method="manual",
                degenerate=overlap > 0,
                material_overlap=overlap,
            )
        )
    return plans


def train_kcmd(
    tasks: list[TaskDataset],
    cfg: TrainConfig,
    split_method: str = "ot",
) -> tuple[DeepGPModel, TrainingManifest]:
    """Fold-based training with simulated deployment gaps.

    Returns a model whose extractor and mean are the retained phase-1
    weights (bit-identical) and whose kernel head and hyperparameters
    were meta-trained on the fold residuals.
    """
    if len(tasks) < 2:
        raise ValueError("train_kcmd needs at least 2 tasks")
    if split_method not in SPLIT_METHODS:
        raise ValueError(f"split_method must be one of {SPLIT_METHODS}")
    cfg.validate(n_tasks=len(tasks))

    # fold_rng is independent of phase 1's generator
    fold_rng = np.random.default_rng([cfg.seed, 101])
    refs = fold_rng.permutation(len(tasks))[: cfg.k_folds]
    # phase 1: pooled mean model, retained for the returned model
    sl_model, sl_manifest = train_sl(tasks, cfg)
    manifest = TrainingManifest(f"kcmd-{split_method}", cfg.seed, record_dict(cfg))
    manifest.events.extend(sl_manifest.events)
    manifest.loss_curves.update(sl_manifest.loss_curves)
    manifest.stats.update(sl_manifest.stats)
    # nothing writes phase 1's weights again: the folds anchor on them
    # and the returned model holds them
    anchor = {p.name: p.data for p in sl_model.segment_params("extractor")}

    per_task_X = [t.feature_matrix(cfg.arch) for t in tasks]
    per_task_y = [
        (t.rewards - sl_model.reward_mean) / sl_model.reward_std for t in tasks
    ]
    flip_cols = flip_permutation(cfg.arch)

    manual_plans = None
    if split_method == "ot":
        manifest.log("phase:distances:start")
        D, eps = ot.task_distance_matrix(tasks, ot.SampleCostParams.from_tasks(tasks))
        manifest.stats["distance_matrix"] = np.round(D, 6).tolist()
        manifest.stats["distance_eps"] = eps
        manifest.log("phase:distances:done")
    elif split_method == "manual":
        manual_plans = manual_split(tasks, cfg.k_folds, seed=cfg.seed)

    # one kernel batch per (fold, kernel-side task): its records'
    # features in both patch orientations through the fold's frozen
    # extractor, and the fold mean's residuals
    batches, cells = [], []
    for k in range(cfg.k_folds):
        ref = int(refs[k])
        if split_method == "ot":
            plan = ot.median_split(tasks, ref, D, cfg.split_rule, fold_index=k)
        elif split_method == "random":
            others = [i for i in range(len(tasks)) if i != ref]
            fold_rng.shuffle(others)
            mean_ids, kernel_ids = ot.half_split([ref] + others)
            plan = ot.SplitPlan(k, ref, mean_ids, kernel_ids, split_method="random")
        else:
            plan = manual_plans[k]
        plan.validate(len(tasks))
        manifest.splits.append(record_dict(plan))
        manifest.log(
            f"fold:{k}:split:ref={plan.ref_task}:mean={len(plan.mean_task_ids)}"
            f":kernel={len(plan.kernel_task_ids)}"
        )

        fold_model = DeepGPModel.init(
            cfg.arch, seed=int(fold_rng.integers(2**31)), has_kernel=False
        )
        _train_mean(
            fold_model,
            [per_task_X[i] for i in plan.mean_task_ids],
            [per_task_y[i] for i in plan.mean_task_ids],
            cfg,
            fold_rng,
            manifest,
            curve_tag=f"fold-{k}",
            anchor=anchor,
        )
        drift = max(
            float(np.max(np.abs(p.data - anchor[p.name])))
            for p in fold_model.segment_params("extractor")
        )
        manifest.stats[f"fold-{k}.anchor_drift_inf"] = drift
        manifest.log(f"fold:{k}:mean-trained")

        for i in plan.kernel_task_ids:
            X = per_task_X[i]
            F = fold_model.extract_batch(X)
            batches.append((
                f"kernel meta-training: fold {k} task {tasks[i].task_id}",
                F,
                fold_model.extract_batch(X[:, flip_cols]),
                per_task_y[i] - fold_model.mean_t(T.Tensor(F)).data[:, 0],
            ))
            cells.append({"fold": k, "task_id": tasks[i].task_id, "count": len(X)})
        n_residuals = sum(len(per_task_X[i]) for i in plan.kernel_task_ids)
        manifest.log(f"fold:{k}:residuals:{n_residuals}")

    manifest.stats["residual_db_size"] = sum(c["count"] for c in cells)
    manifest.stats["residual_db_cells"] = cells

    # the returned model: phase 1's weights plus a fresh kernel head
    kernel_rng = np.random.default_rng([cfg.seed, 7])
    final = DeepGPModel(
        cfg.arch,
        {**sl_model.weights, **init_segment_weights(cfg.arch, "kernel", kernel_rng)},
        gp.KernelParams(),
        reward_mean=sl_model.reward_mean,
        reward_std=sl_model.reward_std,
        has_kernel=True,
    )

    manifest.log("phase:kernel:start")
    manifest.stats["kernel_best_epoch"], _ = _meta_train(
        final,
        batches,
        lambda F, residuals: (T.Tensor(F), T.Tensor(residuals[:, None])),
        [],
        cfg,
        np.random.default_rng([cfg.seed, 303]),
        manifest,
        "kernel",
    )
    manifest.log("phase:kernel:done")
    manifest.stats["returned_weight_digest"] = weight_digest(
        {n: w for n, w in final.weights.items() if not n.startswith("kernel.")}
    )
    return final, manifest

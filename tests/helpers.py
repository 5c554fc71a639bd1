"""Small builders and reference oracles shared across test modules."""
import json
import math
from pathlib import Path

import numpy as np

from scoopgp import gp, ot
from scoopgp import tensor as T
from scoopgp.data import SCHEMA_VERSION, ScoopRecord, TaskDataset
from scoopgp.model import (
    N_YAW,
    ScoopAction,
    TrajectoryConstants,
    action_rows,
    feature_matrix,
    record_dict,
)
from scoopgp.terrain import (
    FOOT_MARGIN,
    HEIGHT_NOISE,
    PATCH_CHANNELS,
    PATCH_H,
    PATCH_LEN,
    PATCH_W,
    SCOOP_WIDTH,
    BoundsError,
    execute_scoop,
    render_patches,
    sample_random_action,
    sample_reward,
)


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
                obs=patch,
                action=random_action(rng),
                reward=float(rng.uniform(0.0, 30.0)) + reward_shift,
            )
        )
    return TaskDataset(task_id, records)


def direction(yaw: int) -> tuple[np.ndarray, np.ndarray]:
    """The drag axis d and the side axis p of a yaw index, by math's cos and sin."""
    a = yaw * (2.0 * math.pi / N_YAW)
    return np.array([math.cos(a), math.sin(a)]), np.array([-math.sin(a), math.cos(a)])


def render_patches_reference(terrain, actions, rng=None):
    """One action at a time, drawing each action's noise as it goes: the
    oracle for terrain.render_patches, which must match it byte for byte
    and leave the generator in the same state. Without an rng the
    patches carry no noise, as terrain.render_patches renders them from
    all-0.5 uniforms."""
    n = len(actions)
    nx, ny = terrain.surface.shape
    colors = np.array([m.color for m in terrain.materials])
    textures = np.array([m.texture_scale for m in terrain.materials])
    du = (np.arange(PATCH_W) + 0.5) / PATCH_W * PATCH_LEN
    dv = ((np.arange(PATCH_H) + 0.5) / PATCH_H - 0.5) * PATCH_LEN
    DU, DV = np.meshgrid(du, dv)  # (H, W)
    out = np.empty((n, 4, PATCH_H, PATCH_W))
    for i, act in enumerate(actions):
        if not (0.0 <= act.x <= terrain.extent[0] and 0.0 <= act.y <= terrain.extent[1]):
            raise BoundsError(f"action start ({act.x}, {act.y}) outside extent {terrain.extent}")
        d, p = direction(act.yaw)
        px = act.x + d[0] * DU + p[0] * DV
        py = act.y + d[1] * DU + p[1] * DV
        ix = np.clip((px / terrain.cell).astype(np.int64), 0, nx - 1)
        iy = np.clip((py / terrain.cell).astype(np.int64), 0, ny - 1)
        mats = terrain.surface[ix, iy]
        out[i, :3] = colors[mats].transpose(2, 0, 1)
        out[i, 3] = terrain.heightfield[ix, iy]
        if rng is not None:
            scale = textures[mats]
            out[i, :3] += rng.uniform(-1.0, 1.0, size=(3, PATCH_H, PATCH_W)) * scale
            out[i, 3] += rng.uniform(-HEIGHT_NOISE, HEIGHT_NOISE, size=(PATCH_H, PATCH_W))
    np.clip(out[:, :3], 0.0, 1.0, out=out[:, :3])
    return out


def render_patch(terrain, act, rng=None) -> np.ndarray:
    """One action's (4, H, W) patch, its noise drawn from rng; without an
    rng, from all-0.5 uniforms, which render it without noise."""
    if rng is None:
        half = np.full((1, PATCH_CHANNELS, PATCH_H, PATCH_W), 0.5)
        return render_patches(terrain, [act], uniforms=half)[0]
    return render_patches(terrain, [act], rng)[0]


def feasible_reference(terrain, act) -> bool:
    """The four swath corners one at a time in Python floats: the oracle
    for terrain.feasible_mask, which must agree on every action."""
    d, p = direction(act.yaw)
    drag = TrajectoryConstants().drag_length_m
    half_w = SCOOP_WIDTH / 2.0
    corners = []
    for along in (-FOOT_MARGIN, drag + FOOT_MARGIN):
        for side in (-half_w - FOOT_MARGIN, half_w + FOOT_MARGIN):
            corners.append((act.x + d[0] * along + p[0] * side, act.y + d[1] * along + p[1] * side))
    return all(
        0.0 <= cx <= terrain.extent[0] and 0.0 <= cy <= terrain.extent[1]
        for cx, cy in corners
    )


def collect_offline_reference(task, n_samples=100, seed=0):
    """Each record rendered as it is drawn, its noise straight from the
    generator: the oracle for terrain.collect_offline, whose datasets must
    be byte-equal to these."""
    rng = np.random.default_rng(seed)
    t = task.terrain
    records = []
    while len(records) < n_samples:
        act = sample_random_action(t, rng)
        if not feasible_reference(t, act):
            continue
        obs = render_patch(t, act, rng)
        reward = sample_reward(t, act, rng)
        records.append(ScoopRecord(obs=obs, action=act, reward=reward))
    return TaskDataset(
        task_id=task.task_id,
        records=records,
        constants=TrajectoryConstants(),
        ground_truth={
            "composition": task.composition,
            "materials": t.material_ids(),
            "material_table": {m.id: record_dict(m) for m in t.materials if m.id in t.material_ids()},
            "layer_depth": t.layer_depth,
            "collect_seed": seed,
        },
    )


class LiveEnvironmentReference:
    """Renders every grid action, feasible or not, at every step, drawing
    all their noise, and hands over one row per grid action with the
    infeasible ones excluded: the oracle for decision.LiveEnvironment,
    whose episodes must pick, earn and score the same."""

    def __init__(self, task, grid, seed):
        self.task_id = task.task_id
        self.terrain = task.terrain.copy()
        self.actions = grid.enumerate(self.terrain.extent)
        self._infeasible = {i for i, a in enumerate(self.actions) if not feasible_reference(self.terrain, a)}
        self._features = action_rows(self.actions, PATCH_CHANNELS * PATCH_H * PATCH_W)
        self.rng = np.random.default_rng(seed)

    def candidates(self):
        patches = render_patches_reference(self.terrain, self.actions, self.rng)
        self._features[:, : patches[0].size] = patches.reshape(len(self.actions), -1)
        return self._features, self.actions, np.arange(len(self.actions))

    def excluded(self):
        return set(self._infeasible)

    def execute(self, index):
        if index in self._infeasible:
            raise RuntimeError(f"action {index} is kinematically infeasible")
        return execute_scoop(self.terrain, self.actions[index], self.rng)


def flip_patch(patch: np.ndarray) -> np.ndarray:
    """Flip across the axis perpendicular to the scoop direction."""
    return np.flip(patch, axis=1).copy()


def feature_vector(arch, obs, act) -> np.ndarray:
    """One pair's model feature row."""
    return feature_matrix(arch, [(obs, act)])[0]


def extract_features(model, obs, act) -> np.ndarray:
    """The extractor's output for one pair."""
    return model.extract_batch(feature_vector(model.arch, obs, act)[None, :])[0]


def embed_batch(model, X) -> np.ndarray:
    """The kernel head's embeddings of feature rows."""
    return model.kernel_t(T.Tensor(model.extract_batch(X))).data


def support_tuples(ds, indices) -> list:
    """The (obs, action, reward) support set of a dataset's records at
    indices, as model.predict_batch takes it."""
    return [(ds.records[i].obs, ds.records[i].action, ds.records[i].reward) for i in indices]


def kshot_mae_reference(model, datasets, shots, seed) -> dict:
    """eval-kshot's per-task MAE scored through model.predict_batch on
    (obs, action) pairs and support tuples, with the command's query,
    pool and support draws: the oracle for its feature-row scoring."""
    per_task = {}
    for task_index, ds in enumerate(datasets):
        n_query = round(0.8 * len(ds))
        rng = np.random.default_rng([seed, task_index])
        perm = rng.permutation(len(ds))
        query_idx, pool_idx = perm[:n_query], perm[n_query:]
        queries = [(ds.records[i].obs, ds.records[i].action) for i in query_idx]
        truth = np.array([ds.records[i].reward for i in query_idx])
        per_task[ds.task_id] = {}
        for k in shots:
            support_idx = rng.choice(pool_idx, size=k, replace=False) if k else []
            means, _ = model.predict_batch(queries, support_tuples(ds, support_idx))
            per_task[ds.task_id][str(k)] = float(np.mean(np.abs(means - truth)))
    return per_task


def predict(model, obs, act, support=()) -> gp.GPPosterior:
    """model.predict_batch for one candidate."""
    means, variances = model.predict_batch([(obs, act)], support)
    return gp.GPPosterior(mean=float(means[0]), variance=float(variances[0]))


def predict_mean(model, obs, act) -> float:
    """The mean head's reward prediction for one pair, de-standardized."""
    x = feature_vector(model.arch, obs, act)[None, :]
    return float(model.mean_batch(x)[0] * model.reward_std + model.reward_mean)


def nlml_terms_reference(Z, y, kp):
    """(complexity penalty, data fit, constant) of the NLML of residuals y
    at embeddings Z, in plain numpy: the oracle for gp.gram_objective
    plus gp.nlml_objective."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    n = len(Z)
    y = np.asarray(y, dtype=np.float64).reshape(n)
    L, _ = gp.cholesky_with_jitter(gp.gram(Z, kp))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return float(np.sum(np.log(np.diag(L)))), 0.5 * float(y @ alpha), 0.5 * n * gp.LOG_2PI


def rbf_gram_reference(Z, kp) -> np.ndarray:
    """The noiseless kernel matrix of embeddings Z, one gp.rbf per entry."""
    return np.array([[gp.rbf(a, b, kp) for b in Z] for a in Z])


def nlml_reference(Z, y, kp) -> float:
    return sum(nlml_terms_reference(Z, y, kp))


# --- op-by-op tape oracles --------------------------------------------------
#
# Small tape ops, each a T.custom_op with the arithmetic of the generic op
# it stands for (binary ops broadcast a scalar operand and sum its
# gradient), and the compositions the fused src ops must match byte for
# byte in outputs and gradients.


def _unbroadcast(g, t):
    return g if g.shape == t.shape else np.asarray(g.sum(), dtype=np.float64).reshape(t.shape)


def matmul(a, b):
    ad, bd = a.data, b.data
    return T.custom_op(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def add(a, b):
    return T.custom_op(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, a), _unbroadcast(g, b)))


def mul(a, b):
    ad, bd = a.data, b.data
    return T.custom_op(
        ad * bd, (a, b), lambda g: (_unbroadcast(g * bd, a), _unbroadcast(g * ad, b))
    )


def div(a, b):
    ad, bd = a.data, b.data
    return T.custom_op(
        ad / bd, (a, b),
        lambda g: (_unbroadcast(g / bd, a), _unbroadcast(-g * ad / (bd * bd), b)),
    )


def exp(a):
    od = np.exp(a.data)
    return T.custom_op(od, (a,), lambda g: (g * od,))


def log(a):
    ad = a.data
    return T.custom_op(np.log(ad), (a,), lambda g: (g / ad,))


def negate(a):
    return T.custom_op(-a.data, (a,), lambda g: (-g,))


def transpose(a):
    return T.custom_op(a.data.T.copy(), (a,), lambda g: (g.T.copy(),))


def reshape(a, shape):
    return T.custom_op(a.data.reshape(shape).copy(), (a,), lambda g: (g.reshape(a.shape),))


def sum_rows(a):
    """Row sums of a 2-d tensor, the row axis dropped."""
    return T.custom_op(
        a.data.sum(axis=1), (a,), lambda g: (np.broadcast_to(g[:, None], a.shape).copy(),)
    )


def sum_all(a):
    """The sum of all elements, a scalar: the loss of the tape tests."""
    return T.custom_op(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def relu(a):
    """max(a, 0): the unfused dense oracle's activation."""
    mask = a.data > 0.0
    return T.custom_op(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def dense_chain_reference(X, layers, relu_last):
    """Dense layers as four tape ops each (matmul, ones-column matmul for
    the bias, add, relu): the oracle for model.dense_chain's fused layers."""
    h = X
    for i, (w, b) in enumerate(layers):
        ones = T.Tensor(np.ones((h.shape[0], 1)))
        h = add(matmul(h, w), matmul(ones, b))
        if relu_last or i < len(layers) - 1:
            h = relu(h)
    return h


def soft_normalize_reference(raw):
    """Each row over sqrt(|r|^2 + 1e-4) in ten tape ops: the oracle for
    model.soft_normalize."""
    sq = reshape(sum_rows(T.square(raw)), (raw.shape[0], 1))
    inv_norm = div(T.Tensor(1.0), exp(mul(log(add(sq, T.Tensor(1e-4))), T.Tensor(0.5))))
    return mul(raw, matmul(inv_norm, T.Tensor(np.ones((1, raw.shape[1])))))


def gram_objective_reference(Z, log_lengthscale, log_outputscale, log_noise):
    """The noisy kernel matrix in 22 tape ops: the oracle for
    gp.gram_objective."""
    n = Z.shape[0]
    sqn = reshape(sum_rows(T.square(Z)), (n, 1))
    t1 = matmul(sqn, T.Tensor(np.ones((1, n))))
    cross = matmul(Z, transpose(Z))
    d2 = T.sub(add(t1, transpose(t1)), mul(cross, T.Tensor(2.0)))
    two_l2 = mul(T.square(exp(log_lengthscale)), T.Tensor(2.0))
    K = mul(exp(negate(div(d2, two_l2))), exp(log_outputscale))
    noise_var = T.square(exp(log_noise))
    return add(K, mul(T.Tensor(np.eye(n)), noise_var))


def adam_step_reference(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one parameter at a time, with per-parameter moment lists in
    state.m and state.v: the oracle for tensor.adam_step's flat update."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise T.OptimizerError(f"non-finite gradient for parameter {p.name or i}")
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * g * g
        m_hat = state.m[i] / (1.0 - beta1**t)
        v_hat = state.v[i] / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def noisy_batch_reference(Xtr, idx, amp2, rng, buf, noise):
    """A training batch drawn with rng.uniform at the amplitudes
    amp = amp2 / 2 (exact): the oracle for training._noisy_batch (buf and
    noise are unused)."""
    amp = amp2 / 2.0
    return Xtr[idx] + rng.uniform(-1.0, 1.0, size=(len(idx), Xtr.shape[1])) * amp


def histogram_matrix_reference(patches, params):
    """One np.histogram call per patch and channel: the oracle for
    ot.histogram_matrix."""
    rows = []
    for patch in patches:
        parts = []
        for c, (lo, hi) in enumerate(params.channel_ranges):
            values = np.clip(patch[c].ravel(), lo, hi)
            counts, _ = np.histogram(values, bins=params.histogram_bins, range=(lo, hi))
            parts.append(counts / values.size)
        rows.append(np.concatenate(parts))
    return np.array(rows)


def save_task_dataset_reference(ds, path):
    """json.dumps of the payload dict with one round() per value: the
    oracle for data.save_task_dataset, which must write the same bytes."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "task_id": ds.task_id,
        "patch_shape": list(ds.records[0].obs.shape),
        "trajectory_constants": record_dict(ds.constants),
        "ground_truth": ds.ground_truth,
        "records": [
            {
                "action": record_dict(r.action),
                "reward": round(float(r.reward), 6),
                "patch": [round(float(v), 6) for v in r.obs.ravel()],
            }
            for r in ds.records
        ],
    }
    Path(path).write_text(json.dumps(payload))


def entropic_transport_cost_reference(C, eps, max_iter=ot.MAX_ITER, tol=ot.TOL):
    """Log-domain Sinkhorn that forms the full plan at every iteration to
    test convergence: the oracle for ot.entropic_transport_cost, which
    must return the same value and converged flag bit for bit."""

    def logsumexp(M, axis):
        m = M.max(axis=axis, keepdims=True)
        return np.squeeze(m + np.log(np.sum(np.exp(M - m), axis=axis, keepdims=True)), axis=axis)

    C = np.ascontiguousarray(C, dtype=np.float64)
    Ct = np.ascontiguousarray(C.T)
    if C.shape[0] > C.shape[1] or (C.shape[0] == C.shape[1] and C.tobytes() > Ct.tobytes()):
        C = Ct
    n, m = C.shape
    eps = max(float(eps), 1e-12)
    log_mu = np.full(n, -np.log(n))
    log_nu = np.full(m, -np.log(m))
    f = np.zeros(n)
    g = np.zeros(m)
    converged = False
    for _ in range(max_iter):
        f = -eps * logsumexp((g[None, :] - C) / eps + log_nu[None, :], axis=1)
        g = -eps * logsumexp((f[:, None] - C) / eps + log_mu[:, None], axis=0)
        log_P = (f[:, None] + g[None, :] - C) / eps + log_mu[:, None] + log_nu[None, :]
        P = np.exp(log_P)
        if np.max(np.abs(P.sum(axis=1) - np.exp(log_mu))) < tol:
            converged = True
            break
    else:
        log_P = (f[:, None] + g[None, :] - C) / eps + log_mu[:, None] + log_nu[None, :]
        P = np.exp(log_P)
    return float(np.sum(P * C)), converged


def task_distance_matrix_reference(tasks, params, max_iter=ot.MAX_ITER, tol=ot.TOL):
    """Every pair in index order, its self costs rebuilt and re-solved,
    all at one eps, 0.05 times the median of every cross-cost entry
    (pairs i < j), by the reference Sinkhorn: the oracle for
    ot.task_distance_matrix. Returns the matrix, the eps and the pairs
    (i, j), i < j, that did not converge."""
    M = len(tasks)
    arrays = [ot._task_arrays(t, params) for t in tasks]

    def cost(i, j):
        return ot.cost_matrix_arrays(arrays[i], arrays[j], params)

    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    eps = 0.05 * np.median(np.concatenate([cost(i, j).ravel() for i, j in pairs]))
    D = np.zeros((M, M))
    unconverged = []
    for i, j in pairs:
        v_ab, ok_ab = entropic_transport_cost_reference(cost(i, j), eps, max_iter, tol)
        v_aa, ok_aa = entropic_transport_cost_reference(cost(i, i), eps, max_iter, tol)
        v_bb, ok_bb = entropic_transport_cost_reference(cost(j, j), eps, max_iter, tol)
        if not (ok_ab and ok_aa and ok_bb):
            unconverged.append((i, j))
        D[i, j] = D[j, i] = v_ab - 0.5 * v_aa - 0.5 * v_bb
    return D, eps, unconverged

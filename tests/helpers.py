"""Small builders and reference oracles shared across test modules."""
import json
import math
from pathlib import Path

import numpy as np

from scoopgp import gp, ot
from scoopgp import tensor as T
from scoopgp.data import SCHEMA_VERSION, TaskDataset, patches_path
from scoopgp.decision import EpisodeStep, EpisodeTrace
from scoopgp.model import (
    DEPTH_MAX,
    DEPTH_MIN,
    N_YAW,
    ScoopAction,
    TrajectoryConstants,
    action_rows,
    feature_matrix,
    record_dict,
)
from scoopgp.terrain import (
    _CORNERS,
    _YAW_AXES,
    FOOT_MARGIN,
    HEIGHT_NOISE,
    NOISE_FLOOR_STD,
    PATCH_CHANNELS,
    PATCH_H,
    PATCH_LEN,
    PATCH_W,
    REWARD_NOISE_SIGMA,
    SCOOP_WIDTH,
    SLOPE_FREE_DEG,
    STIFF_MISMATCH,
    BoundsError,
    execute_scoop,
    render_patches,
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
    patches = np.empty((n, channels, h, w))
    actions, rewards = [], []
    for patch in patches:
        patch[...] = rng.uniform(0.0, 1.0, size=(channels, h, w))
        patch[-1] = rng.uniform(0.0, 0.2, size=(h, w))
        actions.append(random_action(rng))
        rewards.append(float(rng.uniform(0.0, 30.0)) + reward_shift)
    return TaskDataset(task_id, patches, actions, rewards)


def direction(yaw: int) -> tuple[np.ndarray, np.ndarray]:
    """The drag axis d and the side axis p of a yaw index, by math's cos and sin."""
    a = yaw * (2.0 * math.pi / N_YAW)
    return np.array([math.cos(a), math.sin(a)]), np.array([-math.sin(a), math.cos(a)])


def render_patches_reference(terrain, actions, rng=None):
    """One action at a time, drawing each action's noise as it goes by
    rng.uniform: the oracle for terrain.render_patches, which must match
    it byte for byte, from the uniforms that rng.random draws, and leave
    the generator in the same state. rng is a Generator or, to render
    from uniforms drawn beforehand, a UniformStream of them. Without an
    rng the patches carry no noise, as terrain.render_patches renders
    them from all-0.5 uniforms."""
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


class UniformStream:
    """Uniforms drawn beforehand, handed out in order by uniform(low,
    high, size) as Generator.uniform hands out its draws: low + (high -
    low) * u, Generator.uniform's formula."""

    def __init__(self, uniforms):
        self._uniforms = np.ravel(uniforms)
        self._next = 0

    def uniform(self, low, high, size):
        stop = self._next + math.prod(size)
        u = self._uniforms[self._next:stop].reshape(size)
        self._next = stop
        return low + (high - low) * u

    def exhausted(self) -> bool:
        return self._next == self._uniforms.size


def render_patch(terrain, act, rng=None) -> np.ndarray:
    """One action's (4, H, W) patch, its noise drawn from rng; without an
    rng, from all-0.5 uniforms, which render it without noise."""
    shape = (1, PATCH_CHANNELS, PATCH_H, PATCH_W)
    return render_patches(terrain, [act], np.full(shape, 0.5) if rng is None else rng.random(shape))[0]


def feasible_reference(terrain, act) -> bool:
    """The four swath corners one at a time in Python floats, written
    out from the scoop's geometry: the oracle for terrain.feasible and
    feasible_mask, which must agree on every action."""
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


def feasible_mask(terrain, actions) -> np.ndarray:
    """(n,) bool: the swath-in-tray rule for many actions at once, with
    each corner coordinate start + d * along + p * side summed left to
    right in numpy: the oracle for terrain.feasible, which must give the
    same verdict on every action."""
    along, side = np.array(_CORNERS).T
    starts = np.array([(a.x, a.y) for a in actions], dtype=np.float64).reshape(-1, 2, 1)
    axes = _YAW_AXES[np.array([a.yaw for a in actions], dtype=np.int64)].reshape(-1, 2, 2, 1)
    corners = starts + axes[:, 0] * along + axes[:, 1] * side  # (n, xy, 4)
    inside = (0.0 <= corners) & (corners <= np.reshape(terrain.extent, (2, 1)))
    return inside.all(axis=(1, 2))


def feasible_by_mask(terrain, act) -> bool:
    """feasible_mask of the one action."""
    return bool(feasible_mask(terrain, [act])[0])


def sample_random_action_reference(terrain, rng) -> ScoopAction:
    """Each float drawn by rng.uniform: the oracle for
    terrain.sample_random_action, which must return the same action and
    leave the generator in the same state."""
    return ScoopAction(
        x=float(rng.uniform(0.0, terrain.extent[0])),
        y=float(rng.uniform(0.0, terrain.extent[1])),
        yaw=int(rng.integers(N_YAW)),
        depth=float(rng.uniform(DEPTH_MIN, DEPTH_MAX)),
        stiffness=int(rng.integers(2)),
    )


def _center_cell_reference(terrain, act):
    d = direction(act.yaw)[0]
    drag = TrajectoryConstants().drag_length_m
    cx, cy = act.x + d[0] * drag / 2.0, act.y + d[1] * drag / 2.0
    nx, ny = terrain.surface.shape
    return int(min(max(cx / terrain.cell, 0), nx - 1)), int(min(max(cy / terrain.cell, 0), ny - 1))


def base_reward_reference(terrain, act) -> float:
    """The centre cell found once for the material and again for the
    slope, heights read as numpy scalars: the oracle for
    terrain.base_reward, which must return the same float."""
    ix, iy = _center_cell_reference(terrain, act)
    pierced = terrain.hidden is not None and terrain.layer_depth is not None and act.depth > terrain.layer_depth
    mat = terrain.materials[int((terrain.hidden if pierced else terrain.surface)[ix, iy])]
    depth_factor = math.exp(-(((act.depth - mat.peak_depth) / mat.depth_width) ** 2))
    stiff = 1.0 if act.stiffness == mat.stiffness_pref else STIFF_MISMATCH
    ix, iy = _center_cell_reference(terrain, act)
    h = terrain.heightfield
    nx, ny = h.shape
    x0, x1 = max(ix - 1, 0), min(ix + 1, nx - 1)
    y0, y1 = max(iy - 1, 0), min(iy + 1, ny - 1)
    gx = (h[x1, iy] - h[x0, iy]) / ((x1 - x0) * terrain.cell) if x1 > x0 else 0.0
    gy = (h[ix, y1] - h[ix, y0]) / ((y1 - y0) * terrain.cell) if y1 > y0 else 0.0
    slope = math.degrees(math.atan(math.hypot(gx, gy)))
    raw = mat.peak_volume * depth_factor * stiff
    raw -= mat.jam_penalty * max(0.0, slope - SLOPE_FREE_DEG)
    return max(raw, 0.0)


def collect_offline_reference(task, n_samples=100, seed=0):
    """Each record rendered as it is drawn, its noise straight from the
    generator, its action, feasibility and reward from the oracles above:
    the oracle for terrain.collect_offline, whose datasets must be
    byte-equal to these."""
    rng = np.random.default_rng(seed)
    t = task.terrain
    patches, actions, rewards = [], [], []
    while len(actions) < n_samples:
        act = sample_random_action_reference(t, rng)
        if not feasible_by_mask(t, act):
            continue
        patches.append(render_patches_reference(t, [act], rng)[0])
        noise = math.exp(REWARD_NOISE_SIGMA * rng.standard_normal() - REWARD_NOISE_SIGMA**2 / 2.0)
        rewards.append(base_reward_reference(t, act) * noise + abs(rng.normal(0.0, NOISE_FLOOR_STD)))
        actions.append(act)
    return TaskDataset(
        task_id=task.task_id,
        patches=np.array(patches),
        actions=actions,
        rewards=rewards,
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
    """Renders each feasible geometry, a distinct (x, y, yaw) of the grid,
    once at every step, in the order of its first action, drawing only
    their noise, and copies its patch into the row of every action with
    that geometry. It hands over one row per grid action with the
    infeasible ones excluded (their patch columns stay 0): the oracle for
    decision.LiveEnvironment, whose episodes must pick, earn and score the
    same."""

    def __init__(self, task, grid, seed):
        self.task_id = task.task_id
        self.terrain = task.terrain.copy()
        self.actions = grid.enumerate(self.terrain.extent)
        self._infeasible = {i for i, a in enumerate(self.actions) if not feasible_reference(self.terrain, a)}
        self._geometry = [(a.x, a.y, a.yaw) for a in self.actions]
        self._heads = {}  # feasible geometry -> its first action
        for i, a in enumerate(self.actions):
            if i not in self._infeasible:
                self._heads.setdefault(self._geometry[i], a)
        self._features = action_rows(self.actions, PATCH_CHANNELS * PATCH_H * PATCH_W)
        self._features[:, : PATCH_CHANNELS * PATCH_H * PATCH_W] = 0.0
        self.rng = np.random.default_rng(seed)

    def candidates(self):
        patches = render_patches_reference(self.terrain, list(self._heads.values()), self.rng)
        observed = dict(zip(self._heads, patches))
        for i, geometry in enumerate(self._geometry):
            if geometry in observed:
                self._features[i, : patches[0].size] = observed[geometry].ravel()
        return self._features, self.actions, np.arange(len(self.actions))

    def excluded(self):
        return set(self._infeasible)

    def execute(self, index):
        if index in self._infeasible:
            raise RuntimeError(f"action {index} is kinematically infeasible")
        return execute_scoop(self.terrain, self.actions[index], self.rng)


def shared_rows_matrix(rows) -> np.ndarray:
    """The dense (len(tail), patch_size + 2) feature matrix that a
    model.SharedPatchRows stands for: each patch repeated once per row of
    its tail, the tail in the last two columns."""
    variants = len(rows.tail) // len(rows.patches)
    return np.hstack([np.repeat(rows.patches, variants, axis=0), rows.tail])


def run_episode_reference(model, env, threshold, max_attempts, policy):
    """decision.run_episode as it scored rows before embeddings were kept:
    at every step predict_rows on the allowed candidate rows, gathered
    from the feature matrix, with the support as copies of the chosen
    feature rows. The oracle for the embed-once episode: the same index
    sequence, and scores equal up to where BLAS rounds a row differently
    in another batch."""
    steps, success, rows, rewards = [], False, [], []
    for _ in range(max_attempts):
        features, actions, indices = env.candidates()
        excluded = env.excluded()
        if len(excluded) >= len(actions):
            break
        allowed = np.flatnonzero(~np.isin(indices, list(excluded)))
        Xs = np.array(rows).reshape(len(rows), features.shape[1])
        scores = policy.scores(*model.predict_rows(features.take(allowed, axis=0), Xs, rewards))
        best = int(np.argmax(scores))
        row = int(allowed[best])
        index = int(indices[row])
        reward = env.execute(index)
        steps.append(EpisodeStep(index, actions[index], reward, float(scores[best])))
        if reward >= threshold:
            success = True
            break
        rows.append(features[row].copy())
        rewards.append(reward)
    return EpisodeTrace(env.task_id, policy.label(), threshold, max_attempts, success, len(steps), None, {}, steps)


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


def sample(ds, i) -> tuple:
    """A dataset's i-th scoop as a (patch, action, reward) tuple."""
    return ds.patches[i], ds.actions[i], float(ds.rewards[i])


def support_tuples(ds, indices) -> list:
    """The (patch, action, reward) support set of a dataset's scoops at
    indices, as model.predict_batch takes it."""
    return [sample(ds, i) for i in indices]


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
        queries = [(ds.patches[i], ds.actions[i]) for i in query_idx]
        truth = np.array([ds.rewards[i] for i in query_idx])
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
    return float(model.embed_rows(x)[0][0] * model.reward_std + model.reward_mean)


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


def posterior_batch_reference(support_Z, residuals, query_Z, kp):
    """gp.posterior_batch as it was before the support grew row by row:
    the full Cholesky factor of the support's Gram matrix, then general
    solves against it. The oracle for gp.Posterior."""
    query_Z = np.atleast_2d(np.asarray(query_Z, dtype=np.float64))
    m = len(query_Z)
    if np.size(support_Z) == 0:
        prior = kp.outputscale + kp.noise**2
        return np.zeros(m), np.full(m, prior)
    support_Z = np.atleast_2d(np.asarray(support_Z, dtype=np.float64))
    n = len(support_Z)
    y = np.asarray(residuals, dtype=np.float64).reshape(n)
    Kbar = gp.gram(support_Z, kp)
    L, _ = gp.cholesky_with_jitter(Kbar)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    Kqs = gp.cross_gram(query_Z, support_Z, kp)
    means = Kqs @ alpha
    V = np.linalg.solve(L, Kqs.T)
    variances = kp.outputscale - np.sum(V * V, axis=0)
    return means, np.maximum(variances, gp.VARIANCE_FLOOR)


class PosteriorReference:
    """gp.Posterior as it was before its support lived in doubling buffers:
    every row re-stacks Z, y, w, V and Q, and re-derives the squared norms
    of the support and of the queries. The oracle for the buffered one,
    which must give the same bytes."""

    def __init__(self, kp, query_Z):
        self.kp, self.jitter = kp, 0.0
        self.Z, self.y = np.empty((0, np.shape(query_Z)[-1])), np.empty(0)
        self.Q, self.w = np.empty((0, 0)), np.empty(0)
        self.project(query_Z)

    def project(self, query_Z):
        self.Zq = np.atleast_2d(np.asarray(query_Z, dtype=np.float64))
        self.V = self.Q @ gp.cross_gram(self.Z, self.Zq, self.kp)
        self.means, self.sumsq = self.V.T @ self.w, np.sum(self.V * self.V, axis=0)

    def grow(self, z, y):
        z = np.asarray(z, dtype=np.float64).reshape(1, -1)
        row = self.Q @ gp.cross_gram(self.Z, z, self.kp)[:, 0]
        pivot = self.kp.outputscale + self.kp.noise**2 + self.jitter - row @ row
        self.Z, self.y = np.vstack([self.Z, z]), np.append(self.y, y)
        if pivot > 0.0:
            d = math.sqrt(pivot)
            self.Q = np.block([[self.Q, np.zeros((len(row), 1))], [-(row @ self.Q) / d, 1.0 / d]])
            w, v = (y - row @ self.w) / d, (gp.cross_gram(z, self.Zq, self.kp)[0] - row @ self.V) / d
            self.w, self.V = np.append(self.w, w), np.vstack([self.V, v])
            self.means, self.sumsq = self.means + w * v, self.sumsq + v * v
        else:
            L, self.jitter = gp.cholesky_with_jitter(gp.gram(self.Z, self.kp))
            self.Q = np.linalg.inv(L)
            self.w = self.Q @ self.y
            self.project(self.Zq)

    def predict(self):
        if not len(self.y):
            return np.zeros(len(self.Zq)), np.full(len(self.Zq), self.kp.outputscale + self.kp.noise**2)
        return self.means, np.maximum(self.kp.outputscale - self.sumsq, gp.VARIANCE_FLOOR)


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


def square(a):
    """a * a elementwise."""
    ad = a.data
    return T.custom_op(ad * ad, (a,), lambda g: (2.0 * ad * g,))


def mean(a):
    """The mean of all elements, a scalar."""
    count = a.data.size
    return T.custom_op(a.data.mean(), (a,), lambda g: (np.broadcast_to(g, a.shape) / count,))


def mse_reference(pred, y):
    """mean(square(pred - y)) in three tape ops, y a constant: the oracle
    for training._mse."""
    return mean(square(T.sub(pred, T.Tensor(y))))


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
    sq = reshape(sum_rows(square(raw)), (raw.shape[0], 1))
    inv_norm = div(T.Tensor(1.0), exp(mul(log(add(sq, T.Tensor(1e-4))), T.Tensor(0.5))))
    return mul(raw, matmul(inv_norm, T.Tensor(np.ones((1, raw.shape[1])))))


def gram_objective_reference(Z, log_lengthscale, log_outputscale, log_noise):
    """The noisy kernel matrix in 22 tape ops: the oracle for
    gp.gram_objective."""
    n = Z.shape[0]
    sqn = reshape(sum_rows(square(Z)), (n, 1))
    t1 = matmul(sqn, T.Tensor(np.ones((1, n))))
    cross = matmul(Z, transpose(Z))
    d2 = T.sub(add(t1, transpose(t1)), mul(cross, T.Tensor(2.0)))
    two_l2 = mul(square(exp(log_lengthscale)), T.Tensor(2.0))
    K = mul(exp(negate(div(d2, two_l2))), exp(log_outputscale))
    noise_var = square(exp(log_noise))
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


def pool_reference(tasks, arch, reward_mean, reward_std):
    """Every task's feature rows stacked in task order, and their rewards
    standardized: the pooled copy that training made before it gathered
    rows from the per-task matrices."""
    X = np.vstack([t.feature_matrix(arch) for t in tasks])
    y = np.concatenate([t.rewards for t in tasks])
    return X, (y - reward_mean) / reward_std


def training_rows_reference(X, perm, n_val, flip_cols):
    """The doubled training matrix (flipped copy second) and the validation
    rows, taken with np.take from the pooled matrix X: the oracle for the
    rows training._train_mean gathers from per-task matrices. Without a
    validation split the training rows validate."""
    Xtr = np.take(X, perm[n_val:], axis=0)
    Xtr = np.vstack([Xtr, np.take(Xtr, flip_cols, axis=1)])
    Xval = np.take(X, perm[:n_val], axis=0) if n_val else Xtr[: len(X) - n_val]
    return Xtr, Xval


def median_distance_reference(Z) -> float:
    """The median distance between distinct rows of Z from one broadcast
    (n, n, d) difference, 1.0 for one row: the oracle for
    training._median_distance."""
    n = len(Z)
    D = Z[:, None, :] - Z[None, :, :]
    dists = np.sqrt(np.maximum((D * D).sum(-1), 0.0))
    return float(np.median(dists[np.triu_indices(n, k=1)])) if n > 1 else 1.0


def histogram_matrix_reference(patches, params):
    """One np.histogram call per patch and channel: the oracle for
    ot.histogram_matrix."""
    rows = []
    for patch in patches:
        parts = []
        for c, (lo, hi) in enumerate(params.channel_ranges):
            values = np.clip(patch[c].ravel(), lo, hi)
            counts, _ = np.histogram(values, bins=ot.HISTOGRAM_BINS, range=(lo, hi))
            parts.append(counts / values.size)
        rows.append(np.concatenate(parts))
    return np.array(rows)


def save_task_dataset_reference(ds, path):
    """json.dumps of the header dict and np.save of the patch stack, with
    one round() per value: the oracle for data.save_task_dataset, which
    must write the same bytes to both files."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "task_id": ds.task_id,
        "patch_shape": list(ds.patches[0].shape),
        "trajectory_constants": record_dict(ds.constants),
        "ground_truth": ds.ground_truth,
        "records": [
            {"action": record_dict(action), "reward": round(float(reward), 6)}
            for action, reward in zip(ds.actions, ds.rewards)
        ],
    }
    Path(path).write_text(json.dumps(payload))
    patches = [[round(float(v), 6) for v in patch.ravel()] for patch in ds.patches]
    np.save(patches_path(path), np.array(patches).reshape(len(ds.patches), *ds.patches[0].shape))


def suite_task_dict_reference(task) -> dict:
    """A task as a hand-written dict of its terrain's fields but the grids:
    the oracle for the SuiteTask records of suite.json, which must dump to
    the same bytes."""
    t = task.terrain
    return {
        "task_id": task.task_id,
        "is_test": task.is_test,
        "composition": t.composition,
        "materials": [record_dict(m) for m in t.materials],
        "seed": t.seed,
        "layer_depth": t.layer_depth,
        "extent": list(t.extent),
        "cell": t.cell,
    }


def suite_grids_reference(tasks) -> dict:
    """Every task's grids by "<task id>/<grid>", heights rounded to 6
    places by a JSON round trip of their text, as suite.json once held
    them: the oracle for the suite's grids sidecar, which np.savez of this
    dict must reproduce byte for byte."""
    grids = {}
    for task in tasks:
        t = task.terrain
        grids[f"{task.task_id}/surface"] = t.surface.astype(np.int64)
        grids[f"{task.task_id}/heightfield"] = np.array(json.loads(json.dumps(np.round(t.heightfield, 6).tolist())))
        if t.hidden is not None:
            grids[f"{task.task_id}/hidden"] = t.hidden.astype(np.int64)
    return grids


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

"""Reward model: a shared dense feature extractor feeding a scalar mean
head and a GP embedding head.

The model sees small oriented (C, H, W) image patches: appearance
channels plus a height channel, the left edge at the scoop start and the
horizontal axis along the scoop direction. Actions contribute depth and
stiffness as raw features, while position and yaw are consumed by patch
extraction. The mean head predicts standardized reward; the kernel
head embeds inputs for the residual GP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import gp
from . import tensor as T

DEPTH_MIN = 0.03
DEPTH_MAX = 0.08
N_YAW = 8
STIFF_SOFT = 0
STIFF_HARD = 1
STIFFNESSES = (STIFF_SOFT, STIFF_HARD)

_DEPTH_MID = 0.5 * (DEPTH_MIN + DEPTH_MAX)
_DEPTH_HALF = 0.5 * (DEPTH_MAX - DEPTH_MIN)
# the types of a JSON number once parsed; bool, an int subclass, is not one
JSON_NUMBERS = (int, float)


def record_dict(record) -> dict:
    """A dataclass record's fields in declaration order, each nested record
    as its own dict: the JSON object every artifact writes for it. Unlike
    dataclasses.asdict it copies no value, a cost the dataset and trace
    writers would pay once per record."""
    return {
        k: record_dict(v) if hasattr(v, "__dataclass_fields__") else v
        for k, v in vars(record).items()
    }


@dataclass(frozen=True)
class TrajectoryConstants:
    """Fixed scoop-trajectory parameters, recorded with every dataset."""

    attack_angle_deg: float = 135.0
    drag_length_m: float = 0.06
    closing_angle_deg: float = 190.0
    lift_height_m: float = 0.02
    linear_stiffness_soft: float = 250.0
    linear_stiffness_hard: float = 750.0
    torsion_stiffness_soft: float = 6.0
    torsion_stiffness_hard: float = 20.0

    @classmethod
    def from_dict(cls, d: dict) -> "TrajectoryConstants":
        """Refuses, with ValueError, a missing or unknown constant and a
        value that is not a finite number; a JSON boolean is not one."""
        names = [f.name for f in fields(cls)]
        if not (isinstance(d, dict) and sorted(d) == sorted(names)
                and all(type(v) in JSON_NUMBERS and math.isfinite(v) for v in d.values())):
            raise ValueError(f"trajectory constants {d!r} are not finite numbers named {names}")
        return cls(**d)


@dataclass
class ScoopAction:
    """One parameterized scoop: start position, yaw index, depth, stiffness."""

    x: float
    y: float
    yaw: int
    depth: float
    stiffness: int

    def validate(self) -> None:
        """ValueError for a value out of range; patch_cells refuses a start outside the terrain."""
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"start ({self.x}, {self.y}) must be finite")
        if not 0 <= self.yaw < N_YAW:
            raise ValueError(f"yaw index {self.yaw} outside 0..{N_YAW - 1}")
        if not DEPTH_MIN <= self.depth <= DEPTH_MAX:
            raise ValueError(f"depth {self.depth} outside [{DEPTH_MIN}, {DEPTH_MAX}]")
        if self.stiffness not in STIFFNESSES:
            raise ValueError(f"stiffness {self.stiffness} must be 0 (soft) or 1 (hard)")

    @property
    def yaw_angle(self) -> float:
        return self.yaw * (2.0 * math.pi / N_YAW)

    def vector(self) -> np.ndarray:
        """Numeric encoding used by the task-distance cost."""
        return np.array(
            [self.x, self.y, self.yaw_angle, self.depth, float(self.stiffness)]
        )

    @classmethod
    def from_dict(cls, d: dict) -> "ScoopAction":
        """Refuses, with ValueError, a yaw or stiffness that is not an
        integer (2.7 is not truncated to 2) and a position or depth that
        is not a number; a JSON boolean or string is neither."""
        x, y, yaw, depth, stiffness = d["x"], d["y"], d["yaw"], d["depth"], d["stiffness"]
        if type(yaw) is not int or type(stiffness) is not int:
            raise ValueError(f"yaw {yaw!r} and stiffness {stiffness!r} must be integers")
        if not (type(x) in JSON_NUMBERS and type(y) in JSON_NUMBERS and type(depth) in JSON_NUMBERS):
            raise ValueError(f"start ({x!r}, {y!r}) and depth {depth!r} must be numbers")
        return cls(x, y, yaw, depth, stiffness)


def validate_patches(patches: np.ndarray) -> None:
    """ValueError when a patch of a (n, C, H, W) stack is non-finite or has appearance
    outside [0, 1]; the message names the first bad patch's index."""
    bad = ~np.isfinite(patches).all(axis=(1, 2, 3))
    if bad.any():
        raise ValueError(f"patch {np.flatnonzero(bad)[0]} contains non-finite values")
    appearance = patches[:, :-1]
    bad = ((appearance < -1e-9) | (appearance > 1.0 + 1e-9)).any(axis=(1, 2, 3))
    if bad.any():
        raise ValueError(f"patch {np.flatnonzero(bad)[0]}: appearance channels must lie in [0, 1]")


@dataclass(frozen=True)
class Architecture:
    """Layer widths for the extractor and the two heads."""

    channels: int = 4
    patch_h: int = 16
    patch_w: int = 16
    extractor_widths: tuple[int, ...] = (64, 64)
    mean_widths: tuple[int, ...] = (32,)
    kernel_widths: tuple[int, ...] = (32,)
    embed_dim: int = 16

    @property
    def patch_size(self) -> int:
        return self.channels * self.patch_h * self.patch_w

    @property
    def input_dim(self) -> int:
        return self.patch_size + 2  # + depth, stiffness

    @property
    def feature_dim(self) -> int:
        return self.extractor_widths[-1]

    @classmethod
    def from_dict(cls, d: dict) -> "Architecture":
        return cls(
            channels=d["channels"],
            patch_h=d["patch_h"],
            patch_w=d["patch_w"],
            extractor_widths=tuple(d["extractor_widths"]),
            mean_widths=tuple(d["mean_widths"]),
            kernel_widths=tuple(d["kernel_widths"]),
            embed_dim=d["embed_dim"],
        )


def action_rows(actions, patch_size: int) -> np.ndarray:
    """(n, patch_size + 2) feature rows with the actions' normalized depth
    and stiffness flag in the last two columns; the caller writes the
    flattened patches into the first patch_size columns."""
    n = len(actions)
    X = np.empty((n, patch_size + 2))
    depths = np.fromiter((act.depth for act in actions), np.float64, n)
    X[:, -2] = (depths - _DEPTH_MID) / _DEPTH_HALF
    X[:, -1] = np.fromiter((act.stiffness for act in actions), np.float64, n)
    return X


def feature_rows(pairs) -> np.ndarray:
    """(n, C * H * W + 2) model features of [(patch, act)] pairs whose
    patches share one (C, H, W) shape: each row is the flattened patch
    plus normalized depth and the stiffness flag."""
    pairs = list(pairs)
    shape = pairs[0][0].shape
    X = action_rows([act for _, act in pairs], math.prod(shape))
    np.stack([patch for patch, _ in pairs], out=X[:, :-2].reshape(len(pairs), *shape))
    return X


def feature_matrix(arch: Architecture, pairs) -> np.ndarray:
    """feature_rows of pairs whose patches have the architecture's shape."""
    pairs = list(pairs)
    shape = (arch.channels, arch.patch_h, arch.patch_w)
    for patch, _ in pairs:
        if patch.shape != shape:
            raise T.ShapeError(f"patch shape {patch.shape} does not match architecture {shape}")
    return feature_rows(pairs)


def flip_permutation(arch: Architecture) -> np.ndarray:
    """Column permutation turning a feature row into its flipped-patch twin."""
    idx = np.arange(arch.patch_size).reshape(arch.channels, arch.patch_h, arch.patch_w)
    flipped = idx[:, ::-1, :].ravel()
    return np.concatenate([flipped, [arch.patch_size, arch.patch_size + 1]])


def _segment_layers(arch: Architecture, segment: str) -> list[tuple[int, int]]:
    if segment == "extractor":
        dims = [arch.input_dim, *arch.extractor_widths]
    elif segment == "mean":
        dims = [arch.feature_dim, *arch.mean_widths, 1]
    elif segment == "kernel":
        dims = [arch.feature_dim, *arch.kernel_widths, arch.embed_dim]
    else:
        raise ValueError(segment)
    return list(zip(dims[:-1], dims[1:]))


def init_segment_weights(
    arch: Architecture, segment: str, rng: np.random.Generator
) -> dict[str, T.Tensor]:
    """He-init hidden layers; Xavier final layers; zero final mean layer."""
    weights: dict[str, T.Tensor] = {}
    layers = _segment_layers(arch, segment)
    for i, (fan_in, fan_out) in enumerate(layers):
        last = i == len(layers) - 1
        if segment == "mean" and last:
            w = np.zeros((fan_in, fan_out))
        elif last and segment != "extractor":
            w = rng.normal(scale=math.sqrt(1.0 / fan_in), size=(fan_in, fan_out))
        else:
            w = rng.normal(scale=math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        name_w = f"{segment}.{i}.w"
        name_b = f"{segment}.{i}.b"
        weights[name_w] = T.Tensor(w, requires_grad=True, name=name_w)
        weights[name_b] = T.Tensor(np.zeros((1, fan_out)), requires_grad=True, name=name_b)
    return weights


def dense_chain(
    X: T.Tensor, layers: list[tuple[T.Tensor, T.Tensor]], relu_last: bool
) -> T.Tensor:
    """Sequential dense layers, ReLU after each but the last unless
    relu_last; one tape op per layer."""
    h = X
    for i, (w, b) in enumerate(layers):
        h = T.dense(h, w, b, relu=relu_last or i < len(layers) - 1)
    return h


def soft_normalize(raw: T.Tensor) -> T.Tensor:
    """Each row r of raw divided by sqrt(|r|^2 + 1e-4), as one tape op.

    Bounded embedding distances keep the RBF alive on out-of-distribution
    inputs instead of saturating to zero; the 1e-4 smoothing keeps the
    gradient finite when a raw embedding sits near the origin. Output and
    gradient equal, bit for bit, those of the op-by-op oracle in
    tests/helpers.py, which keeps trained weights stable: that takes
    1 / exp(0.5 log s) in place of 1 / sqrt(s), and the backward's row
    sums as a product with a ones column."""
    rd = raw.data
    s = (rd * rd).sum(axis=1)[:, None] + 1e-4
    norm = np.exp(np.log(s) * 0.5)
    scale = 1.0 / norm

    def backward_fn(g):
        g_scale = (g * rd) @ np.ones((rd.shape[1], 1))
        g_log = (-g_scale / (norm * norm) * norm) * 0.5
        return (g * scale + 2.0 * rd * (g_log / s),)

    return T.custom_op(rd * scale, (raw,), backward_fn)


class DeepGPModel:
    """Extractor + mean head (+ optional kernel head and GP hyperparameters).

    Rewards are standardized with the stored normalization constants
    before any GP math and de-standardized on output. Prediction is pure
    and never mutates weights.
    """

    def __init__(
        self,
        arch: Architecture,
        weights: dict[str, T.Tensor],
        kp: gp.KernelParams,
        reward_mean: float = 0.0,
        reward_std: float = 1.0,
        has_kernel: bool = True,
    ):
        self.arch = arch
        self.weights = weights
        self.kp = kp
        self.reward_mean = reward_mean
        self.reward_std = reward_std
        self.has_kernel = has_kernel
        self._check_dims()

    @classmethod
    def init(cls, arch: Architecture, seed: int, has_kernel: bool = True) -> "DeepGPModel":
        rng = np.random.default_rng(seed)
        weights = init_segment_weights(arch, "extractor", rng)
        weights.update(init_segment_weights(arch, "mean", rng))
        if has_kernel:
            weights.update(init_segment_weights(arch, "kernel", rng))
        return cls(arch, weights, gp.KernelParams(), has_kernel=has_kernel)

    def _check_dims(self) -> None:
        for segment in ("extractor", "mean") + (("kernel",) if self.has_kernel else ()):
            for i, (fan_in, fan_out) in enumerate(_segment_layers(self.arch, segment)):
                w = self.weights[f"{segment}.{i}.w"]
                if w.shape != (fan_in, fan_out):
                    raise T.ShapeError(
                        f"{segment}.{i}.w has shape {w.shape}, expected {(fan_in, fan_out)}"
                    )

    def segment_params(self, segment: str) -> list[T.Tensor]:
        n_layers = len(_segment_layers(self.arch, segment))
        return [
            self.weights[f"{segment}.{i}.{kind}"]
            for i in range(n_layers)
            for kind in ("w", "b")
        ]

    def _layers(self, segment: str) -> list[tuple[T.Tensor, T.Tensor]]:
        n_layers = len(_segment_layers(self.arch, segment))
        return [
            (self.weights[f"{segment}.{i}.w"], self.weights[f"{segment}.{i}.b"])
            for i in range(n_layers)
        ]

    # tape-able forwards (run them under an active Tape to record grads)
    def extractor_t(self, X: T.Tensor) -> T.Tensor:
        return dense_chain(X, self._layers("extractor"), relu_last=True)

    def mean_t(self, F: T.Tensor) -> T.Tensor:
        return dense_chain(F, self._layers("mean"), relu_last=False)

    def kernel_t(self, F: T.Tensor) -> T.Tensor:
        if not self.has_kernel:
            raise RuntimeError("model has no kernel head")
        return soft_normalize(dense_chain(F, self._layers("kernel"), relu_last=False))

    # numpy conveniences over the same forward code
    def extract_batch(self, X: np.ndarray) -> np.ndarray:
        return self.extractor_t(T.Tensor(X)).data

    def mean_batch(self, X: np.ndarray) -> np.ndarray:
        """Standardized mean predictions for a feature matrix."""
        return self.mean_t(T.Tensor(self.extract_batch(X))).data[:, 0]

    def feature_vector(self, obs: np.ndarray, act: ScoopAction) -> np.ndarray:
        """One (patch, action) pair's feature row; kept because perfbench/layers.py wraps it."""
        return feature_matrix(self.arch, [(obs, act)])[0]

    def predict_batch(self, candidates, support=()) -> tuple[np.ndarray, np.ndarray]:
        """predict_rows over [(patch, act)] candidates and a [(patch, act,
        reward)] support set."""
        support = list(support)
        if support:
            Xs = feature_matrix(self.arch, [(o, a) for o, a, _ in support])
        else:
            Xs = np.empty((0, self.arch.input_dim))
        return self.predict_rows(feature_matrix(self.arch, candidates), Xs, [r for _, _, r in support])

    def predict_rows(self, Xq: np.ndarray, Xs: np.ndarray, rewards) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances, in reward units, of the feature
        rows Xq given support rows Xs and their observed rewards (the
        prior for an empty support; zero variance without a kernel)."""
        for X in (Xq, Xs):
            if X.shape[1] != self.arch.input_dim:
                raise T.ShapeError(
                    f"feature rows have {X.shape[1]} columns, architecture needs {self.arch.input_dim}"
                )
        Fq = self.extract_batch(Xq)
        mq = self.mean_t(T.Tensor(Fq)).data[:, 0]
        if not self.has_kernel:
            means = mq * self.reward_std + self.reward_mean
            return means, np.zeros_like(means)
        rewards = np.asarray(rewards, dtype=np.float64)
        Fs = self.extract_batch(Xs)
        ms = self.mean_t(T.Tensor(Fs)).data[:, 0]
        resid = (rewards - self.reward_mean) / self.reward_std - ms
        Zs = self.kernel_t(T.Tensor(Fs)).data
        Zq = self.kernel_t(T.Tensor(Fq)).data
        g_mean, g_var = gp.posterior_batch(Zs, resid, Zq, self.kp)
        means = (mq + g_mean) * self.reward_std + self.reward_mean
        variances = g_var * self.reward_std**2
        return means, variances

    def copy_weight_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.weights.items()}

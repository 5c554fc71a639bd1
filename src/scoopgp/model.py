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

import json
import math
import sys
import types
import typing
import zipfile
from dataclasses import dataclass, fields, is_dataclass
from functools import cache

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
_FLOAT_MAX = sys.float_info.max


def record_dict(record) -> dict:
    """A dataclass record's fields in declaration order, each nested record,
    and each record of a list of them, as its own dict: the JSON object
    every artifact writes for it; arrays go to .npy and .npz files. Unlike
    dataclasses.asdict it copies no other value, a cost the dataset and
    trace writers would pay once per record."""
    return {k: _json_value(v) for k, v in vars(record).items()}


def _json_value(v):
    if hasattr(v, "__dataclass_fields__"):
        return record_dict(v)
    if type(v) is list and v and hasattr(v[0], "__dataclass_fields__"):
        return [record_dict(x) for x in v]
    return v


def read_record(cls, text: str, where, schema: int | None = None, error=ValueError):
    """The reader of every JSON input: read_fields of cls and the parsed text, whose
    schema_version must be schema if one is given. Raises error, a ValueError class, naming where."""
    try:
        d = json.loads(text)
        version = d.get("schema_version") if type(d) is dict else None
        if schema is not None and version != schema:
            raise ValueError(f"schema_version {version!r} not supported (expected {schema})")
        return read_fields(cls, d)
    except json.JSONDecodeError as err:
        raise error(f"{where}: not JSON: {err}") from err
    except ValueError as err:
        raise error(f"{where}: {err}") from err


def read_arrays(path, where, error=ValueError) -> dict[str, np.ndarray]:
    """The reader of every .npz input: each array of the archive at path by
    name, read without unpickling. Raises error, a ValueError class, naming
    where, for a file that is not such an archive or holds anything else."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
        raise error(f"{where}: cannot read the arrays: {err}") from err
    for name, a in arrays.items():
        if type(a) is not np.ndarray:
            raise error(f"{where}: {name} is not an array")
    return arrays


def read_fields(cls, d):
    """The record of dataclass cls whose fields d holds, as record_dict
    wrote them, before or after a JSON round trip. Refuses, with
    ValueError naming the field, an object whose keys are not exactly
    cls's fields and a value whose JSON type is not its field's: a float
    takes a finite number, never a boolean; an int, str, bool or bare dict
    exactly that type; a dict[K, V] an object of K keys and V values; a
    tuple or list an array of its item type; a record its object; None
    only where the annotation allows it. A number is kept as read: an int
    stays an int. The record's own checks (a __post_init__) raise
    ValueError too."""
    spec = _field_spec(cls)
    if type(d) is not dict or d.keys() != spec.keys():
        got = sorted(d) if type(d) is dict else type(d).__name__
        raise ValueError(f"{cls.__name__} needs an object with the keys {list(spec)}, got {got}")
    return cls(**{name: _read(hint, d[name], where) for name, (hint, where) in spec.items()})


@cache
def _field_spec(cls) -> dict:
    """{field name: (its annotation, its name in messages)}, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f"{cls.__name__}.{f.name}") for f in fields(cls)}


def _read(hint, v, where: str):
    """v as a value of the annotation hint, by read_fields' rules."""
    if hint is float:
        if type(v) in JSON_NUMBERS and -_FLOAT_MAX <= v <= _FLOAT_MAX:
            return v
    elif type(v) is hint:
        return v
    elif is_dataclass(hint) and type(v) is dict:
        return read_fields(hint, v)
    elif not is_dataclass(hint):
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin in (types.UnionType, typing.Union):
            (inner,) = [a for a in args if a is not type(None)]
            return None if v is None else _read(inner, v, where)
        if origin is dict and type(v) is dict:
            return {_read(args[0], k, where): _read(args[1], x, where) for k, x in v.items()}
        if origin in (tuple, list) and type(v) in (list, tuple):
            items = args[:1] * len(v) if origin is list or args[-1] is Ellipsis else args
            if len(v) == len(items):
                return origin(_read(h, x, where) for h, x in zip(items, v))
    raise ValueError(f"{where}: {v!r:.60} is not {hint.__name__ if isinstance(hint, type) else hint}")


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


@dataclass(frozen=True)
class SharedPatchRows:
    """Feature rows that share patches, as a live step's variants share their geometry's: row k
    is patches[k // V] then tail[k], its normalized depth and stiffness flag; V = len(tail) // len(patches)."""

    patches: np.ndarray  # (G, patch_size)
    tail: np.ndarray  # (G * V, 2)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.tail), self.patches.shape[1] + self.tail.shape[1]


def check_patch_shape(arch: Architecture, shape: tuple[int, ...]) -> None:
    """ShapeError unless a patch shape is the architecture's (C, H, W)."""
    expected = (arch.channels, arch.patch_h, arch.patch_w)
    if shape != expected:
        raise T.ShapeError(f"patch shape {shape} does not match architecture {expected}")


def feature_matrix(arch: Architecture, pairs) -> np.ndarray:
    """(n, input_dim) model features of [(patch, act)] pairs whose patches
    have the architecture's (C, H, W) shape: each row is the flattened
    patch plus normalized depth and the stiffness flag."""
    pairs = list(pairs)
    for patch, _ in pairs:
        check_patch_shape(arch, patch.shape)
    X = action_rows([act for _, act in pairs], arch.patch_size)
    np.stack([patch for patch, _ in pairs], out=X[:, :-2].reshape(len(pairs), *pairs[0][0].shape))
    return X


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
        """ShapeError unless the weights are exactly the architecture's, by name and shape."""
        shapes = {
            f"{segment}.{i}.{kind}": shape
            for segment in ("extractor", "mean") + (("kernel",) if self.has_kernel else ())
            for i, (fan_in, fan_out) in enumerate(_segment_layers(self.arch, segment))
            for kind, shape in (("w", (fan_in, fan_out)), ("b", (1, fan_out)))
        }
        if self.weights.keys() != shapes.keys():
            raise T.ShapeError(f"weights lack {sorted(shapes.keys() - self.weights.keys())} "
                               f"and have unknown {sorted(self.weights.keys() - shapes.keys())}")
        for name, shape in shapes.items():
            if self.weights[name].shape != shape:
                raise T.ShapeError(f"{name} has shape {self.weights[name].shape}, expected {shape}")

    def segment_params(self, segment: str) -> list[T.Tensor]:
        return [t for layer in self._layers(segment) for t in layer]

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

    # numpy conveniences over the same forward code; embed_rows is the one row-scoring path
    def extract_batch(self, X: np.ndarray) -> np.ndarray:
        return self.extractor_t(T.Tensor(X)).data

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
        (mq, Zq), (ms, Zs) = self.embed_rows(Xq), self.embed_rows(Xs)
        post = None if Zq is None else gp.posterior_batch(Zs, self.residuals(ms, rewards), Zq, self.kp)
        return self.condition(mq, post)

    def embed_rows(self, X) -> tuple[np.ndarray, np.ndarray | None]:
        """(standardized mean-head outputs, kernel embeddings) of feature rows X; the embeddings are None
        without a kernel. SharedPatchRows meet the first extractor layer once per patch; a matrix, whose
        rows share none (replay, eval-kshot, training), takes extractor_t."""
        if X.shape[1] != self.arch.input_dim:
            raise T.ShapeError(f"feature rows have {X.shape[1]} columns, architecture needs {self.arch.input_dim}")
        if isinstance(X, SharedPatchRows):
            (w, b), *rest = self._layers("extractor")
            h = np.repeat(X.patches @ w.data[:-2], len(X.tail) // len(X.patches), axis=0)
            h += X.tail @ w.data[-2:] + b.data
            F = dense_chain(T.Tensor(np.maximum(h, 0.0, out=h)), rest, relu_last=True)
        else:
            F = T.Tensor(self.extract_batch(X))
        return self.mean_t(F).data[:, 0], self.kernel_t(F).data if self.has_kernel else None

    def residuals(self, ms, rewards):
        """The GP's targets: observed rewards, standardized, less the
        standardized mean-head outputs ms of their rows."""
        return (np.asarray(rewards, dtype=np.float64) - self.reward_mean) / self.reward_std - ms

    def condition(self, mq, post) -> tuple[np.ndarray, np.ndarray]:
        """Means and variances, in reward units, of query rows with mean-head
        outputs mq and post, the gp.Posterior of their embeddings given the
        support; zero variance without a kernel, where post is None."""
        if post is None:
            means = mq * self.reward_std + self.reward_mean
            return means, np.zeros_like(means)
        g_mean, g_var = post.predict()
        means = (mq + g_mean) * self.reward_std + self.reward_mean
        return means, g_var * self.reward_std**2

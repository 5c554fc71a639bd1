"""Task-to-task distances and the reference-task median split.

Samples are compared with a composite cost over per-channel patch
histograms, the numeric action vector, and the reward, each scaled by a
dataset-wide normalization constant. Task distance is the debiased
entropic-transport divergence under that cost; splits partition tasks
around the median of a reference task's distance row.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset
from .gp import sq_dists

# Sinkhorn stops after MAX_ITER iterations or once every row marginal is
# within TOL (max norm)
MAX_ITER = 500
TOL = 1e-6
DEFAULT_EPS_SCALE = 0.05
HISTOGRAM_BINS = 32
SPLIT_RULES = ("median", "count")  # median_split's rules


class SplitError(ValueError):
    """A requested task split cannot be constructed."""


class SinkhornWarning(UserWarning):
    """Sinkhorn iterations hit MAX_ITER before the marginal tolerance."""


@dataclass(frozen=True)
class SampleCostParams:
    """Normalization constants and histogram config for the sample cost.

    Computed once over the whole training database so distances are
    reproducible across runs.
    """

    c_image: float
    c_action: float
    c_reward: float
    channel_ranges: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_tasks(cls, tasks: list[TaskDataset]) -> "SampleCostParams":
        patches = [task.patches for task in tasks]
        lo = np.min([p.min(axis=(0, 2, 3)) for p in patches], axis=0)
        hi = np.max([p.max(axis=(0, 2, 3)) for p in patches], axis=0)
        ranges = tuple((float(a), float(b if b > a else a + 1e-9)) for a, b in zip(lo, hi))
        partial = cls(1.0, 1.0, 1.0, channel_ranges=ranges)
        c_img = c_act = c_rew = 0.0
        for task, task_patches in zip(tasks, patches):
            for h in histogram_matrix(task_patches, partial):
                c_img = max(c_img, float(np.linalg.norm(h)))
            for rec in task.records:
                c_act = max(c_act, float(np.linalg.norm(rec.action.vector())))
                c_rew = max(c_rew, abs(float(rec.reward)))
        return cls(
            c_image=max(c_img, 1e-12),
            c_action=max(c_act, 1e-12),
            c_reward=max(c_rew, 1e-12),
            channel_ranges=ranges,
        )


def histogram_matrix(patches: np.ndarray, params: SampleCostParams) -> np.ndarray:
    """Histogram features of n patches (n, C, H, W), one row per patch.

    Each row holds per-channel density histograms over the stored
    channel ranges, concatenated; each channel's block sums to 1. Values
    are clipped into the range, then binned by np.histogram's rule in one
    pass per channel: x falls in bin i when edges[i] <= x < edges[i + 1],
    the last bin is closed, and NaN is not counted.
    """
    n, n_channels = patches.shape[:2]
    if len(params.channel_ranges) != n_channels:
        raise ValueError(
            f"params carry {len(params.channel_ranges)} channel ranges, patch has {n_channels}"
        )
    bins = HISTOGRAM_BINS
    values = patches.reshape(n, n_channels, -1)
    row_offsets = np.arange(n)[:, None] * bins
    out = np.empty((n, n_channels * bins))
    for c, (lo, hi) in enumerate(params.channel_ranges):
        edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
        clipped = np.clip(values[:, c], lo, hi)
        idx = np.searchsorted(edges, clipped, side="right") - 1
        np.minimum(idx, bins - 1, out=idx)
        idx += row_offsets
        counts = np.bincount(idx[~np.isnan(clipped)], minlength=n * bins)
        out[:, c * bins : (c + 1) * bins] = counts.reshape(n, bins) / values.shape[2]
    return out


def histogram_feature(patch: np.ndarray, params: SampleCostParams) -> np.ndarray:
    """Histogram features of one (C, H, W) patch (see histogram_matrix)."""
    return histogram_matrix(patch[None], params)[0]


def sample_cost(s1, s2, params: SampleCostParams) -> float:
    """Composite distance between two (patch, action, reward) samples."""
    o1, a1, r1 = s1
    o2, a2, r2 = s2
    d_img = float(
        np.linalg.norm(histogram_feature(o1, params) - histogram_feature(o2, params))
    )
    d_act = float(np.linalg.norm(a1.vector() - a2.vector()))
    d_rew = abs(float(r1) - float(r2))
    return float(
        np.sqrt(
            (d_img / params.c_image) ** 2
            + (d_act / params.c_action) ** 2
            + (d_rew / params.c_reward) ** 2
        )
    )


def _task_arrays(task: TaskDataset, params: SampleCostParams):
    H = histogram_matrix(task.patches, params)
    A = np.stack([r.action.vector() for r in task.records])
    r = task.rewards
    return H, A, r


def cost_matrix_arrays(arrays_a, arrays_b, params: SampleCostParams) -> np.ndarray:
    Ha, Aa, ra = arrays_a
    Hb, Ab, rb = arrays_b
    d_img = np.sqrt(sq_dists(Ha, Hb)) / params.c_image
    d_act = np.sqrt(sq_dists(Aa, Ab)) / params.c_action
    d_rew = np.abs(ra[:, None] - rb[None, :]) / params.c_reward
    return np.sqrt(d_img**2 + d_act**2 + d_rew**2)


def cost_matrix(A: TaskDataset, B: TaskDataset, params: SampleCostParams) -> np.ndarray:
    return cost_matrix_arrays(_task_arrays(A, params), _task_arrays(B, params), params)


def _logsumexp_inplace(M: np.ndarray, axis: int) -> np.ndarray:
    """logsumexp of M along axis, by max-shift; overwrites M."""
    m = M.max(axis=axis, keepdims=True)
    M -= m
    np.exp(M, out=M)
    return np.squeeze(m + np.log(M.sum(axis=axis, keepdims=True)), axis=axis)


def entropic_transport_cost(C: np.ndarray, eps: float) -> tuple[float, bool]:
    """<P, C> under the entropic-optimal plan, by log-domain Sinkhorn.

    Uniform marginals. Returns (cost, converged); iteration stops when
    the row-marginal violation drops below TOL in the max norm, or after
    MAX_ITER iterations. The matrix is canonicalized in orientation
    first, so transposed inputs produce bit-identical values (the OT
    value is transpose-invariant).

    Each iteration first tests the row that was worst at the last full
    check, with the full check's arithmetic: while that row is off by
    TOL the maximum is too, so the plan is formed in full only when it
    is within TOL, and the full check then decides.
    """
    C = np.ascontiguousarray(C, dtype=np.float64)
    Ct = np.ascontiguousarray(C.T)
    if C.shape[0] > C.shape[1] or (
        C.shape[0] == C.shape[1] and C.tobytes() > Ct.tobytes()
    ):
        C = Ct
    n, m = C.shape
    eps = max(float(eps), 1e-12)
    log_mu = np.full(n, -np.log(n))
    log_nu = np.full(m, -np.log(m))
    mu = np.exp(log_mu)
    f = np.zeros(n)
    g = np.zeros(m)
    buf = np.empty((n, m))

    def plan() -> np.ndarray:
        np.add(f[:, None], g, out=buf)
        np.subtract(buf, C, out=buf)
        np.divide(buf, eps, out=buf)
        np.add(buf, log_mu[:, None], out=buf)
        np.add(buf, log_nu, out=buf)
        return np.exp(buf, out=buf)

    worst = 0
    converged = False
    for _ in range(MAX_ITER):
        np.subtract(g, C, out=buf)
        buf /= eps
        buf += log_nu
        f = -eps * _logsumexp_inplace(buf, axis=1)
        np.subtract(f[:, None], C, out=buf)
        buf /= eps
        buf += log_mu[:, None]
        g = -eps * _logsumexp_inplace(buf, axis=0)
        row = np.exp((f[worst] + g - C[worst]) / eps + log_mu[worst] + log_nu)
        if abs(row.sum() - mu[worst]) < TOL:
            violation = np.abs(plan().sum(axis=1) - mu)
            worst = int(np.argmax(violation))
            if violation[worst] < TOL:
                converged = True
                break
    P = buf if converged else plan()
    P *= C
    return float(np.sum(P)), converged


def pair_epsilon(C_ab: np.ndarray) -> float:
    """Regularization: DEFAULT_EPS_SCALE times the median of the cross
    costs C_ab, one pair's matrix or every pair's entries."""
    return max(DEFAULT_EPS_SCALE * float(np.median(C_ab)), 1e-12)


def _debiased_divergences(
    tasks: list[TaskDataset], params: SampleCostParams, eps: float | None
) -> tuple[np.ndarray, float]:
    """OT(a,b) - (OT(a,a) + OT(b,b)) / 2 for every pair of tasks, all at
    one eps, and that eps; None takes pair_epsilon of every entry of the
    cross-cost matrices (pairs a < b). Each self-term and each pair a < b
    is solved once, M(M-1)/2 + M solves for M tasks. A pair whose
    solves did not all converge raises SinkhornWarning naming it."""
    arrays = [_task_arrays(t, params) for t in tasks]
    pairs = list(itertools.combinations(range(len(tasks)), 2))
    cross = [cost_matrix_arrays(arrays[a], arrays[b], params) for a, b in pairs]
    if eps is None:
        eps = pair_epsilon(np.concatenate([C.ravel() for C in cross]))
    self_terms = [
        entropic_transport_cost(cost_matrix_arrays(x, x, params), eps)
        for x in arrays
    ]
    D = np.zeros((len(tasks), len(tasks)))
    for (a, b), C_ab in zip(pairs, cross):
        v_ab, converged = entropic_transport_cost(C_ab, eps)
        (v_aa, ok_aa), (v_bb, ok_bb) = self_terms[a], self_terms[b]
        D[a, b] = D[b, a] = v_ab - 0.5 * v_aa - 0.5 * v_bb
        if not (converged and ok_aa and ok_bb):
            warnings.warn(
                f"sinkhorn did not reach tol={TOL} within {MAX_ITER} iterations "
                f"for pair ({tasks[a].task_id}, {tasks[b].task_id}); value is partial",
                SinkhornWarning,
            )
    return D, eps


def sinkhorn_divergence(A: TaskDataset, B: TaskDataset, params: SampleCostParams, eps: float) -> float:
    """Debiased divergence OT(A,B) - (OT(A,A) + OT(B,B)) / 2 at one eps."""
    return float(_debiased_divergences([A, B], params, eps)[0][0, 1])


def task_distance_matrix(tasks: list[TaskDataset], params: SampleCostParams) -> tuple[np.ndarray, float]:
    """The symmetric matrix of debiased divergences between tasks
    (diagonal zero) and its eps.

    One eps serves every solve, DEFAULT_EPS_SCALE times the median of
    all the cross costs, as in the Sinkhorn divergence of Feydy et al.
    (2019), so each task's self-term is solved once."""
    return _debiased_divergences(tasks, params, None)


@dataclass
class SplitPlan:
    """One fold's partition of task indices into mean and kernel sides."""

    fold_index: int
    ref_task: int
    mean_task_ids: list[int]
    kernel_task_ids: list[int]
    split_method: str
    degenerate: bool = False
    material_overlap: int = 0

    def validate(self, n_tasks: int) -> None:
        mean_set = set(self.mean_task_ids)
        kernel_set = set(self.kernel_task_ids)
        if not mean_set or not kernel_set:
            raise SplitError(f"fold {self.fold_index}: empty split side")
        if mean_set & kernel_set:
            raise SplitError(f"fold {self.fold_index}: overlapping splits")
        if mean_set | kernel_set != set(range(n_tasks)):
            raise SplitError(f"fold {self.fold_index}: splits do not cover all tasks")


def half_split(order) -> tuple[list[int], list[int]]:
    """The first ceil(M/2) task indices of an ordering and the rest, each
    sorted: the mean and kernel sides of a count split."""
    half = (len(order) + 1) // 2
    return sorted(int(i) for i in order[:half]), sorted(int(i) for i in order[half:])


def median_split(
    tasks: list[TaskDataset],
    ref_index: int,
    D: np.ndarray,
    rule: str = "median",
    fold_index: int = 0,
) -> SplitPlan:
    """Tasks at or below the median distance to the reference go to the
    mean side (including the reference itself); the rest feed the kernel.

    rule='count' instead assigns the ceil(M/2) closest tasks to the mean
    side, ties by index, and so does rule='median' when every task sits
    at or below the median (then the plan is marked degenerate, as it is
    when all distances are equal).
    """
    M = len(tasks)
    if M < 2:
        raise SplitError("median_split needs at least 2 tasks")
    if rule not in SPLIT_RULES:
        raise ValueError(f"unknown split rule {rule!r}")
    d = np.asarray(D)[ref_index]
    degenerate = bool(np.all(d == d[0]))
    if rule == "median" and not degenerate:
        med = float(np.median(d))
        mean_ids = [i for i in range(M) if d[i] <= med]
        kernel_ids = [i for i in range(M) if d[i] > med]
        degenerate = not kernel_ids
    if rule == "count" or degenerate:
        # a stable argsort of all-equal distances is the index order
        mean_ids, kernel_ids = half_split(np.argsort(d, kind="stable"))
    plan = SplitPlan(
        fold_index=fold_index,
        ref_task=ref_index,
        mean_task_ids=mean_ids,
        kernel_task_ids=kernel_ids,
        split_method="ot",
        degenerate=degenerate,
    )
    plan.validate(M)
    return plan
